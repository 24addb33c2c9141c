"""The memory hierarchy: L1I + L1D over a shared L2 over DRAM.

Latency model (paper Table 3, round-trip latencies):

* L1 hit: 4 cycles.
* L1 miss, L2 hit: 40 cycles.
* L2 miss: 40 + 100 (50 ns DRAM at 2 GHz) = 140 cycles.

Off-chip misses occupy MSHRs; when all MSHRs are busy a new miss queues
behind the earliest completion.  The hierarchy records the completion time
of every outstanding off-chip miss so the statistics module can compute the
paper's MLP metric (average outstanding off-chip misses over cycles with at
least one outstanding — Chou et al., as cited in §6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import MemConfig
from repro.memory.cache import Cache
from repro.memory.prefetcher import make_prefetcher
from repro.memory.tlb import TLB


@dataclass
class AccessResult:
    """Outcome of one timed access."""

    latency: int  # total cycles until data is available
    l1_hit: bool
    l2_hit: bool  # meaningful only when not l1_hit
    offchip: bool  # went to DRAM

    @property
    def level(self) -> str:
        if self.l1_hit:
            return "l1"
        if self.l2_hit:
            return "l2"
        return "dram"


class MemoryHierarchy:
    """Shared cache hierarchy for one core.

    The instruction and data paths have private L1s and share the L2.  All
    fills — including wrong-path ones — persist across squash; that
    asymmetry between architectural and micro-architectural state is the
    substrate of every attack in the paper.
    """

    def __init__(self, config: MemConfig, replacement: Optional[str] = None,
                 l2: Optional[Cache] = None):
        config.validate()
        replacement = replacement or config.replacement
        self.config = config
        self.l1i = Cache(config.l1i, "l1i", replacement)
        self.l1d = Cache(config.l1d, "l1d", replacement)
        # An externally supplied L2 makes this hierarchy one slice of a
        # multi-core machine (repro.smt "l2" sharing): the L1s stay
        # private while every hierarchy fills/probes the same L2 object.
        self.l2 = l2 if l2 is not None else Cache(config.l2, "l2", replacement)
        self.dtlb = TLB()
        self.prefetcher = make_prefetcher(
            config.prefetcher, config.l1d.line_bytes, config.prefetch_degree
        )
        self.prefetch_fills = 0
        # Completion cycles of in-flight off-chip misses (MLP + MSHR model).
        self._offchip: List[int] = []
        self.offchip_misses = 0
        # Optional EventBus (repro.obs.bus), told of demand-miss fills
        # as data_fill/inst_fill; never of prefetches or invisible
        # probes.
        self.obs = None

    # ------------------------------------------------------------------ #
    # MSHR bookkeeping.
    # ------------------------------------------------------------------ #

    def _reap(self, now: int) -> None:
        if self._offchip:
            self._offchip = [c for c in self._offchip if c > now]

    def _start_offchip(self, now: int, base_latency: int) -> int:
        """Allocate an MSHR; returns the total latency including queueing."""
        self._reap(now)
        queue_delay = 0
        if len(self._offchip) >= self.config.mshrs:
            earliest = min(self._offchip)
            queue_delay = max(0, earliest - now)
        done = now + queue_delay + base_latency
        self._offchip.append(done)
        self.offchip_misses += 1
        return queue_delay + base_latency

    def outstanding_offchip(self, now: int) -> int:
        """Number of off-chip misses in flight at cycle *now*."""
        count = 0
        for c in self._offchip:
            if c > now:
                count += 1
        return count

    def offchip_profile(self, start: int, end: int) -> Tuple[int, int]:
        """Aggregate MLP accounting for the half-open cycle span
        ``[start, end)``.

        Returns ``(mlp_sum, mlp_cycles)`` — exactly what accumulating
        ``outstanding_offchip(t)`` for every cycle ``t`` in the span would
        produce, computed in one pass over the in-flight misses.  Only
        legal when no new miss starts inside the span, which the core's
        idle-cycle fast-forward guarantees (a quiescent machine issues no
        memory accesses).
        """
        total = 0
        latest = start
        for c in self._offchip:
            overlap = (c if c < end else end) - start
            if overlap > 0:
                total += overlap
                if c > latest:
                    latest = c
        if not total:
            return 0, 0
        return total, (latest if latest < end else end) - start

    # ------------------------------------------------------------------ #
    # Data path.
    # ------------------------------------------------------------------ #

    def data_access(
        self, addr: int, now: int, fill: bool = True, translate: bool = True,
        pc: int = -1,
    ) -> AccessResult:
        """Timed data-side access to *addr* at cycle *now*.

        With ``fill=False`` the caches are probed but never modified on a
        miss (InvisiSpec's invisible speculative load); hits still update
        replacement state only when filling is allowed, so an invisible
        access leaves zero footprint.  *pc* trains the prefetcher (for
        every access, wrong-path ones included — the squash does not
        revert prefetcher state).
        """
        if pc >= 0 and fill:
            for target in self.prefetcher.observe(pc, addr):
                if not self.l1d.probe(target):
                    self.l1d.fill(target)
                    self.l2.fill(target)
                    self.prefetch_fills += 1
        latency = self.dtlb.access(addr) if translate else 0
        if fill:
            l1_hit = self.l1d.access(addr, fill=True)
            if not l1_hit:
                obs = self.obs
                if obs is not None and obs.data_fill is not None:
                    obs.data_fill(addr, now)
        else:
            l1_hit = self.l1d.probe(addr)
            # count it for stats without disturbing state
            if l1_hit:
                self.l1d.stats.hits += 1
            else:
                self.l1d.stats.misses += 1
        if l1_hit:
            return AccessResult(latency + self.config.l1d.round_trip_cycles,
                                True, False, False)
        latency += self.config.l2.round_trip_cycles
        if fill:
            l2_hit = self.l2.access(addr, fill=True)
        else:
            l2_hit = self.l2.probe(addr)
            if l2_hit:
                self.l2.stats.hits += 1
            else:
                self.l2.stats.misses += 1
        if l2_hit:
            return AccessResult(latency, False, True, False)
        dram = self._start_offchip(now, self.config.dram_cycles)
        return AccessResult(latency + dram, False, False, True)

    def expose_fill(self, addr: int, now: int) -> AccessResult:
        """Re-issue a previously invisible access, this time filling caches.

        Used by the InvisiSpec model at the visibility point: the line is
        fetched again and installed normally.
        """
        return self.data_access(addr, now, fill=True, translate=False)

    def flush_data_line(self, addr: int) -> None:
        """CLFLUSH semantics: evict from both data-side levels."""
        self.l1d.invalidate(addr)
        self.l2.invalidate(addr)

    # ------------------------------------------------------------------ #
    # Instruction path.
    # ------------------------------------------------------------------ #

    def inst_access(self, addr: int, now: int) -> AccessResult:
        """Timed instruction fetch of the line holding *addr*."""
        if self.l1i.access(addr, fill=True):
            return AccessResult(self.config.l1i.round_trip_cycles,
                                True, False, False)
        obs = self.obs
        if obs is not None and obs.inst_fill is not None:
            obs.inst_fill(addr, now)
        latency = self.config.l2.round_trip_cycles
        if self.l2.access(addr, fill=True):
            return AccessResult(latency, False, True, False)
        dram = self._start_offchip(now, self.config.dram_cycles)
        return AccessResult(latency + dram, False, False, True)

    # ------------------------------------------------------------------ #

    def warm_data(self, addresses) -> None:
        """Pre-install data lines (used by attack setup and tests)."""
        for addr in addresses:
            self.l1d.fill(addr)
            self.l2.fill(addr)

    def warm_inst(self, addresses) -> None:
        for addr in addresses:
            self.l1i.fill(addr)
            self.l2.fill(addr)
