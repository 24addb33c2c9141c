"""Load/store queue: forwarding, speculative store bypass, and violations.

This module is the substrate for Spectre v4 (speculative store bypass): a
load whose older store has not yet computed its address *bypasses* the store
and reads stale memory.  The LSQ records which unresolved stores each load
bypassed — NDA's Bypass Restriction keeps the load's output unsafe until all
of them resolve — and squashes the load when a store resolves to an
overlapping address (the memory dependency unit of §5.2).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Set

from repro.core.rob import DynInstr


class LoadAction(enum.Enum):
    """What a load should do this cycle."""

    MEMORY = "memory"  # read from the cache hierarchy (possibly bypassing)
    FORWARD = "forward"  # take the value from an older in-flight store
    WAIT = "wait"  # blocked behind a partially overlapping older store


class LoadDecision:
    """One load's data-source decision (a per-attempt hot-path object)."""

    __slots__ = ("action", "value", "forwarded_from", "bypassed_stores")

    def __init__(
        self,
        action: LoadAction,
        value: Optional[int] = None,  # FORWARD only
        forwarded_from: Optional[int] = None,  # seq of the forwarding store
        bypassed_stores: Optional[Set[int]] = None,
    ):
        self.action = action
        self.value = value
        self.forwarded_from = forwarded_from
        self.bypassed_stores = (
            bypassed_stores if bypassed_stores is not None else set()
        )


def _overlap(addr_a: int, size_a: int, addr_b: int, size_b: int) -> bool:
    return addr_a < addr_b + size_b and addr_b < addr_a + size_a


def _contains(outer_addr, outer_size, inner_addr, inner_size) -> bool:
    return (
        outer_addr <= inner_addr
        and inner_addr + inner_size <= outer_addr + outer_size
    )


class LSQ:
    """Split load/store queues holding in-flight memory micro-ops."""

    def __init__(self, lq_entries: int, sq_entries: int):
        self.lq_capacity = lq_entries
        self.sq_capacity = sq_entries
        self.loads: List[DynInstr] = []
        self.stores: List[DynInstr] = []
        self.forwards = 0
        self.bypasses = 0
        self.violations = 0
        # Optional EventBus (repro.obs.bus): pure observer, told of
        # every store-to-load forwarding.
        self.obs = None

    # ------------------------------------------------------------------ #
    # Occupancy.
    # ------------------------------------------------------------------ #

    def can_dispatch(self, entry: DynInstr) -> bool:
        if entry.is_load:
            return len(self.loads) < self.lq_capacity
        if entry.is_store:
            return len(self.stores) < self.sq_capacity
        return True

    def dispatch(self, entry: DynInstr) -> None:
        if entry.is_load:
            self.loads.append(entry)
        elif entry.is_store:
            self.stores.append(entry)

    def remove_squashed(self) -> None:
        self.loads = [e for e in self.loads if not e.squashed]
        self.stores = [e for e in self.stores if not e.squashed]

    def retire(self, entry: DynInstr) -> None:
        """Drop a committing memory op from its queue."""
        if entry.is_load:
            self.loads.remove(entry)
        elif entry.is_store:
            self.stores.remove(entry)

    # ------------------------------------------------------------------ #
    # Load execution.
    # ------------------------------------------------------------------ #

    def decide_load(self, load: DynInstr) -> LoadDecision:
        """Resolve where the load's data comes from this cycle.

        Scans older in-flight stores (youngest first).  The youngest
        overlapping resolved store wins; a fully containing one forwards,
        a partial overlap blocks.  Unresolved (address-unknown) older
        stores are *bypassed* — their seq numbers are reported so the
        caller can apply NDA's Bypass Restriction and later violation
        checks.
        """
        assert load.addr is not None
        bypassed: Set[int] = set()
        # self.stores is seq-ascending by construction (dispatch appends
        # in program order; retire/remove_squashed preserve order), so
        # youngest-first is a plain reversal — no per-call sort.
        for store in reversed(self.stores):
            if store.seq > load.seq:
                continue
            if store.addr is None:
                bypassed.add(store.seq)
                continue
            if not _overlap(store.addr, store.mem_size,
                            load.addr, load.mem_size):
                continue
            # Youngest overlapping resolved store older than the load.
            if _contains(store.addr, store.mem_size,
                         load.addr, load.mem_size):
                if store.store_data is None:
                    return LoadDecision(LoadAction.WAIT)
                value = _extract(store, load)
                self.forwards += 1
                obs = self.obs
                if obs is not None and obs.store_forward is not None:
                    obs.store_forward(load, store)
                return LoadDecision(
                    LoadAction.FORWARD,
                    value=value,
                    forwarded_from=store.seq,
                    bypassed_stores=bypassed,
                )
            return LoadDecision(LoadAction.WAIT)
        if bypassed:
            self.bypasses += 1
        return LoadDecision(LoadAction.MEMORY, bypassed_stores=bypassed)

    # ------------------------------------------------------------------ #
    # Store resolution.
    # ------------------------------------------------------------------ #

    def check_violation(self, store: DynInstr) -> Optional[DynInstr]:
        """A store just resolved its address: find an ordering violation.

        Returns the *eldest* younger load that already obtained its value
        without seeing this store (it bypassed the store, or forwarded from
        an even older store).  The core squashes from that load.
        """
        assert store.addr is not None
        victim: Optional[DynInstr] = None
        for load in self.loads:
            if load.seq < store.seq or load.addr is None:
                continue
            if not load.data_obtained:
                continue  # never selected a data source: nothing stale yet
            if load.forwarded_from is not None and \
                    load.forwarded_from > store.seq:
                continue  # got data from a younger store: still correct
            if not _overlap(store.addr, store.mem_size,
                            load.addr, load.mem_size):
                continue
            if victim is None or load.seq < victim.seq:
                victim = load
        if victim is not None:
            self.violations += 1
        return victim

    def unresolved_store_seqs(self) -> Set[int]:
        """Seqs of stores whose address is still unknown (for NDA safety)."""
        return {s.seq for s in self.stores if s.addr is None}


def _extract(store: DynInstr, load: DynInstr) -> int:
    """Slice the load's bytes out of a containing store's data."""
    assert store.store_data is not None
    shift = 8 * (load.addr - store.addr)
    data = store.store_data >> shift
    if load.mem_size == 1:
        return data & 0xFF
    mask = (1 << (8 * load.mem_size)) - 1
    return data & mask
