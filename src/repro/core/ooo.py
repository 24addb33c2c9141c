"""The out-of-order core.

A cycle-level model of the paper's baseline machine (Table 3): 8-issue,
192-entry ROB, physical-register renaming, an issue queue woken by tag
broadcast, split load/store queues with store-to-load forwarding and
speculative store bypass, branch prediction with squash-at-resolution, and
a non-blocking cache hierarchy.

The pipeline itself is scheme-agnostic: every protection scheme (the
insecure baseline, the six NDA policies, the InvisiSpec variants, the
fence-style mitigations, and anything registered through
:mod:`repro.schemes`) plugs in as a single
:class:`~repro.schemes.ProtectionModel` object held in
``self.protection``, consulted at the pipeline's decision points
(broadcast gating, issue gating, load visibility, and the
dispatch/resolve/squash/commit events).

Stage order within a cycle (reverse pipeline order, standard for
cycle-level models): writeback -> deferred broadcast -> load visibility
-> load memory phase -> issue -> dispatch -> fetch -> commit.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from operator import attrgetter
from typing import Deque, List, Optional, Tuple

from repro.config import SimConfig
from repro.core.fu import FUPool
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LSQ, LoadAction
from repro.core.memdep import make_memdep
from repro.core.outcome import RunOutcome
from repro.core.rename import PhysRegFile, RenameTable
from repro.core.rob import ROB, DynInstr
from repro.errors import DeadlockError, SimulationError
from repro.frontend.btb import BTB
from repro.frontend.direction import make_direction_predictor
from repro.frontend.fetch import FetchedOp, FetchUnit
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, R0
from repro.isa.semantics import MachineState, branch_taken, eval_alu
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.memory import MainMemory, U64_MASK
from repro.frontend.ras import RAS
from repro.schemes.base import ProtectionModel
from repro.schemes.registry import make_protection
from repro.stats.counters import CycleClass, PipelineStats

_BY_SEQ = attrgetter("seq")


class OutOfOrderCore:
    """One simulated OoO core running one program."""

    def __init__(
        self,
        program: Program,
        config: Optional[SimConfig] = None,
        direction_predictor: str = "tournament",
        fast_forward: bool = True,
        *,
        ctx: int = 0,
        shared: Optional["SharedState"] = None,
    ):
        self.config = (config or SimConfig()).validate()
        core = self.config.core
        self.program = program
        #: Hardware-context id (repro.smt).  0 for single-context runs;
        #: observers read it to tag events with the owning context.
        self.ctx = ctx

        if shared is not None and shared.mem is not None:
            self.mem = shared.mem
        else:
            self.mem = MainMemory()
        self.mem.load_image(program.data)
        self.msrs = dict(program.msrs)
        if shared is not None and shared.hierarchy is not None:
            self.hierarchy = shared.hierarchy
        else:
            self.hierarchy = MemoryHierarchy(self.config.mem)

        if shared is not None and shared.btb is not None:
            self.btb = shared.btb
        else:
            self.btb = BTB(core.btb_entries, core.btb_assoc)
        if shared is not None and shared.ras is not None:
            self.ras = shared.ras
        else:
            self.ras = RAS(core.ras_entries)
        if shared is not None and shared.direction is not None:
            self.direction = shared.direction
        else:
            self.direction = make_direction_predictor(
                direction_predictor, core.bp_tables_bits
            )
        self.fetch_unit = FetchUnit(
            program, self.hierarchy, self.direction, self.btb, self.ras,
            core.fetch_width,
        )

        self.prf = PhysRegFile(core.phys_regs)
        self.rat = RenameTable(self.prf)
        for reg, value in program.initial_regs.items():
            if reg != R0:
                self.prf.value[reg] = value & U64_MASK
        self.rob = ROB(core.rob_entries)
        self.iq = IssueQueue(core.iq_entries, self.prf)
        self.lsq = LSQ(core.lq_entries, core.sq_entries)
        self.fus = FUPool(core)
        self.memdep = make_memdep(core.memdep)

        self.cycle = 0
        self.halted = False
        self.committed = 0
        self.stats = PipelineStats()
        # Event-driven idle-cycle fast-forward (bit-identical; see
        # DESIGN.md "The event-driven clock").  Not a SimConfig field on
        # purpose: results are unchanged, so it must not churn cache keys.
        self.fast_forward = fast_forward
        self.ff_skipped_cycles = 0

        # The one protection-scheme object; every scheme-sensitive
        # decision in the pipeline below delegates to it.
        self.protection = make_protection(self)
        # Does the scheme refine the ready-pool fast-forward veto?  When
        # it does (FenceOnBranch), the run/advance gates must probe even
        # with a non-empty ready pool — the scheme may prove every ready
        # entry fenced, unlocking the skip.
        self._ready_horizon_overridden = (
            type(self.protection).issue_ready_horizon
            is not ProtectionModel.issue_ready_horizon
        )

        self._next_seq = 0
        self._fetch_buffer: Deque[FetchedOp] = deque()
        self._completions: List[Tuple[int, int, DynInstr]] = []
        # Min-heap of (ready_cycle, seq, entry) — seq breaks cycle ties so
        # entries never compare (and pops are deterministic).
        self._pending_mem: List[Tuple[int, int, DynInstr]] = []
        self._fence_seq: Optional[int] = None
        self._ports_used = 0
        self._issued_this_cycle = 0
        self._squashed_this_cycle = False
        self._last_commit_cycle = 0
        # Optional EventBus (see repro.obs.bus); carries the taint
        # oracle, the pipeline tracer, metrics samplers, and any other
        # subscriber.  Every emit site is guarded by an is-None test, so
        # the hot path and the idle-cycle fast-forward are unaffected
        # when no bus is attached.
        self.obs = None

    # ================================================================== #
    # Public driving interface.
    # ================================================================== #

    def run(
        self,
        max_cycles: int = 5_000_000,
        deadlock_cycles: int = 100_000,
    ) -> RunOutcome:
        """Simulate until HALT (or the program runs out), then report."""
        wall_start = time.perf_counter()
        fast = self.fast_forward
        iq = self.iq
        # Schemes that refine the ready-pool veto (FenceOnBranch) must be
        # probed even while entries sit ready; see issue_ready_horizon.
        probe_ready = self._ready_horizon_overridden
        while not self.halted and self.cycle < max_cycles:
            # Inline gate: a non-empty ready pool means the machine is
            # busy this cycle, so skip the full quiescence probe — it
            # would veto anyway, and on issue-bound phases its cost per
            # cycle is the whole fast-forward overhead.  (_ready is read
            # fresh each iteration: select()/remove_squashed rebind it.)
            if fast and (probe_ready or not iq._ready):
                # Never skip past the cycle at which the deadlock check
                # would fire, so a dead machine raises at the exact same
                # cycle (with identical accounting) as the stepped loop.
                limit = self._last_commit_cycle + deadlock_cycles + 1
                if max_cycles < limit:
                    limit = max_cycles
                if self.cycle < limit:
                    target = self._next_interesting_cycle(limit)
                    if target > self.cycle:
                        self._skip_to(target)
                        if self.cycle >= max_cycles:
                            break
                        if self.cycle - self._last_commit_cycle \
                                > deadlock_cycles:
                            raise self._deadlock_error(deadlock_cycles)
            self.step()
            if self.cycle - self._last_commit_cycle > deadlock_cycles:
                raise self._deadlock_error(deadlock_cycles)
        return self.finish_run(time.perf_counter() - wall_start)

    def finish_run(self, wall: float) -> RunOutcome:
        """Final accounting once a run is over (halted or out of budget)."""
        self.stats.cycles = self.cycle
        self.stats.committed = self.committed
        self.protection.finalize_stats(self.stats)
        self.stats.sim_wall_seconds = wall
        self.stats.kilo_cycles_per_sec = (
            self.cycle / wall / 1000.0 if wall > 0 else 0.0
        )
        return RunOutcome(
            state=self.arch_state(),
            stats=self.stats,
            label=self.config.label(),
        )

    def _deadlock_error(self, deadlock_cycles: int) -> DeadlockError:
        return DeadlockError(
            "no commit for %d cycles at cycle %d (head=%r)"
            % (deadlock_cycles, self.cycle, self.rob.head)
        )

    def advance(self, limit: int) -> None:
        """Step once, first jumping over a quiescent span (never past
        *limit*) when fast-forward is enabled.

        The driver for callers that own the simulation loop (e.g. SMARTS
        sampling windows): a jump commits nothing, so loops gated on
        ``self.committed`` see identical warmup/measure boundaries.
        """
        if (
            self.fast_forward
            and (self._ready_horizon_overridden or not self.iq._ready)
            and self.cycle < limit
        ):
            target = self._next_interesting_cycle(limit)
            if target > self.cycle:
                self._skip_to(target)
                if self.cycle >= limit:
                    return
        self.step()

    def run_to_commit(self, target: int, max_cycles: int) -> None:
        """Advance until *target* committed instructions, HALT, or budget.

        Exactly equivalent to ``while ...: self.advance(max_cycles)``
        with the boundary test after every call — the driver behind
        sampling windows (:func:`repro.stats.sampling.run_window`).
        Stopping at an intermediate commit count and resuming is
        transparent: the advance sequence is a pure function of machine
        state, so ``run_to_commit(a); run_to_commit(b)`` equals
        ``run_to_commit(b)`` for any ``a <= b``.
        """
        while (
            not self.halted
            and self.cycle < max_cycles
            and self.committed < target
        ):
            self.advance(max_cycles)

    # ================================================================== #
    # Idle-cycle fast-forward (the event-driven clock).
    # ================================================================== #

    def _next_interesting_cycle(self, limit: int) -> int:
        """Earliest cycle in ``(now, limit]`` at which anything can happen.

        Returns ``now`` itself when the machine is busy this cycle (no
        skip).  A return of ``t > now`` asserts that every cycle in
        ``[now, t)`` is quiescent: every ``step()`` across the span would
        only run the per-cycle accounting that ``_skip_to`` batch-applies.
        The checks mirror ``step()``'s phases; each phase either acts this
        cycle (return ``now``), acts at a known future cycle (bound the
        horizon), or is blocked on one of the other phases' events.
        """
        now = self.cycle
        horizon = limit

        # Issue: anything in the ready pool retries every cycle.  (Even a
        # vetoed-ready entry — FU busy, serializing op not at head — may
        # unblock mid-span without its unblocker being a *heap* event, so
        # be conservative and never skip while the pool is non-empty —
        # unless the scheme's issue_ready_horizon proves every ready
        # entry fenced until an already-tracked event.)
        if self.iq.has_ready:
            if not self._ready_horizon_overridden:
                return now
            event = self.protection.issue_ready_horizon(now)
            if event is not None:
                if event <= now:
                    return now
                if event < horizon:
                    horizon = event

        # Writeback: the completion heap is the primary event source.
        completions = self._completions
        if completions:
            due = completions[0][0]
            if due <= now:
                return now
            if due < horizon:
                horizon = due

        # Memory phase: pending loads retry at their scheduled cycle
        # (WAIT / port-blocked loads reschedule at now+1, so an actively
        # blocked load naturally vetoes skipping).
        pending = self._pending_mem
        if pending:
            due = pending[0][0]
            if due <= now:
                return now
            if due < horizon:
                horizon = due

        rob = self.rob
        head = rob.head
        if head is not None and head.completed:
            # Commit: a completed head either retires this cycle (busy),
            # waits for a known retire_ready (InvisiSpec validation), or
            # waits for its deferred broadcast (the protection's event).
            ready = head.retire_ready
            if ready > now:
                if ready < horizon:
                    horizon = ready
            elif (
                head.fault is not None
                or head.bcast
                or head.phys_dest is None
            ):
                return now

        # Dispatch: the buffer head either dispatches this cycle (busy),
        # is still in the front-end pipe (event at fetch_cycle + depth),
        # or is structurally blocked — and every unblocker (commit, issue,
        # broadcast) is covered by the other event sources above.
        buffer = self._fetch_buffer
        core = self.config.core
        if buffer:
            fetched = buffer[0]
            due = fetched.fetch_cycle + core.frontend_depth
            if due > now:
                if due < horizon:
                    horizon = due
            elif not self._dispatch_blocked(fetched):
                return now

        # Fetch: mirrors _fetch()'s guards exactly.
        if len(buffer) < 2 * core.fetch_width:
            fu = self.fetch_unit
            if not (fu.halt_seen or fu.waiting_for_resolve):
                ready = fu.icache_ready_cycle
                if now < ready:
                    if ready < horizon:
                        horizon = ready
                elif self.program.fetch(fu.fetch_pc) is not None:
                    return now
                # else: the program ran out past fetch_pc — only a
                # redirect (an event) restarts fetch.

        # The protection scheme's own clock (deferred broadcasts, ...).
        event = self.protection.next_event(now)
        if event is not None:
            if event <= now:
                return now
            if event < horizon:
                horizon = event

        return horizon

    def _dispatch_blocked(self, fetched: FetchedOp) -> bool:
        """Would ``_dispatch`` break before dispatching *fetched*?

        Mirrors the structural break conditions of ``_dispatch`` for the
        buffer head (its age gate is checked by the caller).  The rename
        branch needs no separate check: ``rename_dest`` fails exactly
        when the free list is empty, i.e. when ``free_count == 0``.
        """
        if self._fence_seq is not None:
            return True
        if self.rob.full or self.iq.full:
            return True
        instr = fetched.instr
        rd = instr.rd
        if rd is not None and rd != R0 and self.prf.free_count == 0:
            return True
        info = instr.info
        lsq = self.lsq
        if info.is_load and len(lsq.loads) >= lsq.lq_capacity:
            return True
        if info.is_store and len(lsq.stores) >= lsq.sq_capacity:
            return True
        return False

    def _skip_to(self, target: int) -> None:
        """Jump the clock to *target*, batch-applying the accounting the
        skipped (strictly quiescent) cycles would have produced."""
        now = self.cycle
        span = target - now
        stats = self.stats

        # Fetch-stall counters: _fetch() consults stalled() — which
        # increments them — only while the buffer has room.
        if len(self._fetch_buffer) < 2 * self.config.core.fetch_width:
            self.fetch_unit.account_stalls(now, span)

        # MLP: no new miss can start inside a quiescent span, so the
        # per-cycle outstanding counts collapse to one profile pass.
        mlp_sum, mlp_cycles = self.hierarchy.offchip_profile(now, target)
        if mlp_sum:
            stats.mlp_sum += mlp_sum
            stats.mlp_cycles += mlp_cycles

        # Cycle classification: no commits or squashes while skipping, so
        # every skipped cycle classifies identically (the ROB head and
        # its kind are frozen).  No ILP term either: nothing issues.
        if head := self.rob.head:
            if head.is_load or head.is_store:
                stats.cycle_class[CycleClass.MEMORY_STALL] += span
            else:
                stats.cycle_class[CycleClass.BACKEND_STALL] += span
        else:
            stats.cycle_class[CycleClass.FRONTEND_STALL] += span

        self.ff_skipped_cycles += span
        self.cycle = target

        # Metrics sampling: every sample that would have landed inside
        # the (strictly quiescent, hence frozen) span collapses to one
        # at the landing cycle.  Observers never veto the skip itself.
        obs = self.obs
        if obs is not None and obs.sample_due <= target:
            obs.sample(self, target)

    def step(self) -> None:
        """Advance the machine by one cycle."""
        now = self.cycle
        obs = self.obs
        if obs is not None and obs.sample_due <= now:
            obs.sample(self, now)
        self._ports_used = 0
        self._issued_this_cycle = 0
        self._squashed_this_cycle = False

        self._writeback(now)
        self._drain_broadcasts(now)
        self.protection.load_visibility_phase(now)
        self._mem_phase(now)
        self._issue(now)
        self._dispatch(now)
        self._fetch(now)
        committed_now = self._commit(now)
        self._account(now, committed_now)

        self.cycle = now + 1

    def arch_state(self) -> MachineState:
        """Committed architectural state (valid once the ROB is empty)."""
        regs = [
            self.prf.value[self.rat.lookup(reg)]
            for reg in range(NUM_ARCH_REGS)
        ]
        regs[R0] = 0
        return MachineState(
            regs=regs,
            memory=self.mem,
            halted=self.halted,
            pc=self.fetch_unit.fetch_pc,
            committed=self.committed,
            faults=self.stats.faults,
        )

    # ================================================================== #
    # Writeback: completions, branch resolution, violations, broadcast.
    # ================================================================== #

    def _writeback(self, now: int) -> None:
        completions = self._completions
        if not completions or completions[0][0] > now:
            return
        due: List[DynInstr] = []
        while completions and completions[0][0] <= now:
            _, _, entry = heapq.heappop(completions)
            if not entry.squashed:
                due.append(entry)
        if len(due) > 1:
            due.sort(key=_BY_SEQ)
        for entry in due:
            if entry.squashed:
                continue  # an older entry in this batch squashed it
            self._complete(entry, now)

    def _complete(self, entry: DynInstr, now: int) -> None:
        instr = entry.instr
        op = instr.op
        info = instr.info
        obs = self.obs
        if obs is not None:
            obs.exec_ctx = entry  # attributes BTB installs to *entry*

        if info.is_branch:
            self._resolve_branch(entry, now)
        elif entry.is_store:
            self._resolve_store(entry, now)
        elif op is Opcode.CLFLUSH:
            addr = (entry.src_vals[0] + instr.imm) & U64_MASK
            self.hierarchy.flush_data_line(addr)
        elif op is Opcode.RDTSC:
            entry.result = now
        elif op is Opcode.RDMSR:
            entry.result = self.msrs.get(instr.imm, 0)
            if not self.config.privileged_mode:
                entry.fault = "user rdmsr %d" % instr.imm
                if not self.config.forward_faulting_loads:
                    entry.result = 0
        elif entry.is_load:
            pass  # result was set by the memory phase
        elif op in (Opcode.NOP, Opcode.FENCE, Opcode.HALT):
            pass
        else:
            a = entry.src_vals[0] if entry.src_vals else 0
            b = entry.src_vals[1] if len(entry.src_vals) > 1 else 0
            entry.result = eval_alu(op, a, b, instr.imm)

        entry.completed = True
        entry.complete_cycle = now
        if entry.phys_dest is not None and entry.result is not None:
            self.prf.write(entry.phys_dest, entry.result)
        if obs is not None:
            obs.exec_ctx = None
            if obs.instr_complete is not None:
                obs.instr_complete(entry, now)
        self._try_broadcast(entry, now)

    def _try_broadcast(self, entry: DynInstr, now: int) -> None:
        """Broadcast at completion when safe and a port is free; else defer."""
        if entry.phys_dest is None:
            entry.bcast = True  # nothing to broadcast
            return
        head = self.rob.head
        head_seq = head.seq if head is not None else None
        if (
            self._ports_used < self.config.core.issue_width
            and self.protection.may_broadcast(entry, head_seq)
        ):
            # Safe at completion: the normal wake-up path, no NDA logic
            # latency involved (only *deferred* wake-ups pay the Fig 9e
            # delay).
            self._broadcast(entry, now)
            self._ports_used += 1
        else:
            self.protection.defer_broadcast(entry)
            obs = self.obs
            if obs is not None and obs.instr_defer is not None:
                obs.instr_defer(entry, now)

    def _broadcast(self, entry: DynInstr, now: int) -> None:
        self.prf.mark_ready(entry.phys_dest)
        self.iq.on_broadcast(entry.phys_dest)
        entry.bcast = True
        entry.bcast_cycle = now
        obs = self.obs
        if obs is not None and obs.instr_broadcast is not None:
            obs.instr_broadcast(entry, now)

    def _drain_broadcasts(self, now: int) -> None:
        head = self.rob.head
        self._ports_used += self.protection.drain_deferred(
            now,
            self._ports_used,
            head.seq if head is not None else None,
            self._broadcast,  # bound method: no per-cycle closure
        )

    # ------------------------------------------------------------------ #
    # Branch resolution.
    # ------------------------------------------------------------------ #

    def _resolve_branch(self, entry: DynInstr, now: int) -> None:
        instr = entry.instr
        op = instr.op
        pc = entry.pc
        vals = entry.src_vals

        if instr.info.is_conditional:
            taken = branch_taken(op, vals[0], vals[1])
            actual = instr.target if taken else pc + 1
            self.direction.update(pc, taken)
        elif op is Opcode.JMP:
            taken, actual = True, instr.target
        elif op is Opcode.CALL:
            taken, actual = True, instr.target
            entry.result = pc + 1
        elif op is Opcode.CALLR:
            taken, actual = True, vals[0] & U64_MASK
            entry.result = pc + 1
            self.btb.update(pc, actual)
        elif op is Opcode.JR:
            taken, actual = True, vals[0] & U64_MASK
            self.btb.update(pc, actual)
        elif op is Opcode.RET:
            taken, actual = True, vals[0] & U64_MASK
        else:
            raise SimulationError("unknown branch op %s" % op)

        entry.resolved = True
        entry.actual_taken = taken
        entry.actual_next_pc = actual
        self.protection.on_branch_resolved(entry)
        self.stats.branches_resolved += 1

        if entry.fetched.unpredicted:
            # Fetch stalled behind this branch: no wrong path exists.
            if instr.info.is_call:
                self.ras.push(pc + 1)
            self.fetch_unit.redirect(actual, now + 1)
            return
        if actual != entry.fetched.pred_next_pc:
            entry.mispredicted = True
            self.stats.branch_mispredicts += 1
            self._squash_after(
                entry.seq, actual, now + self.config.core.squash_penalty
            )
            self.fetch_unit.repair_ras(entry.fetched.ras_snapshot)

    # ------------------------------------------------------------------ #
    # Store resolution.
    # ------------------------------------------------------------------ #

    def _resolve_store(self, entry: DynInstr, now: int) -> None:
        instr = entry.instr
        entry.addr = (entry.src_vals[0] + instr.imm) & U64_MASK
        entry.store_data = entry.src_vals[1]
        if not self.config.privileged_mode and \
                self.program.is_privileged_addr(entry.addr):
            entry.fault = "user store to %#x" % entry.addr
        self.protection.on_store_resolved(entry)
        victim = self.lsq.check_violation(entry)
        if victim is not None:
            self.stats.memory_violations += 1
            self.memdep.record_violation(victim.pc)
            self._squash_after(
                victim.seq - 1,
                victim.pc,
                now + self.config.core.squash_penalty,
            )
            older_branch = self.rob.nearest_older_branch(victim.seq)
            if older_branch is not None:
                self.fetch_unit.repair_ras(older_branch.fetched.ras_snapshot)

    # ================================================================== #
    # Squash.
    # ================================================================== #

    def _squash_after(self, seq: int, target_pc: int, refetch_cycle: int):
        """Discard every instruction younger than *seq* and refetch."""
        removed = self.rob.squash_younger(seq)
        for entry in removed:  # youngest first: rollback works in order
            if entry.phys_dest is not None:
                self.rat.rollback(
                    entry.instr.rd, entry.phys_dest, entry.prev_phys
                )
            self.protection.on_squash(entry)
        self.iq.remove_squashed()
        self.lsq.remove_squashed()
        self.protection.after_squash()
        self._pending_mem = [
            item for item in self._pending_mem if not item[2].squashed
        ]
        heapq.heapify(self._pending_mem)
        self._fetch_buffer.clear()
        if self._fence_seq is not None and self._fence_seq > seq:
            self._fence_seq = None
        self.fetch_unit.redirect(target_pc, refetch_cycle)
        self.stats.squashes += 1
        self.stats.squashed_ops += len(removed)
        self._squashed_this_cycle = True
        obs = self.obs
        if obs is not None:
            now = self.cycle
            if obs.instr_squash is not None:
                for entry in removed:  # youngest first, as rolled back
                    obs.instr_squash(entry, now)
            if obs.squash_end is not None:
                obs.squash_end(seq, now)

    # ================================================================== #
    # Load memory phase.
    # ================================================================== #

    def _mem_phase(self, now: int) -> None:
        # One heap pop per due load — the pool is never rebuilt (squashed
        # entries are purged eagerly by _squash_after, and dropped here
        # if one squashed within the current cycle).
        pending = self._pending_mem
        if not pending or pending[0][0] > now:
            return
        obs = self.obs
        ready: List[DynInstr] = []
        while pending and pending[0][0] <= now:
            _, _, entry = heapq.heappop(pending)
            if not entry.squashed:
                ready.append(entry)
        if len(ready) > 1:
            ready.sort(key=_BY_SEQ)
        dcache_ports = self.config.mem.l1d.ports
        dcache_used = 0
        push = heapq.heappush
        for entry in ready:
            decision = self.lsq.decide_load(entry)
            if (
                decision.action is LoadAction.MEMORY
                and decision.bypassed_stores
                and self.memdep.should_wait(entry.pc)
            ):
                # The dependence predictor vetoes the speculative bypass.
                push(pending, (now + 1, entry.seq, entry))
                continue
            if decision.action is LoadAction.WAIT:
                push(pending, (now + 1, entry.seq, entry))
                continue
            if decision.action is LoadAction.FORWARD:
                entry.data_obtained = True
                entry.forwarded_from = decision.forwarded_from
                entry.bypassed_stores = decision.bypassed_stores or None
                value = decision.value
                if obs is not None and obs.load_data is not None:
                    obs.load_data(entry, False)
                self._finish_load(entry, value, now, latency=1)
                continue
            # MEMORY access: gated by the L1D port count.
            if dcache_used >= dcache_ports:
                push(pending, (now + 1, entry.seq, entry))
                continue
            dcache_used += 1
            entry.data_obtained = True
            entry.bypassed_stores = decision.bypassed_stores or None
            invisible = self.protection.load_executes_invisibly(entry)
            if obs is not None:
                obs.exec_ctx = entry  # attributes d-cache fills
            result = self.hierarchy.data_access(
                entry.addr, now, fill=not invisible, pc=entry.pc
            )
            if invisible:
                self.protection.on_invisible_load(entry, result, now)
            value = self._load_value(entry)
            if obs is not None:
                obs.exec_ctx = None
                if obs.load_data is not None:
                    obs.load_data(entry, True)
            self._finish_load(entry, value, now, latency=result.latency)

    def _load_value(self, entry: DynInstr) -> int:
        """Architectural data for a load reading memory (possibly faulting)."""
        addr = entry.addr
        if not self.config.privileged_mode and \
                self.program.is_privileged_addr(addr):
            entry.fault = "user load from %#x" % addr
            if not self.config.forward_faulting_loads:
                return 0
        if entry.mem_size == 1:
            return self.mem.read_byte(addr)
        return self.mem.read_word(addr)

    def _finish_load(
        self, entry: DynInstr, value: int, now: int, latency: int
    ) -> None:
        entry.result = value
        heapq.heappush(
            self._completions, (now + latency, entry.seq, entry)
        )

    # ================================================================== #
    # Issue.
    # ================================================================== #

    def _may_issue(self, entry: DynInstr, now: int) -> bool:
        if entry.instr.info.is_serializing and self.rob.head is not entry:
            return False
        return self.protection.may_issue(entry, now)

    def _issue(self, now: int) -> None:
        width = self.config.core.issue_width
        selected = self.iq.select(now, width, self.fus, self._may_issue)
        obs = self.obs
        for entry in selected:
            entry.issued = True
            entry.issue_cycle = now
            entry.src_vals = tuple(
                self.prf.value[src] for src in entry.phys_srcs
            )
            self.stats.issued += 1
            self._issued_this_cycle += 1
            instr = entry.instr
            if obs is not None and obs.instr_issue is not None:
                obs.instr_issue(entry, now)
            if entry.is_load:
                entry.addr = (entry.src_vals[0] + instr.imm) & U64_MASK
                heapq.heappush(
                    self._pending_mem, (now + 1, entry.seq, entry)
                )
            else:
                latency = instr.info.latency + entry.issue_penalty
                heapq.heappush(
                    self._completions, (now + latency, entry.seq, entry)
                )

    # ================================================================== #
    # Dispatch.
    # ================================================================== #

    def _dispatch(self, now: int) -> None:
        core = self.config.core
        count = 0
        depth = core.frontend_depth
        while self._fetch_buffer and count < core.fetch_width:
            fetched = self._fetch_buffer[0]
            if fetched.fetch_cycle + depth > now:
                break
            if self._fence_seq is not None:
                break
            if self.rob.full or self.iq.full:
                break
            instr = fetched.instr
            rd = instr.rd
            if rd is not None and rd != R0 and self.prf.free_count == 0:
                break
            entry = DynInstr(self._next_seq, fetched, now)
            if not self.lsq.can_dispatch(entry):
                break
            entry.phys_srcs = tuple(self.rat.lookup(s) for s in instr.srcs)
            if rd is not None and rd != R0:
                renamed = self.rat.rename_dest(rd)
                if renamed is None:
                    break
                entry.phys_dest, entry.prev_phys = renamed
            if instr.op in (Opcode.LOADB, Opcode.STOREB):
                entry.mem_size = 1
            self._next_seq += 1
            self._fetch_buffer.popleft()
            self.rob.push(entry)
            self.iq.insert(entry)
            self.lsq.dispatch(entry)
            self.protection.on_dispatch(entry)
            obs = self.obs
            if obs is not None and obs.instr_dispatch is not None:
                obs.instr_dispatch(entry, now)
            if instr.info.is_serializing:
                # FENCE (speculation barrier) and RDTSC (rdtscp-like
                # measurement fence) block dispatch until they commit.
                self._fence_seq = entry.seq
            self.stats.dispatched += 1
            count += 1

    # ================================================================== #
    # Fetch.
    # ================================================================== #

    def _fetch(self, now: int) -> None:
        if len(self._fetch_buffer) >= 2 * self.config.core.fetch_width:
            return
        fetched = self.fetch_unit.fetch(now)
        self._fetch_buffer.extend(fetched)
        self.stats.fetched += len(fetched)

    # ================================================================== #
    # Commit.
    # ================================================================== #

    def _commit(self, now: int) -> int:
        committed_now = 0
        width = self.config.core.commit_width
        while committed_now < width and len(self.rob):
            head = self.rob.head
            if not head.completed:
                break
            if head.retire_ready > now:
                break
            if head.fault is not None:
                self._commit_fault(head, now)
                committed_now += 1  # classification: progress happened
                break
            if head.phys_dest is not None and not head.bcast:
                break  # waiting for a broadcast port
            self._retire(head, now)
            committed_now += 1
            if self.halted:
                break
        return committed_now

    def _retire(self, head: DynInstr, now: int) -> None:
        instr = head.instr
        op = instr.op
        self.rob.pop_head()
        if head.is_store:
            self._commit_store(head)
        if head.is_load or head.is_store:
            self.lsq.retire(head)
        if head.prev_phys is not None:
            self.rat.retire(head.prev_phys)
        if self._fence_seq == head.seq:
            self._fence_seq = None
        if op is Opcode.HALT:
            self.halted = True
            # Drop anything fetched past the halt.
            if len(self.rob):
                self._squash_after(head.seq, 0, now + 1)
        self.committed += 1
        self._last_commit_cycle = now
        if head.issue_cycle >= 0:
            self.stats.record_dispatch_to_issue(
                head.issue_cycle - head.dispatch_cycle
            )
        self.protection.on_commit(head, now)
        obs = self.obs
        if obs is not None and obs.instr_retire is not None:
            obs.instr_retire(head, now)

    def _commit_store(self, head: DynInstr) -> None:
        if head.mem_size == 1:
            self.mem.write_byte(head.addr, head.store_data)
        else:
            self.mem.write_word(head.addr, head.store_data)
        # Write-allocate into the hierarchy (no latency: write buffer).
        self.hierarchy.l1d.fill(head.addr)
        self.hierarchy.l2.fill(head.addr)

    def _commit_fault(self, head: DynInstr, now: int) -> None:
        """The eldest instruction faulted: squash and redirect."""
        self.stats.faults += 1
        handler = self.program.fault_handler
        self._squash_after(
            head.seq - 1,
            handler if handler is not None else 0,
            now + self.config.core.squash_penalty,
        )
        # The faulting instruction architecturally commits as a fault
        # delivery (mirrors ReferenceMachine.step counting).
        self.committed += 1
        self._last_commit_cycle = now
        if handler is None:
            self.halted = True

    # ================================================================== #
    # Accounting.
    # ================================================================== #

    def _account(self, now: int, committed_now: int) -> None:
        stats = self.stats
        if self._issued_this_cycle:
            stats.ilp_sum += self._issued_this_cycle
            stats.ilp_cycles += 1
        outstanding = self.hierarchy.outstanding_offchip(now)
        if outstanding:
            stats.mlp_sum += outstanding
            stats.mlp_cycles += 1

        if committed_now:
            stats.classify_cycle(CycleClass.COMMIT)
        elif self._squashed_this_cycle or not len(self.rob):
            stats.classify_cycle(CycleClass.FRONTEND_STALL)
        else:
            head = self.rob.head
            if head.is_load or head.is_store:
                stats.classify_cycle(CycleClass.MEMORY_STALL)
            else:
                stats.classify_cycle(CycleClass.BACKEND_STALL)

        # Program naturally drained?
        if (
            not self.halted
            and not len(self.rob)
            and not self._fetch_buffer
            and self.program.fetch(self.fetch_unit.fetch_pc) is None
        ):
            self.halted = True
