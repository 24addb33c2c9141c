"""The table-driven fast execution core.

:class:`FastOoOCore` is the reference :class:`~repro.core.ooo.OutOfOrderCore`
with its hot phases rewritten against the dense micro-op tables of
:mod:`repro.isa.microops`: integer flag masks instead of
``entry.instr.info.<attr>`` chains, int-indexed FU accounting instead of
enum-keyed dicts, pre-bound execute closures instead of the opcode
dispatch in ``_complete``, and one batched pass per phase with all loop
invariants hoisted into locals.

It is a *timing-identical* drop-in: every phase makes the same decisions
in the same order as the reference implementation, every
:class:`~repro.schemes.ProtectionModel` hook keeps its exact call site,
and every counter increments at the same cycle — the per-scheme golden
files (``tests/golden/scheme_equivalence.json``) pin this bit-identity
for all registered schemes.  Anything off the hot path (squash, store
resolution, faults, fast-forward bookkeeping) is inherited unchanged.

It is the one core production code builds: :func:`repro.core.make_core`
for single-context runs and :class:`repro.smt.SmtMachine` for every
hardware context.  The reference core stays as the comparison the
equivalence tests and simspeed's ``reference`` rows run against.
"""

from __future__ import annotations

import heapq
import time
from operator import attrgetter
from typing import List, Optional

from repro.config import CoreConfig, SimConfig
from repro.core.lsq import LoadAction
from repro.core.ooo import OutOfOrderCore
from repro.core.outcome import RunOutcome
from repro.core.rob import DynInstr
from repro.errors import SimulationError
from repro.frontend.fetch import FetchedOp
from repro.isa.microops import (
    F_BRANCH,
    F_CALL,
    F_CONDITIONAL,
    F_LOAD,
    F_MEM_BYTE,
    F_SERIALIZING,
    F_STORE,
    FU_BY_ID,
    FU_ID,
    K_ALU,
    K_BRANCH,
    K_CLFLUSH,
    K_PASS,
    K_RDMSR,
    K_RDTSC,
    K_STORE,
    OP_ID,
    lower_program,
)
from repro.isa.opcodes import FUType, Opcode
from repro.isa.program import Program
from repro.memory.memory import U64_MASK
from repro.schemes.base import ProtectionModel
from repro.stats.counters import CycleClass

_BY_SEQ = attrgetter("seq")

_FU_FP = FU_ID[FUType.FP]
_FU_DIV = FU_ID[FUType.DIV]

_OPID_JMP = OP_ID[Opcode.JMP]
_OPID_CALL = OP_ID[Opcode.CALL]
_OPID_CALLR = OP_ID[Opcode.CALLR]
_OPID_JR = OP_ID[Opcode.JR]
_OPID_RET = OP_ID[Opcode.RET]
_OPID_HALT = OP_ID[Opcode.HALT]

_F_MEMOP = F_LOAD | F_STORE


class FastFUPool:
    """Int-indexed functional-unit pool, API-compatible with
    :class:`~repro.core.fu.FUPool`.

    The fast core issues through the ``*_id`` methods (one list index per
    check); the enum-accepting methods remain for external consumers
    (tests, stats) and read the same state, so the two views never
    diverge.  Timing semantics — pipelined units, the unpipelined
    divider, FPU power gating — are identical to the reference pool.
    """

    __slots__ = (
        "counts", "_counts_by_id", "_used", "_used_cycle", "_div_free",
        "_fpu_sleep", "_fpu_wakeup", "_fpu_last_issue",
    )

    def __init__(self, config: CoreConfig):
        counts = {
            FUType.ALU: config.num_alu,
            FUType.MUL: config.num_mul,
            FUType.DIV: config.num_div,
            FUType.FP: config.num_fp,
            FUType.MEM: config.num_mem_ports,
            FUType.BRANCH: config.num_branch,
            FUType.SYS: 1,
        }
        self.counts = counts
        self._counts_by_id: List[int] = [counts[fu] for fu in FU_BY_ID]
        self._used: List[int] = [0] * len(FU_BY_ID)
        self._used_cycle = -1
        self._div_free: List[int] = [0] * config.num_div
        self._fpu_sleep = config.fpu_sleep_cycles
        self._fpu_wakeup = config.fpu_wakeup_cycles
        self._fpu_last_issue = -(10 ** 9)

    def _roll(self, now: int) -> None:
        if now != self._used_cycle:
            used = self._used
            for i in range(len(used)):
                used[i] = 0
            self._used_cycle = now

    # Int-id hot path. ------------------------------------------------- #

    def can_issue_id(self, fu_id: int, now: int) -> bool:
        if now != self._used_cycle:
            self._roll(now)
        if self._used[fu_id] >= self._counts_by_id[fu_id]:
            return False
        if fu_id == _FU_DIV:
            for free in self._div_free:
                if free <= now:
                    return True
            return False
        return True

    def issue_id(self, fu_id: int, now: int, latency: int) -> int:
        if now != self._used_cycle:
            self._roll(now)
        self._used[fu_id] += 1
        if fu_id == _FU_FP:
            penalty = self.fp_wakeup_penalty(now)
            self._fpu_last_issue = now
            return penalty
        if fu_id == _FU_DIV:
            div_free = self._div_free
            for i, free in enumerate(div_free):
                if free <= now:
                    div_free[i] = now + latency
                    return 0
        return 0

    # Enum-accepting compatibility surface. ---------------------------- #

    def can_issue(self, fu: FUType, now: int) -> bool:
        return self.can_issue_id(FU_ID[fu], now)

    def issue(self, fu: FUType, now: int, latency: int) -> int:
        return self.issue_id(FU_ID[fu], now, latency)

    def fp_wakeup_penalty(self, now: int) -> int:
        if now - self._fpu_last_issue > self._fpu_sleep:
            return self._fpu_wakeup
        return 0

    def fpu_awake(self, now: int) -> bool:
        return now - self._fpu_last_issue <= self._fpu_sleep

    def used(self, fu: FUType, now: int) -> int:
        self._roll(now)
        return self._used[FU_ID[fu]]


class FastDynInstr:
    """Dict-backed twin of :class:`~repro.core.rob.DynInstr`.

    Class-level defaults stand in for the ~25 zero/None/False slot
    initialisations the reference ``__init__`` performs, so dispatching
    an entry pays five attribute stores instead of thirty; reads of
    never-written fields fall back to the class attributes (all
    immutable), and every consumer — LSQ, ROB, schemes, taint oracle,
    observers — is duck-typed on the same attribute names.  The
    convenience properties mirror DynInstr's exactly.
    """

    phys_dest = None
    prev_phys = None
    phys_srcs = ()
    issued = False
    issue_penalty = 0
    completed = False
    bcast = False
    squashed = False
    issue_cycle = -1
    complete_cycle = -1
    bcast_cycle = -1
    safe_cycle = -1
    result = None
    src_vals = ()
    resolved = False
    actual_next_pc = None
    actual_taken = False
    mispredicted = False
    addr = None
    mem_size = 8
    store_data = None
    bypassed_stores = None
    forwarded_from = None
    data_obtained = False
    invisible = False
    needs_validation = False
    retire_ready = 0
    fault = None

    def __init__(self, seq: int, fetched: FetchedOp, dispatch_cycle: int):
        self.seq = seq
        self.instr = fetched.instr
        self.pc = fetched.pc
        self.fetched = fetched
        self.dispatch_cycle = dispatch_cycle

    # Convenience properties, identical to DynInstr's. ----------------- #

    @property
    def is_branch(self) -> bool:
        return self.instr.info.is_branch

    @property
    def is_load(self) -> bool:
        return self.instr.info.is_load

    @property
    def is_store(self) -> bool:
        return self.instr.info.is_store

    @property
    def is_load_like(self) -> bool:
        return self.instr.info.is_load_like

    @property
    def unresolved_branch(self) -> bool:
        return self.is_branch and not self.resolved

    @property
    def unresolved_store(self) -> bool:
        return self.is_store and self.addr is None

    def __repr__(self) -> str:
        flags = "".join(
            ch for ch, cond in (
                ("I", self.issued), ("C", self.completed),
                ("B", self.bcast), ("X", self.squashed),
            ) if cond
        )
        return "<#%d %r %s>" % (self.seq, self.instr, flags or "-")


class FastOoOCore(OutOfOrderCore):
    """Micro-op-table core; bit-identical to the reference pipeline."""

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
        super().__init__(
            program, config, direction_predictor=direction_predictor,
            fast_forward=fast_forward, ctx=ctx, shared=shared,
        )
        self.u = lower_program(program)
        core = self.config.core
        # Same initial state as the reference pool (nothing issued yet).
        self.fus = FastFUPool(core)
        # Hot-loop invariants hoisted out of the per-cycle phases.
        self._issue_width = core.issue_width
        self._fetch_width = core.fetch_width
        self._commit_width = core.commit_width
        self._frontend_depth = core.frontend_depth
        self._fetch_cap = 2 * core.fetch_width
        self._squash_penalty = core.squash_penalty
        self._dcache_ports = self.config.mem.l1d.ports
        self._priv_mode = self.config.privileged_mode
        self._fwd_faulting = self.config.forward_faulting_loads
        self._arbiter = self.protection.arbiter
        # Phase guards: the base load_visibility_phase is a documented
        # no-op, so only call it when the scheme actually overrides it.
        self._has_visibility_phase = (
            type(self.protection).load_visibility_phase
            is not ProtectionModel.load_visibility_phase
        )
        # Hook elision: bind each per-instruction ProtectionModel hook
        # only when the scheme overrides it; a ``None`` means the base
        # no-op (or constant) implementation, whose effect the call site
        # applies inline.  The call sites themselves stay — any override
        # is still invoked at exactly the reference cycle.
        prot = self.protection
        prot_cls = type(prot)
        base = ProtectionModel
        self._hook_may_issue = (
            prot.may_issue
            if prot_cls.may_issue is not base.may_issue else None
        )
        self._hook_may_broadcast = (
            prot.may_broadcast
            if prot_cls.may_broadcast is not base.may_broadcast else None
        )
        self._hook_on_dispatch = (
            prot.on_dispatch
            if prot_cls.on_dispatch is not base.on_dispatch else None
        )
        self._hook_on_commit = (
            prot.on_commit
            if prot_cls.on_commit is not base.on_commit else None
        )
        self._hook_on_branch_resolved = (
            prot.on_branch_resolved
            if prot_cls.on_branch_resolved is not base.on_branch_resolved
            else None
        )
        self._hook_load_invisible = (
            prot.load_executes_invisibly
            if prot_cls.load_executes_invisibly
            is not base.load_executes_invisibly else None
        )
        self._hook_ready_horizon = (
            prot.issue_ready_horizon
            if prot_cls.issue_ready_horizon
            is not base.issue_ready_horizon else None
        )
        # Per-phase working sets, bundled so each phase pays ONE attribute
        # load plus a tuple unpack instead of re-hoisting ~20 locals per
        # call.  Only references that are never rebound belong here: the
        # micro-op tables, the RAT/PRF arrays, the ROB deque, the IQ
        # waiter dict, the fetch buffer and the completion heap.  Anything
        # a squash rebinds (lsq.loads/stores, _pending_mem, iq._ready,
        # iq._pending) is read fresh inside the phase.
        u = self.u
        self._flags = u.flags
        self._disp_tables = (
            u.flags, u.rd, u.srcs, self.rat.map, self.prf.ready,
            self.iq._waiters, self.rob.entries, self.rob.capacity,
            self.iq.capacity, self.rat.rename_dest, self.prf._free,
            self._hook_on_dispatch, self.stats,
        )
        self._issue_tables = (
            u.fu_ids, u.latency, u.flags, u.imm, self.prf.value,
            self.fus, self._hook_may_issue, self.rob.entries,
            self._completions, self.stats,
        )
        self._wb_tables = (
            u.kinds, u.exec_fns, u.imm, self.prf.value, self.prf.ready,
            self.iq._waiters, self.rob.entries, self.protection,
            self._hook_may_broadcast,
        )
        self._commit_tables = (
            u.flags, u.op_ids, self.rob.entries, self.lsq,
            self.rat.retire, self.stats, self._hook_on_commit,
        )
        self._has_next_event = (
            prot_cls.next_event is not base.next_event
        )
        self._fetch_tables = (
            u.flags, u.op_ids, self.program.instrs,
            len(self.program.instrs), self.fetch_unit,
            self.fetch_unit._line_available, self._fetch_buffer,
            self._fetch_buffer.append,
        )

    # ================================================================== #
    # The cycle loop: same phase order, with inline no-op guards.  Each
    # guard replicates the called phase's own early-return condition, so
    # skipping the call is observationally identical.
    # ================================================================== #

    def step(self) -> None:
        now = self.cycle
        obs = self.obs
        if obs is not None and obs.sample_due <= now:
            obs.sample(self, now)
        self._ports_used = 0
        self._issued_this_cycle = 0
        self._squashed_this_cycle = False

        completions = self._completions
        if completions and completions[0][0] <= now:
            self._writeback(now)
        if self._arbiter.deferred:
            self._drain_broadcasts(now)
        if self._has_visibility_phase:
            self.protection.load_visibility_phase(now)
        pending = self._pending_mem
        if pending and pending[0][0] <= now:
            self._mem_phase(now)
        if self.iq._ready:
            self._issue(now)
        # Dispatch/fetch/commit guards replicate each phase's own
        # side-effect-free early-exit checks, so skipping the call is
        # observationally identical to making it.
        rob_entries = self.rob.entries
        buffer = self._fetch_buffer
        if (
            buffer
            and self._fence_seq is None
            and buffer[0].fetch_cycle + self._frontend_depth <= now
            and len(rob_entries) < self.rob.capacity
            and self.iq._size < self.iq.capacity
        ):
            self._dispatch(now)
        if len(buffer) < self._fetch_cap:
            self._fetch(now)
        if rob_entries and rob_entries[0].completed:
            committed_now = self._commit(now)
        else:
            committed_now = 0

        # Accounting (inline of the reference _account, same counters).
        stats = self.stats
        issued = self._issued_this_cycle
        if issued:
            stats.ilp_sum += issued
            stats.ilp_cycles += 1
        offchip = self.hierarchy._offchip  # rebound on prune: read fresh
        if offchip:
            outstanding = 0
            for c in offchip:
                if c > now:
                    outstanding += 1
            if outstanding:
                stats.mlp_sum += outstanding
                stats.mlp_cycles += 1
        cycle_class = stats.cycle_class
        if committed_now:
            cycle_class[CycleClass.COMMIT] += 1
        elif self._squashed_this_cycle or not rob_entries:
            cycle_class[CycleClass.FRONTEND_STALL] += 1
        elif self._flags[rob_entries[0].pc] & _F_MEMOP:
            cycle_class[CycleClass.MEMORY_STALL] += 1
        else:
            cycle_class[CycleClass.BACKEND_STALL] += 1

        # Program naturally drained?
        if (
            not self.halted
            and not rob_entries
            and not self._fetch_buffer
            and self.program.fetch(self.fetch_unit.fetch_pc) is None
        ):
            self.halted = True

        self.cycle = now + 1

    # ================================================================== #
    # Writeback: table-dispatched completion.
    # ================================================================== #

    def _writeback(self, now: int) -> None:
        # One batched pass: pop every due completion, then run the
        # completion body inline (same work as _complete + _try_broadcast
        # per entry, same order) with the table lookups hoisted.
        completions = self._completions
        due: List[DynInstr] = []
        pop = heapq.heappop
        while completions and completions[0][0] <= now:
            entry = pop(completions)[2]
            if not entry.squashed:
                due.append(entry)
        if len(due) > 1:
            due.sort(key=_BY_SEQ)
        (kinds, exec_fns, imms, prf_value, ready_bits, iq_waiters,
         rob_entries, protection, may_broadcast) = self._wb_tables
        issue_width = self._issue_width
        obs = self.obs
        obs_complete = obs.instr_complete if obs is not None else None
        obs_defer = obs.instr_defer if obs is not None else None
        obs_broadcast = obs.instr_broadcast if obs is not None else None
        iq = self.iq
        for entry in due:
            if entry.squashed:
                continue  # an older entry in this batch squashed it
            pc = entry.pc
            kind = kinds[pc]
            if obs is not None:
                obs.exec_ctx = entry
            if kind == K_ALU:
                vals = entry.src_vals
                a = vals[0] if vals else 0
                b = vals[1] if len(vals) > 1 else 0
                entry.result = exec_fns[pc](a, b)
            elif kind == K_BRANCH:
                self._resolve_branch(entry, now)
            elif kind == K_STORE:
                self._resolve_store(entry, now)
            elif kind == K_CLFLUSH:
                addr = (entry.src_vals[0] + imms[pc]) & U64_MASK
                self.hierarchy.flush_data_line(addr)
            elif kind == K_RDTSC:
                entry.result = now
            elif kind == K_RDMSR:
                imm = imms[pc]
                entry.result = self.msrs.get(imm, 0)
                if not self._priv_mode:
                    entry.fault = "user rdmsr %d" % imm
                    if not self._fwd_faulting:
                        entry.result = 0
            # K_LOAD: result set by the memory phase; K_PASS: nothing.
            entry.completed = True
            entry.complete_cycle = now
            pd = entry.phys_dest
            if pd is not None and entry.result is not None:
                prf_value[pd] = entry.result
            if obs is not None:
                obs.exec_ctx = None
                if obs_complete is not None:
                    obs_complete(entry, now)
            # Inline _try_broadcast (base may_broadcast returns True).
            if pd is None:
                entry.bcast = True
                continue
            if self._ports_used < issue_width and (
                may_broadcast is None
                or may_broadcast(
                    entry, rob_entries[0].seq if rob_entries else None
                )
            ):
                # Inline _broadcast: mark ready, wake IQ waiters.
                ready_bits[pd] = True
                waiters = iq_waiters.pop(pd, None)
                if waiters:
                    # _pending/_ready rebound by squashes earlier in
                    # this very loop — read fresh per broadcast.
                    iq_pending = iq._pending
                    iq_ready = iq._ready
                    for waiter in waiters:
                        if waiter.squashed:
                            iq_pending.pop(waiter, None)
                            continue
                        if waiter not in iq_pending:
                            continue  # woken via another source already
                        remaining = iq_pending[waiter] - 1
                        if remaining <= 0:
                            del iq_pending[waiter]
                            iq_ready.append(waiter)
                            iq._ready_sorted = False
                        else:
                            iq_pending[waiter] = remaining
                entry.bcast = True
                entry.bcast_cycle = now
                self._ports_used += 1
                if obs_broadcast is not None:
                    obs_broadcast(entry, now)
            else:
                protection.defer_broadcast(entry)
                if obs_defer is not None:
                    obs_defer(entry, now)

    def _complete(self, entry: DynInstr, now: int) -> None:
        u = self.u
        pc = entry.pc
        kind = u.kinds[pc]
        obs = self.obs
        if obs is not None:
            obs.exec_ctx = entry

        if kind == K_ALU:
            vals = entry.src_vals
            a = vals[0] if vals else 0
            b = vals[1] if len(vals) > 1 else 0
            entry.result = u.exec_fns[pc](a, b)
        elif kind == K_BRANCH:
            self._resolve_branch(entry, now)
        elif kind == K_STORE:
            self._resolve_store(entry, now)
        elif kind == K_CLFLUSH:
            addr = (entry.src_vals[0] + u.imm[pc]) & U64_MASK
            self.hierarchy.flush_data_line(addr)
        elif kind == K_RDTSC:
            entry.result = now
        elif kind == K_RDMSR:
            imm = u.imm[pc]
            entry.result = self.msrs.get(imm, 0)
            if not self._priv_mode:
                entry.fault = "user rdmsr %d" % imm
                if not self._fwd_faulting:
                    entry.result = 0
        # K_LOAD: result was set by the memory phase; K_PASS: nothing.

        entry.completed = True
        entry.complete_cycle = now
        if entry.phys_dest is not None and entry.result is not None:
            self.prf.value[entry.phys_dest] = entry.result
        if obs is not None:
            obs.exec_ctx = None
            if obs.instr_complete is not None:
                obs.instr_complete(entry, now)
        self._try_broadcast(entry, now)

    def _try_broadcast(self, entry: DynInstr, now: int) -> None:
        if entry.phys_dest is None:
            entry.bcast = True  # nothing to broadcast
            return
        rob_entries = self.rob.entries
        head_seq = rob_entries[0].seq if rob_entries else None
        may_broadcast = self._hook_may_broadcast
        if self._ports_used < self._issue_width and (
            may_broadcast is None or may_broadcast(entry, head_seq)
        ):
            self._broadcast(entry, now)
            self._ports_used += 1
        else:
            self.protection.defer_broadcast(entry)
            obs = self.obs
            if obs is not None and obs.instr_defer is not None:
                obs.instr_defer(entry, now)

    def _resolve_branch(self, entry: DynInstr, now: int) -> None:
        u = self.u
        pc = entry.pc
        flags = u.flags[pc]
        vals = entry.src_vals

        if flags & F_CONDITIONAL:
            taken = u.cond_fns[pc](vals[0], vals[1])
            actual = u.target[pc] if taken else pc + 1
            self.direction.update(pc, taken)
        else:
            op_id = u.op_ids[pc]
            if op_id == _OPID_JMP:
                taken, actual = True, u.target[pc]
            elif op_id == _OPID_CALL:
                taken, actual = True, u.target[pc]
                entry.result = pc + 1
            elif op_id == _OPID_CALLR:
                taken, actual = True, vals[0] & U64_MASK
                entry.result = pc + 1
                self.btb.update(pc, actual)
            elif op_id == _OPID_JR:
                taken, actual = True, vals[0] & U64_MASK
                self.btb.update(pc, actual)
            elif op_id == _OPID_RET:
                taken, actual = True, vals[0] & U64_MASK
            else:
                raise SimulationError(
                    "unknown branch op %s" % entry.instr.op
                )

        entry.resolved = True
        entry.actual_taken = taken
        entry.actual_next_pc = actual
        on_branch_resolved = self._hook_on_branch_resolved
        if on_branch_resolved is not None:
            on_branch_resolved(entry)
        self.stats.branches_resolved += 1

        fetched = entry.fetched
        if fetched.unpredicted:
            if flags & F_CALL:
                self.ras.push(pc + 1)
            self.fetch_unit.redirect(actual, now + 1)
            return
        if actual != fetched.pred_next_pc:
            entry.mispredicted = True
            self.stats.branch_mispredicts += 1
            self._squash_after(
                entry.seq, actual, now + self._squash_penalty
            )
            self.fetch_unit.repair_ras(fetched.ras_snapshot)

    # ================================================================== #
    # Load memory phase.
    # ================================================================== #

    def _mem_phase(self, now: int) -> None:
        pending = self._pending_mem
        if not pending or pending[0][0] > now:
            return
        obs = self.obs
        obs_load = obs.load_data if obs is not None else None
        ready: List[DynInstr] = []
        pop = heapq.heappop
        while pending and pending[0][0] <= now:
            _, _, entry = pop(pending)
            if not entry.squashed:
                ready.append(entry)
        if len(ready) > 1:
            ready.sort(key=_BY_SEQ)
        dcache_ports = self._dcache_ports
        dcache_used = 0
        push = heapq.heappush
        lsq = self.lsq
        memdep = self.memdep
        protection = self.protection
        load_invisible = self._hook_load_invisible
        hierarchy = self.hierarchy
        completions = self._completions
        next_cycle = now + 1
        for entry in ready:
            decision = lsq.decide_load(entry)
            action = decision.action
            if action is LoadAction.MEMORY:
                if decision.bypassed_stores and memdep.should_wait(entry.pc):
                    push(pending, (next_cycle, entry.seq, entry))
                    continue
                if dcache_used >= dcache_ports:
                    push(pending, (next_cycle, entry.seq, entry))
                    continue
                dcache_used += 1
                entry.data_obtained = True
                entry.bypassed_stores = decision.bypassed_stores or None
                invisible = (
                    load_invisible is not None and load_invisible(entry)
                )
                if obs is not None:
                    obs.exec_ctx = entry
                result = hierarchy.data_access(
                    entry.addr, now, fill=not invisible, pc=entry.pc
                )
                if invisible:
                    protection.on_invisible_load(entry, result, now)
                value = self._fast_load_value(entry)
                if obs is not None:
                    obs.exec_ctx = None
                    if obs_load is not None:
                        obs_load(entry, True)
                entry.result = value
                push(completions, (now + result.latency, entry.seq, entry))
            elif action is LoadAction.WAIT:
                push(pending, (next_cycle, entry.seq, entry))
            else:  # FORWARD
                entry.data_obtained = True
                entry.forwarded_from = decision.forwarded_from
                entry.bypassed_stores = decision.bypassed_stores or None
                if obs_load is not None:
                    obs_load(entry, False)
                entry.result = decision.value
                push(completions, (next_cycle, entry.seq, entry))

    def _fast_load_value(self, entry: DynInstr) -> int:
        addr = entry.addr
        if not self._priv_mode and self.program.is_privileged_addr(addr):
            entry.fault = "user load from %#x" % addr
            if not self._fwd_faulting:
                return 0
        if entry.mem_size == 1:
            return self.mem.read_byte(addr)
        return self.mem.read_word(addr)

    # ================================================================== #
    # Issue: fused select + issue over the micro-op tables.
    # ================================================================== #

    def _issue(self, now: int) -> None:
        iq = self.iq
        ready = iq._ready
        if not ready:
            return
        if not iq._ready_sorted:
            if len(ready) > 1:
                ready.sort(key=_BY_SEQ)
            iq._ready_sorted = True
        (fu_ids, latencies, flags, imms, prf_value, fus, may_issue,
         rob_entries, completions, stats) = self._issue_tables
        width = self._issue_width
        fus_used = fus._used
        if now != fus._used_cycle:
            # Inline fus._roll(now).
            for i in range(len(fus_used)):
                fus_used[i] = 0
            fus._used_cycle = now
        fus_counts = fus._counts_by_id
        can_issue = fus.can_issue_id
        rob_head = rob_entries[0] if rob_entries else None
        # Selection pass: identical decision order to IssueQueue.select
        # with the core's _may_issue veto (serializing-at-head first).
        # The FU check is inlined for pipelined units; the divider (the
        # only unit with per-slot busy state) keeps the method call.
        selected: List[DynInstr] = []
        remaining: List[DynInstr] = []
        size_drop = 0
        for entry in ready:
            if entry.squashed:
                size_drop += 1
                continue
            if len(selected) >= width:
                remaining.append(entry)
                continue
            pc = entry.pc
            fu_id = fu_ids[pc]
            if (
                (
                    fus_used[fu_id] < fus_counts[fu_id]
                    and fu_id != _FU_DIV
                    or fu_id == _FU_DIV and can_issue(fu_id, now)
                )
                and (
                    not (flags[pc] & F_SERIALIZING)
                    or rob_head is entry
                )
                and (may_issue is None or may_issue(entry, now))
            ):
                if fu_id == _FU_FP or fu_id == _FU_DIV:
                    entry.issue_penalty = fus.issue_id(
                        fu_id, now, latencies[pc]
                    )
                else:
                    # issue_penalty stays at its class default of 0.
                    fus_used[fu_id] += 1
                selected.append(entry)
                size_drop += 1
            else:
                remaining.append(entry)
        iq._ready = remaining  # filtered in order: still seq-sorted
        iq._size -= size_drop
        if not selected:
            return
        # Issue pass.
        obs = self.obs
        obs_issue = obs.instr_issue if obs is not None else None
        pending_mem = self._pending_mem
        push = heapq.heappush
        for entry in selected:
            entry.issued = True
            entry.issue_cycle = now
            srcs = entry.phys_srcs
            n = len(srcs)
            if n == 2:
                vals = (prf_value[srcs[0]], prf_value[srcs[1]])
            elif n == 1:
                vals = (prf_value[srcs[0]],)
            elif n == 0:
                vals = ()
            else:
                vals = tuple(prf_value[s] for s in srcs)
            entry.src_vals = vals
            if obs_issue is not None:
                obs_issue(entry, now)
            pc = entry.pc
            if flags[pc] & F_LOAD:
                entry.addr = (vals[0] + imms[pc]) & U64_MASK
                push(pending_mem, (now + 1, entry.seq, entry))
            else:
                push(completions, (
                    now + latencies[pc] + entry.issue_penalty,
                    entry.seq, entry,
                ))
        n_issued = len(selected)
        stats.issued += n_issued
        self._issued_this_cycle += n_issued

    # ================================================================== #
    # Dispatch.
    # ================================================================== #

    def _dispatch(self, now: int) -> None:
        # Cheap pre-checks for the buffer head before hoisting the table
        # locals: most calls dispatch nothing (front-end pipe not yet
        # drained, fence pending, window full) and none of these reads
        # has side effects.
        buffer = self._fetch_buffer
        if not buffer:
            return
        if buffer[0].fetch_cycle + self._frontend_depth > now:
            return
        if self._fence_seq is not None:
            return
        (flags, rds, all_srcs, rat_map, ready_bits, iq_waiters,
         rob_entries, rob_capacity, iq_capacity, rename_dest, prf_free,
         on_dispatch, stats) = self._disp_tables
        iq = self.iq
        if len(rob_entries) >= rob_capacity or iq._size >= iq_capacity:
            return
        width = self._fetch_width
        depth = self._frontend_depth
        # IQ/LSQ internals rebound by squashes: read fresh each phase.
        # (_ready/_pending are stable WITHIN the phase — only select and
        # remove_squashed rebind them, and neither runs here.)
        iq_pending = iq._pending
        iq_ready = iq._ready
        lsq = self.lsq
        loads = lsq.loads
        stores = lsq.stores
        lq_capacity = lsq.lq_capacity
        sq_capacity = lsq.sq_capacity
        obs = self.obs
        obs_dispatch = obs.instr_dispatch if obs is not None else None
        count = 0
        while buffer and count < width:
            fetched = buffer[0]
            if fetched.fetch_cycle + depth > now:
                break
            if self._fence_seq is not None:
                break
            if (
                len(rob_entries) >= rob_capacity
                or iq._size >= iq_capacity
            ):
                break
            pc = fetched.pc
            rd = rds[pc]  # -1 for no dest; R0 (0) is never renamed
            if rd > 0 and not prf_free:
                break
            fl = flags[pc]
            # LSQ occupancy (inline of lsq.can_dispatch, same order).
            if fl & F_LOAD:
                if len(loads) >= lq_capacity:
                    break
            elif fl & F_STORE:
                if len(stores) >= sq_capacity:
                    break
            entry = FastDynInstr(self._next_seq, fetched, now)
            srcs = all_srcs[pc]
            n = len(srcs)
            if n == 2:
                entry.phys_srcs = (rat_map[srcs[0]], rat_map[srcs[1]])
            elif n == 1:
                entry.phys_srcs = (rat_map[srcs[0]],)
            elif n:
                entry.phys_srcs = tuple(rat_map[s] for s in srcs)
            if rd > 0:
                renamed = rename_dest(rd)
                if renamed is None:
                    break
                entry.phys_dest, entry.prev_phys = renamed
            if fl & F_MEM_BYTE:
                entry.mem_size = 1
            self._next_seq += 1
            buffer.popleft()
            rob_entries.append(entry)
            # Inline iq.insert: count unready sources, park or ready.
            outstanding = 0
            for src in entry.phys_srcs:
                if not ready_bits[src]:
                    outstanding += 1
                    w = iq_waiters.get(src)
                    if w is None:
                        iq_waiters[src] = [entry]
                    else:
                        w.append(entry)
            iq._size += 1
            if outstanding:
                iq_pending[entry] = outstanding
            else:
                iq_ready.append(entry)
                iq._ready_sorted = False
            if fl & F_LOAD:
                loads.append(entry)
            elif fl & F_STORE:
                stores.append(entry)
            if on_dispatch is not None:
                on_dispatch(entry)
            if obs_dispatch is not None:
                obs_dispatch(entry, now)
            if fl & F_SERIALIZING:
                self._fence_seq = entry.seq
            stats.dispatched += 1
            count += 1

    # ================================================================== #
    # Fetch.
    # ================================================================== #

    def _fetch(self, now: int) -> None:
        # Inline of FetchUnit.fetch with the branch test read from the
        # flags table: non-branch micro-ops (the common case) skip the
        # _predict dispatch entirely.  Same loop order, same stall/HALT/
        # taken-prediction break conditions, same predictor side effects
        # (branches still go through _predict).
        (flags, op_ids, instrs, n_instr, fu, line_available, buffer,
         append) = self._fetch_tables
        if len(buffer) >= self._fetch_cap:
            return
        # Inline fu.stalled(now), stall-cause counters included.
        if fu._halt_seen:
            return
        if fu._wait_for_resolve:
            fu.indirect_stall_cycles += 1
            return
        if now < fu._icache_ready:
            fu.icache_stall_cycles += 1
            return
        width = self._fetch_width
        count = 0
        while count < width:
            pc = fu.fetch_pc
            # Inline program.fetch(pc) (the 0 <= guard matters: reference
            # returns None for any out-of-range pc, never wraps).
            instr = instrs[pc] if 0 <= pc < n_instr else None
            if instr is None:
                break
            if not line_available(pc, now):
                break  # L1I miss: retry once the fill returns
            if flags[pc] & F_BRANCH:
                fetched = fu._predict(instr, now)
                append(fetched)
                count += 1
                fu.fetched_ops += 1
                fu.fetch_pc = fetched.pred_next_pc
                if fu._wait_for_resolve:
                    break  # unpredicted indirect target
                if fetched.pred_next_pc != pc + 1:
                    break  # taken prediction ends the fetch group
            else:
                append(FetchedOp(instr, pc, now, pc + 1))
                count += 1
                fu.fetched_ops += 1
                fu.fetch_pc = pc + 1
                if op_ids[pc] == _OPID_HALT:
                    fu._halt_seen = True
                    break  # nothing meaningful follows a halt
        if count:
            self.stats.fetched += count

    # ================================================================== #
    # Commit.
    # ================================================================== #

    def _commit(self, now: int) -> int:
        committed_now = 0
        width = self._commit_width
        (flags, op_ids, rob_entries, lsq, rat_retire, stats,
         on_commit) = self._commit_tables
        obs = self.obs
        obs_retire = obs.instr_retire if obs is not None else None
        while committed_now < width and rob_entries:
            head = rob_entries[0]
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
            # Inline retire (same order as the reference _retire).
            pc = head.pc
            fl = flags[pc]
            rob_entries.popleft()
            if fl & _F_MEMOP:
                if fl & F_STORE:
                    self._commit_store(head)
                lsq.retire(head)
            prev = head.prev_phys
            if prev is not None:
                rat_retire(prev)
            if self._fence_seq == head.seq:
                self._fence_seq = None
            if op_ids[pc] == _OPID_HALT:
                self.halted = True
                # Drop anything fetched past the halt.
                if rob_entries:
                    self._squash_after(head.seq, 0, now + 1)
            self.committed += 1
            self._last_commit_cycle = now
            issue_cycle = head.issue_cycle
            if issue_cycle >= 0:
                # Inline stats.record_dispatch_to_issue: the bucket key
                # is the highest power of two <= latency (0 when <= 0).
                latency = issue_cycle - head.dispatch_cycle
                stats.dispatch_to_issue_sum += latency
                stats.dispatch_to_issue_count += 1
                key = (
                    0 if latency <= 0
                    else 1 << (latency.bit_length() - 1)
                )
                hist = stats.dispatch_to_issue_hist
                hist[key] = hist.get(key, 0) + 1
            if on_commit is not None:
                on_commit(head, now)
            if obs_retire is not None:
                obs_retire(head, now)
            committed_now += 1
            if self.halted:
                break
        return committed_now

    # ================================================================== #
    # Fast-forward plumbing: table-driven twins of the reference
    # quiescence probe and run loop (same decisions, hoisted lookups).
    # ================================================================== #

    def _dispatch_blocked(self, fetched) -> bool:
        if self._fence_seq is not None:
            return True
        rob = self.rob
        if len(rob.entries) >= rob.capacity:
            return True
        iq = self.iq
        if iq._size >= iq.capacity:
            return True
        u = self.u
        pc = fetched.pc
        if u.rd[pc] > 0 and self.prf.free_count == 0:
            return True
        fl = u.flags[pc]
        lsq = self.lsq
        if fl & F_LOAD and len(lsq.loads) >= lsq.lq_capacity:
            return True
        if fl & F_STORE and len(lsq.stores) >= lsq.sq_capacity:
            return True
        return False

    def _next_interesting_cycle(self, limit: int) -> int:
        now = self.cycle
        horizon = limit
        if self.iq._ready:
            ready_horizon = self._hook_ready_horizon
            if ready_horizon is None:
                return now
            event = ready_horizon(now)
            if event is not None:
                if event <= now:
                    return now
                if event < horizon:
                    horizon = event
        completions = self._completions
        if completions:
            due = completions[0][0]
            if due <= now:
                return now
            if due < horizon:
                horizon = due
        pending = self._pending_mem
        if pending:
            due = pending[0][0]
            if due <= now:
                return now
            if due < horizon:
                horizon = due
        rob_entries = self.rob.entries
        if rob_entries:
            head = rob_entries[0]
            if head.completed:
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
        buffer = self._fetch_buffer
        if buffer:
            fetched = buffer[0]
            due = fetched.fetch_cycle + self._frontend_depth
            if due > now:
                if due < horizon:
                    horizon = due
            elif not self._dispatch_blocked(fetched):
                return now
        if len(buffer) < self._fetch_cap:
            fu = self.fetch_unit
            if not (fu._halt_seen or fu._wait_for_resolve):
                ready = fu._icache_ready
                if now < ready:
                    if ready < horizon:
                        horizon = ready
                elif self.program.fetch(fu.fetch_pc) is not None:
                    return now
        if self._has_next_event:
            event = self.protection.next_event(now)
            if event is not None:
                if event <= now:
                    return now
                if event < horizon:
                    horizon = event
        elif self._arbiter.deferred:
            # Inline of the base next_event: deferred broadcasts drain
            # every cycle, so the machine is busy right now.
            return now
        return horizon

    def _skip_to(self, target: int) -> None:
        # Reference _skip_to with the head-kind classification read from
        # the flags table instead of the instr.info property chain.
        now = self.cycle
        span = target - now
        stats = self.stats
        if len(self._fetch_buffer) < self._fetch_cap:
            self.fetch_unit.account_stalls(now, span)
        mlp_sum, mlp_cycles = self.hierarchy.offchip_profile(now, target)
        if mlp_sum:
            stats.mlp_sum += mlp_sum
            stats.mlp_cycles += mlp_cycles
        rob_entries = self.rob.entries
        cycle_class = stats.cycle_class
        if rob_entries:
            if self._flags[rob_entries[0].pc] & _F_MEMOP:
                cycle_class[CycleClass.MEMORY_STALL] += span
            else:
                cycle_class[CycleClass.BACKEND_STALL] += span
        else:
            cycle_class[CycleClass.FRONTEND_STALL] += span
        self.ff_skipped_cycles += span
        self.cycle = target
        obs = self.obs
        if obs is not None and obs.sample_due <= target:
            obs.sample(self, target)

    def run_to_commit(self, target: int, max_cycles: int) -> None:
        # Reference semantics (advance() in a loop) with the
        # per-iteration lookups hoisted, mirroring run() below.
        fast = self.fast_forward
        iq = self.iq
        step = self.step
        probe = self._next_interesting_cycle
        skip = self._skip_to
        probe_ready = self._hook_ready_horizon is not None
        while (
            not self.halted
            and self.cycle < max_cycles
            and self.committed < target
        ):
            if fast and (probe_ready or not iq._ready):
                jump = probe(max_cycles)
                if jump > self.cycle:
                    skip(jump)
                    if self.cycle >= max_cycles:
                        return
            step()

    def run(
        self,
        max_cycles: int = 5_000_000,
        deadlock_cycles: int = 100_000,
    ) -> RunOutcome:
        """Reference run semantics, per-iteration lookups hoisted."""
        wall_start = time.perf_counter()
        fast = self.fast_forward
        iq = self.iq
        step = self.step
        probe = self._next_interesting_cycle
        skip = self._skip_to
        probe_ready = self._hook_ready_horizon is not None
        while not self.halted and self.cycle < max_cycles:
            if fast and (probe_ready or not iq._ready):
                limit = self._last_commit_cycle + deadlock_cycles + 1
                if max_cycles < limit:
                    limit = max_cycles
                if self.cycle < limit:
                    target = probe(limit)
                    if target > self.cycle:
                        skip(target)
                        if self.cycle >= max_cycles:
                            break
                        if (
                            self.cycle - self._last_commit_cycle
                            > deadlock_cycles
                        ):
                            raise self._deadlock_error(deadlock_cycles)
            step()
            if self.cycle - self._last_commit_cycle > deadlock_cycles:
                raise self._deadlock_error(deadlock_cycles)
        return self.finish_run(time.perf_counter() - wall_start)
