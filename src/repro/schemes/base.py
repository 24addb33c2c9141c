"""The :class:`ProtectionModel` plug-in interface.

Every speculative-execution defense evaluated by the paper — and every
future one — touches the pipeline at the same few decision points: what
may broadcast its result tag, what may issue, whether a load's cache fill
is visible, and which bookkeeping runs on dispatch/resolve/squash/commit.
:class:`ProtectionModel` makes those points an explicit interface so that
:class:`repro.core.ooo.OutOfOrderCore` holds exactly one ``protection``
object and zero scheme conditionals.

The base class is the insecure baseline: every hook is a no-op and every
gate answers "yes".  It owns the :class:`~repro.nda.broadcast.BroadcastArbiter`
because port arbitration is shared machinery — even the unprotected core
defers a completion when all broadcast ports are busy.

Hook call sites (one pipeline cycle, reverse stage order):

=======================  ====================================================
hook                     called from
=======================  ====================================================
``may_broadcast``        writeback, before a completed op wakes dependents
``defer_broadcast``      writeback, when unsafe or port-starved
``drain_deferred``       once per cycle, retries the deferred pool
``next_event``           the idle-cycle fast-forward's quiescence check
``load_visibility_phase``once per cycle, between drain and the memory phase
``load_executes_invisibly`` memory phase, before the cache access
``on_invisible_load``    memory phase, after an invisible access
``may_issue``            issue select (AND-ed with structural readiness)
``on_dispatch``          rename/dispatch of each micro-op
``on_branch_resolved``   branch execution
``on_store_resolved``    store-address execution
``on_squash``            per squashed entry, ``after_squash`` once per squash
``on_commit``            retirement of each micro-op
``finalize_stats``       end of ``run()``
=======================  ====================================================

Schemes subclass this, set ``name``/``params_cls``/``description``, and
register with :func:`repro.schemes.registry.register_scheme`.  See
DESIGN.md ("Protection schemes as plug-ins") for the FenceOnBranch worked
example.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # import-pure module: the core imports this package
    from repro.core.rob import DynInstr
    from repro.stats.counters import PipelineStats


@dataclass(frozen=True)
class SchemeParams:
    """Base class for per-scheme parameter blocks.

    Subclasses are frozen dataclasses; every field lands in
    :meth:`repro.config.SimConfig.to_dict` and therefore in the engine's
    cache key, so two schemes (or two parameterizations of one scheme)
    can never alias each other's cached results.
    """


@dataclass(frozen=True)
class NoParams(SchemeParams):
    """For schemes without tunables."""


class ProtectionModel:
    """One protection scheme's behavior at the pipeline's decision points.

    Instances are per-core and per-run: ``core`` is a weak proxy to the
    owning :class:`~repro.core.ooo.OutOfOrderCore` (fully constructed
    except for ``core.protection`` itself), ``params`` the scheme's
    parameter block.  The proxy keeps the core and its model out of a
    reference cycle, so a finished core is freed by reference counting
    alone; the model must not outlive its core.
    """

    #: Registry key (kebab-case).  Subclasses must override.
    name: str = ""
    #: Parameter dataclass for this scheme.
    params_cls = NoParams
    #: One-line description shown by ``nda-repro config list`` / README.
    description: str = ""

    def __init__(self, core, params: SchemeParams):
        # Deferred import: this module must stay import-pure because the
        # core package itself imports repro.schemes at load time.
        from repro.nda.broadcast import BroadcastArbiter

        self.core = weakref.proxy(core)
        self.params = params
        cc = core.config.core
        self.arbiter = BroadcastArbiter(cc.issue_width, cc.nda_broadcast_delay)

    # ------------------------------------------------------------------ #
    # Broadcast gating (NDA's "when may a completed op wake dependents").
    # ------------------------------------------------------------------ #

    def may_broadcast(self, entry: DynInstr, head_seq: Optional[int]) -> bool:
        """May *entry* broadcast its result tag this cycle?"""
        return True

    def defer_broadcast(self, entry: DynInstr) -> None:
        """Queue a completed entry that could not broadcast."""
        self.arbiter.defer(entry)

    def drain_deferred(
        self,
        now: int,
        ports_used: int,
        head_seq: Optional[int],
        broadcast: Callable[[DynInstr, int], None],
    ) -> int:
        """Retry the deferred pool; returns the number broadcast.

        *broadcast* takes ``(entry, now)`` so the core can pass a bound
        method instead of allocating a closure every cycle; the per-drain
        adapters below are only built when the pool is non-empty.  Also
        syncs the arbiter's counters into the core's stats whenever they
        can change, so sampled windows see up-to-date values.
        """
        arbiter = self.arbiter
        if not arbiter.deferred:
            return 0
        done = arbiter.drain(
            now,
            ports_used,
            lambda e: self.may_broadcast(e, head_seq),
            lambda e: broadcast(e, now),
        )
        stats = self.core.stats
        stats.deferred_broadcasts = arbiter.deferred_broadcasts
        stats.broadcast_port_conflicts = arbiter.port_conflicts
        return done

    def next_event(self, now: int) -> Optional[int]:
        """Earliest future cycle at which this scheme may act on its own.

        Consulted by the core's idle-cycle fast-forward once per
        quiescence check (see DESIGN.md, "The event-driven clock").
        Return values:

        * ``None`` — the scheme is purely reactive right now: it will do
          nothing until some other pipeline event (a completion, a memory
          response, a fetch redirect) happens first.
        * a cycle number — the scheme may act at that cycle, and the
          clock must not skip past it.  Returning ``now`` (or anything
          ``<= now``) vetoes fast-forwarding for this cycle.

        Implementations may rely on the span between ``now`` and the
        returned cycle being quiescent: nothing completes, issues,
        dispatches, commits, fetches, or squashes in between, so any
        state derived from the ROB/LSQ/safety tracker is frozen.

        The base implementation is conservative about the only
        time-driven machinery it owns, the deferred-broadcast pool: any
        deferred entry vetoes skipping.  Schemes that add their own
        time-driven or per-cycle behavior (e.g. a visibility phase) MUST
        override this and either veto or bound their next action; purely
        reactive schemes inherit a correct default.
        """
        return now if self.arbiter.deferred else None

    # ------------------------------------------------------------------ #
    # Issue gating (fence-style schemes).
    # ------------------------------------------------------------------ #

    def may_issue(self, entry: DynInstr, now: int) -> bool:
        """May *entry* leave the issue queue this cycle?"""
        return True

    def issue_ready_horizon(self, now: int) -> Optional[int]:
        """May the issue stage act while the ready pool is non-empty?

        Consulted by the idle-cycle fast-forward *only* when the issue
        queue's ready pool is non-empty (an empty pool needs no scheme
        opinion).  Same return contract as :meth:`next_event`: ``None``
        means no ready entry can issue until some other tracked event
        source fires first, so the clock may skip; any cycle ``<= now``
        vetoes skipping.

        The base implementation vetoes unconditionally — a ready entry
        might issue any cycle as far as the base scheme knows.  A scheme
        whose :meth:`may_issue` gate can stall *every* ready entry for
        long spans (e.g. FenceOnBranch) should override this to return
        ``None`` when all ready entries are currently vetoed, PROVIDED
        each veto is released only by events the clock already tracks
        (completions, memory responses, deferred broadcasts, its own
        ``next_event``).  The override must depend only on machine state,
        never on ``now`` itself: the fast-forward relies on a ``None``
        answer staying ``None`` across the whole skipped span.
        """
        return now

    # ------------------------------------------------------------------ #
    # Load visibility (InvisiSpec-style schemes).
    # ------------------------------------------------------------------ #

    def load_executes_invisibly(self, entry: DynInstr) -> bool:
        """Should this load's access leave the cache hierarchy untouched?"""
        return False

    def on_invisible_load(self, entry: DynInstr, access, now: int) -> None:
        """An invisible access happened; *access* is the hierarchy result."""

    def load_visibility_phase(self, now: int) -> None:
        """Once per cycle: advance loads toward their visibility point."""

    # ------------------------------------------------------------------ #
    # Pipeline event bookkeeping.
    # ------------------------------------------------------------------ #

    def on_dispatch(self, entry: DynInstr) -> None:
        """A micro-op entered the ROB/IQ/LSQ."""

    def on_branch_resolved(self, entry: DynInstr) -> None:
        """A branch computed its direction/target."""

    def on_store_resolved(self, entry: DynInstr) -> None:
        """A store computed its address."""

    def on_squash(self, entry: DynInstr) -> None:
        """One entry was squashed (called youngest-first)."""

    def after_squash(self) -> None:
        """A squash finished; drop scheme state for squashed entries."""
        self.arbiter.remove_squashed()

    def on_commit(self, entry: DynInstr, now: int) -> None:
        """A micro-op retired architecturally."""

    def finalize_stats(self, stats: PipelineStats) -> None:
        """End of run: fold scheme counters into the final stats."""
        stats.deferred_broadcasts = self.arbiter.deferred_broadcasts
        stats.broadcast_port_conflicts = self.arbiter.port_conflicts

    # ------------------------------------------------------------------ #
    # Registry/UI classmethods (no core instance involved).
    # ------------------------------------------------------------------ #

    @classmethod
    def label_for(cls, params: SchemeParams) -> str:
        """Human-readable legend label for this parameterization."""
        return cls.name

    @classmethod
    def variants(cls) -> "List[Tuple[str, SchemeParams]]":
        """``(config_name, params)`` presets to expose in the canonical
        :func:`repro.config.config_registry` sweep (legend order)."""
        return [(cls.name, cls.params_cls())]

    @classmethod
    def expected_leak(cls, attack, params: SchemeParams) -> bool:
        """Ground truth: does *attack* (an AttackInfo) leak under *params*?

        Conservative default: an unknown scheme is assumed broken until
        its model overrides this.
        """
        return True
