"""Event-bus contract tests: dispatch mechanics and bit-identity.

The load-bearing guarantee of :mod:`repro.obs` is that observation is
free when unused and invisible when used: a run with no bus, a run with
an attached-but-idle bus, a run with subscribers/samplers, and a run
whose bus was detached again must all produce bit-identical
architectural state and counters (wall-clock fields excepted).  The
bit-identity and delivery tests run on both out-of-order cores: the
production :class:`FastOoOCore` and the reference
:class:`OutOfOrderCore`, whose full event streams must also agree.
"""

from __future__ import annotations

import pytest

from repro.config import config_registry
from repro.core.fastcore import FastOoOCore
from repro.core.inorder import InOrderCore
from repro.core.ooo import OutOfOrderCore
from repro.debug import PipelineTracer
from repro.obs import EventBus, MetricsSampler, ensure_bus
from repro.obs.bus import EVENT_NAMES
from repro.workloads.generator import spec_program

from .conftest import ALL_CONFIG_SPECS, OOO_CONFIG_SPECS, config_ids

#: Stats fields that depend on the host clock, not the simulation.
_WALL_FIELDS = ("sim_wall_seconds", "kilo_cycles_per_sec")


def _fingerprint(outcome):
    stats = outcome.stats.to_dict()
    for field in _WALL_FIELDS:
        stats.pop(field, None)
    return (list(outcome.state.regs), outcome.state.pc,
            outcome.state.committed, stats)


def _run(config, in_order, core_cls, *, attach=None,
         detach_before_run=False):
    program = spec_program("mcf", instructions=700, seed=11)
    core = (InOrderCore if in_order else core_cls)(program, config)
    if attach is not None:
        bus = attach(core)
        if detach_before_run:
            bus.detach()
    return core.run()


class TestBitIdentity:
    """Every registered scheme must simulate identically with and
    without the telemetry layer."""

    #: The out-of-order core under test (in-order configs ignore it).
    CORE = OutOfOrderCore

    @pytest.mark.parametrize(
        "name,config,in_order", ALL_CONFIG_SPECS,
        ids=config_ids(ALL_CONFIG_SPECS),
    )
    def test_attached_idle_bus_is_bit_identical(self, name, config,
                                                in_order):
        baseline = _run(config, in_order, self.CORE)
        observed = _run(config, in_order, self.CORE,
                        attach=lambda core: EventBus().attach(core))
        assert _fingerprint(observed) == _fingerprint(baseline)

    @pytest.mark.parametrize(
        "name,config,in_order", ALL_CONFIG_SPECS,
        ids=config_ids(ALL_CONFIG_SPECS),
    )
    def test_subscribed_and_sampled_is_bit_identical(self, name, config,
                                                     in_order):
        def attach(core):
            bus = EventBus().attach(core)
            bus.subscribe(PipelineTracer(limit=10_000))
            bus.add_sampler(MetricsSampler(interval=100))
            return bus

        baseline = _run(config, in_order, self.CORE)
        observed = _run(config, in_order, self.CORE, attach=attach)
        assert _fingerprint(observed) == _fingerprint(baseline)

    @pytest.mark.parametrize(
        "name,config,in_order", ALL_CONFIG_SPECS[:2],
        ids=config_ids(ALL_CONFIG_SPECS[:2]),
    )
    def test_detached_bus_is_bit_identical(self, name, config, in_order):
        baseline = _run(config, in_order, self.CORE)
        observed = _run(
            config, in_order, self.CORE,
            attach=lambda core: EventBus().attach(core),
            detach_before_run=True,
        )
        assert _fingerprint(observed) == _fingerprint(baseline)

    @pytest.mark.parametrize(
        "name,config,in_order", OOO_CONFIG_SPECS,
        ids=config_ids(OOO_CONFIG_SPECS),
    )
    def test_sampler_does_not_perturb_fast_forward(self, name, config,
                                                   in_order):
        """Sampling with FF on and off agrees with the plain runs."""
        program = spec_program("mcf", instructions=700, seed=11)
        outcomes = []
        for fast_forward in (True, False):
            core = self.CORE(program, config, fast_forward=fast_forward)
            bus = EventBus().attach(core)
            sampler = bus.add_sampler(MetricsSampler(interval=100))
            outcomes.append((core.run(), sampler))
        (fast, fast_sampler), (slow, slow_sampler) = outcomes
        assert _fingerprint(fast) == _fingerprint(slow)
        # FF collapses quiescent spans, so it can only drop samples.
        assert 0 < len(fast_sampler) <= len(slow_sampler)


class TestBitIdentityFastCore(TestBitIdentity):
    CORE = FastOoOCore


class TestBusMechanics:
    def test_fresh_bus_has_no_handlers(self):
        bus = EventBus()
        for name in EVENT_NAMES:
            assert getattr(bus, name) is None
        assert bus.sample_due == float("inf")

    def test_single_subscriber_is_bound_directly(self):
        class Observer:
            def __init__(self):
                self.seen = []

            def instr_retire(self, entry, now):
                self.seen.append((entry, now))

        bus = EventBus()
        observer = bus.subscribe(Observer())
        assert bus.instr_retire == observer.instr_retire
        assert bus.instr_dispatch is None
        bus.instr_retire("entry", 4)
        assert observer.seen == [("entry", 4)]

    def test_two_subscribers_fan_out_in_order(self):
        calls = []

        class A:
            def instr_retire(self, entry, now):
                calls.append("a")

        class B:
            def instr_retire(self, entry, now):
                calls.append("b")

        bus = EventBus()
        bus.subscribe(A())
        bus.subscribe(B())
        bus.instr_retire("entry", 0)
        assert calls == ["a", "b"]

    def test_attach_detach_restores_slots(self, ooo_config):
        program = spec_program("mcf", instructions=200, seed=0)
        core = OutOfOrderCore(program, ooo_config)
        bus = EventBus().attach(core)
        assert core.obs is bus
        assert core.hierarchy.obs is bus
        assert core.lsq.obs is bus
        assert core.btb.obs is bus
        assert bus.core is core
        bus.detach()
        assert core.obs is None
        assert core.hierarchy.obs is None
        assert core.lsq.obs is None
        assert core.btb.obs is None
        assert bus.core is None

    def test_detach_leaves_foreign_bus_alone(self, ooo_config):
        program = spec_program("mcf", instructions=200, seed=0)
        core = OutOfOrderCore(program, ooo_config)
        first = EventBus().attach(core)
        second = EventBus().attach(core)
        first.detach()  # must not evict the newer bus
        assert core.obs is second

    def test_ensure_bus_reuses_attached_bus(self, ooo_config):
        program = spec_program("mcf", instructions=200, seed=0)
        core = OutOfOrderCore(program, ooo_config)
        bus = ensure_bus(core)
        assert ensure_bus(core) is bus

    def test_sampler_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MetricsSampler(interval=0)

    def test_sampler_rows_and_series(self, ooo_config):
        program = spec_program("mcf", instructions=700, seed=3)
        core = OutOfOrderCore(program, ooo_config)
        bus = EventBus().attach(core)
        sampler = bus.add_sampler(MetricsSampler(interval=50))
        outcome = core.run()
        assert len(sampler) > 0
        cycles = sampler.series("cycle")
        assert cycles == sorted(cycles)
        assert cycles[-1] <= outcome.stats.cycles
        assert max(sampler.series("rob")) > 0
        with pytest.raises(KeyError):
            sampler.series("no_such_column")

    def test_sampler_limit_caps_rows(self, ooo_config):
        program = spec_program("mcf", instructions=700, seed=3)
        core = OutOfOrderCore(program, ooo_config)
        bus = EventBus().attach(core)
        sampler = bus.add_sampler(MetricsSampler(interval=10, limit=5))
        core.run()
        assert len(sampler) == 5


def _event_stream(core_cls, config, program):
    """Run *program* and return every event the core emitted, in order,
    as ``(name, cycle, *payload)`` with micro-ops reduced to their seq."""
    events = []

    class Recorder:
        pass

    recorder = Recorder()
    for name in EVENT_NAMES:
        def record(*args, _name=name):
            events.append((_name, core.cycle) + tuple(
                getattr(arg, "seq", arg) for arg in args
            ))
        setattr(recorder, name, record)
    core = core_cls(program, config)
    ensure_bus(core).subscribe(recorder)
    outcome = core.run()
    return events, outcome


class TestEventDelivery:
    """The emit sites actually fire, with counts matching the stats."""

    #: The out-of-order core under test.
    CORE = OutOfOrderCore

    def _count_events(self, config, program):
        events, outcome = _event_stream(self.CORE, config, program)
        counts = {name: 0 for name in EVENT_NAMES}
        for event in events:
            counts[event[0]] += 1
        return counts, outcome

    def test_lifecycle_counts_match_stats(self, ooo_config):
        program = spec_program("mcf", instructions=700, seed=5)
        counts, outcome = self._count_events(ooo_config, program)
        stats = outcome.stats
        assert counts["instr_dispatch"] == stats.dispatched
        assert counts["instr_issue"] == stats.issued
        assert counts["instr_retire"] == stats.committed
        assert counts["instr_squash"] == stats.squashed_ops
        assert counts["instr_complete"] >= stats.committed
        assert counts["instr_broadcast"] > 0

    def test_nda_defers_are_emitted(self):
        from repro.config import config_registry

        strict = config_registry()["strict"]
        program = spec_program("mcf", instructions=700, seed=5)
        counts, outcome = self._count_events(strict.config, program)
        assert counts["instr_defer"] == outcome.stats.deferred_broadcasts
        assert counts["instr_defer"] > 0

    def test_invisispec_visibility_events(self):
        from repro.config import config_registry

        spec = config_registry()["invisispec-spectre"]
        program = spec_program("mcf", instructions=700, seed=5)
        counts, outcome = self._count_events(spec.config, program)
        assert counts["load_validate"] == outcome.stats.validations
        assert counts["load_expose"] == outcome.stats.exposures
        assert counts["load_validate"] + counts["load_expose"] > 0

    def test_memory_events(self, ooo_config):
        program = spec_program("mcf", instructions=700, seed=5)
        counts, _ = self._count_events(ooo_config, program)
        assert counts["data_fill"] > 0
        assert counts["inst_fill"] > 0

    def test_frontend_btb_events(self, ooo_config):
        # BTB installs need taken branches the predictor later revisits,
        # so use the branchy profile.
        program = spec_program("leela", instructions=1_500, seed=4)
        counts, _ = self._count_events(ooo_config, program)
        assert counts["btb_update"] > 0
        assert counts["store_forward"] >= 0

    @pytest.mark.parametrize("config_name", ["ooo", "strict"])
    def test_squash_end_closes_each_squash(self, config_name):
        config = config_registry()[config_name].config
        program = spec_program("leela", instructions=1_500, seed=4)
        events, outcome = _event_stream(self.CORE, config, program)
        ends = [i for i, event in enumerate(events)
                if event[0] == "squash_end"]
        assert len(ends) == outcome.stats.squashes > 0
        squashed = 0
        for i, event in enumerate(events):
            if event[0] != "instr_squash":
                continue
            squashed += 1
            # A squash's instr_squash events run back to back, and the
            # squash_end right after them names an older boundary.
            following = events[i + 1]
            assert following[0] in ("instr_squash", "squash_end")
            if following[0] == "squash_end":
                assert following[2] < event[2]
        assert squashed == outcome.stats.squashed_ops

    def test_load_data_fires_for_every_committed_load(self, ooo_config):
        class Loads:
            def __init__(self):
                self.obtained = set()
                self.committed = []

            def load_data(self, entry, from_memory):
                self.obtained.add(entry.seq)

            def instr_retire(self, entry, now):
                if entry.is_load:
                    self.committed.append(entry.seq)

        program = spec_program("mcf", instructions=700, seed=5)
        core = self.CORE(program, ooo_config)
        loads = ensure_bus(core).subscribe(Loads())
        core.run()
        assert loads.committed
        assert set(loads.committed) <= loads.obtained

    def test_exec_ctx_is_clear_at_retire(self, ooo_config):
        class Probe:
            def __init__(self, bus):
                self.bus = bus
                self.retired = 0
                self.attributed_retires = 0
                self.attributed_fills = 0

            def instr_retire(self, entry, now):
                self.retired += 1
                if self.bus.exec_ctx is not None:
                    self.attributed_retires += 1

            def data_fill(self, addr, now):
                if self.bus.exec_ctx is not None:
                    self.attributed_fills += 1

        program = spec_program("mcf", instructions=700, seed=5)
        core = self.CORE(program, ooo_config)
        bus = ensure_bus(core)
        probe = bus.subscribe(Probe(bus))
        core.run()
        assert probe.retired > 0
        assert probe.attributed_retires == 0
        # ...while a d-cache demand fill is attributed to its load.
        assert probe.attributed_fills > 0

    def test_inorder_step_events(self):
        program = spec_program("mcf", instructions=300, seed=5)
        steps = []

        class Recorder:
            def inorder_step(self, pc, instr, start_cycle, end_cycle):
                steps.append((pc, start_cycle, end_cycle))

        core = InOrderCore(program, None)
        ensure_bus(core).subscribe(Recorder())
        outcome = core.run()
        assert len(steps) == outcome.stats.committed
        assert all(start < end for _, start, end in steps)


class TestEventDeliveryFastCore(TestEventDelivery):
    CORE = FastOoOCore


@pytest.mark.parametrize(
    "config_name", ["ooo", "strict", "invisispec-spectre", "fence-on-branch"]
)
@pytest.mark.parametrize("workload", ["mcf", "leela"])
def test_both_cores_emit_the_same_event_stream(workload, config_name):
    """Name, cycle and payload of every event, in order, agree between
    the fast and the reference core."""
    config = config_registry()[config_name].config
    program = spec_program(workload, instructions=1_500, seed=7)
    fast, fast_outcome = _event_stream(FastOoOCore, config, program)
    reference, _ = _event_stream(OutOfOrderCore, config, program)
    assert len(fast) > fast_outcome.stats.committed
    assert fast == reference


class TestInOrderTracer:
    def test_tracer_follows_inorder_core(self):
        program = spec_program("mcf", instructions=300, seed=5)
        core = InOrderCore(program, None)
        tracer = PipelineTracer.attach(core, limit=1_000)
        outcome = core.run()
        assert len(tracer.records) == min(outcome.stats.committed, 1_000)
        first = tracer.records[0]
        assert first.fetch >= 0
        assert first.retire >= first.fetch
        # Stages the serial core does not have stay unset.
        assert first.issue == -1 and first.broadcast == -1
        span = max(r.retire for r in tracer.records[:5]) - first.fetch + 2
        text = tracer.render(width=span)
        assert "F" in text and "R" in text

    def test_tracer_render_matches_tsv_rows(self):
        program = spec_program("mcf", instructions=300, seed=5)
        core = InOrderCore(program, None)
        tracer = PipelineTracer.attach(core, limit=50)
        core.run()
        tsv = tracer.to_tsv().splitlines()
        assert len(tsv) == 1 + len(tracer.records)
        assert tsv[0].startswith("seq\t")
