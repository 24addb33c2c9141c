"""Taint-oracle unit tests: propagation, squash-clearing, transparency.

The oracle is pure observation, so the strongest property here is the
last one: with no oracle attached, every hooked component must produce
*bit-identical* statistics to a core that never had the hooks — the
same contract the idle-cycle fast-forward upholds.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.api import simulate
from repro.attacks.common import PROBE_BASE, SCRATCH_BASE
from repro.config import config_registry
from repro.core import make_core
from repro.core.ooo import OutOfOrderCore
from repro.debug import PipelineTracer
from repro.fuzz import TEMPLATES, TaintOracle, generate, run_with_oracle
from repro.fuzz.campaign import run_smt_seed
from repro.fuzz.generator import generate_smt
from repro.fuzz.taint import SHARED_CHANNELS
from repro.obs import MetricsSampler, ensure_bus
from repro.smt import SmtMachine
from repro.isa.assembler import Assembler
from repro.isa.registers import R5, R6, R10, R11, R12, R20, R21

WALL_FIELDS = {"sim_wall_seconds", "kilo_cycles_per_sec"}

SECRET_ADDR = 0x0040_0000
SIZE_ADDR = 0x0041_0000


def stats_dict(outcome):
    data = asdict(outcome.stats)
    for field in WALL_FIELDS:
        data.pop(field)
    return data


def _window_program(body) -> "Assembler":
    """A bounds-check mis-speculation window around *body*.

    Trains the branch not-taken (in-bounds), flushes the bound, then
    calls once out-of-bounds: ``body(asm)`` runs only transiently.
    """
    asm = Assembler("taint-unit")
    asm.word(SIZE_ADDR, 4)
    asm.data(SECRET_ADDR + 8, bytes([0x2A]))
    asm.jmp("main")

    asm.label("victim")
    asm.li(R20, SIZE_ADDR)
    asm.load(R20, R20, 0)
    asm.bge(R10, R20, "victim_done")
    body(asm)
    asm.label("victim_done")
    asm.ret()

    asm.label("main")
    asm.li(R11, SECRET_ADDR)
    asm.li(R12, PROBE_BASE)
    asm.li(R20, SECRET_ADDR + 8)
    asm.loadb(R21, R20, 0)  # warm the secret line
    for train in range(4):
        asm.li(R10, train % 4)
        asm.call("victim")
    asm.fence()
    asm.li(R20, SIZE_ADDR)
    asm.clflush(R20, 0)
    asm.fence()
    asm.li(R10, 8)  # out of bounds -> transient body
    asm.call("victim")
    asm.fence()
    asm.halt()
    return asm


class TestPropagation:
    def test_load_taint_and_address_use_witnesses(self):
        def body(asm):
            asm.add(R21, R11, R10)
            asm.loadb(R5, R21, 0)  # secret
            asm.shli(R5, R5, 7)  # one cache line per value
            asm.add(R5, R5, R12)
            asm.load(R6, R5, 0)  # tainted-address fill

        program = _window_program(body).build()
        _, witnesses = run_with_oracle(
            program, config_registry()["ooo"].config,
            secret_ranges=((SECRET_ADDR + 8, SECRET_ADDR + 9),),
        )
        assert any(w.channel == "d-cache" for w in witnesses)

    def test_store_to_load_forwarding_propagates(self):
        def body(asm):
            asm.add(R21, R11, R10)
            asm.loadb(R5, R21, 0)  # secret
            asm.li(R6, SCRATCH_BASE)
            asm.store(R5, R6, 0)  # tainted data parked in the LSQ
            asm.load(R5, R6, 0)  # forwarded back: taint must survive
            asm.shli(R5, R5, 7)  # one cache line per value
            asm.add(R5, R5, R12)
            asm.load(R6, R5, 0)  # tainted-address fill

        program = _window_program(body).build()
        core = OutOfOrderCore(program, config_registry()["ooo"].config)
        oracle = TaintOracle(
            secret_ranges=((SECRET_ADDR + 8, SECRET_ADDR + 9),)
        )
        oracle.attach(core)
        core.run(max_cycles=100_000)
        assert core.lsq.forwards > 0  # the hop actually went through the LSQ
        assert any(w.channel == "d-cache" for w in oracle.witnesses)

    def test_untainted_program_produces_no_witnesses(self):
        def body(asm):
            asm.add(R21, R11, R10)
            asm.loadb(R5, R21, 0)
            asm.shli(R5, R5, 7)
            asm.add(R5, R5, R12)
            asm.load(R6, R5, 0)

        program = _window_program(body).build()
        _, witnesses = run_with_oracle(
            program, config_registry()["ooo"].config,
            secret_ranges=(),  # nothing is secret
        )
        assert witnesses == []


class TestSquashClearing:
    def test_squash_clears_register_taint(self):
        # The transient body taints R5 but never transmits; afterwards
        # the architectural path reuses R5 for an untainted load whose
        # own mis-speculated reuse must NOT inherit stale taint.
        def body(asm):
            asm.add(R21, R11, R10)
            asm.loadb(R5, R21, 0)  # tainted, then squashed

        asm = _window_program(body)
        program = asm.build()
        core = OutOfOrderCore(program, config_registry()["ooo"].config)
        oracle = TaintOracle(
            secret_ranges=((SECRET_ADDR + 8, SECRET_ADDR + 9),)
        )
        oracle.attach(core)
        core.run(max_cycles=100_000)
        assert oracle.witnesses == []
        # Nothing in flight afterwards: every record was retired on
        # commit or dropped on squash.
        assert not oracle._recs
        assert not oracle._cands
        # No physical register is still marked tainted at halt: the only
        # tainted write was squashed.
        assert not any(oracle._reg)


class TestTransparency:
    @pytest.mark.parametrize("config_name", ["ooo", "strict", "permissive"])
    def test_no_oracle_is_bit_identical(self, config_name):
        fp = generate(0)
        spec = config_registry()[config_name]
        plain = simulate(fp.program, spec.config)
        observed_core = OutOfOrderCore(fp.program, spec.config)
        oracle = TaintOracle(secret_ranges=fp.secret_ranges)
        oracle.attach(observed_core)
        observed = observed_core.run()
        assert stats_dict(plain) == stats_dict(observed)

    def test_detach_restores_hooks(self):
        fp = generate(0)
        core = OutOfOrderCore(fp.program, config_registry()["ooo"].config)
        oracle = TaintOracle()
        oracle.attach(core)
        bus = core.obs
        assert oracle.bus is bus
        assert bus.instr_issue == oracle.instr_issue
        oracle.detach()
        assert core.obs is None
        assert core.hierarchy.obs is None
        assert core.btb.obs is None
        assert core.lsq.obs is None

    def test_detach_keeps_a_bus_it_did_not_create(self):
        fp = generate(0)
        core = OutOfOrderCore(fp.program, config_registry()["ooo"].config)
        tracer = PipelineTracer.attach(core)
        bus = core.obs
        oracle = TaintOracle().attach(core)
        assert oracle.bus is bus
        oracle.detach()
        assert core.obs is bus
        assert core.hierarchy.obs is bus
        core.run()
        assert tracer.records

    @pytest.mark.parametrize(
        "config_name", ["ooo", "strict", "invisispec-spectre",
                        "fence-on-branch"],
    )
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_run_with_oracle_matches_reference_core(
        self, template, config_name
    ):
        """``run_with_oracle`` (the fast core) sees what the reference
        core sees: same cycles, same witnesses, seed for seed."""
        config = config_registry()[config_name].config
        for seed in range(4):
            fp = generate(seed, template=template)
            outcome, witnesses = run_with_oracle(
                fp.program, config,
                secret_ranges=fp.secret_ranges,
                tainted_bytes=fp.tainted_bytes,
            )
            core = OutOfOrderCore(fp.program, config)
            oracle = TaintOracle(
                secret_ranges=fp.secret_ranges,
                tainted_bytes=fp.tainted_bytes,
            )
            oracle.attach(core)
            reference = core.run(max_cycles=400_000)
            assert (outcome.stats.cycles, witnesses) == (
                reference.stats.cycles, oracle.witnesses
            ), "seed %d" % seed

    def test_run_with_oracle_leaves_no_hooks_behind(self):
        fp = generate(2)
        outcome, witnesses = run_with_oracle(
            fp.program, config_registry()["ooo"].config,
            secret_ranges=fp.secret_ranges,
            tainted_bytes=fp.tainted_bytes,
        )
        assert outcome.stats.cycles > 0
        assert witnesses


def _oracle_for(fp) -> TaintOracle:
    return TaintOracle(
        secret_ranges=fp.secret_ranges, tainted_bytes=fp.tainted_bytes,
    )


class TestSharedBus:
    """The oracle is one bus subscriber among others: sharing the bus
    with the tracer and a metrics sampler changes what neither sees."""

    @pytest.mark.parametrize("config_name", ["ooo", "strict"])
    @pytest.mark.parametrize("template", TEMPLATES)
    def test_oracle_and_telemetry_share_one_bus(self, template, config_name):
        config = config_registry()[config_name].config
        for seed in range(4):
            fp = generate(seed, template=template)
            _, alone = run_with_oracle(
                fp.program, config,
                secret_ranges=fp.secret_ranges,
                tainted_bytes=fp.tainted_bytes,
            )
            core = make_core(fp.program, config)
            tracer_alone = PipelineTracer.attach(core, limit=100_000)
            core.run(max_cycles=400_000)

            core = make_core(fp.program, config)
            oracle = _oracle_for(fp)
            if seed % 2:  # either subscriber may create the bus
                oracle.attach(core)
            tracer = PipelineTracer.attach(core, limit=100_000)
            sampler = ensure_bus(core).add_sampler(
                MetricsSampler(interval=50)
            )
            if not seed % 2:
                oracle.attach(core)
            core.run(max_cycles=400_000)
            oracle.detach()
            assert oracle.witnesses == alone, "seed %d" % seed
            assert tracer.records == tracer_alone.records, "seed %d" % seed
            assert len(sampler) > 0

    def test_smt_pair_with_a_bus_on_both_contexts(self):
        """A run_smt_seed pair (shared BTB and hierarchy, so the machine
        routes the buses per context) with telemetry on both contexts
        finds the same witnesses, and each tracer sees its own context."""
        seed, config_name = 2, "ooo"
        expected = run_smt_seed(seed, config_name)
        pair = generate_smt(seed)
        assert pair.sharing == "smt" and expected.witnesses
        config = replace(
            config_registry()[config_name].config,
            num_contexts=2, sharing=pair.sharing,
        ).validate()
        programs = [pair.attacker, pair.victim.program]

        machine = SmtMachine(programs, config)
        alone = [PipelineTracer.attach(core, limit=100_000)
                 for core in machine.cores]
        machine.run(max_cycles=400_000)

        machine = SmtMachine(programs, config)
        tracers = [PipelineTracer.attach(core, limit=100_000)
                   for core in machine.cores]
        ensure_bus(machine.cores[0]).add_sampler(MetricsSampler(interval=50))
        oracle = TaintOracle(
            secret_ranges=pair.victim.secret_ranges,
            tainted_bytes=pair.victim.tainted_bytes,
            ctx=1,
            shared_channels=SHARED_CHANNELS[pair.sharing],
        ).attach(machine.cores[1])
        machine.run(max_cycles=400_000)
        oracle.detach()
        assert tuple(oracle.witnesses) == expected.witnesses
        for tracer, tracer_alone in zip(tracers, alone):
            assert tracer.records == tracer_alone.records
