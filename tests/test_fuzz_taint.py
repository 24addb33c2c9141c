"""Taint-oracle unit tests: propagation, squash-clearing, transparency.

The oracle is pure observation, so the strongest property here is the
last one: with no oracle attached, every hooked component must produce
*bit-identical* statistics to a core that never had the hooks — the
same contract the idle-cycle fast-forward upholds.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.api import simulate
from repro.attacks.common import PROBE_BASE, SCRATCH_BASE
from repro.config import config_registry
from repro.core.ooo import OutOfOrderCore
from repro.fuzz import TEMPLATES, TaintOracle, generate, run_with_oracle
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
    def test_load_taints_and_address_use_witnesses(self):
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
        assert core.taint is oracle
        oracle.detach()
        assert core.taint is None
        assert core.hierarchy.observer is None
        assert core.btb.observer is None
        assert core.lsq.taint_hook is None

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
