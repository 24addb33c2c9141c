"""Idle-cycle fast-forward: bit-identity, engagement, and next_event().

The out-of-order core's fast-forward must be invisible in every counter
(not just cycles/CPI), on every registered scheme, for both generated
workloads and the attack PoCs.  Wall-clock fields are the one sanctioned
difference and are stripped before comparison.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Tuple

import pytest

from repro.api import simulate
from repro.attacks import (
    gpr_steering, lazyfp, meltdown, netspectre, spectre_btb,
    spectre_icache, spectre_v1, spectre_v2, ssb,
)
from repro.attacks.common import default_guesses
from repro.config import config_registry
from repro.core.ooo import OutOfOrderCore
from repro.isa.assembler import Assembler
from repro.schemes.base import ProtectionModel
from repro.stats.sampling import run_window
from repro.workloads.generator import spec_program

from tests.test_nda import alu, branch, load

#: Wall-clock instrumentation is nondeterministic by design; everything
#: else must match bit-for-bit.
WALL_FIELDS = {"sim_wall_seconds", "kilo_cycles_per_sec"}

OOO_CONFIGS = sorted(
    name for name, spec in config_registry().items() if not spec.in_order
)
#: One config per scheme class for the (slower) attack sweep.
SCHEME_CONFIGS = ["ooo", "strict", "invisispec-spectre", "fence-on-branch"]

ATTACKS = [
    gpr_steering, lazyfp, meltdown, netspectre, spectre_btb,
    spectre_icache, spectre_v1, spectre_v2, ssb,
]


def stats_dict(outcome):
    data = asdict(outcome.stats)
    for field in WALL_FIELDS:
        data.pop(field)
    return data


@pytest.fixture(scope="module")
def mcf_program():
    return spec_program("mcf", instructions=1500, seed=3)


@pytest.fixture(scope="module")
def leela_program():
    return spec_program("leela", instructions=1500, seed=3)


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("config_name", OOO_CONFIGS)
    def test_mcf_bit_identical(self, config_name, mcf_program):
        config = config_registry()[config_name].config
        fast = simulate(mcf_program, config, fast_forward=True)
        slow = simulate(mcf_program, config, fast_forward=False)
        assert stats_dict(fast) == stats_dict(slow)
        assert fast.state.regs == slow.state.regs

    @pytest.mark.parametrize("config_name", OOO_CONFIGS)
    def test_leela_bit_identical(self, config_name, leela_program):
        config = config_registry()[config_name].config
        fast = simulate(leela_program, config, fast_forward=True)
        slow = simulate(leela_program, config, fast_forward=False)
        assert stats_dict(fast) == stats_dict(slow)
        assert fast.state.regs == slow.state.regs


class TestAttackEquivalence:
    @pytest.mark.parametrize("attack", ATTACKS,
                             ids=[a.__name__.split(".")[-1] for a in ATTACKS])
    @pytest.mark.parametrize("config_name", SCHEME_CONFIGS)
    def test_attack_bit_identical(self, attack, config_name):
        config = config_registry()[config_name].config
        guesses = default_guesses(42, 8)
        fast = attack.run(config, secret=42, guesses=guesses,
                          fast_forward=True)
        slow = attack.run(config, secret=42, guesses=guesses,
                          fast_forward=False)
        assert stats_dict(fast.outcome) == stats_dict(slow.outcome)
        assert fast.leaked == slow.leaked
        assert fast.recovered == slow.recovered


class TestRunWindowEquivalence:
    def test_sampled_window_bit_identical(self, mcf_program):
        config = config_registry()["strict"].config
        fast = run_window(mcf_program, config, warmup=200, measure=600,
                          fast_forward=True)
        slow = run_window(mcf_program, config, warmup=200, measure=600,
                          fast_forward=False)
        fast_dict, slow_dict = asdict(fast), asdict(slow)
        for field in WALL_FIELDS:
            fast_dict.pop(field)
            slow_dict.pop(field)
        assert fast_dict == slow_dict


class TestEngagement:
    def test_fast_forward_skips_cycles(self, mcf_program):
        core = OutOfOrderCore(mcf_program, config_registry()["ooo"].config)
        core.run()
        assert core.fast_forward
        assert core.ff_skipped_cycles > 0

    def test_disabled_core_never_skips(self, mcf_program):
        core = OutOfOrderCore(
            mcf_program, config_registry()["ooo"].config, fast_forward=False
        )
        core.run()
        assert core.ff_skipped_cycles == 0

    def test_wall_fields_populated(self, mcf_program):
        outcome = simulate(mcf_program, config_registry()["ooo"].config)
        assert outcome.sim_wall_seconds > 0
        assert outcome.kilo_cycles_per_sec > 0
        assert outcome.stats.summary()["kilo_cycles_per_sec"] == \
            pytest.approx(outcome.kilo_cycles_per_sec)


def _model_for(config_name: str) -> Tuple[OutOfOrderCore, ProtectionModel]:
    """A fresh (idle) core and its protection model.

    The model only holds a weak proxy to its core, so callers keep the
    returned core alive for as long as they use the model.
    """
    asm = Assembler()
    asm.halt()
    core = OutOfOrderCore(asm.build(), config_registry()[config_name].config)
    return core, core.protection


class TestNextEvent:
    def test_baseline_reactive(self):
        core, model = _model_for("ooo")
        assert model.next_event(5) is None
        model.arbiter.defer(alu(0))
        assert model.next_event(5) == 5

    def test_nda_unsafe_entry_never_bounds(self):
        core, model = _model_for("strict")
        guard = branch(0)
        victim = alu(1)
        model.on_dispatch(guard)
        model.on_dispatch(victim)
        model.arbiter.defer(victim)
        # Unsafe: only a pipeline event can free it, so no horizon.
        assert model.next_event(3) is None

    def test_nda_safe_unstamped_fires_now(self):
        core, model = _model_for("strict")
        guard = branch(0)
        victim = alu(1)
        model.on_dispatch(guard)
        model.on_dispatch(victim)
        model.arbiter.defer(victim)
        model.on_branch_resolved(guard)
        # Safe but unstamped: the next drain stamps safe_cycle, so the
        # scheme must act immediately.
        assert model.next_event(7) == 7

    def test_nda_stamped_entry_bounds_at_due_cycle(self):
        core, model = _model_for("strict")
        victim = alu(0)
        model.arbiter.defer(victim)
        victim.safe_cycle = 10
        model.arbiter.extra_delay = 4
        assert model.next_event(3) == 14
        # Past due (port-starved earlier): act now.
        assert model.next_event(20) == 20

    def test_invisispec_speculative_pending_waits(self):
        core, model = _model_for("invisispec-spectre")
        guard = branch(0)
        pending = load(1)
        model.on_dispatch(guard)
        model.on_dispatch(pending)
        model._pending.append(pending)
        # Still speculative: stays invisible until the branch resolves.
        assert model.next_event(4) is None
        model.on_branch_resolved(guard)
        # Visibility point reached: the per-cycle pass must run.
        assert model.next_event(4) == 4

    def test_fence_and_baseline_share_reactive_default(self):
        for name in ("ooo", "fence-on-branch"):
            core, model = _model_for(name)
            assert type(model).next_event is ProtectionModel.next_event
