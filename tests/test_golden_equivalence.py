"""Golden-model equivalence: every core commits the reference state.

DESIGN.md's first correctness anchor: for any program, both OoO cores (the
reference pipeline and the production fast core) under every protection
scheme, and the in-order core, must produce exactly the architectural
state the reference evaluator computes.
"""

import pytest

from repro.core.inorder import InOrderCore
from repro.isa.semantics import run_reference
from repro.workloads.generator import spec_program
from repro.workloads.kernels import ALL_KERNELS

from .conftest import ALL_CONFIG_SPECS, OOO_CORES, config_ids

KERNEL_CASES = [
    ("pointer_chase", lambda: ALL_KERNELS["pointer_chase"](400, 512)),
    ("streaming", lambda: ALL_KERNELS["streaming"](300)),
    ("dependence_chain", lambda: ALL_KERNELS["dependence_chain"](400)),
    ("wide_alu", lambda: ALL_KERNELS["wide_alu"](400)),
    ("mispredict_heavy", lambda: ALL_KERNELS["mispredict_heavy"](400)),
    ("store_load_aliasing",
     lambda: ALL_KERNELS["store_load_aliasing"](200)),
]


def _assert_equivalent(program, config, in_order):
    reference = run_reference(program, max_steps=5_000_000)
    for core_cls in (InOrderCore,) if in_order else OOO_CORES:
        state = core_cls(program, config).run().state
        core = core_cls.__name__
        assert state.halted == reference.halted, core
        assert state.regs == reference.regs, (
            "%s register mismatch: %s"
            % (core, {i: (a, b) for i, (a, b) in
                      enumerate(zip(state.regs, reference.regs)) if a != b})
        )
        assert state.memory.equal_contents(reference.memory), core
        assert state.committed == reference.committed, core


@pytest.mark.parametrize("kernel_name,make", KERNEL_CASES,
                         ids=[k for k, _ in KERNEL_CASES])
@pytest.mark.parametrize("label,config,in_order", ALL_CONFIG_SPECS,
                         ids=config_ids(ALL_CONFIG_SPECS))
def test_kernel_equivalence(kernel_name, make, label, config, in_order):
    _assert_equivalent(make(), config, in_order)


@pytest.mark.parametrize("bench", ["mcf", "leela", "lbm"])
@pytest.mark.parametrize("label,config,in_order", ALL_CONFIG_SPECS,
                         ids=config_ids(ALL_CONFIG_SPECS))
def test_spec_workload_equivalence(bench, label, config, in_order):
    program = spec_program(bench, instructions=2_500, seed=7)
    _assert_equivalent(program, config, in_order)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeds_are_equivalent_on_strictest_policy(seed):
    from repro.config import NDAPolicyName, nda_config
    program = spec_program("deepsjeng", instructions=2_000, seed=seed)
    _assert_equivalent(
        program, nda_config(NDAPolicyName.FULL_PROTECTION), False
    )
