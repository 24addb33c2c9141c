"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import SimConfig, baseline_ooo, config_registry
from repro.core.fastcore import FastOoOCore
from repro.core.ooo import OutOfOrderCore

# (label, config, run_on_inorder_core) for every evaluated mechanism.
# Derived from the scheme registry so that a newly registered scheme is
# automatically exercised by the attack matrix and the stress suites.
ALL_CONFIG_SPECS = [
    (spec.name, spec.config, spec.in_order)
    for spec in config_registry().values()
]

OOO_CONFIG_SPECS = [spec for spec in ALL_CONFIG_SPECS if not spec[2]]

# Both out-of-order cores: the reference pipeline and the production
# core (make_core builds FastOoOCore).  The ISA oracles check each.
OOO_CORES = (OutOfOrderCore, FastOoOCore)


@pytest.fixture
def ooo_config() -> SimConfig:
    return baseline_ooo()


def config_ids(specs):
    return [spec[0] for spec in specs]
