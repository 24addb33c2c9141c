"""The protection-scheme registry and the ProtectionModel plug-in layer.

Covers the public registration API (the only path FenceOnBranch uses),
the per-scheme parameter blocks inside ``SimConfig.cache_key()``, and the
promise that two schemes with identical core/memory configurations never
collide in the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import pytest

from repro.config import (
    NDAPolicyName,
    SimConfig,
    baseline_ooo,
    config_registry,
    nda_config,
    scheme_config,
)
from repro.engine.store import job_cache_key
from repro.engine.jobs import SimJob
from repro.errors import ConfigError
from repro.schemes import (
    NoParams,
    ProtectionModel,
    SchemeParams,
    describe_schemes,
    register_scheme,
    registered_schemes,
    schemes_markdown_table,
    unregister_scheme,
)
from repro.schemes.registry import make_protection, scheme_info

from .conftest import ALL_CONFIG_SPECS, config_ids


# --------------------------------------------------------------------- #
# Registry API.
# --------------------------------------------------------------------- #

def test_builtin_schemes_registered_in_legend_order():
    names = list(registered_schemes())
    assert names == ["none", "nda", "invisispec", "fence-on-branch"]


def test_scheme_info_unknown_name_lists_known():
    with pytest.raises(ConfigError) as err:
        scheme_info("no-such-scheme")
    assert "fence-on-branch" in str(err.value)


def test_register_rejects_bad_names():
    class Nameless(ProtectionModel):
        name = ""

    class CamelCase(ProtectionModel):
        name = "CamelCase"

    for model in (Nameless, CamelCase):
        with pytest.raises(ConfigError):
            register_scheme(model)


def test_register_rejects_duplicates_and_non_models():
    class Dup(ProtectionModel):
        name = "nda"

    with pytest.raises(ConfigError):
        register_scheme(Dup)

    class NotAModel:
        name = "not-a-model"

    with pytest.raises(ConfigError):
        register_scheme(NotAModel)


def test_register_and_unregister_toy_scheme():
    """A scheme registered through the public API is immediately usable
    end-to-end: SimConfig resolves it, config_registry() sweeps it, and
    the core simulates it — with zero changes anywhere else."""
    from repro.api import simulate
    from repro.workloads import spec_program

    @register_scheme
    class ToyModel(ProtectionModel):
        """A do-nothing scheme used only by this test."""

        name = "toy"
        params_cls = NoParams

    try:
        assert "toy" in registered_schemes()
        assert "toy" in config_registry()
        config = SimConfig(scheme="toy").validate()
        assert isinstance(config.scheme_params, NoParams)
        program = spec_program("mcf", 300, seed=3)
        outcome = simulate(program, config)
        baseline = simulate(program, baseline_ooo())
        assert outcome.stats.cycles == baseline.stats.cycles
    finally:
        unregister_scheme("toy")
    assert "toy" not in registered_schemes()
    with pytest.raises(ConfigError):
        SimConfig(scheme="toy")


def test_fence_on_branch_registered_only_via_public_api():
    """FenceOnBranch must ride the registry, not special cases: no module
    outside the ``repro.schemes`` package may import it.  Its presence in
    the config registry, the CLI choices, and the attack matrix therefore
    proves the registry wiring — docstrings may mention the name, code
    may not."""
    import pathlib

    import repro

    src = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if path.parent.name == "schemes":
            continue
        for line in path.read_text().splitlines():
            if "import" in line and (
                "schemes.fence" in line or "FenceOnBranch" in line
            ):
                offenders.append("%s: %s" % (path.relative_to(src), line))
    assert not offenders, offenders

    info = registered_schemes()["fence-on-branch"]
    assert info.model.__name__ == "FenceOnBranchModel"
    assert "fence-on-branch" in config_registry()


def test_make_protection_defaults_params():
    from repro.core.ooo import OutOfOrderCore
    from repro.workloads import spec_program

    program = spec_program("mcf", 100, seed=1)
    core = OutOfOrderCore(program, baseline_ooo())
    assert type(core.protection).__name__ == "BaselineModel"
    # make_protection fills in default params when scheme_params is None.
    core.config = SimConfig(scheme="nda")
    object.__setattr__(core.config, "scheme_params", None)
    model = make_protection(core)
    assert model.params.policy is NDAPolicyName.PERMISSIVE


# --------------------------------------------------------------------- #
# scheme_config factory and legacy coercion.
# --------------------------------------------------------------------- #

def test_scheme_config_factory():
    config = scheme_config("nda", policy=NDAPolicyName.STRICT)
    assert config.scheme == "nda"
    assert config.nda_policy is NDAPolicyName.STRICT

    fence = scheme_config("fence-on-branch")
    assert fence.scheme == "fence-on-branch"
    assert fence.scheme_params.fence_loads is True
    relaxed = scheme_config("fence-on-branch", fence_loads=False)
    assert relaxed.scheme_params.fence_loads is False


def test_scheme_config_legacy_aliases():
    assert scheme_config("ooo").scheme == "none"
    spectre = scheme_config("invisispec-spectre")
    future = scheme_config("invisispec-future")
    assert spectre.scheme == future.scheme == "invisispec"
    assert spectre.scheme_params.future is False
    assert future.scheme_params.future is True


def test_legacy_protection_scheme_enum_still_accepted():
    from repro.config import ProtectionScheme

    config = SimConfig(scheme=ProtectionScheme.NDA)
    assert config.scheme == "nda"
    assert config.nda_policy is NDAPolicyName.PERMISSIVE
    ooo = SimConfig(scheme=ProtectionScheme.NONE)
    assert ooo.scheme == "none"
    future = SimConfig(scheme=ProtectionScheme.INVISISPEC_FUTURE)
    assert future.scheme == "invisispec"
    assert future.scheme_params.future is True


def test_scheme_params_type_checked_by_validate():
    from repro.schemes import NDAParams

    config = SimConfig(scheme="invisispec", scheme_params=NDAParams())
    with pytest.raises(ConfigError):
        config.validate()


# --------------------------------------------------------------------- #
# Cache keys: scheme name + full parameter block, no aliasing.
# --------------------------------------------------------------------- #

def test_cache_keys_distinct_across_all_schemes():
    """Two schemes (or parameterizations) with identical core/memory
    configs must never collide in the result cache."""
    registry = config_registry()
    keyed = {
        name: spec.config.cache_key()
        for name, spec in registry.items()
        if not spec.in_order  # in-order reuses the ooo config by design
    }
    for (name_a, key_a), (name_b, key_b) in combinations(keyed.items(), 2):
        assert key_a != key_b, (name_a, name_b)


def test_cache_key_covers_scheme_params():
    strict = nda_config(NDAPolicyName.STRICT)
    permissive = nda_config(NDAPolicyName.PERMISSIVE)
    assert strict.cache_key() != permissive.cache_key()
    fence = scheme_config("fence-on-branch")
    relaxed = scheme_config("fence-on-branch", fence_loads=False)
    assert fence.cache_key() != relaxed.cache_key()


def test_job_cache_key_distinct_per_scheme():
    def job(config):
        return SimJob(
            benchmark="mcf", label=config.label(), config=config,
            in_order=False, sample_index=0, seed=7,
            warmup=1000, measure=4000, instructions=6000,
        )

    keys = [
        job_cache_key(job(spec.config))
        for spec in config_registry().values()
        if not spec.in_order
    ]
    assert len(set(keys)) == len(keys)


# --------------------------------------------------------------------- #
# Docs generated from the registry.
# --------------------------------------------------------------------- #

def test_describe_schemes_lists_every_scheme():
    text = describe_schemes()
    for name in registered_schemes():
        assert name in text


def test_markdown_table_lists_every_scheme_and_config():
    table = schemes_markdown_table()
    assert table.splitlines()[0].startswith("| Scheme |")
    for name, info in registered_schemes().items():
        assert "`%s`" % name in table
        for config_name, _ in info.model.variants():
            assert "`%s`" % config_name in table


def test_readme_schemes_table_matches_registry():
    """README's schemes table is the exact generator output, so docs can
    never drift from the code."""
    import pathlib

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    assert schemes_markdown_table() in readme.read_text()


# --------------------------------------------------------------------- #
# The core is scheme-agnostic.
# --------------------------------------------------------------------- #

def test_core_has_no_scheme_conditionals():
    import pathlib

    import repro.core.ooo as ooo

    text = pathlib.Path(ooo.__file__).read_text()
    for forbidden in ("ProtectionScheme", "repro.nda", "repro.invisispec",
                      "invisispec", "NDAPolicy"):
        assert forbidden not in text, forbidden


def test_protection_model_is_in_public_api():
    import repro

    for name in ("ProtectionModel", "SchemeParams", "register_scheme",
                 "registered_schemes", "scheme_config"):
        assert name in repro.__all__
        assert hasattr(repro, name)


# --------------------------------------------------------------------- #
# Lifetime: a finished core is freed by reference counting alone.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize(
    "name,config,in_order", ALL_CONFIG_SPECS,
    ids=config_ids(ALL_CONFIG_SPECS),
)
def test_finished_core_freed_without_cycle_collector(name, config, in_order):
    """The protection model's back-reference is weak, so the core and its
    model form no cycle: with the cycle collector off, dropping the last
    reference to a finished core frees it at once."""
    import gc
    import weakref

    from repro.core import make_core
    from repro.workloads.generator import spec_program

    program = spec_program("mcf", instructions=300, seed=2)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        core = make_core(program, config)
        core.run()
        ref = weakref.ref(core)
        del core
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()
