"""Cross-context attack PoCs and the SMT fuzz layer.

The matrix half pins the taxonomy's cross-context claims live: every
implemented cross attack, on a representative config slice, leaks
exactly when :func:`repro.attacks.taxonomy.expected_leak` says it
should — including the deliberate InvisiSpec ``cross-btb`` escape (the
scheme hides cache fills but still forwards load data, so a transient
indirect call installs a secret-dependent shared-BTB entry).

The fuzz half smoke-tests the paired-program campaign path: baseline
pairs produce ``cross-*`` witnesses, claiming schemes produce no
counterexamples, and generation is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.attacks import cross_btb, cross_ras
from repro.attacks.common import default_guesses
from repro.attacks.taxonomy import CROSS_IMPLEMENTED, expected_leak
from repro.config import config_registry
from repro.errors import ConfigError
from repro.fuzz import (
    SMT_TEMPLATES,
    claimed_blocked_cross_channels,
    generate_smt,
    run_campaign,
    run_smt_seed,
    smt_template_for_seed,
)
from repro.harness.tables import cross_matrix

#: The config slice exercised per attack: the insecure baseline, one
#: NDA policy, the partial blocker, and the branch-fence blocker.
MATRIX_CONFIGS = ("ooo", "strict", "invisispec-spectre", "fence-on-branch")

_CASES = [
    (info, name) for info in CROSS_IMPLEMENTED for name in MATRIX_CONFIGS
]


@pytest.mark.parametrize(
    "info,config_name", _CASES,
    ids=["%s-%s" % (i.name, n) for i, n in _CASES],
)
def test_cross_attack_matches_taxonomy_claim(info, config_name):
    spec = config_registry()[config_name]
    outcome = info.module.run(spec.config, guesses=list(range(32, 52)))
    expected = expected_leak(info, spec.config)
    assert outcome.leaked == expected, (
        "%s on %s: leaked=%s but the taxonomy claims %s (margin=%d)"
        % (info.name, config_name, outcome.leaked, expected,
           outcome.margin)
    )
    if config_name == "ooo":
        assert outcome.leaked, "baseline must leak on every cross channel"
        assert outcome.recovered == outcome.secret


def test_all_cross_attacks_are_two_context():
    assert len(CROSS_IMPLEMENTED) == 3
    for info in CROSS_IMPLEMENTED:
        assert info.contexts == 2
        assert info.sharing in ("smt", "l2")
        assert info.channel.startswith("cross-")


def test_cross_attacks_reject_in_order():
    spec = config_registry()["ooo"]
    for info in CROSS_IMPLEMENTED:
        with pytest.raises(ConfigError):
            info.module.run(spec.config, in_order=True)


def test_cross_btb_rejects_indistinguishable_secret():
    # Training installs target T(0), so a secret with low bits 000 would
    # be indistinguishable from "blocked" — the PoC refuses it.
    with pytest.raises(ValueError):
        cross_btb.run(config_registry()["ooo"].config, secret=16)


def test_cross_ras_call_site_is_independent_of_guess_count():
    # The attacker's probe-flush prologue grows with the guess list; the
    # RAS-poisoning call must still land at GADGET_PC - 1.
    attacker, _ = cross_ras.build_programs(42, default_guesses(42, 256))
    call = attacker.instrs[cross_ras.GADGET_PC - 1]
    assert call.info.is_call
    registry = config_registry()
    guesses = default_guesses(42, 32)
    assert cross_ras.run(registry["ooo"].config, guesses=guesses).leaked
    assert not cross_ras.run(
        registry["strict"].config, guesses=guesses
    ).leaked


def test_cross_matrix_rows_skip_in_order():
    registry = config_registry()
    rows = cross_matrix(
        configs=[registry["ooo"], registry["in-order"]], guesses=8,
    )
    assert {row["config"] for row in rows} == {"OoO"}
    assert all(row["leaked"] == row["expected"] for row in rows)


# ---------------------------------------------------------------------- #
# Cross-context claims.
# ---------------------------------------------------------------------- #


def test_claimed_blocked_cross_channels():
    registry = config_registry()
    assert claimed_blocked_cross_channels(registry["ooo"]) == ()
    strict = claimed_blocked_cross_channels(registry["strict"])
    assert set(strict) == {"cross-d-cache", "cross-btb", "cross-ras"}
    invisi = claimed_blocked_cross_channels(registry["invisispec-spectre"])
    assert set(invisi) == {"cross-d-cache", "cross-ras"}
    assert "cross-btb" not in invisi
    # cross-i-cache has no PoC, so no scheme may claim it.
    for name in ("strict", "full-protection", "fence-on-branch"):
        assert "cross-i-cache" not in \
            claimed_blocked_cross_channels(registry[name])


# ---------------------------------------------------------------------- #
# SMT fuzz layer.
# ---------------------------------------------------------------------- #


def test_generate_smt_is_deterministic():
    for seed in range(len(SMT_TEMPLATES)):
        first, second = generate_smt(seed), generate_smt(seed)
        assert first.template == second.template == \
            smt_template_for_seed(seed)
        assert [repr(i) for i in first.attacker.instrs] == \
            [repr(i) for i in second.attacker.instrs]
        assert [repr(i) for i in first.victim.program.instrs] == \
            [repr(i) for i in second.victim.program.instrs]
        assert first.channel == "cross-" + first.victim.channel


def test_generate_smt_rejects_unknown_template():
    with pytest.raises(ValueError):
        generate_smt(0, template="no-such-template")


@pytest.mark.parametrize("seed", range(len(SMT_TEMPLATES)))
def test_smt_seed_leaks_on_baseline_not_on_strict(seed):
    baseline = run_smt_seed(seed, "ooo")
    assert baseline.witnesses, "baseline pair produced no witnesses"
    assert all(
        channel.startswith("cross-")
        for channel in baseline.witness_channels()
    )
    protected = run_smt_seed(seed, "strict")
    assert not protected.witnesses


def test_smt_campaign_smoke_no_counterexamples():
    campaign = run_campaign(
        range(len(SMT_TEMPLATES)),
        config_names=["ooo", "strict", "invisispec-spectre"],
        jobs=1,
        smt=True,
    )
    assert campaign.ok
    assert not campaign.counterexamples
    baseline = campaign.baseline_channel_counts()
    assert sum(
        count for channel, count in baseline.items()
        if channel.startswith("cross-")
    ) > 0
