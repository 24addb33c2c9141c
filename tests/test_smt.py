"""Two-context co-residency model (:mod:`repro.smt`).

Four contracts:

* **Guard rails** — ``make_core`` rejects multi-context configs with a
  clear :class:`~repro.errors.ConfigError` pointing at ``SmtMachine``.
* **Single-context bit-identity** — ``num_contexts=1`` (explicit or
  default) is invisible: cache keys and ``to_dict`` payloads are
  unchanged, and the golden scheme-equivalence counters reproduce
  exactly under an explicit single-context config.
* **Arbiter determinism** — the same program pair under the same config
  produces the same round-robin interleaving (pinned by the machine's
  sha256 interleave digest) and the same per-context counters.
* **Core equivalence** — every context runs on the fast core, and a
  machine built on the reference core instead produces the same
  counters, registers, interleaving and oracle witnesses.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

import pytest

import repro.smt.machine
from repro.api import simulate
from repro.attacks.taxonomy import CROSS_IMPLEMENTED
from repro.config import SimConfig, config_registry
from repro.core import FastOoOCore, OutOfOrderCore, make_core
from repro.debug.trace import TraceRecord
from repro.errors import ConfigError
from repro.fuzz import SMT_TEMPLATES, run_smt_seed
from repro.fuzz.generator import generate_smt
from repro.obs import smt_trace_events
from repro.smt import SmtMachine, run_pair
from repro.workloads import spec_program

GOLDEN = pathlib.Path(__file__).parent / "golden" / "scheme_equivalence.json"


def _two_context(sharing: str = "smt") -> SimConfig:
    return replace(SimConfig(), num_contexts=2, sharing=sharing).validate()


# ---------------------------------------------------------------------- #
# Guard rails.
# ---------------------------------------------------------------------- #


def test_validate_rejects_bad_context_counts_and_sharing():
    with pytest.raises(ConfigError, match="num_contexts"):
        replace(SimConfig(), num_contexts=3).validate()
    with pytest.raises(ConfigError, match="sharing"):
        replace(SimConfig(), num_contexts=2, sharing="bogus").validate()


def test_make_core_rejects_two_contexts():
    program = spec_program("mcf", 200, seed=0)
    with pytest.raises(ConfigError, match="SmtMachine"):
        make_core(program, _two_context())


def test_smt_machine_rejects_wrong_program_count():
    config = _two_context()
    program = spec_program("mcf", 200, seed=0)
    with pytest.raises(ConfigError, match="programs"):
        SmtMachine([program], config)


# ---------------------------------------------------------------------- #
# Single-context bit-identity.
# ---------------------------------------------------------------------- #


def test_context_fields_absent_from_single_context_payloads():
    base = SimConfig()
    assert "num_contexts" not in base.to_dict()
    assert "sharing" not in base.to_dict()
    two = replace(base, num_contexts=2)
    assert two.to_dict()["num_contexts"] == 2
    assert two.to_dict()["sharing"] == "smt"


def test_cache_key_unchanged_by_explicit_single_context():
    base = SimConfig()
    explicit = replace(base, num_contexts=1, sharing="l2")
    assert explicit.cache_key() == base.cache_key()
    two = replace(base, num_contexts=2)
    assert two.cache_key() != base.cache_key()


@pytest.mark.parametrize(
    "name", ["ooo", "strict", "invisispec-spectre", "in-order"]
)
def test_explicit_single_context_reproduces_goldens(name):
    """num_contexts=1 is the pre-SMT machine, bit for bit."""
    golden = json.loads(GOLDEN.read_text())
    case = "mcf/%s" % name
    meta = golden["programs"]["mcf"]
    program = spec_program("mcf", meta["instructions"], seed=meta["seed"])
    spec = config_registry()[name]
    config = replace(spec.config, num_contexts=1, sharing="smt")
    stats = simulate(program, config, in_order=spec.in_order).stats
    got = {field: getattr(stats, field)
           for field in golden["counters"][case]}
    assert got == golden["counters"][case]


# ---------------------------------------------------------------------- #
# Structure sharing per mode.
# ---------------------------------------------------------------------- #


def _fuzz_pair(sharing: str):
    """A deterministic disjoint-address program pair for *sharing*."""
    template = {
        "smt": "smt-btb-poison", "l2": "smt-prime-probe",
    }[sharing]
    pair = generate_smt(3, template=template)
    assert pair.sharing == sharing
    return [pair.attacker, pair.victim.program]


def test_smt_mode_shares_frontend_structures():
    machine = SmtMachine(_fuzz_pair("smt"), _two_context("smt"))
    a, b = machine.cores
    assert a.btb is b.btb
    assert a.ras is b.ras
    assert a.hierarchy is b.hierarchy
    assert a.mem is b.mem


def test_l2_mode_shares_only_l2_and_memory():
    machine = SmtMachine(_fuzz_pair("l2"), _two_context("l2"))
    a, b = machine.cores
    assert a.btb is not b.btb
    assert a.ras is not b.ras
    assert a.hierarchy is not b.hierarchy
    assert a.hierarchy.l2 is b.hierarchy.l2
    assert a.mem is b.mem


# ---------------------------------------------------------------------- #
# Arbiter determinism.
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("sharing", ["smt", "l2"])
def test_same_pair_same_interleaving(sharing):
    config = _two_context(sharing)

    def one_run():
        machine = SmtMachine(_fuzz_pair(sharing), config)
        outcomes = machine.run(max_cycles=400_000)
        return (
            machine.interleave_digest(),
            [(o.stats.cycles, o.stats.committed) for o in outcomes],
        )

    first, second = one_run(), one_run()
    assert first == second
    digest, counters = first
    assert len(digest) == 64
    for cycles, committed in counters:
        assert committed > 0, "a context never committed"


def test_run_pair_matches_machine_run():
    config = _two_context("smt")
    programs = _fuzz_pair("smt")
    direct = SmtMachine(programs, config).run(max_cycles=400_000)
    wrapped = run_pair(programs, config, max_cycles=400_000)
    assert [
        (o.stats.cycles, o.stats.committed) for o in direct
    ] == [(o.stats.cycles, o.stats.committed) for o in wrapped]


# ---------------------------------------------------------------------- #
# Fast core vs reference core.
# ---------------------------------------------------------------------- #

CORE_CONFIGS = ("ooo", "strict", "invisispec-spectre", "fence-on-branch")


def _counters(stats):
    data = stats.to_dict()
    data.pop("sim_wall_seconds", None)
    data.pop("kilo_cycles_per_sec", None)
    return data


def _on_core(monkeypatch, core_cls, fn):
    """Call *fn* with every SMT context built as *core_cls*.

    Returns ``(result, runs)``: *fn*'s result plus, per machine run, the
    interleave digest and each context's counters and final registers.
    """
    runs = []

    class Recording(SmtMachine):
        def run(self, *args, **kwargs):
            outcomes = super().run(*args, **kwargs)
            assert all(type(core) is core_cls for core in self.cores)
            runs.append((
                self.interleave_digest(),
                [(_counters(o.stats), o.state.regs) for o in outcomes],
            ))
            return outcomes

    with monkeypatch.context() as patch:
        patch.setattr(repro.smt, "SmtMachine", Recording)
        if core_cls is OutOfOrderCore:
            patch.setattr(repro.smt.machine, "FastOoOCore", OutOfOrderCore)
        result = fn()
    assert runs, "fn never ran an SmtMachine"
    return result, runs


_CROSS_CASES = [
    (info, name) for info in CROSS_IMPLEMENTED for name in CORE_CONFIGS
]


@pytest.mark.parametrize(
    "info,config_name", _CROSS_CASES,
    ids=["%s-%s" % (i.name, n) for i, n in _CROSS_CASES],
)
def test_cross_attacks_identical_on_both_cores(
    monkeypatch, info, config_name
):
    config = config_registry()[config_name].config

    def attack():
        outcome = info.module.run(config, guesses=list(range(32, 52)))
        return outcome.timings, outcome.leaked

    fast = _on_core(monkeypatch, FastOoOCore, attack)
    reference = _on_core(monkeypatch, OutOfOrderCore, attack)
    assert fast == reference


_SEED_CASES = [
    (seed, template, name)
    for template in SMT_TEMPLATES for seed in (0, 1, 2)
    for name in CORE_CONFIGS
]


@pytest.mark.parametrize(
    "seed,template,config_name", _SEED_CASES,
    ids=["%s-%d-%s" % (t, s, n) for s, t, n in _SEED_CASES],
)
def test_smt_fuzz_seed_identical_on_both_cores(
    monkeypatch, seed, template, config_name
):
    def fuzz():
        return run_smt_seed(seed, config_name, template=template).to_dict()

    fast = _on_core(monkeypatch, FastOoOCore, fuzz)
    reference = _on_core(monkeypatch, OutOfOrderCore, fuzz)
    assert fast == reference


# ---------------------------------------------------------------------- #
# Per-context trace lanes.
# ---------------------------------------------------------------------- #


def test_smt_trace_events_use_per_context_pids():
    def record(seq, fetch):
        return TraceRecord(
            seq=seq, pc=seq, disasm="nop", fetch=fetch,
            dispatch=fetch + 1, issue=fetch + 2, complete=fetch + 3,
            broadcast=fetch + 4, retire=fetch + 5, squashed=False,
        )

    events = smt_trace_events([
        [record(0, 0), record(1, 2)],
        [record(0, 1)],
    ])
    pids = {event["pid"] for event in events}
    assert pids == {1, 2}
    names = {
        event["args"]["name"] for event in events if event["ph"] == "M"
    }
    assert names == {"context 0 pipeline", "context 1 pipeline"}
