"""repro.fuzz: differential speculative-leak fuzzing.

The subsystem closes the loop the hand-written PoCs leave open: instead
of nine fixed attack programs, a *generator* emits endless randomized
speculation gadgets, a *taint oracle* watches each run for secret-
derived influence on squash-surviving state (d-/i-cache fills, BTB
updates, FPU wake-ups), and a *campaign* runs every program under every
protection scheme — a witness under a scheme that claims to block that
channel class is a counterexample, minimized by ddmin into a permanent
regression test.

Layers:

* :mod:`repro.fuzz.taint` — the oracle, an event-bus subscriber
* :mod:`repro.fuzz.generator` — gadget-aware program templates
* :mod:`repro.fuzz.campaign` — differential runner on the suite engine
* :mod:`repro.fuzz.minimize` — ddmin witness reduction
* :mod:`repro.fuzz.corpus` — JSON round-trip for minimized witnesses
"""

from repro.fuzz.campaign import (
    BASELINE,
    CampaignResult,
    Counterexample,
    FuzzJob,
    FuzzRunResult,
    SmtFuzzJob,
    claimed_blocked_channels,
    claimed_blocked_cross_channels,
    fuzz_configs,
    run_campaign,
    run_seed,
    run_smt_seed,
)
from repro.fuzz.corpus import load_witness_file, save_witness_file
from repro.fuzz.generator import (
    SMT_TEMPLATES,
    TEMPLATES,
    FuzzProgram,
    SmtFuzzProgram,
    generate,
    generate_smt,
    smt_template_for_seed,
    template_for_seed,
)
from repro.fuzz.minimize import (
    MinimizeResult,
    differential_predicate,
    minimize_program,
)
from repro.fuzz.taint import (
    CHANNELS,
    SHARED_CHANNELS,
    LeakWitness,
    TaintOracle,
    run_with_oracle,
)

__all__ = [
    "BASELINE",
    "CHANNELS",
    "CampaignResult",
    "Counterexample",
    "FuzzJob",
    "FuzzProgram",
    "FuzzRunResult",
    "LeakWitness",
    "MinimizeResult",
    "SHARED_CHANNELS",
    "SMT_TEMPLATES",
    "SmtFuzzJob",
    "SmtFuzzProgram",
    "TEMPLATES",
    "TaintOracle",
    "claimed_blocked_channels",
    "claimed_blocked_cross_channels",
    "differential_predicate",
    "fuzz_configs",
    "generate",
    "generate_smt",
    "load_witness_file",
    "minimize_program",
    "run_campaign",
    "run_seed",
    "run_smt_seed",
    "run_with_oracle",
    "save_witness_file",
    "smt_template_for_seed",
    "template_for_seed",
]
