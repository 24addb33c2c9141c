"""Simulator-speed benchmark (host wall-clock, not simulated cycles).

Measures how fast the out-of-order core simulates — kilo-cycles of
simulated time per second of host time — per (workload, configuration,
engine) triple, with the idle-cycle fast-forward on and off.  Schema 2
(the engine era) differs from schema 1 in three deliberate ways:

* **Construction is excluded from the timer.**  Program generation,
  cache/core construction and the fast engine's one-time micro-op
  pre-decode happen before ``perf_counter`` starts; only ``core.run()``
  is measured.  Schema 1 timed ``simulate()`` whole, so its numbers
  under-report steady-state throughput (and penalized the fast engine
  for its pre-decode pass, which real sweeps pay once per thousands of
  windows).
* **Every row names its ``engine``.**  The same (workload, config) is
  measured under both the reference core and the table-driven fast
  core, and the payload carries explicit fast-vs-reference speedup
  columns.
* **Bit-identity is enforced across engines, not just FF modes.**  A
  fast-engine run whose ``cycles``/``committed`` differ from the
  reference engine's is a correctness bug and the harness raises.

``run_simspeed`` returns a JSON-serializable payload;
``render_simspeed`` pretty-prints it; ``compare_simspeed`` diffs a
fresh payload against a checked-in baseline (warn-only — shared-runner
clocks are noisy); ``gate_simspeed`` is the one hard check CI enforces:
the fast engine must hold at least a 2x stepping-path advantage over
the reference on mcf/ooo.  ``profile_case`` captures a cProfile pstats
dump of one row for regression triage.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence

from repro.config import config_registry
from repro.core import FastOoOCore, OutOfOrderCore
from repro.errors import ConfigError
from repro.workloads.generator import spec_program

#: Default measurement matrix: one DRAM-latency-bound workload (mcf,
#: where fast-forward shines), one branchy one (leela), one high-ILP
#: one (exchange2), across the protection schemes whose timing differs.
DEFAULT_WORKLOADS = ("mcf", "leela", "exchange2")
DEFAULT_CONFIGS = ("ooo", "strict", "invisispec-spectre", "fence-on-branch")
DEFAULT_ENGINES = ("reference", "fast")
DEFAULT_INSTRUCTIONS = 3_000
DEFAULT_REPEATS = 3
DEFAULT_SEED = 7

#: CI hard gate: minimum fast/reference stepping-path (no-FF) speedup
#: on the gate case.  The no-FF ratio is the honest engine comparison —
#: fast-forward skips work instead of doing it faster, and its benefit
#: varies per scheme.
GATE_WORKLOAD = "mcf"
GATE_CONFIG = "ooo"
GATE_MIN_RATIO = 2.0


class SimSpeedError(RuntimeError):
    """Raised when two must-be-identical runs diverge."""


#: The core class each row's ``engine`` label measures.
ENGINE_CORES = {"reference": OutOfOrderCore, "fast": FastOoOCore}


def _build_core(program, config, engine: str, fast_forward: bool):
    """One measured core, constructed OUTSIDE any timer."""
    if engine not in ENGINE_CORES:
        raise ConfigError(
            "unknown engine %r (expected one of %s)"
            % (engine, ", ".join(ENGINE_CORES))
        )
    return ENGINE_CORES[engine](program, config, fast_forward=fast_forward)


def _time_run(program, config, engine: str, fast_forward: bool,
              repeats: int):
    """Best-of-*repeats* wall time of ``core.run()`` alone.

    A fresh core is constructed per repeat (runs mutate machine state),
    but construction — including the fast engine's micro-op pre-decode —
    happens before the clock starts.  Returns ``(seconds, outcome)``.
    """
    best = None
    outcome = None
    for _ in range(repeats):
        core = _build_core(program, config, engine, fast_forward)
        start = time.perf_counter()
        result = core.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            outcome = result
    return best, outcome


def _check_identical(what: str, a, b) -> None:
    if (a.stats.cycles != b.stats.cycles
            or a.stats.committed != b.stats.committed):
        raise SimSpeedError(
            "%s diverged: cycles %d vs %d, committed %d vs %d" % (
                what, a.stats.cycles, b.stats.cycles,
                a.stats.committed, b.stats.committed,
            )
        )


def measure_case(
    workload: str,
    config_name: str,
    instructions: int = DEFAULT_INSTRUCTIONS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
    engine: str = "fast",
) -> Dict[str, object]:
    """Time one (workload, config, engine) triple, FF on and off."""
    spec = config_registry()[config_name]
    if spec.in_order:
        raise ValueError(
            "%r is an in-order configuration; the simulator-speed "
            "benchmark measures the out-of-order core" % config_name
        )
    program = spec_program(workload, instructions=instructions, seed=seed)
    wall_ff, fast = _time_run(program, spec.config, engine, True, repeats)
    wall_no, slow = _time_run(program, spec.config, engine, False, repeats)
    _check_identical(
        "fast-forward on %s/%s [%s]" % (workload, config_name, engine),
        fast, slow,
    )
    cycles = fast.stats.cycles
    committed = fast.stats.committed
    return {
        "workload": workload,
        "config": config_name,
        "label": spec.label,
        "engine": engine,
        "cycles": cycles,
        "committed": committed,
        "wall_seconds": wall_ff,
        "wall_seconds_no_ff": wall_no,
        "cycles_per_sec": cycles / wall_ff if wall_ff > 0 else 0.0,
        "cycles_per_sec_no_ff": cycles / wall_no if wall_no > 0 else 0.0,
        "committed_per_sec": committed / wall_ff if wall_ff > 0 else 0.0,
        "speedup_vs_no_ff": wall_no / wall_ff if wall_ff > 0 else 0.0,
    }


def _one_obs_run(program, config, attach_bus: bool, sample_interval: int,
                 tracer=None):
    """One timed core run, optionally with an attached telemetry bus
    (and a metrics sampler on it) and/or a run span on *tracer*."""
    from repro.core.ooo import OutOfOrderCore

    core = OutOfOrderCore(program, config)
    sampler = None
    if attach_bus:
        from repro.obs import EventBus, MetricsSampler

        bus = EventBus().attach(core)
        if sample_interval:
            sampler = bus.add_sampler(MetricsSampler(sample_interval))
    start = time.perf_counter()
    if tracer is not None:
        with tracer.span("simspeed.run",
                         attrs={"program": program.name or ""}):
            result = core.run()
    else:
        result = core.run()
    elapsed = time.perf_counter() - start
    return elapsed, result, len(sampler.rows) if sampler is not None else 0


def measure_obs_overhead(
    workload: str = "mcf",
    config_name: str = "strict",
    instructions: int = DEFAULT_INSTRUCTIONS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
    sample_interval: int = 1_000,
) -> Dict[str, object]:
    """Cost of the telemetry layer on one (workload, config) pair.

    Four timed variants of the same run: no bus at all (**detached** —
    every observer slot is None), a bus attached with no subscribers
    (every per-event attribute still None), a bus with a periodic
    metrics sampler, and a run under an installed span tracer spooling
    to a scratch directory (the distributed-tracing attach cost — one
    span + one JSONL append per run).  All four must be bit-identical;
    the overhead contract (DESIGN.md §3.5/§3.10) is ~0% for the first
    two and <10% with sampling or tracing enabled.  Measured on the
    reference engine (the telemetry bus's hook-elision contract is
    defined against it).
    """
    import tempfile

    from repro.obs.spans import Tracer, install_tracer, uninstall_tracer

    spec = config_registry()[config_name]
    if spec.in_order:
        raise ValueError(
            "%r is an in-order configuration; measure the out-of-order "
            "core" % config_name
        )
    program = spec_program(workload, instructions=instructions, seed=seed)
    # Variants are interleaved within each repeat (not run as sequential
    # blocks) so slow host drift — thermal, cache, scheduler — biases all
    # variants equally instead of whichever block ran last.
    variants = {
        "detached": (False, 0, False),
        "attached-idle": (True, 0, False),
        "sampling": (True, sample_interval, False),
        "tracing": (False, 0, True),
    }
    best: Dict[str, float] = {}
    outcomes: Dict[str, object] = {}
    samples = 0
    with tempfile.TemporaryDirectory() as spool_dir:
        for _ in range(max(repeats, 3)):
            for name, (attach_bus, interval, traced) in variants.items():
                tracer = None
                if traced:
                    tracer = Tracer("simspeed", spool_dir=spool_dir)
                    install_tracer(tracer)
                try:
                    elapsed, result, rows = _one_obs_run(
                        program, spec.config, attach_bus, interval,
                        tracer=tracer,
                    )
                finally:
                    if traced:
                        uninstall_tracer()
                if name not in best or elapsed < best[name]:
                    best[name] = elapsed
                    outcomes[name] = result
                    if name == "sampling":
                        samples = rows
    wall_off = best["detached"]
    wall_idle = best["attached-idle"]
    wall_sampled = best["sampling"]
    wall_traced = best["tracing"]
    base = outcomes["detached"]
    for variant in ("attached-idle", "sampling", "tracing"):
        _check_identical(
            "telemetry variant %r on %s/%s" % (
                variant, workload, config_name,
            ),
            outcomes[variant], base,
        )
    return {
        "workload": workload,
        "config": config_name,
        "cycles": base.stats.cycles,
        "sample_interval": sample_interval,
        "samples": samples,
        "wall_seconds_detached": wall_off,
        "wall_seconds_attached_idle": wall_idle,
        "wall_seconds_sampling": wall_sampled,
        "wall_seconds_tracing": wall_traced,
        "overhead_attached_idle": (
            wall_idle / wall_off - 1.0 if wall_off > 0 else 0.0
        ),
        "overhead_sampling": (
            wall_sampled / wall_off - 1.0 if wall_off > 0 else 0.0
        ),
        "overhead_tracing": (
            wall_traced / wall_off - 1.0 if wall_off > 0 else 0.0
        ),
    }


def run_simspeed(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    configs: Sequence[str] = DEFAULT_CONFIGS,
    instructions: int = DEFAULT_INSTRUCTIONS,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
    verbose: bool = False,
    obs: bool = False,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> Dict[str, object]:
    """Measure the full matrix; returns the JSON (schema 2) payload.

    Each (workload, config) pair is measured under every engine in
    *engines*; when both engines are present, cross-engine bit-identity
    is asserted and ``speedup_fast_vs_reference`` /
    ``speedup_fast_vs_reference_no_ff`` are attached to the fast rows.
    """
    results: List[Dict[str, object]] = []
    for workload in workloads:
        for config_name in configs:
            by_engine: Dict[str, Dict[str, object]] = {}
            for engine in engines:
                case = measure_case(
                    workload, config_name,
                    instructions=instructions, repeats=repeats,
                    seed=seed, engine=engine,
                )
                by_engine[engine] = case
                results.append(case)
            if "reference" in by_engine and "fast" in by_engine:
                ref = by_engine["reference"]
                fast = by_engine["fast"]
                if (ref["cycles"] != fast["cycles"]
                        or ref["committed"] != fast["committed"]):
                    raise SimSpeedError(
                        "engines diverged on %s/%s: cycles %d vs %d, "
                        "committed %d vs %d" % (
                            workload, config_name,
                            ref["cycles"], fast["cycles"],
                            ref["committed"], fast["committed"],
                        )
                    )
                fast["speedup_fast_vs_reference"] = (
                    fast["cycles_per_sec"] / ref["cycles_per_sec"]
                    if ref["cycles_per_sec"] else 0.0
                )
                fast["speedup_fast_vs_reference_no_ff"] = (
                    fast["cycles_per_sec_no_ff"]
                    / ref["cycles_per_sec_no_ff"]
                    if ref["cycles_per_sec_no_ff"] else 0.0
                )
            if verbose:
                for case in by_engine.values():
                    print(
                        "  %-12s %-20s %-9s %8.0f kc/s" % (
                            case["workload"], case["config"],
                            case["engine"],
                            case["cycles_per_sec"] / 1000.0,
                        )
                    )
    speedups = [c["speedup_vs_no_ff"] for c in results]
    rates = [c["cycles_per_sec"] for c in results]
    engine_ratios = [
        c["speedup_fast_vs_reference_no_ff"] for c in results
        if "speedup_fast_vs_reference_no_ff" in c
    ]
    payload: Dict[str, object] = {
        "schema": 2,
        "instructions": instructions,
        "repeats": repeats,
        "seed": seed,
        "engines": list(engines),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
        "aggregate": {
            "min_speedup_vs_no_ff": min(speedups) if speedups else 0.0,
            "max_speedup_vs_no_ff": max(speedups) if speedups else 0.0,
            "best_cycles_per_sec": max(rates) if rates else 0.0,
            "min_speedup_fast_vs_reference_no_ff": (
                min(engine_ratios) if engine_ratios else 0.0
            ),
            "max_speedup_fast_vs_reference_no_ff": (
                max(engine_ratios) if engine_ratios else 0.0
            ),
        },
    }
    if obs:
        overhead = measure_obs_overhead(
            workload=workloads[0] if workloads else "mcf",
            config_name="strict" if "strict" in configs else configs[0],
            instructions=instructions, repeats=repeats, seed=seed,
        )
        payload["obs"] = overhead
        if verbose:
            print(
                "  obs overhead on %s/%s: %+.1f%% attached-idle, "
                "%+.1f%% sampling (%d samples), %+.1f%% tracing" % (
                    overhead["workload"], overhead["config"],
                    overhead["overhead_attached_idle"] * 100.0,
                    overhead["overhead_sampling"] * 100.0,
                    overhead["samples"],
                    overhead["overhead_tracing"] * 100.0,
                )
            )
    return payload


def profile_case(
    workload: str,
    config_name: str,
    output_path: str,
    instructions: int = DEFAULT_INSTRUCTIONS,
    seed: int = DEFAULT_SEED,
    engine: str = "fast",
) -> str:
    """cProfile one run of a row; dump pstats to *output_path*.

    Construction stays outside the profiler, matching what the timer
    measures.  Returns the path written.  Note cProfile's tracing
    inflates wall time several-fold — the dump is for *relative*
    hotspot triage, never for kc/s numbers.
    """
    import cProfile
    import os

    spec = config_registry()[config_name]
    program = spec_program(workload, instructions=instructions, seed=seed)
    core = _build_core(program, spec.config, engine, True)
    profiler = cProfile.Profile()
    profiler.enable()
    core.run()
    profiler.disable()
    directory = os.path.dirname(output_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    profiler.dump_stats(output_path)
    return output_path


def _slowest_row(payload: Dict[str, object]) -> Optional[Dict[str, object]]:
    """The row with the lowest kc/s (profiling target)."""
    rows = [
        c for c in payload.get("results", []) if c.get("cycles_per_sec")
    ]
    if not rows:
        return None
    return min(rows, key=lambda c: c["cycles_per_sec"])


def render_simspeed(payload: Dict[str, object]) -> str:
    """ASCII table of one payload (schema 2)."""
    lines = [
        "Simulator speed (%d instructions, best of %d, seed %d, "
        "Python %s)" % (
            payload["instructions"], payload["repeats"],
            payload["seed"], payload["python"],
        ),
        "",
        "%-12s %-20s %-9s %10s %10s %10s %8s %8s" % (
            "workload", "config", "engine", "sim-cycles",
            "kc/s (ff)", "kc/s (off)", "ff-spd", "vs-ref",
        ),
        "-" * 96,
    ]
    for case in payload["results"]:
        no_ff = case.get("cycles_per_sec_no_ff")
        ratio = case.get("speedup_fast_vs_reference_no_ff")
        lines.append(
            "%-12s %-20s %-9s %10d %10.0f %10s %8s %8s" % (
                case["workload"], case["config"], case["engine"],
                case["cycles"],
                case["cycles_per_sec"] / 1000.0,
                "%.0f" % (no_ff / 1000.0) if no_ff else "-",
                "%.2fx" % case["speedup_vs_no_ff"]
                if "speedup_vs_no_ff" in case else "-",
                "%.2fx" % ratio if ratio else "-",
            )
        )
    agg = payload["aggregate"]
    lines.append("-" * 96)
    lines.append(
        "fast-forward speedup: min %.2fx, max %.2fx; best rate %.0f kc/s"
        % (
            agg["min_speedup_vs_no_ff"], agg["max_speedup_vs_no_ff"],
            agg["best_cycles_per_sec"] / 1000.0,
        )
    )
    if agg.get("min_speedup_fast_vs_reference_no_ff"):
        lines.append(
            "fast engine vs reference (stepping path, no FF): "
            "min %.2fx, max %.2fx" % (
                agg["min_speedup_fast_vs_reference_no_ff"],
                agg["max_speedup_fast_vs_reference_no_ff"],
            )
        )
    obs = payload.get("obs")
    if obs:
        lines.append(
            "telemetry overhead (%s/%s, interval %d): "
            "%+.1f%% attached-idle, %+.1f%% sampling (%d samples), "
            "%+.1f%% tracing" % (
                obs["workload"], obs["config"], obs["sample_interval"],
                obs["overhead_attached_idle"] * 100.0,
                obs["overhead_sampling"] * 100.0,
                obs["samples"],
                obs.get("overhead_tracing", 0.0) * 100.0,
            )
        )
    return "\n".join(lines)


def _compare_key(case: Dict[str, object]):
    """The identity of one row: ``(workload, config, engine)``."""
    return (
        case["workload"], case["config"], case.get("engine", "reference"),
    )


def compare_simspeed(
    payload: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = 0.25,
) -> List[str]:
    """Warnings for cases slower than *baseline* by more than *threshold*.

    Compares ``cycles_per_sec`` per (workload, config, engine).
    Returns human-readable warning strings — the CI job prints them and
    still exits 0, because shared-runner wall clocks are far too noisy
    for a hard perf gate (that is :func:`gate_simspeed`'s job, and it
    compares two engines within ONE run, immune to host speed).
    """
    warnings: List[str] = []
    if payload.get("schema") != baseline.get("schema"):
        return [
            "NOTE: baseline is schema %r, this run is schema %r -- "
            "skipping the regression check (schema 2 times core.run() "
            "only; schema 1 numbers include construction)" % (
                baseline.get("schema"), payload.get("schema"),
            )
        ]
    for key in ("instructions", "seed"):
        if payload.get(key) != baseline.get(key):
            # kc/s scales with program size, so cross-parameter diffs
            # would be pure noise; say so instead of fake-warning.
            return [
                "NOTE: baseline measured with %s=%r, this run with %r "
                "-- skipping the regression check"
                % (key, baseline.get(key), payload.get(key))
            ]
    reference = {
        _compare_key(case): case for case in baseline.get("results", [])
    }
    for case in payload["results"]:
        key = _compare_key(case)
        base = reference.get(key)
        if base is None or not base["cycles_per_sec"]:
            continue
        ratio = case["cycles_per_sec"] / base["cycles_per_sec"]
        if ratio < 1.0 - threshold:
            warnings.append(
                "WARNING: %s/%s [%s] simulates at %.0f kc/s, "
                "%.0f%% below the baseline's %.0f kc/s" % (
                    key[0], key[1], key[2],
                    case["cycles_per_sec"] / 1000.0,
                    (1.0 - ratio) * 100.0,
                    base["cycles_per_sec"] / 1000.0,
                )
            )
    return warnings


def gate_simspeed(
    payload: Dict[str, object],
    min_ratio: float = GATE_MIN_RATIO,
    workload: str = GATE_WORKLOAD,
    config: str = GATE_CONFIG,
) -> List[str]:
    """The CI hard gate: fast engine >= *min_ratio* x reference.

    Checks ``speedup_fast_vs_reference_no_ff`` on the gate case — a
    within-run ratio of two engines measured back-to-back on the same
    host, so absolute runner speed cancels out.  Returns failure
    strings (empty when the gate passes); the CI job exits non-zero on
    any.
    """
    failures: List[str] = []
    row = None
    for case in payload.get("results", []):
        if (case.get("workload") == workload
                and case.get("config") == config
                and case.get("engine") == "fast"):
            row = case
            break
    if row is None:
        return [
            "GATE: no fast-engine row for %s/%s in the payload -- run "
            "with both engines enabled" % (workload, config)
        ]
    ratio = row.get("speedup_fast_vs_reference_no_ff")
    if not ratio:
        return [
            "GATE: %s/%s fast row has no reference counterpart -- run "
            "with both engines enabled" % (workload, config)
        ]
    if ratio < min_ratio:
        failures.append(
            "GATE FAILURE: fast engine is %.2fx the reference on %s/%s "
            "(stepping path, no FF); the floor is %.2fx" % (
                ratio, workload, config, min_ratio,
            )
        )
    return failures


# ---------------------------------------------------------------------- #
# Perf trajectory: append-only bench history across commits.
# ---------------------------------------------------------------------- #

#: Append-only JSONL file ``--history`` writes one row per run to.
HISTORY_PATH = "results/bench_history.jsonl"


def _history_rates(payload: Dict[str, object]) -> Dict[str, float]:
    """Flatten a simspeed payload to ``key -> cycles_per_sec``."""
    rates: Dict[str, float] = {}
    for case in payload.get("results", []):
        key = "%s/%s/%s" % (
            case.get("workload", "?"), case.get("config", "?"),
            case.get("engine", "reference"),
        )
        rates[key] = round(float(case.get("cycles_per_sec", 0.0)), 1)
    return rates


def append_history(payload: Dict[str, object],
                   path: str = HISTORY_PATH) -> Dict[str, object]:
    """Append one timestamped, git-SHA-stamped row for *payload*.

    The file is JSONL so rows from different commits accumulate without
    merge conflicts; :func:`compare_history` reads the last row back.
    Returns the entry written.
    """
    import datetime
    from pathlib import Path

    from repro.obs.manifest import git_revision

    entry = {
        "recorded": datetime.datetime.now(
            datetime.timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_revision": git_revision(default=""),
        "schema": payload.get("schema"),
        "instructions": payload.get("instructions"),
        "seed": payload.get("seed"),
        "cycles_per_sec": _history_rates(payload),
    }
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: str = HISTORY_PATH) -> List[Dict[str, object]]:
    """Every parseable history row, oldest first (missing file: [])."""
    from pathlib import Path

    rows: List[Dict[str, object]] = []
    try:
        text = Path(path).read_text()
    except OSError:
        return rows
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def compare_history(payload: Dict[str, object],
                    path: str = HISTORY_PATH,
                    threshold: float = 0.25) -> List[str]:
    """Human-readable drift report vs the last history row (warn-only).

    Flags per-case throughput moves beyond *threshold* in either
    direction; comparable only on the same host, so CI treats these as
    annotations, not gates.
    """
    history = load_history(path)
    if not history:
        return ["history: no prior rows at %s (this run seeds it)" % path]
    prev = history[-1]
    lines = [
        "history: comparing against %s (%s, %d prior rows)" % (
            (prev.get("git_revision") or "no-git")[:12],
            prev.get("recorded", "?"), len(history),
        )
    ]
    prev_rates = prev.get("cycles_per_sec") or {}
    for key, now_rate in sorted(_history_rates(payload).items()):
        then_rate = prev_rates.get(key)
        if not then_rate or not now_rate:
            continue
        ratio = now_rate / then_rate
        if ratio < 1.0 - threshold:
            lines.append(
                "  WARNING %-36s %.0f -> %.0f kc/s (%.0f%% slower)" % (
                    key, then_rate / 1e3, now_rate / 1e3,
                    (1.0 - ratio) * 100.0,
                )
            )
        elif ratio > 1.0 + threshold:
            lines.append(
                "  note    %-36s %.0f -> %.0f kc/s (%.0f%% faster)" % (
                    key, then_rate / 1e3, now_rate / 1e3,
                    (ratio - 1.0) * 100.0,
                )
            )
    if len(lines) == 1:
        lines.append("  all cases within %.0f%% of the previous row"
                     % (threshold * 100.0))
    return lines
