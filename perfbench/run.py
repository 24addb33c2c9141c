"""Job-level benchmark: whole jobs timed end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig7-sweep --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` repeats the workload's job (one *call*) until ``--seconds``
have passed and prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and prints the per-layer metrics of the traced
ones, the per-layer self-time table, the tracing overhead, and writes a
Chrome/Perfetto trace to ``.perfbench/trace-<workload>-seed<n>.json``.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Host times are measured; simulated statistics are exact counts.  The
repository holds no hardware reference, so the timing model is
unvalidated and no accuracy figure is given.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "sim_kinstr_per_s": "kinstr/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "cpu_ms_per_job": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, seed: int, workdir: Path):
    """Median seconds to first job over fresh interpreters, and failures."""
    seconds, failures = [], []
    for index in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             workload.name, str(seed), str(workdir / ("probe-%d" % index))],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            failures.append(
                "setup probe %d exited %d: %s"
                % (index, proc.returncode, proc.stderr.strip()[-300:])
            )
            continue
        seconds.append(float(proc.stdout.split()[-1]))
    return seconds, failures


def run_calls(workload, seed: int, seconds: float, trace: bool,
              workdir: Path):
    """Repeat calls for *seconds*; returns ``[(traced, result, spans)]``.

    A call starts only if, at the mean pace so far, it should end within
    *seconds*, so a run lasts about *seconds* whatever the call length;
    the first call always runs.  With *trace*, untraced and traced calls
    alternate and the run ends on a whole pair.
    """
    from perfbench.tracing import Recorder, sim_committed

    calls = []
    start = time.perf_counter()
    step = 2 if trace else 1
    while True:
        elapsed = time.perf_counter() - start
        if calls and len(calls) % step == 0 \
                and elapsed * (len(calls) + step) / len(calls) > seconds:
            break
        traced = trace and len(calls) % 2 == 1
        scratch = workdir / ("call-%d" % len(calls))
        scratch.mkdir(parents=True)
        with Recorder(workdir / "spool", traced=traced) as recorder:
            result = workload.call(seed, scratch)
        spans = recorder.collect()
        shutil.rmtree(scratch)
        if workload.committed_from_spans:
            result.committed = sim_committed(spans)
        calls.append((traced, result, spans))
    first = calls[0][1].fingerprint
    for index, (_, result, _) in enumerate(calls):
        if result.fingerprint != first:
            result.failures.append(
                "call %d outputs differ from call 0" % index
            )
    return calls


def end_to_end(results, setup_seconds):
    """End-to-end metric values plus a note on the tail percentile."""
    from perfbench import stats

    jobs = sum(r.attempted for r in results)
    completed = jobs - sum(r.failed_jobs for r in results)
    wall = sum(r.wall_s for r in results)
    # The tail percentile is fixed by the job size of one call, so it
    # does not change with how many calls fit in the run; pooling the
    # calls' jobs then leaves at least 10 samples beyond it per call.
    per_call = results[0].attempted
    tail = stats.tail_permille(per_call)
    latencies = [value for r in results for value in r.latencies_s]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "jobs_per_s": completed / wall,
        "sim_kinstr_per_s": sum(r.committed for r in results) / 1e3 / wall,
        "job_p50_ms": (
            stats.percentile(latencies, 500) * 1e3 if latencies else 0.0
        ),
        "job_tail_ms": (
            stats.percentile(latencies, tail) * 1e3
            if latencies and tail else 0.0
        ),
        "cpu_ms_per_job": sum(r.cpu_s for r in results) * 1e3 / jobs,
        "setup_s": (
            statistics.median(setup_seconds) if setup_seconds else 0.0
        ),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    note = "%s; n=%d jobs from %d calls of %d" % (
        stats.percentile_label(tail) if tail else "no tail",
        len(latencies), len(results), per_call,
    )
    return metrics, note


def per_layer(traced_calls, untraced_cpu_ms):
    """Per-layer metrics: mean over traced calls for host times, the
    (identical) per-call value for counts."""
    from perfbench.tracing import layer_metrics

    per_call = []
    for result, spans in traced_calls:
        values = layer_metrics(spans, result.workers)
        values["fuzz.witnesses"] = result.counts.get("fuzz.witnesses", 0)
        values["fuzz.counterexamples"] = result.counts.get(
            "fuzz.counterexamples", 0
        )
        per_call.append(values)
    metrics, failures = {}, []
    for name in per_call[0]:
        values = [call[name] for call in per_call]
        if name.endswith("_s"):
            metrics[name] = sum(values) / len(values)
        else:
            metrics[name] = values[0]
            if any(value != values[0] for value in values):
                failures.append("%s differs between traced calls: %s"
                                % (name, values))
    traced_cpu_ms = sum(r.cpu_s for r, _ in traced_calls) * 1e3 / sum(
        r.attempted for r, _ in traced_calls
    )
    metrics["trace.cpu_ratio"] = traced_cpu_ms / untraced_cpu_ms
    return metrics, failures


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "kcycles/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def print_self_time_table(traced_calls) -> None:
    from perfbench.tracing import self_time_table

    totals = {}
    for _, spans in traced_calls:
        for name, (count, seconds) in self_time_table(spans).items():
            old = totals.get(name, (0, 0.0))
            totals[name] = (old[0] + count, old[1] + seconds)
    calls = len(traced_calls)
    grand = sum(seconds for _, seconds in totals.values()) or 1.0
    print("self time per traced call (all processes; self = span minus "
          "the part its children cover):")
    print("  %-20s %9s %11s %7s" % ("span", "spans", "self s", "share"))
    for name, (count, seconds) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        print("  %-20s %9.1f %11.4f %6.1f%%" % (
            name, count / calls, seconds / calls, 100.0 * seconds / grand,
        ))


def write_trace(spans, workload, seed: int, failures) -> None:
    from perfbench.tracing import chrome_trace
    from repro.obs.perfetto import validate_chrome_trace

    payload = chrome_trace(spans, main_pid=os.getpid())
    problems = validate_chrome_trace(payload)
    path = ROOT / ".perfbench" / (
        "trace-%s-seed%d.json" % (workload.name, seed)
    )
    path.write_text(json.dumps(payload))
    if problems:
        failures.append("trace export invalid: %s" % problems[:3])
    print("trace: %d spans -> %s (%s)" % (
        len(spans), path.relative_to(ROOT),
        "valid Chrome trace" if not problems else "INVALID",
    ))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import stats
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / (
        "run-%s-%d" % (workload.name, os.getpid())
    )
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_seconds, setup_failures = measure_setup(
            workload, args.seed, workdir,
        )
        calls = run_calls(
            workload, args.seed, args.seconds, bool(args.trace), workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [result for _, result, _ in calls]
    failures = list(setup_failures)
    for result in results:
        failures.extend(result.failures)
    untraced = [result for traced, result, _ in calls if not traced]
    metrics, tail_note = end_to_end(untraced, setup_seconds)
    print("perfbench %s seed=%d: %d calls x %d jobs, local-pool, "
          "%d workers" % (workload.name, args.seed, len(calls),
                          results[0].attempted, results[0].workers))
    print("end to end (untraced calls):")
    for name, value in metrics.items():
        extra = ""
        if name == "job_tail_ms":
            extra = "  (%s)" % tail_note
        elif name == "setup_s":
            extra = "  (median of %d fresh interpreters)" % len(setup_seconds)
        print("  %-18s %14.4f %s%s" % (
            name, value, END_TO_END_UNITS[name], extra,
        ))
    output = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
              for name, value in metrics.items()}
    if args.trace:
        traced = [(r, spans) for is_traced, r, spans in calls if is_traced]
        layers, layer_failures = per_layer(traced, metrics["cpu_ms_per_job"])
        failures.extend(layer_failures)
        print_self_time_table(traced)
        print("per layer (mean per traced call; counts are exact):")
        for name, value in layers.items():
            print("  %-26s %16.4f %s" % (name, value, layer_unit(name)))
        print("tracing overhead: traced cpu_ms_per_job / untraced = %.4f "
              "(pool workers traced in place, spans spooled per job)"
              % layers["trace.cpu_ratio"])
        write_trace(
            [span for _, spans in traced for span in spans],
            workload, args.seed, failures,
        )
        output = {name: {"value": value, "unit": layer_unit(name)}
                  for name, value in layers.items()}
    attempted = sum(r.attempted for r in results)
    failed_jobs = sum(r.failed_jobs for r in results)
    print("failed_ratio %.4f (%d failed jobs + %d failed checks of %d "
          "jobs attempted)" % (
              stats.failed_ratio(attempted, failed_jobs, len(failures)),
              failed_jobs, len(failures), attempted,
          ))
    for failure in failures:
        print("CHECK FAILED: %s" % failure)
    print("model: unvalidated timing model (no hardware reference in the "
          "repository); no accuracy figure")
    print(json.dumps({
        "correct": not failures and not failed_jobs,
        "attempted": attempted,
        "failed": failed_jobs + len(failures),
        "metrics": output,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
