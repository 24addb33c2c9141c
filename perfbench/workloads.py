"""The benchmark's workloads: one user-facing job each.

A *call* runs one whole job through the public API
(:func:`repro.harness.experiment.run_suite` or
:func:`repro.fuzz.campaign.run_campaign`) on the engine's ``local-pool``
backend with at most one worker per CPU, times it, and checks its
outputs.  A benchmark run repeats calls for the requested seconds.

Outputs are checked against what the job must produce: exact window
lengths and a digest of every simulated counter for the sweep; zero
counterexamples and baseline witness coverage for the campaigns.  Where
``expected.json`` records the outputs for a seed, they must match
exactly; at any other seed, every call of a run must agree with the
first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

EXPECTED = json.loads(
    Path(__file__).with_name("expected.json").read_text()
)

#: Host-time fields of PipelineStats; everything else is simulated.
HOST_FIELDS = ("sim_wall_seconds", "kilo_cycles_per_sec")


def pool_workers() -> int:
    """At most one worker per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def cpu_seconds() -> float:
    """Host CPU of this process plus its reaped children (pool workers)."""
    times = os.times()
    return times.user + times.system + times.children_user \
        + times.children_system


@dataclass
class CallResult:
    """What one call of a workload did and whether it was right."""

    attempted: int
    failed_jobs: int = 0
    #: Failed correctness checks, one message each.
    failures: List[str] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Host seconds of every executed job.
    latencies_s: List[float] = field(default_factory=list)
    #: Simulated committed instructions over the whole job.
    committed: int = 0
    workers: int = 1
    #: Digest of the simulated outputs; equal on every call of a run.
    fingerprint: str = ""
    #: Exact output counts reported with the per-layer metrics.
    counts: Dict[str, int] = field(default_factory=dict)


class Workload:
    """One job type; subclasses say how to run and check it."""

    name = ""
    #: Fuzz outputs do not carry committed-instruction counts, so those
    #: come from the ``counted`` spans (see perfbench.tracing).
    committed_from_spans = False

    def jobs_per_call(self) -> int:
        raise NotImplementedError

    def run(self, seed: int, scratch: Path, progress: Callable):
        """Run the whole job (timed)."""
        raise NotImplementedError

    def probe(self, seed: int, scratch: Path, progress: Callable) -> None:
        """Run the same entry point on two tiny jobs (set-up probe)."""
        raise NotImplementedError

    def check(
        self, seed: int, output, result: CallResult, expected: dict,
    ) -> None:
        """Append a message to ``result.failures`` per failed check;
        *expected* holds the outputs recorded for *seed*, if any."""
        raise NotImplementedError

    def call(self, seed: int, scratch: Path) -> CallResult:
        result = CallResult(
            attempted=self.jobs_per_call(), workers=pool_workers(),
        )

        def progress(done, total, job_result) -> None:
            if job_result is None:
                result.failed_jobs += 1
            else:
                result.latencies_s.append(job_result.elapsed)

        cpu = cpu_seconds()
        start = time.perf_counter()
        try:
            output = self.run(seed, scratch, progress)
        except Exception as error:  # a failed job raises out of run_suite
            result.wall_s = time.perf_counter() - start
            result.cpu_s = cpu_seconds() - cpu
            result.failures.append("%s raised %r" % (self.name, error))
            return result
        result.wall_s = time.perf_counter() - start
        result.cpu_s = cpu_seconds() - cpu
        expected = EXPECTED.get(self.name, {}).get(str(seed), {})
        self.check(seed, output, result, expected)
        if expected and expected["fingerprint"] != result.fingerprint:
            result.failures.append(
                "seed %d outputs digest %s, recorded %s"
                % (seed, result.fingerprint, expected["fingerprint"])
            )
        return result


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class Fig7Sweep(Workload):
    """The paper's headline job: a Fig. 7 sweep over mcf (memory-bound)
    and leela (branchy), every registry config, default windows, fresh
    store.  Stepping and program regeneration dominate it."""

    name = "fig7-sweep"
    benchmarks = ("mcf", "leela")
    samples = 2

    def jobs_per_call(self) -> int:
        from repro.config import config_registry

        return len(self.benchmarks) * len(config_registry()) * self.samples

    def window(self) -> Dict[str, int]:
        """run_suite's default window lengths."""
        from repro.harness import experiment

        params = inspect.signature(experiment.run_suite).parameters
        return {
            name: params[name].default
            for name in ("warmup", "measure", "instructions")
        }

    def run(self, seed, scratch, progress):
        from repro.harness import experiment

        return experiment.run_suite(
            benchmarks=list(self.benchmarks), samples=self.samples,
            seed0=seed, jobs=pool_workers(), backend="local-pool",
            cache_dir=scratch / "store", progress=progress, **self.window(),
        )

    def probe(self, seed, scratch, progress):
        from repro.config import config_registry
        from repro.harness import experiment

        experiment.run_suite(
            benchmarks=["mcf"], configs=list(config_registry().values())[:2],
            samples=1, warmup=100, measure=100, instructions=600,
            seed0=seed, jobs=pool_workers(), backend="local-pool",
            cache_dir=scratch / "store", progress=progress,
        )

    def check(self, seed, suite, result, expected):
        from repro.harness import experiment

        window = self.window()
        warmup, measure = window["warmup"], window["measure"]
        width = {
            spec.label: spec.config.core.commit_width
            for spec in experiment.figure7_config_specs()
        }
        windows = []
        for benchmark in suite.benchmarks:
            for label in suite.labels:
                for sample in suite.run(benchmark, label).samples:
                    window = sample.window
                    # Both window edges fall on the cycle whose commits
                    # cross the boundary, so each may overshoot it by
                    # less than one commit group.
                    if abs(window.committed - measure) >= width[label]:
                        result.failures.append(
                            "%s/%s seed %d committed %d, not %d +- %d"
                            % (benchmark, label, sample.seed,
                               window.committed, measure, width[label] - 1)
                        )
                    counters = dataclasses.asdict(window)
                    for name in HOST_FIELDS:
                        counters.pop(name)
                    windows.append([benchmark, label, sample.seed, counters])
                    result.committed += warmup + window.committed
        if len(windows) != result.attempted:
            result.failures.append(
                "%d windows for %d jobs" % (len(windows), result.attempted)
            )
        if suite.engine.stores != result.attempted:
            result.failures.append(
                "stored %d of %d windows"
                % (suite.engine.stores, result.attempted)
            )
        result.fingerprint = _digest(windows)


class FuzzCampaign(Workload):
    """The differential campaign over every OoO config under the taint
    oracle: many short runs, so core and memory construction dominate."""

    name = "fuzz-campaign"
    committed_from_spans = True
    seeds_per_call = 100
    smt = False

    def seeds(self, seed: int) -> range:
        first = seed * self.seeds_per_call
        return range(first, first + self.seeds_per_call)

    def jobs_per_call(self) -> int:
        from repro.fuzz.campaign import fuzz_configs

        return self.seeds_per_call * len(fuzz_configs())

    def run(self, seed, scratch, progress):
        from repro.fuzz import campaign

        return campaign.run_campaign(
            self.seeds(seed), jobs=pool_workers(), backend="local-pool",
            progress=progress, smt=self.smt,
        )

    def probe(self, seed, scratch, progress):
        from repro.fuzz import campaign

        campaign.run_campaign(
            self.seeds(seed)[:1], config_names=campaign.fuzz_configs()[:2],
            jobs=pool_workers(), backend="local-pool", progress=progress,
            smt=self.smt,
        )

    def check(self, seed, outcome, result, expected):
        from repro.fuzz.taint import CHANNELS

        result.failed_jobs = len(outcome.failures)
        if len(outcome.results) + len(outcome.failures) != result.attempted:
            result.failures.append(
                "%d runs for %d jobs"
                % (len(outcome.results), result.attempted)
            )
        if outcome.counterexamples:
            result.failures.append(
                "%d counterexamples, first: %s"
                % (len(outcome.counterexamples),
                   outcome.counterexamples[0].describe())
            )
        baseline = outcome.baseline_channel_counts()
        if not self.smt:
            silent = [c for c in CHANNELS if not baseline.get(c)]
            if silent:
                result.failures.append(
                    "no baseline witnesses on %s" % ", ".join(silent)
                )
        if "baseline" in expected and expected["baseline"] != baseline:
            result.failures.append(
                "baseline witnesses %s, recorded %s"
                % (baseline, expected["baseline"])
            )
        result.counts = {
            "fuzz.witnesses": sum(len(r.witnesses) for r in outcome.results),
            "fuzz.counterexamples": len(outcome.counterexamples),
        }
        result.fingerprint = _digest({
            "baseline": baseline,
            "runs": sorted(
                [r.seed, r.config_name, r.cycles,
                 [w.to_dict() for w in r.witnesses]]
                for r in outcome.results
            ),
        })


class SmtFuzz(FuzzCampaign):
    """Two-context SmtMachine pairs on the reference engine; bypasses
    make_core and the fast core."""

    name = "smt-fuzz"
    seeds_per_call = 20
    smt = True


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (Fig7Sweep(), FuzzCampaign(), SmtFuzz())
}

