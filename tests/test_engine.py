"""Tests for the parallel suite engine, result cache, and simulate()."""

import json
import pickle

import pytest

from repro.api import simulate
from repro.config import (
    ConfigSpec,
    NDAPolicyName,
    baseline_ooo,
    config_registry,
    nda_config,
)
from repro.engine import (
    ResultCache,
    SimJob,
    derive_seed,
    execute_job,
    expand_jobs,
    job_cache_key,
    resolve_workers,
    run_jobs,
)
from repro.errors import SimulationError
from repro.harness.experiment import figure7_config_specs, run_suite
from repro.stats.counters import PipelineStats
from repro.workloads.generator import spec_program

TINY = dict(samples=2, warmup=300, measure=800, instructions=2_500)


def tiny_specs():
    return [
        ConfigSpec("OoO", baseline_ooo()),
        ConfigSpec("Strict", nda_config(NDAPolicyName.STRICT)),
        ConfigSpec("In-Order", baseline_ooo(), in_order=True),
    ]


def tiny_jobs(benchmarks=("exchange2",), specs=None):
    return expand_jobs(
        list(benchmarks), specs or tiny_specs(), TINY["samples"],
        TINY["warmup"], TINY["measure"], TINY["instructions"],
    )


class TestSeedDerivation:
    def test_pure_function_of_coordinates(self):
        assert derive_seed("mcf", "OoO", 0, 7) == 7
        assert derive_seed("mcf", "OoO", 3, 7) == 10

    def test_shared_across_configs_and_benchmarks(self):
        # Every config must measure the same program for a given
        # (benchmark, sample), or Fig. 7's normalization breaks.
        assert derive_seed("mcf", "OoO", 1, 0) == \
            derive_seed("leela", "Strict", 1, 0)

    def test_expansion_is_deterministic_and_ordered(self):
        first, second = tiny_jobs(), tiny_jobs()
        assert first == second
        assert [j.coordinates for j in first[:4]] == [
            ("exchange2", "OoO", 0), ("exchange2", "OoO", 1),
            ("exchange2", "Strict", 0), ("exchange2", "Strict", 1),
        ]

    def test_jobs_are_picklable(self):
        job = tiny_jobs()[0]
        assert pickle.loads(pickle.dumps(job)) == job


class TestParallelEqualsSerial:
    def test_suite_results_identical(self):
        kwargs = dict(
            benchmarks=["exchange2"], configs=tiny_specs(), **TINY
        )
        serial = run_suite(jobs=1, **kwargs)
        parallel = run_suite(jobs=2, **kwargs)
        assert serial.labels == parallel.labels
        for key, run in serial.runs.items():
            other = parallel.runs[key]
            assert [s.seed for s in run.samples] == \
                [s.seed for s in other.samples]
            assert run.cpis == other.cpis
            assert run.ci95 == other.ci95
            assert run.aggregate().to_dict() == other.aggregate().to_dict()
        assert parallel.engine.workers == 2
        assert parallel.engine.executed == parallel.engine.jobs

    def test_legacy_tuple_specs_still_accepted(self):
        suite = run_suite(
            benchmarks=["exchange2"],
            configs=[("OoO", baseline_ooo(), False)],
            samples=1, warmup=300, measure=800, instructions=2_500,
        )
        assert suite.run("exchange2", "OoO").mean_cpi > 0

    def test_resolve_workers_caps_and_floors(self):
        assert resolve_workers(1, 100) == 1
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(None, 2) >= 1
        assert resolve_workers(-5, 10) == 1


class TestResultCache:
    def test_miss_then_hit_roundtrips_window(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_jobs()[0]
        assert cache.load(job) is None
        result = execute_job(job)
        cache.store(job, result.window)
        again = cache.load(job)
        assert again is not None
        assert again.to_dict() == result.window.to_dict()
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.size() == 1

    def test_key_changes_with_config_and_params(self):
        job = tiny_jobs()[0]
        base = job_cache_key(job)
        other_config = SimJob(**{
            **job.__dict__, "config": nda_config(NDAPolicyName.PERMISSIVE),
        })
        other_seed = SimJob(**{**job.__dict__, "seed": job.seed + 1})
        other_window = SimJob(**{**job.__dict__, "measure": 999})
        assert len({base, job_cache_key(other_config),
                    job_cache_key(other_seed),
                    job_cache_key(other_window)}) == 4

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_jobs()[0]
        cache.store(job, execute_job(job).window)
        path = cache._path(job_cache_key(job))
        path.write_text("{not json")
        assert cache.load(job) is None
        assert cache.stats.errors == 1
        assert not path.exists()  # bad entry evicted

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        for job in tiny_jobs()[:3]:
            cache.store(job, PipelineStats(cycles=10, committed=5))
        assert cache.size() == 3
        assert cache.clear() == 3
        assert cache.size() == 0

    def test_warm_suite_executes_zero_jobs(self, tmp_path):
        kwargs = dict(
            benchmarks=["exchange2"], configs=tiny_specs(),
            cache=True, cache_dir=tmp_path, **TINY
        )
        cold = run_suite(jobs=2, **kwargs)
        warm = run_suite(jobs=2, **kwargs)
        assert cold.engine.executed == cold.engine.jobs
        assert warm.engine.executed == 0
        assert warm.engine.cache_hits == warm.engine.jobs
        for key in cold.runs:
            assert warm.runs[key].cpis == cold.runs[key].cpis

    def test_config_change_invalidates(self, tmp_path):
        base = dict(
            benchmarks=["exchange2"], samples=1, warmup=300, measure=800,
            instructions=2_500, cache=True, cache_dir=tmp_path,
        )
        run_suite(configs=[ConfigSpec("X", baseline_ooo())], **base)
        changed = run_suite(
            configs=[ConfigSpec("X", nda_config(NDAPolicyName.STRICT))],
            **base,
        )
        assert changed.engine.cache_hits == 0
        assert changed.engine.executed == changed.engine.jobs


class TestFailureHandling:
    def test_bad_job_fails_without_killing_sweep(self):
        jobs = tiny_jobs()
        bad = SimJob(**{**jobs[0].__dict__, "benchmark": "no_such_bench"})
        results, failures, stats = run_jobs([bad] + jobs[:2], jobs=2)
        assert len(results) == 2
        assert len(failures) == 1
        assert "no_such_bench" in failures[0].error
        assert stats.failures == 1
        assert stats.retries == 1  # retried serially before giving up

    def test_run_suite_surfaces_failures(self):
        with pytest.raises(SimulationError, match="sweep jobs failed"):
            run_suite(
                benchmarks=["no_such_bench"],
                configs=[ConfigSpec("OoO", baseline_ooo())],
                samples=1, warmup=300, measure=800, instructions=2_500,
            )

    def test_broken_pool_degrades_to_serial(self):
        class BrokenPool:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                raise RuntimeError("pool exploded")

        jobs = tiny_jobs()[:3]
        results, failures, stats = run_jobs(
            jobs, jobs=2, executor_factory=BrokenPool
        )
        assert not failures
        assert len(results) == len(jobs)
        assert stats.degraded
        assert stats.executed == len(jobs)


class TestStatsRoundtrip:
    def test_int_keyed_histograms_survive_json(self):
        stats = PipelineStats(cycles=9, committed=4)
        stats.record_dispatch_to_issue(3)
        stats.record_dispatch_to_issue(9)
        stats.classify_cycle("commit")
        payload = json.loads(json.dumps(stats.to_dict()))
        restored = PipelineStats.from_dict(payload)
        assert restored.to_dict() == stats.to_dict()
        assert restored.dispatch_to_issue_hist == {2: 1, 8: 1}
        assert restored.cpi == stats.cpi


class TestSimulateFacade:
    def test_matches_cores_and_respects_in_order(self):
        program = spec_program("exchange2", 1_500, seed=1)
        ooo = simulate(program, baseline_ooo())
        inorder = simulate(program, baseline_ooo(), in_order=True)
        assert ooo.cpi > 0
        assert inorder.cpi >= ooo.cpi  # serial core is never faster
        assert inorder.stats.ilp <= 1.0

    def test_shims_retired_from_package_exports(self):
        import repro
        import repro.core
        import repro.core.inorder
        import repro.core.ooo

        for retired in ("run_program", "run_inorder"):
            assert retired not in repro.__all__
            assert retired not in repro.core.__all__
            assert not hasattr(repro, retired)
            # ... nor on the core modules.
            assert not hasattr(repro.core.ooo, retired)
            assert not hasattr(repro.core.inorder, retired)


class TestConfigRegistry:
    def test_canonical_entries_in_legend_order(self):
        registry = config_registry()
        assert len(registry) == 11
        assert list(registry)[0] == "ooo"
        assert list(registry)[7] == "in-order"
        assert registry["in-order"].in_order
        assert registry["in-order"].label == "In-Order"
        assert [spec.label for spec in registry.values()] == \
            [spec.label for spec in figure7_config_specs()]

    def test_spec_supports_legacy_unpacking(self):
        spec = config_registry()["strict"]
        label, config, in_order = spec
        assert (label, in_order) == ("Strict", False)
        assert spec[0] == label and len(spec) == 3
        assert ConfigSpec.coerce((label, config, in_order)) == ConfigSpec(
            label=label, config=config, in_order=in_order
        )

    def test_cache_key_is_stable_and_discriminating(self):
        a, b = baseline_ooo(), baseline_ooo()
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != nda_config(NDAPolicyName.STRICT).cache_key()
        assert len(a.cache_key()) == 64

    def test_describe_mentions_label_and_key(self):
        text = nda_config(NDAPolicyName.STRICT).describe()
        assert "Strict" in text
        assert "nda policy" in text
        assert "cache key" in text
