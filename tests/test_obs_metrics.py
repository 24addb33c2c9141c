"""Metrics-registry tests: instruments, snapshots, round-trips, ingest."""

from __future__ import annotations

import pytest

from repro.api import simulate
from repro.config import baseline_ooo, config_registry
from repro.obs import MetricsRegistry, metrics_from_run
from repro.obs.metrics import Counter, Gauge, Histogram, METRICS_SCHEMA
from repro.workloads.generator import spec_program


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.inc(-1.5)
        assert gauge.value == 2.0

    def test_histogram_pow2_buckets(self):
        hist = Histogram()
        for value in (0, 1, 2, 3, 4, 9, 17):
            hist.observe(value)
        assert hist.buckets == {0: 1, 1: 1, 2: 2, 4: 1, 8: 1, 16: 1}
        assert hist.count == 7
        assert hist.sum == 36
        assert hist.mean == pytest.approx(36 / 7)

    def test_histogram_load_verbatim(self):
        hist = Histogram()
        hist.load({1: 3, 8: 2}, total=21, count=5)
        assert hist.buckets == {1: 3, 8: 2}
        assert hist.mean == pytest.approx(4.2)


class TestRegistry:
    def test_labels_create_separate_series(self):
        registry = MetricsRegistry()
        metric = registry.counter("requests")
        metric.labels(scheme="nda").inc(2)
        metric.labels(scheme="ooo").inc(5)
        assert metric.labels(scheme="nda").value == 2
        assert metric.labels(scheme="ooo").value == 5

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_contains_and_get(self):
        registry = MetricsRegistry()
        registry.gauge("cpi")
        assert "cpi" in registry
        assert registry.get("cpi").kind == "gauge"
        assert registry.get("nope") is None
        assert len(registry) == 1

    def test_collect_is_deterministic_and_versioned(self):
        registry = MetricsRegistry()
        registry.counter("b").labels(k="2").inc(1)
        registry.counter("b").labels(k="1").inc(1)
        registry.counter("a").labels().inc(1)
        payload = registry.collect()
        assert payload["schema"] == METRICS_SCHEMA
        assert [m["name"] for m in payload["metrics"]] == ["a", "b"]
        b_labels = [s["labels"] for s in payload["metrics"][1]["samples"]]
        assert b_labels == [{"k": "1"}, {"k": "2"}]

    def test_restore_round_trips_exactly(self):
        registry = MetricsRegistry()
        registry.counter("hits", "cache hits").labels(tier="l1").inc(7)
        registry.gauge("cpi").labels(scheme="nda").set(1.25)
        hist = registry.histogram("lat").labels()
        hist.observe(3)
        hist.observe(100)
        payload = registry.collect()
        assert MetricsRegistry.restore(payload).collect() == payload

    def test_restore_survives_json_round_trip(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("lat").labels(w="mcf").observe(12)
        payload = json.loads(json.dumps(registry.collect()))
        assert MetricsRegistry.restore(payload).collect() == registry.collect()

    def test_render_lists_every_sample(self):
        registry = MetricsRegistry()
        registry.counter("hits").labels(tier="l1").inc(3)
        registry.histogram("lat").labels().observe(4)
        text = registry.render()
        assert "metric" in text and "kind" in text
        assert "hits" in text and "tier=l1" in text and "3" in text
        assert "n=1 mean=4.00" in text


class TestIngestion:
    def _outcome(self):
        program = spec_program("mcf", instructions=700, seed=2)
        return simulate(program, baseline_ooo())

    def test_pipeline_stats_ingest(self):
        outcome = self._outcome()
        registry = metrics_from_run(outcome.stats, scheme="ooo",
                                    workload="mcf")
        labels = {"scheme": "ooo", "workload": "mcf"}
        stats = outcome.stats
        assert registry.get("sim_cycles").labels(**labels).value \
            == stats.cycles
        assert registry.get("sim_committed").labels(**labels).value \
            == stats.committed
        assert registry.get("sim_cpi").labels(**labels).value \
            == pytest.approx(stats.cpi)
        hist = registry.get("sim_dispatch_to_issue_cycles").labels(**labels)
        assert hist.count == stats.dispatch_to_issue_count
        assert hist.sum == stats.dispatch_to_issue_sum
        cycle_class = registry.get("sim_cycle_class_cycles")
        total = sum(
            instrument.value for instrument in cycle_class.series.values()
        )
        assert total == sum(stats.cycle_class.values())

    def test_nda_stats_ingest_counts_defers(self):
        program = spec_program("mcf", instructions=700, seed=2)
        strict = config_registry()["strict"]
        outcome = simulate(program, strict.config)
        registry = metrics_from_run(outcome.stats, scheme="nda")
        deferred = registry.get("sim_deferred_broadcasts").labels(
            scheme="nda"
        )
        assert deferred.value == outcome.stats.deferred_broadcasts > 0

    def test_engine_and_cache_ingest(self, tmp_path):
        from repro.engine.store import ResultCache
        from repro.harness import run_suite

        cache = ResultCache(tmp_path)
        suite = run_suite(
            benchmarks=["exchange2"],
            configs=[config_registry()["ooo"]],
            samples=1, warmup=300, measure=600, instructions=2_000,
            jobs=1, cache=cache,
        )
        registry = MetricsRegistry()
        registry.ingest_engine_stats(suite.engine, sweep="test")
        # Engine series carry the execution backend as a label.
        labels = {"sweep": "test", "backend": suite.engine.backend}
        assert registry.get("engine_jobs").labels(**labels).value == 1
        assert registry.get("engine_workers").labels(**labels).value == 1
        registry.ingest_cache_stats(cache.stats, sweep="test")
        assert registry.get("cache_stores").labels(sweep="test").value == 1

    def test_engine_ingest_labels_and_counts_backend_series(self):
        from repro.engine.scheduler import EngineStats

        stats = EngineStats(
            jobs=4, executed=2, backend="worker-protocol", resumed=1,
            leases=5, lease_requeues=2,
        )
        registry = MetricsRegistry()
        registry.ingest_engine_stats(stats, sweep="scale")
        labels = {"sweep": "scale", "backend": "worker-protocol"}
        assert registry.get("engine_leases").labels(**labels).value == 5
        assert registry.get("engine_lease_requeues").labels(
            **labels
        ).value == 2
        assert registry.get("engine_resumed").labels(**labels).value == 1

    def test_ingest_twice_accumulates(self):
        outcome = self._outcome()
        registry = MetricsRegistry()
        registry.ingest_pipeline_stats(outcome.stats, scheme="ooo")
        registry.ingest_pipeline_stats(outcome.stats, scheme="ooo")
        assert registry.get("sim_cycles").labels(scheme="ooo").value \
            == 2 * outcome.stats.cycles
