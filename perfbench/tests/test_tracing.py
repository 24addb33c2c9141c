"""Self-time arithmetic, per-layer metrics and span recording."""

import pytest

from perfbench import tracing


def span(span_id, name, start, end, parent=None, pid=1, **attrs):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "pid": pid, "attrs": attrs}


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        span("r", "engine.run_jobs", 0.0, 10.0),
        # Two workers' jobs overlap each other; the union is [1, 6].
        span("a", "engine.job", 1.0, 4.0, parent="r", pid=2),
        span("b", "engine.job", 3.0, 6.0, parent="r", pid=3),
        # Runs past the parent's end: only [8, 10] is covered.
        span("c", "engine.job", 8.0, 12.0, parent="r", pid=2),
        span("a1", "core.step", 2.0, 3.0, parent="a", pid=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["r"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["a1"] == pytest.approx(1.0)
    table = tracing.self_time_table(spans)
    assert table["engine.job"] == (3, pytest.approx(2.0 + 3.0 + 4.0))


def test_layer_metrics_on_a_synthetic_call():
    spans = [
        span("h", "harness.campaign", 0.0, 10.0),
        span("r", "engine.run_jobs", 0.5, 9.0, parent="h"),
        span("j1", "engine.job", 1.0, 5.0, parent="r", pid=2),
        span("j2", "engine.job", 1.0, 8.0, parent="r", pid=3),
        # generate_smt calls generate: one job-level call, not two.
        span("g1", "fuzz.generate", 1.0, 2.0, parent="j1", pid=2, key="7"),
        span("g2", "fuzz.generate", 1.2, 1.8, parent="g1", pid=2, key="x"),
        span("g3", "fuzz.generate", 1.0, 2.0, parent="j2", pid=3, key="7"),
        span("s1", "smt.step", 2.0, 5.0, parent="j1", pid=2,
             cycles=3000, committed=1000, deferred_broadcasts=4,
             validations=0),
        span("s2", "smt.step", 2.0, 8.0, parent="j2", pid=3,
             cycles=3000, committed=1000, deferred_broadcasts=4,
             validations=0),
    ]
    metrics = tracing.layer_metrics(spans, workers=2)
    assert metrics["fuzz.generate_calls"] == 2
    assert metrics["fuzz.distinct_ratio"] == pytest.approx(0.5)
    assert metrics["fuzz.generate_s"] == pytest.approx(2.0)
    assert metrics["smt.step_s"] == pytest.approx(9.0)
    assert metrics["core.step_kcycles_per_s"] == pytest.approx(6.0 / 9.0)
    assert metrics["core.sim_committed"] == 2000
    assert metrics["nda.deferred_broadcasts"] == 8
    assert metrics["engine.worker_busy_s"] == pytest.approx(11.0)
    assert metrics["engine.worker_idle_s"] == pytest.approx(2 * 8.5 - 11.0)
    assert metrics["harness.assemble_s"] == pytest.approx(1.0)
    assert metrics["workloads.generate_calls"] == 0


def test_recorder_traces_pool_workers_and_restores_entry_points(tmp_path):
    from repro.fuzz import campaign
    from repro.fuzz.taint import run_with_oracle
    from repro.obs.perfetto import validate_chrome_trace

    original_execute = campaign.FuzzJob.execute
    with tracing.Recorder(tmp_path / "spool", traced=True) as recorder:
        outcome = campaign.run_campaign(
            [0], config_names=["ooo", "strict"], jobs=2,
            backend="local-pool",
        )
    spans = recorder.collect()
    assert campaign.run_with_oracle is run_with_oracle
    assert campaign.FuzzJob.execute is original_execute
    assert not outcome.failures

    by_id = {s["id"]: s for s in spans}
    jobs = [s for s in spans if s["name"] == "engine.job"]
    assert len(jobs) == 2
    for job in jobs:
        assert by_id[job["parent"]]["name"] == "engine.run_jobs"
    (main_pid,) = {s["pid"] for s in spans if s["name"] == "harness.campaign"}
    assert main_pid not in {job["pid"] for job in jobs}
    steps = [s for s in spans if s["name"] == "fuzz.oracle_step"]
    assert sum(s["attrs"]["cycles"] for s in steps) == sum(
        r.cycles for r in outcome.results
    )
    assert validate_chrome_trace(tracing.chrome_trace(spans, main_pid)) == []
