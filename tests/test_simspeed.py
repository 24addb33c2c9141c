"""Simulator-speed harness tests, focused on the telemetry overhead
measurement (`bench-simspeed --obs`)."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.harness.simspeed import (
    _compare_key,
    compare_simspeed,
    gate_simspeed,
    measure_case,
    measure_obs_overhead,
    render_simspeed,
    run_simspeed,
)


@pytest.fixture(scope="module")
def obs_payload():
    return run_simspeed(
        workloads=["mcf"], configs=["strict"],
        instructions=600, repeats=1, seed=7, obs=True,
    )


class TestObsOverhead:
    def test_measurement_shape(self):
        result = measure_obs_overhead(
            workload="mcf", config_name="strict",
            instructions=600, repeats=1, seed=7, sample_interval=500,
        )
        assert result["workload"] == "mcf"
        assert result["config"] == "strict"
        assert result["cycles"] > 0
        assert result["samples"] > 0
        for key in ("wall_seconds_detached", "wall_seconds_attached_idle",
                    "wall_seconds_sampling"):
            assert result[key] > 0
        for key in ("overhead_attached_idle", "overhead_sampling"):
            assert result[key] > -1.0

    def test_in_order_config_rejected(self):
        with pytest.raises(ValueError):
            measure_obs_overhead(config_name="in-order")

    def test_payload_obs_section(self, obs_payload):
        obs = obs_payload["obs"]
        assert obs["config"] == "strict"
        # The obs run and the FF measurement simulate the same program.
        assert obs["cycles"] == obs_payload["results"][0]["cycles"]

    def test_payload_without_obs_flag_omits_section(self):
        payload = run_simspeed(
            workloads=["mcf"], configs=["ooo"],
            instructions=600, repeats=1, seed=7,
        )
        assert "obs" not in payload

    def test_render_includes_overhead_line(self, obs_payload):
        text = render_simspeed(obs_payload)
        assert "telemetry overhead" in text
        assert "sampling" in text


class TestMeasureCase:
    def test_fast_forward_agrees_and_reports_rates(self):
        case = measure_case("mcf", "ooo", instructions=600, repeats=1,
                            seed=7)
        assert case["cycles"] > 0
        assert case["cycles_per_sec"] > 0
        assert case["speedup_vs_no_ff"] > 0

    def test_in_order_config_rejected(self):
        with pytest.raises(ValueError):
            measure_case("mcf", "in-order")


class TestCompare:
    def test_parameter_mismatch_skips(self, obs_payload):
        baseline = dict(obs_payload, instructions=12345)
        notes = compare_simspeed(obs_payload, baseline)
        assert len(notes) == 1 and "skipping" in notes[0]

    def test_schema_mismatch_skips(self, obs_payload):
        baseline = dict(obs_payload, schema=1)
        notes = compare_simspeed(obs_payload, baseline)
        assert len(notes) == 1 and "schema" in notes[0]

    def test_regression_warns(self, obs_payload):
        baseline = {
            "schema": obs_payload["schema"],
            "instructions": obs_payload["instructions"],
            "seed": obs_payload["seed"],
            "results": [
                dict(case, cycles_per_sec=case["cycles_per_sec"] * 10)
                for case in obs_payload["results"]
            ],
        }
        warnings = compare_simspeed(obs_payload, baseline)
        assert warnings and all("WARNING" in w for w in warnings)

    def test_identical_payload_is_clean(self, obs_payload):
        assert compare_simspeed(obs_payload, obs_payload) == []


class TestCheckedInBaseline:
    """The committed BENCH_simspeed.json is a usable compare baseline."""

    @pytest.fixture(scope="class")
    def baseline(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"
        return json.loads(path.read_text())

    def test_one_row_per_compare_key(self, baseline):
        keys = Counter(_compare_key(case) for case in baseline["results"])
        assert keys and max(keys.values()) == 1

    def test_self_compare_is_clean(self, baseline):
        assert compare_simspeed(baseline, baseline) == []

    def test_gate_finds_its_row(self, baseline):
        assert gate_simspeed(baseline) == []
