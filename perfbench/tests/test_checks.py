"""Correctness checks feed failed_ratio: failed jobs, digests, leaks."""

from perfbench import stats, workloads


def ratio(result):
    return stats.failed_ratio(
        result.attempted, result.failed_jobs, len(result.failures),
    )


class TinySweep(workloads.Fig7Sweep):
    """fig7-sweep's checks on one benchmark with short windows."""

    name = "tiny-sweep"
    benchmarks = ("mcf",)
    samples = 1

    def window(self):
        return {"warmup": 200, "measure": 400, "instructions": 1_200}


class TinyCampaign(workloads.FuzzCampaign):
    """fuzz-campaign's checks on five seeds (one per template)."""

    name = "tiny-campaign"
    seeds_per_call = 5


def test_clean_tiny_sweep_has_zero_failed_ratio(tmp_path):
    result = TinySweep().call(0, tmp_path)
    assert result.failures == []
    assert ratio(result) == 0.0
    assert abs(result.committed - 11 * (200 + 400)) < 11 * 8


def test_digest_mismatch_fails_the_call(tmp_path, monkeypatch):
    monkeypatch.setitem(
        workloads.EXPECTED, "tiny-sweep", {"0": {"fingerprint": "0" * 64}},
    )
    result = TinySweep().call(0, tmp_path)
    assert any("digest" in failure for failure in result.failures)
    assert ratio(result) > 0.0


def test_raising_job_fails_the_call(tmp_path, monkeypatch):
    import repro.engine.jobs

    def broken(name, instructions, seed):
        raise RuntimeError("generator broke")

    monkeypatch.setattr(repro.engine.jobs, "spec_program", broken)
    result = TinySweep().call(0, tmp_path)
    assert result.failed_jobs == result.attempted
    assert ratio(result) > 1.0 - 1e-9


def test_raising_fuzz_job_counts_as_failed_job(tmp_path, monkeypatch):
    from repro.fuzz import campaign

    real_run_seed = campaign.run_seed

    def flaky(seed, config_name, **kwargs):
        if seed == 3:
            raise RuntimeError("simulator broke")
        return real_run_seed(seed, config_name, **kwargs)

    monkeypatch.setattr(campaign, "run_seed", flaky)
    result = TinyCampaign().call(0, tmp_path)
    assert result.failed_jobs == len(campaign.fuzz_configs())
    assert ratio(result) >= 0.2


def test_counterexample_fails_the_check():
    from repro.fuzz.campaign import Counterexample, run_campaign

    outcome = run_campaign(range(5), jobs=1)
    assert not outcome.counterexamples
    witness = next(
        w for r in outcome.results if r.config_name == "ooo"
        for w in r.witnesses
    )
    outcome.counterexamples.append(Counterexample(
        seed=0, config_name="full-protection", template="planted",
        witness=witness,
    ))
    workload = TinyCampaign()
    result = workloads.CallResult(attempted=workload.jobs_per_call())
    workload.check(0, outcome, result, expected={})
    assert any("counterexample" in failure for failure in result.failures)
    assert ratio(result) > 0.0


def test_recorded_baseline_counts_are_compared(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED, "tiny-campaign", {"0": {
        "fingerprint": "ignored", "baseline": {"d-cache": -1},
    }})
    result = TinyCampaign().call(0, tmp_path)
    assert any("baseline witnesses" in f for f in result.failures)
