"""The tail-percentile rule and the other pure statistics helpers."""

import pytest

from perfbench import stats


@pytest.mark.parametrize("n, permille", [
    (19, None),     # the median has only 9 beyond it
    (20, 500),
    (44, 750),      # one fig7-sweep call: p90 leaves only 4 beyond
    (100, 900),
    (200, 950),     # one smt-fuzz call
    (999, 950),
    (1000, 990),    # one fuzz-campaign call
    (10_000, 999),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, permille):
    assert stats.tail_permille(n) == permille


def test_tail_rule_holds_for_every_sample_count():
    for n in range(20, 3_000):
        chosen = stats.tail_permille(n)
        assert stats.samples_beyond(n, chosen) >= stats.MIN_BEYOND
        for higher in stats.PERCENTILE_LADDER:
            if higher > chosen:
                assert stats.samples_beyond(n, higher) < stats.MIN_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 45))  # 1..44, shuffled order must not matter
    values.reverse()
    assert stats.percentile(values, 500) == 22
    assert stats.percentile(values, 750) == 33
    assert sum(v > stats.percentile(values, 750) for v in values) == 11
    assert stats.percentile_label(990) == "p99"
    assert stats.percentile_label(999) == "p99.9"


def test_failed_ratio_counts_jobs_and_checks():
    assert stats.failed_ratio(100, 0, 0) == 0.0
    assert stats.failed_ratio(100, 2, 1) == pytest.approx(0.03)
    assert stats.failed_ratio(0, 0, 1) == 1.0
