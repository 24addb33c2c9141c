"""Pure statistics helpers: percentiles, the tail rule, failure ratio."""

from __future__ import annotations

from typing import Optional, Sequence

#: Percentiles the tail rule picks from, in tenths of a percent.
PERCENTILE_LADDER = (500, 750, 900, 950, 990, 999)

#: A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, permille: int) -> int:
    """1-based nearest-rank position of a percentile in *n* samples."""
    return max(1, -(-permille * n // 1000))


def samples_beyond(n: int, permille: int) -> int:
    """How many of *n* samples lie above the nearest-rank percentile."""
    return n - _rank(n, permille)


def tail_permille(n: int) -> Optional[int]:
    """Highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    Returned in tenths of a percent (``990`` is p99); ``None`` when *n*
    is too small for even the median to have that many beyond it.
    """
    eligible = [
        p for p in PERCENTILE_LADDER if samples_beyond(n, p) >= MIN_BEYOND
    ]
    return max(eligible) if eligible else None


def percentile(values: Sequence[float], permille: int) -> float:
    """Nearest-rank percentile of *values* (``permille`` as above)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), permille) - 1]


def percentile_label(permille: int) -> str:
    return "p%g" % (permille / 10.0)


def failed_ratio(
    attempted: int, failed_jobs: int, failed_checks: int,
) -> float:
    """Failed jobs plus failed correctness checks, over jobs attempted."""
    return (failed_jobs + failed_checks) / max(1, attempted)
