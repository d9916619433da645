"""Percentiles and the end-to-end metrics of one run."""

from __future__ import annotations

import math
import statistics

# The tail is the highest of these percentiles that has at least TAIL_BEYOND
# jobs above it.  With fewer than 2 * TAIL_BEYOND jobs no percentile above
# the median qualifies, and the tail is reported at the median.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# (metric, unit, better); the bounds live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("large_job_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END}


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least TAIL_BEYOND of n samples above it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9:  # 100 - 99.9 is not exact
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default rule)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_job_times(job_index: list[int], seconds: list[float]) -> list[float]:
    """Each job's median time across rounds, in job order."""
    by_job: dict[int, list[float]] = {}
    for i, t in zip(job_index, seconds):
        by_job.setdefault(i, []).append(t)
    return [statistics.median(by_job[i]) for i in sorted(by_job)]


def end_to_end(setup_s: float, job_s: list[float], large: list[bool],
               peak_rss_mb: float) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics over per-job times, and the facts recorded
    beside them.  ``jobs_per_s`` is the rate at those times, so it does not
    count the reference probes between jobs."""
    p_tail = tail_percentile(len(job_s))
    large_s = [t for t, big in zip(job_s, large) if big]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(job_s) / sum(job_s),
        "job_p50_s": statistics.median(job_s),
        "job_tail_s": percentile(job_s, p_tail),
        "large_job_p50_s": statistics.median(large_s),
        "peak_rss_mb": peak_rss_mb,
    }
    beside = {"tail_percentile": p_tail, "tail_samples": len(job_s),
              "tail_beyond": sum(t > metrics["job_tail_s"] for t in job_s),
              "large_samples": len(large_s)}
    return metrics, beside
