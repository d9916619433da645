#!/usr/bin/env python3
"""Largest deviation of each sanity quantity between two result files.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Both files must come from the same workload and seed, so that job names
denote the same inputs.  A speed-up that changes a number shows here: each
quantity (lambda*, FLSI bracket, grad_check, t0, sigma, B_eps distance and
floor, decay slack, ...) is listed with its largest absolute and relative
deviation over the jobs present in both files, and the job where it occurs.
The end-to-end (or per-layer) metrics follow, side by side.
"""

from __future__ import annotations

import json
import math
import sys


def deviations(a: dict, b: dict) -> dict[str, tuple[float, float, str]]:
    """quantity -> (max |a - b|, max |a - b| / max(|a|, |b|), job)."""
    out: dict[str, tuple[float, float, str]] = {}
    for job in sorted(set(a) & set(b)):
        kind = job.split("/")[0]
        for q in sorted(set(a[job]) & set(b[job])):
            x, y = a[job][q], b[job][q]
            if x == y:
                diff = rel = 0.0
            elif math.isfinite(x) and math.isfinite(y):
                diff = abs(x - y)
                rel = diff / max(abs(x), abs(y))
            else:
                diff = rel = math.inf
            key = f"{kind}.{q}"
            if key not in out or diff > out[key][0]:
                out[key] = (diff, rel, job)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        ra = json.load(fh)
    with open(argv[1]) as fh:
        rb = json.load(fh)
    if (ra["workload"], ra["seed"]) != (rb["workload"], rb["seed"]):
        print("warning: different workload or seed; job names may not match", file=sys.stderr)
    print(f"{'quantity':34s} {'max abs dev':>12s} {'max rel dev':>12s}  job")
    for key, (diff, rel, job) in sorted(deviations(ra["sanity"], rb["sanity"]).items()):
        print(f"{key:34s} {diff:12.3e} {rel:12.3e}  {job}")
    ma = ra.get("layers", ra["end_to_end"])
    mb = rb.get("layers", rb["end_to_end"])
    print(f"\n{'metric':44s} {'A':>12s} {'B':>12s} {'B/A':>8s}")
    for name in ma:
        x, y = ma[name], mb.get(name, math.nan)
        ratio = y / x if x else math.nan
        print(f"{name:44s} {x:12.5g} {y:12.5g} {ratio:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
