#!/usr/bin/env python3
"""qmsemi benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Run from the repository root.  The program is imported from ``src/``.  One
job is in flight at a time; rounds of the workload's fixed job list repeat
until ``--seconds`` have passed, and the round in progress then finishes.
Every output is checked after the timed phase.  The last line of standard
output is a JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The full record, with the run environment and the
sanity numbers, goes to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("certify", "flsi", "subordinate", "decay")
SETUP_REPEATS = 3
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass
class Record:
    job: object
    index: int       # position of the job in the round
    round: int
    raw_s: float
    scaled_s: float
    outcome: object
    out_path: str


def run_round(jobs, work: Path, index: int, reference, run_job, tracer=None) -> list[Record]:
    records = []
    for i, job in enumerate(jobs):
        out_path = str(work / f"r{index}-{i}.out")
        if tracer is not None:
            tracer.begin_job()
        outcome, raw, scaled = reference.time(run_job, job, out_path)
        if tracer is not None:
            tracer.end_job()
        records.append(Record(job, i, index, raw, scaled, outcome, out_path))
    return records


def timed_phase(jobs, seconds: float, work: Path, reference, run_job, tracer=None):
    """Whole rounds until ``seconds`` have passed; (records, phase_s, rounds)."""
    records: list[Record] = []
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        records += run_round(jobs, work, rounds, reference, run_job, tracer)
        rounds += 1
    return records, perf_counter() - start, rounds


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def openblas_threads() -> int | None:
    """Thread count OpenBLAS reports, if numpy links a bundled OpenBLAS."""
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib_path in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        # information only, never a gated metric
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads.  On the 2-vCPU shared host this
    # was built on, two OpenBLAS threads stalled the 64x64 eigensolves of m=4
    # certificates 10-40x whenever the other vCPU was busy.
    for key in THREAD_ENV:
        os.environ[key] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "qmsemi" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'qmsemi'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import qmsemi
    import qmsemi.cli  # noqa: F401
    from checks import check_job
    from jobs import build_jobs, run_job
    from layers import PER_LAYER, Tracer, layer_metrics, wrapped_attributes
    from summary import UNITS, end_to_end, per_job_times
    from timing import BRACKET_S, Reference
    import_raw = perf_counter() - t0
    if Path(qmsemi.__file__).resolve().parent != (src / "qmsemi").resolve():
        print(f"error: qmsemi imported from {qmsemi.__file__}, not {src}", file=sys.stderr)
        return 2
    reference = Reference()
    import_s = import_raw * BRACKET_S / reference.probe()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        # set-up: seeded input files (repeated, median) and one untimed
        # warm-up job per (kind, m) cell
        gen_s, warmup_s, warm_failures = [], 0.0, []
        for rep in range(SETUP_REPEATS):
            (jobs, warm), _, scaled = reference.time(
                lambda d: (build_jobs(args.workload, args.seed, d),
                           build_jobs(args.workload, args.seed, d, warmup=True)),
                work / f"setup{rep}")
            gen_s.append(scaled)
        for job in warm:
            out, _, scaled = reference.time(run_job, job, str(work / "warm.out"))
            warmup_s += scaled
            if out.error is not None or out.rc not in (None, 0, 2):
                warm_failures.append(f"{job.name}: {out.error or out.rc}")
        setup_s = import_s + statistics.median(gen_s) + warmup_s

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            records, phase_s, rounds = timed_phase(jobs, args.seconds, work, reference,
                                                   run_job, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced_round_s = None
        if tracer is not None:
            untraced = run_round(jobs, work, -1, reference, run_job)
            untraced_round_s = sum(r.scaled_s for r in untraced)

        failures, sanity = [], {}
        for rec in records:
            reason, values = check_job(rec.job, rec.outcome, rec.out_path)
            if reason is not None:
                failures.append({"job": rec.job.name, "round": rec.round, "reason": reason})
            elif rec.round == 0:
                sanity[rec.job.name] = values
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scaled_s = [r.scaled_s for r in records]
    raw_s = [r.raw_s for r in records]
    top_m = max(job.m for job in jobs)
    job_s = per_job_times([r.index for r in records], scaled_s)
    e2e, beside = end_to_end(setup_s, job_s, [job.m == top_m for job in jobs], peak_rss_mb)
    if tracer is not None:
        overhead = sum(scaled_s) / rounds / untraced_round_s
        values = layer_metrics(tracer, raw_s, scaled_s, [r.job.m == top_m for r in records],
                               overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, units = e2e, UNITS
    attempted, failed = len(records), len(failures)

    probes = reference.samples
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "setup": {"import_s": import_s, "inputs_s": gen_s, "warmup_s": warmup_s,
                  "warmup_jobs": len(warm), "warmup_failures": warm_failures},
        "timed": {"rounds": rounds, "phase_s": phase_s, "jobs_per_round": len(jobs),
                  "wall_jobs_per_s": attempted / phase_s,
                  "jobs": [[r.job.name, r.round, raw, scaled]
                           for r, raw, scaled in zip(records, raw_s, scaled_s)]},
        "reference": {"samples": len(probes), "median_ratio": statistics.median(probes),
                      "slow_share": sum(p > 1.25 for p in probes) / len(probes)},
        "end_to_end": e2e, "beside": beside,
        "failed_ratio": failed / attempted, "failures": failures, "sanity": sanity,
    }
    if tracer is not None:
        result["layers"] = values
        result["tracing"] = {
            "skipped": tracer.skipped, "left_wrapped": wrapped_attributes(),
            "untraced_round_s": untraced_round_s,
            "per_job": [{"job": r.job.name, "round": r.round, "spans": agg, "counts": tot}
                        for r, agg, tot in zip(records, tracer.jobs, tracer.job_totals)],
        }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, default=str) + "\n")

    print(f"{args.workload}: {attempted} jobs in {rounds} rounds, {phase_s:.2f} s, "
          f"{failed} failed; setup {setup_s:.2f} s; tail at p{beside['tail_percentile']:g} "
          f"of {beside['tail_samples']} jobs; slow share {result['reference']['slow_share']:.2f}")
    for f in failures[:10]:
        print(f"  FAILED {f['job']} (round {f['round']}): {f['reason']}")
    if tracer is not None and tracer.skipped:
        print(f"  not traced (no longer in the program): {', '.join(tracer.skipped)}")
    print(f"  result file: {out_file}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
