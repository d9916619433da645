"""Seeded inputs and the fixed job mix of each workload.

Inputs are written by this file's own numpy code in the documented operator
format ({"dim": m, "matrices": [{"re": ..., "im": ...}]}), so they stay the
same when the program's own random generators change.  A job runs through
the public entry points only: ``qmsemi.cli.main([...])`` for CLI jobs, and a
module attribute looked up at call time for library jobs, so the traced run
sees every wrapped function and a renamed function fails loudly.
"""

from __future__ import annotations

import importlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# One entry per input family: (source, m, copies, ((kind, params), ...)).
# Every copy is a distinct seeded generator and every (kind, params) pair is
# one job on it.  A round runs each job once, and rounds repeat the same list,
# so per-job counts are exact whatever the number of rounds.  Each workload
# has at least 40 jobs where its job cost allows (flsi jobs take ~2 s), so
# that the tail can be p75 with ten jobs beyond it.
DECAY_RANDOM = (("decay-cli", {"rate": 0.0}), ("decay-bound", {"rate": 0.0}),
                ("lp-decay", {"rate": 0.0}))
DECAY_DEPOL = (("decay-cli", {"rate": 1.0}), ("decay-bound", {"rate": 1.0}),
               ("lp-decay", {"rate": 1.0}))
SUBORDINATE = (("sub-eps", {}), ("density", {}))
SUBORDINATE_THETA = (("sub-eps", {}), ("sub-theta", {}), ("density", {}))

WORKLOADS: dict[str, tuple] = {
    "certify": (
        ("random", 4, 34, (("gamma-e", {}),)),
        ("random", 6, 3, (("gamma-e", {}),)),
        ("random", 8, 1, (("gamma-e", {}),)),
        ("depolarizing", 3, 1, (("gamma-e", {}),)),
        ("depolarizing", 4, 1, (("gamma-e", {}),)),
    ),
    # The descent's cost varies from generator to generator, so the largest
    # m has the most generators and the fewest starts; the depolarizing
    # input is the same for every seed and takes the most starts.
    "flsi": (
        ("random", 2, 2, (("flsi", {"starts": 3}),)),
        ("random", 3, 2, (("flsi", {"starts": 3}),)),
        ("random", 4, 3, (("flsi", {"starts": 2}),)),
        ("depolarizing", 2, 1, (("flsi", {"starts": 4}),)),
    ),
    # Three generators per m also get the ms-scale --theta job; the rest of
    # the mix puts the median on the m=4 jobs, clear of the short ones.
    "subordinate": tuple(("random", m, 3, SUBORDINATE_THETA) for m in (3, 4, 6))
    + tuple(("random", m, n, SUBORDINATE) for m, n in ((3, 2), (4, 4), (6, 1))),
    "decay": tuple(("random", m, 4, DECAY_RANDOM) for m in (2, 4, 6))
    + tuple(("depolarizing", m, 1, DECAY_DEPOL) for m in (2, 4, 6)),
}

# Reduced work for the untimed warm-up job of a (kind, m) cell, where the
# entry point has a size knob; the code path and the matrix sizes are the
# same as in the timed jobs.
WARMUP_PARAMS = {
    "flsi": {"starts": 1, "validate": 200},
    "decay-bound": {"n_states": 2},
    "lp-decay": {"n_x": 2},
}

SUB_EPS = 1e-4
SUB_THETA = 0.5
DENSITY_EPS = 0.1
DECAY_GRID = "1e-3:6:60"


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    m: int
    source: str
    path: str
    seed: int
    params: tuple = ()

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


@dataclass
class Outcome:
    """What a job returned: a CLI exit code or a library value, or an error."""

    rc: int | None = None
    value: object = None
    error: str | None = None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def random_jumps(m: int, rng: np.random.Generator) -> np.ndarray:
    """Two or three GUE-type Hermitian jumps; their commutant is the scalars."""
    k = 2 + int(rng.integers(2))
    g = rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))
    return (g + np.conj(np.swapaxes(g, 1, 2))) / 2.0


def depolarizing_jumps(m: int) -> np.ndarray:
    """g_j / sqrt(2m) over a trace-orthonormal Hermitian basis {g_j} of M_m.

    sum_j g_j x g_j = tr(x) 1, so the generator is exactly I - E_tau and its
    gradient-order constant is 1 in closed form.
    """
    mats = []
    for i in range(m):
        d = np.zeros((m, m), dtype=complex)
        d[i, i] = 1.0
        mats.append(d)
        for j in range(i + 1, m):
            s = np.zeros((m, m), dtype=complex)
            s[i, j] = s[j, i] = 2 ** -0.5
            a = np.zeros((m, m), dtype=complex)
            a[i, j], a[j, i] = -1j * 2 ** -0.5, 1j * 2 ** -0.5
            mats += [s, a]
    return np.array(mats) / np.sqrt(2.0 * m)


def jumps_document(jumps: np.ndarray) -> str:
    return json.dumps({
        "dim": int(jumps.shape[-1]),
        "matrices": [{"re": a.real.tolist(), "im": a.imag.tolist()} for a in jumps],
    })


def _stream(workload: str, seed: int, phase: int, source: str, m: int, copy: int):
    tag = zlib.crc32(f"{workload}/{source}".encode())
    return np.random.default_rng([seed, phase, tag, m, copy])


def build_jobs(workload: str, seed: int, directory: Path, warmup: bool = False) -> list[Job]:
    """Write the seeded input files into ``directory`` and return the jobs.

    The timed list is one round of the workload.  The warm-up list has one
    job per (kind, m) cell, on inputs drawn from a separate stream so that
    nothing the warm-up leaves behind is keyed on a timed input.
    """
    directory.mkdir(parents=True, exist_ok=True)
    phase = 1 if warmup else 0
    jobs: list[Job] = []
    seen: set[tuple[str, int]] = set()
    used: dict[tuple[str, int], int] = {}  # copies already drawn per (source, m)
    for source, m, copies, kinds in WORKLOADS[workload]:
        first = used.get((source, m), 0)
        used[(source, m)] = first + copies
        for copy in range(first, first + copies):
            if warmup and all((kind, m) in seen for kind, _ in kinds):
                break
            rng = _stream(workload, seed, phase, source, m, copy)
            jumps = random_jumps(m, rng) if source == "random" else depolarizing_jumps(m)
            path = directory / f"{'warm' if warmup else 'in'}-{source}-m{m}-{copy}.json"
            path.write_text(jumps_document(jumps))
            job_seed = int(rng.integers(2**31))
            for kind, params in kinds:
                if warmup:
                    if (kind, m) in seen:
                        continue
                    seen.add((kind, m))
                    params = {**params, **WARMUP_PARAMS.get(kind, {})}
                jobs.append(Job(
                    name=f"{kind}/{source}/m{m}/{copy}", kind=kind, m=m,
                    source=source, path=str(path), seed=job_seed,
                    params=tuple(sorted(params.items())),
                ))
    return jobs


# ---------------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------------

def program_attr(module: str, name: str):
    """``qmsemi.<module>.<name>``, looked up at call time."""
    return getattr(importlib.import_module(f"qmsemi.{module}"), name)


def load_generator(path: str):
    """Jump file -> LindbladGenerator through the program's own loader."""
    with open(path) as fh:
        obj = json.load(fh)
    return program_attr("generator", "lindblad")(program_attr("io", "obj_to_jumps")(obj))


def cli_argv(job: Job, out_path: str) -> list[str]:
    common = ["--seed", str(job.seed), "--out", out_path]
    if job.kind == "gamma-e":
        return ["gamma-e", job.path] + common
    if job.kind == "flsi":
        argv = ["flsi", job.path, "--starts", str(job.param("starts"))]
        if job.param("validate") is not None:
            argv += ["--validate", str(job.param("validate"))]
        return argv + common
    if job.kind == "sub-eps":
        return ["subordinate", job.path, "--eps", repr(SUB_EPS), "--sigma", "auto"] + common
    if job.kind == "sub-theta":
        return ["subordinate", job.path, "--theta", repr(SUB_THETA)] + common
    if job.kind == "decay-cli":
        return ["decay", job.path, "--lambda", repr(job.param("rate")),
                "--grid", DECAY_GRID] + common
    raise KeyError(job.kind)


def is_cli(job: Job) -> bool:
    return job.kind in ("gamma-e", "flsi", "sub-eps", "sub-theta", "decay-cli")


def run_job(job: Job, out_path: str) -> Outcome:
    """Run one job; the caller times this call and nothing else."""
    try:
        if is_cli(job):
            return Outcome(rc=program_attr("cli", "main")(cli_argv(job, out_path)))
        gen = load_generator(job.path)
        if job.kind == "density":
            _, report = program_attr("subordinate", "density_approximation")(gen, DENSITY_EPS)
            return Outcome(value=report)
        if job.kind == "decay-bound":
            n = job.param("n_states", 50)
            return Outcome(value=program_attr("constants", "check_decay_bound")(
                gen, job.param("rate"), n_states=n, seed=job.seed))
        if job.kind == "lp-decay":
            n = job.param("n_x", 50)
            return Outcome(value=program_attr("constants", "check_lp_decay")(
                gen, job.param("rate"), n_x=n, seed=job.seed))
        raise KeyError(job.kind)
    except SystemExit as exc:  # argparse rejected the arguments
        return Outcome(rc=exc.code if isinstance(exc.code, int) else 1,
                       error=f"SystemExit: {exc.code}")
    except Exception as exc:  # a failing job is counted, never fatal
        return Outcome(error=f"{type(exc).__name__}: {exc}")
