"""Output checks, run after the timed phase, and the sanity numbers that the
result file keeps beside the timings.

The checks accept any answer the mathematics allows, not the seed's exact
bits: a gradient-order certificate passes when the cp order holds at its
lambda* and fails just above it, whether lambda* came from bisection or from
a direct solve, and an exit-2 zero certificate that passes the same test
counts as a success.
"""

from __future__ import annotations

import json
import math

from jobs import DECAY_GRID, DENSITY_EPS, Job, Outcome, is_cli, load_generator, program_attr

LAMBDA_STEP = 1e-6      # "just above" lambda*: lambda* + max(1e-6, 1e-6 lambda*)
CLOSED_FORM_TOL = 1e-6  # depolarizing: lambda* = 1 and lambda_upper >= 1
DECAY_RTOL = 1e-8


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _finite(x) -> float:
    x = float(x)
    _require(math.isfinite(x), f"non-finite value {x!r}")
    return x


def check_certificate(job: Job, rc: int, doc: dict) -> dict:
    _require(rc in (0, 2), f"gamma-e exit {rc}")
    lam = _finite(doc["lambda_star"])
    _require(lam >= 0.0, f"negative lambda* {lam}")
    _require((rc == 2) == (lam <= 0.0), f"exit {rc} disagrees with lambda* = {lam}")
    gen = load_generator(job.path)
    q_small = program_attr("cporder", "kernel_ie")(gen.fixed_algebra)
    q_big = program_attr("cporder", "kernel_from_jumps")(gen.jumps.jumps)
    holds = program_attr("cporder", "cp_order_holds")
    _require(holds(q_small, q_big, lam), f"cp order fails at lambda* = {lam}")
    above = lam + max(LAMBDA_STEP, LAMBDA_STEP * lam)
    _require(not holds(q_small, q_big, above), f"cp order still holds above lambda* = {lam}")
    if job.source == "depolarizing":
        _require(abs(lam - 1.0) <= CLOSED_FORM_TOL, f"depolarizing lambda* = {lam}, not 1")
    return {"lambda_star": lam}


def check_flsi(job: Job, rc: int, doc: dict) -> dict:
    _require(rc == 0, f"flsi exit {rc}")
    lo, up = _finite(doc["lambda_lower"]), _finite(doc["lambda_upper"])
    grad = float(doc["grad_check"])
    _require(lo <= up + 1e-6, f"bracket inverted: {lo} > {up}")
    _require(grad < 1e-5, f"gradient check {grad}")
    if job.source == "depolarizing":
        _require(up >= 1.0 - CLOSED_FORM_TOL, f"depolarizing lambda_upper = {up} < 1")
    return {"lambda_lower": lo, "lambda_upper": up, "grad_check": grad}


def _superop_hs_norm(sup: dict) -> float:
    sq = sum(v * v for row in sup["re"] for v in row) + sum(v * v for row in sup["im"] for v in row)
    return _finite(math.sqrt(sq))


def check_sub_eps(job: Job, rc: int, doc: dict) -> dict:
    _require(rc == 0, f"subordinate exit {rc}")
    rep = doc["report"]
    _require(rep["bound_satisfied"] is True, "distance exceeds the calculus bound")
    _superop_hs_norm(doc["superop"])
    return {"t0": _finite(rep["mode"]["t0"]), "sigma": _finite(rep["mode"]["sigma"]),
            "distance": _finite(rep["distance"]), "distance_bound": _finite(rep["distance_bound"])}


def check_sub_theta(job: Job, rc: int, doc: dict) -> dict:
    _require(rc == 0, f"subordinate exit {rc}")
    sup = doc["superop"]
    _require(sup["hs_selfadjoint"] is True, "A^theta is not self-adjoint")
    _require(sup["kills_identity"] is True, "A^theta does not kill the identity")
    return {"hs_norm": _superop_hs_norm(sup)}


def check_decay_csv(job: Job, rc: int, text: str) -> dict:
    _require(rc == 0, f"decay exit {rc}")
    lines = text.strip().splitlines()
    _require(lines[0] == "t,D_N,I_A,bound", f"unexpected header {lines[0]!r}")
    rows = [[_finite(v) for v in line.split(",")] for line in lines[1:]]
    _require(len(rows) == int(DECAY_GRID.split(":")[2]), f"{len(rows)} grid rows")
    slack = -math.inf
    for t, d, _, bound in rows:
        _require(d <= bound * (1 + DECAY_RTOL) + 1e-12, f"D_N above the bound at t = {t}")
        if bound > 0:
            slack = max(slack, d / bound - 1.0)
    return {"decay_slack": slack, "final_d_n": rows[-1][1]}


def check_density(job: Job, rep: dict) -> dict:
    dist = _finite(rep["distance"])
    floor, lam = _finite(rep["predicted_floor"]), _finite(rep["lambda_gamma_e"])
    _require(dist <= DENSITY_EPS, f"B_eps distance {dist} > eps")
    _require(lam >= floor - 1e-6, f"lambda {lam} below the predicted floor {floor}")
    return {"t0": _finite(rep["t0"]), "sigma": _finite(rep["sigma"]), "distance": dist,
            "predicted_floor": floor, "lambda_gamma_e": lam}


def check_passed(job: Job, rep: dict) -> dict:
    _require(rep["passed"] is True, f"{job.kind} failed: witness {rep.get('witness')}")
    return {"slack": _finite(rep["slack"])}


CLI_CHECKS = {
    "gamma-e": check_certificate,
    "flsi": check_flsi,
    "sub-eps": check_sub_eps,
    "sub-theta": check_sub_theta,
}
LIB_CHECKS = {"density": check_density, "decay-bound": check_passed, "lp-decay": check_passed}


def check_job(job: Job, outcome: Outcome, out_path: str) -> tuple[str | None, dict]:
    """(failure reason or None, sanity numbers) for one job.

    A job fails on an exception, on exit 1 or 3, or on a failed check.
    """
    if outcome.error is not None:
        return outcome.error, {}
    try:
        if not is_cli(job):
            return None, LIB_CHECKS[job.kind](job, outcome.value)
        _require(outcome.rc not in (1, 3), f"exit {outcome.rc}")
        with open(out_path) as fh:
            text = fh.read()
        if job.kind == "decay-cli":
            return None, check_decay_csv(job, outcome.rc, text)
        return None, CLI_CHECKS[job.kind](job, outcome.rc, json.loads(text))
    except CheckFailed as exc:
        return str(exc), {}
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", {}
