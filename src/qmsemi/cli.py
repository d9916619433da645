"""Command-line interface.

Subcommands bind the library operations to files and flags; every command is
pure given (inputs, flags, seed), so rerunning with the same arguments
produces byte-identical primary output.  Exit codes: 0 success, 1 input or
validation error (a malformed command line included), 2 meaningful negative
result (e.g. a zero constant), 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable

import numpy as np

from . import casebook
from .constants import flsi_estimate
from .cporder import gamma_e_constant
from .entropy import default_grid, simulate_decay
from .generator import lindblad, validate_generator
from .io import (
    MAX_GRID,
    dump_json,
    generator_to_obj,
    obj_to_jumps,
    obj_to_operator,
    operator_to_obj,
    profile_from_obj,
    state_from_physics,
    state_to_physics,
    superop_to_obj,
)
from .matops import make_state, random_state
from .subordinate import (
    auto_sigma,
    eps_sigma_generator,
    fractional_power,
    subordinated_generator,
)
from .tolerances import BOUND_SLACK

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_NUMERICAL = 3


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_generator(path: str):
    jumps = obj_to_jumps(_load_json(path))
    return lindblad(jumps)


def _flag_number(text: str, flag: str, ok: Callable[[float], bool], expected: str) -> float:
    """float(text) if ``ok`` accepts it, else a ValueError that names the flag."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not ok(x):
        raise ValueError(f"{flag} must be {expected}, got {text!r}")
    return x


def _parse_grid(text: str) -> np.ndarray:
    """The geometric time grid of ``--grid A:B:N``, with finite A, B > 0, 1 <= N <= MAX_GRID
    and A < B when N > 1."""
    parts = text.split(":")
    try:
        a, b, npts = float(parts[0]), float(parts[1]), int(parts[2])
    except (ValueError, IndexError):
        npts = 0
    if (len(parts) != 3 or not 1 <= npts <= MAX_GRID
            or not (0.0 < a < math.inf and 0.0 < b < math.inf) or (npts > 1 and a >= b)):
        raise ValueError(f"--grid must be A:B:N with finite A, B > 0, an integer N from 1 to "
                         f"{MAX_GRID}, and A < B when N > 1, got {text!r}")
    return np.array([a]) if npts == 1 else np.geomspace(a, b, npts)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gamma_e(args) -> int:
    gen = _load_generator(args.jumps)
    cert = gamma_e_constant(gen)
    doc = cert.to_json()
    doc["config"] = {"seed": args.seed}
    _emit(dump_json(doc), args.out)
    return EXIT_OK if cert.status == "positive" else EXIT_NEGATIVE


def cmd_flsi(args) -> int:
    if args.starts < 1:
        raise ValueError("--starts must be at least 1")
    if args.validate < 0:
        raise ValueError(f"--validate must be nonnegative, got {args.validate}")
    gen = _load_generator(args.jumps)
    est = flsi_estimate(gen, n_starts=args.starts, seed=args.seed,
                        n_validate=args.validate)
    doc = est.to_json()
    doc["config"] = {"seed": args.seed}
    _emit(dump_json(doc), args.out)
    return EXIT_OK


def cmd_subordinate(args) -> int:
    gen = _load_generator(args.jumps)
    n_modes = sum(x is not None for x in (args.theta, args.eps, args.profile))
    if n_modes != 1:
        raise ValueError("choose exactly one of --theta, --eps, --profile")
    if args.sigma is not None and args.eps is None:
        raise ValueError("--sigma applies only with --eps")
    report: dict = {"config": {"seed": args.seed}}
    if args.theta is not None:
        sub = fractional_power(gen, args.theta)
        report["mode"] = {"theta": args.theta}
    elif args.eps is not None:
        # NaN fails both comparisons
        if not 0.0 < args.eps < 1.0:
            raise ValueError(f"--eps must lie in (0, 1), got {args.eps}")
        log_eps = math.log(args.eps)
        if args.sigma in (None, "auto"):
            t0 = auto_sigma(gen)
            sigma = t0["sigma"]
            report["mode"] = {"eps": args.eps, "sigma": sigma, "t0": t0["t0"]}
        else:
            sigma = _flag_number(args.sigma, "--sigma", lambda x: 0.0 < x < math.inf,
                                 "'auto' or a finite number > 0")
            report["mode"] = {"eps": args.eps, "sigma": sigma}
        sub = eps_sigma_generator(gen, log_eps, sigma)
        norm_l = gen.superop.norm
        bound = (2.0 / sigma + norm_l**2) / (2.0 * abs(log_eps))
        report["distance"] = (gen.superop - sub).norm
        report["distance_bound"] = bound
        report["bound_satisfied"] = bool(report["distance"] <= bound * (1 + BOUND_SLACK))
    else:
        prof = profile_from_obj(_load_json(args.profile))
        sub = subordinated_generator(gen, prof)
        report["mode"] = {"profile": prof.kind}
    doc = {"superop": superop_to_obj(sub), "report": report}
    _emit(dump_json(doc), args.out)
    return EXIT_OK


def cmd_decay(args) -> int:
    gen = _load_generator(args.jumps)
    if args.lam == "auto":
        lam = gamma_e_constant(gen).lambda_star
    else:
        lam = _flag_number(args.lam, "--lambda", lambda x: 0.0 <= x < math.inf,
                           "'auto' or a finite number >= 0")
    grid = _parse_grid(args.grid) if args.grid else default_grid(lam)
    if args.state == "random":
        rho0 = random_state(gen.dim, np.random.default_rng(args.seed))
    else:
        rho0 = obj_to_operator(_load_json(args.state))
        if len(rho0) != gen.dim:
            raise ValueError(f"--state is {len(rho0)}x{len(rho0)} but the jumps are "
                             f"{gen.dim}x{gen.dim}")
        rho0 = make_state(rho0)
    trace = simulate_decay(gen, rho0, grid, lam)
    _emit(trace.to_csv(), args.out)
    return EXIT_OK


def cmd_casebook(args) -> int:
    kwargs = {k: getattr(args, k) for k in ("n", "alpha", "delta", "m")
              if getattr(args, k) is not None}
    if args.all:
        if kwargs:
            raise ValueError(f"--all takes no case flag, got --{', --'.join(kwargs)}")
        results = casebook.run_all(seed=args.seed)
    else:
        if args.name is None:
            raise ValueError("give a case name or --all")
        results = [casebook.run_case(args.name, seed=args.seed, **kwargs)]
    chunks = [dump_json(r.to_json()) for r in results]
    chunks.append(casebook.summary_tsv(results))
    _emit("".join(chunks), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NEGATIVE


def cmd_state_convert(args) -> int:
    rho = obj_to_operator(_load_json(args.state))
    if args.to == "tau":
        out = state_from_physics(rho)
    else:
        out = state_to_physics(rho)
    _emit(dump_json(operator_to_obj(out)), args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    gen = _load_generator(args.jumps)
    report = validate_generator(gen.superop)
    doc = {"report": report, "generator": generator_to_obj(gen),
           "config": {"seed": args.seed}}
    _emit(dump_json(doc), args.out)
    return EXIT_OK if report["all_passed"] else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write primary output to this path")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed recorded in outputs")
    _add_out(p)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one: ``main``
    parses each command line against it, as parse_args leaves it unchanged, so a
    caller must not modify it."""
    ap = argparse.ArgumentParser(
        prog="qmsemi",
        description="quantum Markov semigroup toolkit: decay certificates, "
        "subordination, entropy traces and the casebook",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma-e", help="certify the gradient-order constant")
    p.add_argument("jumps", help="JSON file with Hermitian jump operators")
    _add_common(p)
    p.set_defaults(func=cmd_gamma_e)

    p = sub.add_parser("flsi", help="bound the entropy-decay constant from above")
    p.add_argument("jumps")
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--validate", type=int, default=10_000,
                   help="random states for the sweep that can lower lambda_lower")
    _add_common(p)
    p.set_defaults(func=cmd_flsi)

    p = sub.add_parser("subordinate", help="fractional powers and weighted calculus")
    p.add_argument("jumps")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--sigma", default=None,
                   help="sigma for --eps mode, or 'auto' (the default) for 1/ln(t0)")
    p.add_argument("--profile", default=None, help="JSON weight-profile file")
    _add_common(p)
    p.set_defaults(func=cmd_subordinate)

    p = sub.add_parser("decay", help="entropy decay trace as CSV")
    p.add_argument("jumps")
    p.add_argument("--lambda", dest="lam", default="auto",
                   help="decay rate for the reference bound, or 'auto'")
    p.add_argument("--grid", default=None, metavar="A:B:N",
                   help="geometric time grid; default 60 points on [1e-3,6]/lambda")
    p.add_argument("--state", default="random", help="state JSON file or 'random'")
    _add_common(p)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("casebook", help="run named cases with machine checks")
    casesub = p.add_subparsers(dest="casebook_command", required=True)
    pr = casesub.add_parser("run", help="run one case or all of them")
    pr.add_argument("name", nargs="?", default=None,
                    help=f"case name, one of {sorted(casebook.CASES)}")
    pr.add_argument("--all", action="store_true")
    pr.add_argument("--n", type=int, default=None)
    pr.add_argument("--alpha", type=float, default=None)
    pr.add_argument("--delta", type=float, default=None)
    pr.add_argument("--m", type=int, default=None)
    _add_common(pr)
    pr.set_defaults(func=cmd_casebook)

    p = sub.add_parser("state-convert",
                       help="convert states between tau and trace-1 conventions")
    p.add_argument("state")
    p.add_argument("--to", choices=["tau", "physics"], required=True)
    _add_out(p)
    p.set_defaults(func=cmd_state_convert)

    p = sub.add_parser("validate", help="check generator assumptions")
    p.add_argument("jumps")
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error (message on stderr)
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
