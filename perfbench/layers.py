"""Per-layer tracing from outside the program.

The traced run wraps the listed public functions of each ``qmsemi`` module at
every module attribute the package looks them up under (for example both
``qmsemi.cporder.best_lambda`` and ``qmsemi.subordinate.best_lambda``).  Each
wrapped call is a span with a parent, so a function's self time is its
duration minus the spans of wrapped functions it called.  Spans are
aggregated per (job, function) to keep the trace bounded.

``numpy.linalg`` eigensolves and SVDs and ``scipy.integrate.quad`` as the
program imports it are counted, not spanned: their time stays in the caller's
self time, so ``cporder.best_lambda.self_s`` includes the eigensolves it asks
for.  A counted call also adds to the inclusive ``eig_calls`` of every span
open around it.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# Listed public functions per module.  A name the program no longer has is
# skipped and reported, so renaming or deleting one never breaks the run.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "io": ("obj_to_jumps", "obj_to_operators", "obj_to_operator", "operator_to_obj",
           "superop_to_obj", "dump_json"),
    "generator": ("lindblad", "spectral_gap"),
    "algebra": ("commutant", "conditional_expectation", "module_basis"),
    "matops": ("superop_from_action", "semigroup_apply", "matrix_function",
               "divided_difference_multiplier"),
    "entropy": ("relative_entropy", "d_sub", "fisher", "fisher_n", "simulate_decay"),
    "cporder": ("kernel_ie", "kernel_from_jumps", "kernel_from_superop", "best_lambda",
                "gamma_e_constant", "cp_order_holds", "choi_matrix", "cb_norm_1_to_inf",
                "return_time"),
    "subordinate": ("eps_sigma_generator", "fractional_power", "auto_sigma",
                    "density_approximation"),
    "constants": ("flsi_estimate", "check_decay_bound", "check_lp_decay"),
}

# (module, attribute, counter).  np.linalg.norm counts as an SVD when it
# computes a spectral norm.
COUNTED = (
    ("numpy.linalg", "eigh", "eig"),
    ("numpy.linalg", "eigvalsh", "eig"),
    ("numpy.linalg", "svd", "svd"),
    ("numpy.linalg", "norm", "svd"),
    ("qmsemi.subordinate", "quad", "quad"),
)
COUNTERS = ("eig", "svd", "quad")


def _is_spectral_norm(args, kwargs) -> bool:
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    return ord_ in (2, -2) and getattr(args[0] if args else kwargs.get("x"), "ndim", 0) == 2


class Tracer:
    """Installs wrappers, aggregates spans per job, and restores everything."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []
        self.jobs: list[dict] = []          # per job: {fn: [calls, total, self, eig, svd, quad, errors]}
        self.job_totals: list[dict] = []    # per job: counters and eig_s
        self._stack: list[list] = []
        self._agg: dict | None = None
        self._count = dict.fromkeys(COUNTERS, 0)
        self._eig_s = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "qmsemi" or name.startswith("qmsemi."))]
        for short, names in LAYER_FUNCTIONS.items():
            try:
                home = importlib.import_module(f"qmsemi.{short}")
            except ImportError:
                self.skipped += [f"{short}.{n}" for n in names]
                continue
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    self.skipped.append(f"{short}.{name}")
                    continue
                self._replace(modules, fn, self._span(f"{short}.{name}", fn))
        for modname, attr, counter in COUNTED:
            owner = sys.modules.get(modname)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.skipped.append(f"{modname}.{attr}")
                continue
            self._replace([owner] + modules, fn, self._counted(counter, fn, attr == "norm"))

    def _replace(self, modules, fn, wrapper) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self.patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, fn in reversed(self.patched):
            setattr(mod, attr, fn)
        self.patched.clear()

    # -- jobs -------------------------------------------------------------

    def begin_job(self) -> None:
        self._agg = {}
        self._count.update(dict.fromkeys(COUNTERS, 0))
        self._eig_s = 0.0

    def end_job(self) -> None:
        self.jobs.append(self._agg)
        self.job_totals.append({**self._count, "eig_s": self._eig_s})
        self._agg = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = tracer._count
            frame = [perf_counter(), 0.0, count["eig"], count["svd"], count["quad"]]
            tracer._stack.append(frame)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                tracer._stack.pop()
                dur = perf_counter() - frame[0]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if tracer._agg is not None:
                    row = tracer._agg.setdefault(name, [0, 0.0, 0.0, 0, 0, 0, 0])
                    row[0] += 1
                    row[1] += dur
                    row[2] += dur - frame[1]
                    row[3] += count["eig"] - frame[2]
                    row[4] += count["svd"] - frame[3]
                    row[5] += count["quad"] - frame[4]
                    row[6] += raised

        wrapper.perfbench_wrapped = True
        return wrapper

    def _counted(self, counter: str, fn, spectral_norm_only: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spectral_norm_only and not _is_spectral_norm(args, kwargs):
                return fn(*args, **kwargs)
            tracer._count[counter] += 1
            if counter != "eig":
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._eig_s += perf_counter() - t0

        wrapper.perfbench_wrapped = True
        return wrapper


def wrapped_attributes() -> list[str]:
    """Attributes of qmsemi and numpy.linalg that still hold a wrapper."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "numpy.linalg" or name == "qmsemi"
                               or name.startswith("qmsemi.")):
            continue
        out += [f"{name}.{attr}" for attr, val in vars(mod).items()
                if getattr(val, "perfbench_wrapped", False)]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

KERNEL_FUNCTIONS = ("cporder.kernel_ie", "cporder.kernel_from_jumps", "cporder.kernel_from_superop")

# (metric, unit, better).  Every value is per timed job, so counts repeat
# exactly between runs with the same seed whatever the number of rounds.
PER_LAYER = (
    ("cporder.best_lambda.self_s", "s/job", "lower"),
    ("cporder.best_lambda.calls", "calls/job", "lower"),
    ("cporder.best_lambda.eig_calls", "calls/job", "lower"),
    ("cporder.kernel.self_s", "s/job", "lower"),
    ("cporder.return_time.self_s", "s/job", "lower"),
    ("cporder.cb_norm_1_to_inf.calls", "calls/job", "lower"),
    ("subordinate.eps_sigma_generator.self_s", "s/job", "lower"),
    ("subordinate.quad.calls", "calls/job", "lower"),
    ("constants.flsi_estimate.self_s", "s/job", "lower"),
    ("entropy.relative_entropy.self_s", "s/job", "lower"),
    ("entropy.relative_entropy.calls", "calls/job", "lower"),
    ("entropy.fisher.self_s", "s/job", "lower"),
    ("entropy.fisher.calls", "calls/job", "lower"),
    ("matops.divided_difference_multiplier.self_s", "s/job", "lower"),
    ("matops.matrix_function.calls", "calls/job", "lower"),
    ("matops.semigroup_apply.self_s", "s/job", "lower"),
    ("matops.semigroup_apply.calls", "calls/job", "lower"),
    ("constants.check_decay_bound.self_s", "s/job", "lower"),
    ("constants.check_lp_decay.self_s", "s/job", "lower"),
    ("entropy.simulate_decay.self_s", "s/job", "lower"),
    ("generator.lindblad.self_s", "s/job", "lower"),
    ("matops.superop_from_action.self_s", "s/job", "lower"),
    ("algebra.commutant.self_s", "s/job", "lower"),
    ("io.self_s", "s/job", "lower"),
    ("cli.main.self_s", "s/job", "lower"),
    ("linalg.eig_calls", "calls/job", "lower"),
    ("linalg.eig_s", "s/job", "lower"),
    ("linalg.svd_calls", "calls/job", "lower"),
    ("spans.errors", "count/job", "lower"),
    ("large_job.best_lambda_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

_FIELDS = {"calls": 0, "self_s": 2, "eig_calls": 3}


def layer_metrics(tracer: Tracer, raw_s: list[float], scaled_s: list[float],
                  large: list[bool], overhead_ratio: float) -> dict[str, float]:
    """Per-job averages of the traced spans and counters.

    Span times are scaled by their job's scaled/raw ratio, the machine-state
    correction of timing.py, so that they compare between runs.
    """
    n = len(tracer.jobs)
    totals: dict[str, list] = {}
    for agg, raw, scaled in zip(tracer.jobs, raw_s, scaled_s):
        state = scaled / raw
        for fn, row in agg.items():
            acc = totals.setdefault(fn, [0] * len(row))
            for i, v in enumerate(row):
                acc[i] += v * state if i in (1, 2) else v

    def field(fns, key) -> float:
        return sum(totals.get(fn, [0] * 7)[_FIELDS[key]] for fn in fns) / n

    listed = {f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns}
    out = {}
    for metric, _, _ in PER_LAYER:
        head, _, key = metric.rpartition(".")
        if head in listed:
            out[metric] = field([head], key)
    out["cporder.kernel.self_s"] = field(KERNEL_FUNCTIONS, "self_s")
    out["io.self_s"] = field([fn for fn in totals if fn.startswith("io.")], "self_s")
    out["subordinate.quad.calls"] = sum(t["quad"] for t in tracer.job_totals) / n
    out["linalg.eig_calls"] = sum(t["eig"] for t in tracer.job_totals) / n
    out["linalg.eig_s"] = sum(t["eig_s"] * scaled / raw for t, raw, scaled
                              in zip(tracer.job_totals, raw_s, scaled_s)) / n
    out["linalg.svd_calls"] = sum(t["svd"] for t in tracer.job_totals) / n
    out["spans.errors"] = sum(row[6] for row in totals.values()) / n
    large_s = sum(t for t, big in zip(raw_s, large) if big)
    pencil_s = sum(agg.get("cporder.best_lambda", [0, 0.0])[1]
                   for agg, big in zip(tracer.jobs, large) if big)
    out["large_job.best_lambda_share"] = pencil_s / large_s if large_s > 0 else 0.0
    out["trace.overhead_ratio"] = overhead_ratio
    return out
