"""Decay-constant estimation, inequality checks and the dual Lipschitz norm.

The FLSI constant is bounded from above only: the best ratio I_A(rho)/D_N(rho)
of a bounded L-BFGS descent (``_descend``, L-BFGS-B's iteration with its
Moré-Thuente line search, on numpy alone) and that ratio re-validated against
random states are ratios at real states (nonconvex minimization cannot certify
a global minimum); for a Lindblad generator the gamma-e lambda* is the certified
lower end.  The dual Lipschitz norm is bracketed in closed form from the
pseudo-inverse of L.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .algebra import SubAlgebra
from .entropy import default_grid, expectation_entropy, sub_terms
from .generator import LindbladGenerator, gradient_form, markov_pair, require_gap
from .matops import (
    Superop,
    _chart,
    divided_differences,
    hermitian_basis,
    norm_trace,
    random_hermitian,
    semigroup_apply,
)
from .tolerances import (
    D_N_ZERO,
    DECAY_SKIP,
    DESCENT_CURVATURE,
    DESCENT_DROP,
    DESCENT_GRAD,
    HELD,
    LP_BASE,
    PSD,
    TINY,
    TRIVIAL,
    VIOLATION,
    WOLFE_CURVATURE,
    WOLFE_DECREASE,
    WOLFE_XTOL,
)

__all__ = [
    "FlsiEstimate",
    "flsi_estimate",
    "check_decay_bound",
    "check_lp_decay",
    "gamma_dual_norm",
    "geometric_talagrand_check",
    "schatten_norm",
]


def schatten_norm(x: np.ndarray, p: float) -> float | np.ndarray:
    """Normalized p-norm (tau|x|^p)^{1/p}; operator norm for p = inf.

    x is one matrix or a stack of shape (..., m, m); the result has shape
    x.shape[:-2], a float for one matrix.
    """
    return _schatten(np.linalg.svd(x, compute_uv=False), p, x.shape[-1])


def _schatten(s: np.ndarray, p: float, m: int) -> float | np.ndarray:
    """The normalized p-norm on M_m from the singular values s, shape (..., m)."""
    if math.isinf(p):
        return np.max(s, axis=-1, initial=0.0)
    return (np.sum(s**p, axis=-1) / m) ** (1.0 / p)


# ---------------------------------------------------------------------------
# FLSI upper bounds by a multi-start bounded L-BFGS over the exponential chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlsiEstimate:
    """Two upper bounds, lambda_lower <= lambda_upper, on the best constant in
    lam * D_N(rho) <= I_A(rho); neither bounds it from below."""

    lambda_lower: float
    lambda_upper: float
    argmin_state: np.ndarray
    grad_check: float
    n_validated: int

    def to_json(self) -> dict:
        return {
            "lambda_lower": float(self.lambda_lower),
            "lambda_upper": float(self.lambda_upper),
            "grad_check": float(self.grad_check),
            "n_validated": int(self.n_validated),
        }


def _ratio_and_grad(a: Superop, n: SubAlgebra, h: np.ndarray, want_grad: bool):
    """I_A/D_N at rho = m e^H / tr(e^H), plus the H-gradient G.

    On the chart ln rho = H + (ln m - ln tr e^H) 1 exactly, so I_A = Re<ln rho,
    A(rho)>/m is one ``vdot``; D_N = tau(rho ln rho) - tau(E rho ln E rho), and
    ``expectation_entropy`` gives that term and ln E(rho), both 0 for N = C 1,
    where the one eigensolve is that of H.  d(I_A) = tau(beta (A(ln rho) +
    J_log(A rho))) and d(D_N) = tau(beta (ln rho - ln E rho)); the chart maps a
    rho-gradient G' to s J_exp(G') - s^2 tau(G' e^H) e^H, s = m / tr(e^H), and
    rho has spectrum r = s e^w over the eigenpairs (w, U) of H, so s D_exp(w_k,
    w_l) D_log(r_k, r_l) = 1 and J_log(A rho) enters as A(rho) / D_N.  What
    remains is one Schur product with D_exp on (U* (A(ln rho) + c ln E rho) U -
    c diag(ln r)) / D_N, c = I_A/D_N, then the trace term U diag(t r) U* and one
    rotation back.  G is not made Hermitian: only Re tau(G K) for Hermitian K is
    read.  G is None unless ``want_grad``, and None where D_N <= 0, the ratio
    overflows or E(rho) is not positive definite to rounding (ln E(rho) is
    undefined).  rho is None where it has an eigenvalue at or below HELD
    (relative): its matrix holds that eigenvalue to fewer digits than the ratio
    takes from its logarithm, so ``fisher`` and ``d_sub`` could not check it.
    """
    m = h.shape[0]
    w, u, expw, r, rho = _chart(h)
    tr = expw.sum()
    shift = math.log(m) - math.log(tr)
    log_r = w + shift
    log_rho = h.copy()
    log_rho.flat[::m + 1] += shift
    # D_N keeps every x ln x term, as its gradient does: rho is full rank, so no zero floor
    # applies (an eigenvalue that underflows to 0 adds 0 ln 0 = 0)
    r_log_r = r * np.log(r, out=np.zeros_like(r), where=r > 0)
    h_sigma, log_e_rho = expectation_entropy(n, rho, True)
    d_val = float(r_log_r.sum()) / m - float(h_sigma)
    a_rho = a.matrix.dot(rho.ravel()).reshape(m, m)
    i_val = np.vdot(log_rho, a_rho).real / m
    # r ascends, and r[-1] >= 1 as tr rho = m, so HELD r[-1] is rel_floor(r, HELD)
    state = rho if r[0] > HELD * r[-1] else None
    if not (want_grad and d_val > 0 and math.isfinite(i_val / d_val)) or log_e_rho is None:
        return i_val, d_val, state, None
    # D_exp is e^w on the diagonal, where c diag(ln r) and t diag(r) come off
    uh = u.conj().T
    c = i_val / d_val
    s = m / (tr * d_val)
    y = a.matrix.dot(log_rho.ravel()).reshape(m, m) + c * log_e_rho
    j_x = s * divided_differences(w, expw, np.exp) * uh.dot(y).dot(u)
    j_x.flat[::m + 1] -= (s * c) * expw * log_r
    t = (j_x.trace().real + a_rho.trace().real / d_val) / m
    j_x.flat[::m + 1] -= t * r
    return i_val, d_val, state, u.dot(j_x).dot(uh) + a_rho / d_val


class _StartEnded(Exception):
    """Ends a start of the FLSI descent at a state where the objective has no gradient."""


# States per stacked eigensolve in the validation sweep; bounds its memory.
SWEEP_CHUNK = 1000
# Iterations per start of the FLSI descent, pairs (s, y) it keeps, evaluations per line search.
MAX_ITER, MEMORY, SEARCH_EVALS = 200, 10, 20
# The box |x_k| <= BOX keeps ||H|| <= 40 sqrt(m^2 - 1) < 709 for m <= 16: e^H stays finite.
# A line search past the first iteration may step at most BIG_STEP.
BOX, BIG_STEP = 40.0, 1e10


def _descend(fun, x: np.ndarray, f: float, g: np.ndarray):
    """Bounded L-BFGS over |x_k| <= BOX from x, where ``fun`` has value f and gradient g.

    It is L-BFGS-B's iteration wherever the box is inactive.  The direction is
    d = P(x - H g) - x, with P the clip to the box and H g the two-loop product of the
    last MEMORY pairs (s, y), H_0 = s'y / y'y, or g itself with no pair.  A Moré-Thuente
    search (``_line_search``) steps along d, capped at step 1 in the first iteration
    and at the step to the box after it.  A pair whose s'y is at most
    DESCENT_CURVATURE (-g'd) step is not kept.  A failed search ends the descent when
    no pair is kept, and otherwise drops every pair and searches again.  The descent
    stops after MAX_ITER iterations, or once the projected gradient is at most
    DESCENT_GRAD or a step lowers f by at most DESCENT_DROP max(|f|, |f_new|, 1).
    Returns the last x and f.
    """
    f = float(f)
    if _projected_gradient(x, g) <= DESCENT_GRAD:
        return x, f
    pairs: list = []
    for it in range(MAX_ITER):
        while True:
            z = _clip(x - _two_loop(g, pairs))
            d = z - x
            gd = float(g.dot(d))
            found = _line_search(fun, x, z, d, f, gd, 1.0 if it == 0 else _step_to_box(x, d))
            if found or not pairs:
                break
            pairs.clear()
        if not found:
            return x, f
        x_new, f_new, g_new, gd_new, step = found
        if (_projected_gradient(x_new, g_new) <= DESCENT_GRAD
                or f - f_new <= DESCENT_DROP * max(abs(f), abs(f_new), 1.0)):
            return x_new, f_new
        y = g_new - g
        sy = (gd_new - gd) * step
        if sy > DESCENT_CURVATURE * (-gd * step):
            pairs = [*pairs[1 - MEMORY:], (step * d, y, sy)]
        x, f, g = x_new, f_new, g_new
    return x, f


def _clip(v: np.ndarray) -> np.ndarray:
    """v clipped to the box, in place."""
    return np.minimum(np.maximum(v, -BOX, out=v), BOX, out=v)


def _projected_gradient(x: np.ndarray, g: np.ndarray) -> float:
    """max_k |P(x - g) - x|_k, taken as L-BFGS-B's ``projgr`` takes it: g clipped to the
    room x - BOX <= g_k <= x + BOX."""
    v = np.minimum(np.maximum(g, x - BOX), x + BOX)
    return float(np.abs(v, out=v).max())


def _two_loop(g: np.ndarray, pairs: list) -> np.ndarray:
    """H g for the L-BFGS inverse Hessian of ``pairs`` (s, y, s'y); g with none."""
    if not pairs:
        return g
    q, alphas = g.copy(), []
    for s, y, sy in reversed(pairs):
        alphas.append(s.dot(q) / sy)
        q -= alphas[-1] * y
    s, y, sy = pairs[-1]
    q *= sy / y.dot(y)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - y.dot(q) / sy) * s
    return q


def _step_to_box(x: np.ndarray, d: np.ndarray) -> float:
    """The largest step t <= BIG_STEP with x + t d in the box."""
    moving = d != 0
    d = d[moving]
    return float(((np.copysign(BOX, d) - x[moving]) / d).min(initial=BIG_STEP))


def _line_search(fun, x, z, d, f0: float, gd0: float, step_max: float):
    """MINPACK-2's ``dcsrch`` along d on [0, step_max], as L-BFGS-B runs it.

    It starts at step min(1, step_max).  Step 1 evaluates z = P(x - H g), and any other
    step the clip of x + step d.  Returns (x, f, g, g'd, step) at the first trial point
    that meets the strong Wolfe conditions (WOLFE_DECREASE, WOLFE_CURVATURE) or ends
    ``dcsrch`` otherwise: rounding, a bracket narrower than WOLFE_XTOL, or a step at 0
    or step_max.  Returns None on an ascent direction or after SEARCH_EVALS evaluations.
    """
    if gd0 >= 0.0:
        return None
    stp = min(1.0, step_max)
    gtest = WOLFE_DECREASE * gd0
    bracketed, stage1 = False, True
    width, width1 = step_max, step_max / 0.5
    stx, fx, gx = sty, fy, gy = 0.0, f0, gd0
    stmin, stmax = 0.0, stp + 4.0 * stp
    for _ in range(SEARCH_EVALS):
        xt = z if stp == 1.0 else _clip(x + stp * d)
        ft, gt = fun(xt)
        ft, gdt = float(ft), float(gt.dot(d))
        ftest = f0 + stp * gtest
        stage1 = stage1 and not (ft <= ftest and gdt >= 0.0)
        if (ft <= ftest and abs(gdt) <= WOLFE_CURVATURE * -gd0
                or bracketed and (stp <= stmin or stp >= stmax
                                  or stmax - stmin <= WOLFE_XTOL * stmax)
                or stp == step_max and ft <= ftest and gdt <= gtest
                or stp == 0.0 and (ft > ftest or gdt >= gtest)):
            return xt, ft, gt, gdt, stp
        # on the first stage, a higher value above the decrease line steps on f - gtest t
        shift = gtest if stage1 and fx >= ft > ftest else 0.0
        (stx, fx, gx), (sty, fy, gy), stp, bracketed = _dcstep(
            (stx, fx - stx * shift, gx - shift), (sty, fy - sty * shift, gy - shift),
            (stp, ft - stp * shift, gdt - shift), bracketed, stmin, stmax)
        fx, fy, gx, gy = fx + stx * shift, fy + sty * shift, gx + shift, gy + shift
        if bracketed:
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin, stmax = stp + 1.1 * (stp - stx), stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), step_max)
        if bracketed and (stp <= stmin or stp >= stmax or stmax - stmin <= WOLFE_XTOL * stmax):
            stp = stx
    return None


def _cubic_gamma(theta: float, a: float, b: float) -> float:
    """sqrt(theta^2 - a b), scaled as ``dcstep`` scales it (0 where it is imaginary)."""
    s = max(abs(theta), abs(a), abs(b))
    return s * math.sqrt(max(0.0, (theta / s) * (theta / s) - (a / s) * (b / s)))


def _dcstep(lo, hi, trial, bracketed: bool, stpmin: float, stpmax: float):
    """MINPACK-2's ``dcstep``: the safeguarded next step of a Moré-Thuente search.

    lo = (stx, fx, dx) is the best step so far, hi = (sty, fy, dy) the other end of the
    interval and trial = (stp, fp, dp) the step just evaluated, each with its value and
    slope.  Returns the updated lo and hi, the next step and whether a minimizer is
    bracketed.
    """
    (stx, fx, dx), (sty, fy, dy), (stp, fp, dp) = lo, hi, trial
    opposite = dx != 0.0 and dp * math.copysign(1.0, dx) < 0.0
    if fp > fx:  # a higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp < stx else 1.0)
        stpc = stx + ((gamma - dx) + theta) / (((gamma - dx) + gamma) + dp) * (stp - stx)
        stpq = stx + ((dx / ((fx - fp) / (stp - stx) + dx)) / 2.0) * (stp - stx)
        stpf = stpc if abs(stpc - stx) < abs(stpq - stx) else stpc + (stpq - stpc) / 2.0
        bracketed = True
    elif opposite:  # slopes of opposite sign: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp > stx else 1.0)
        stpc = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dx) * (stx - stp)
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        bracketed = True
    elif abs(dp) < abs(dx):  # a lower value and a smaller slope of the same sign
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        gamma = _cubic_gamma(theta, dx, dp) * (-1.0 if stp > stx else 1.0)
        r = ((gamma - dp) + theta) / ((gamma + (dx - dp)) + gamma)
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + (dp / (dp - dx)) * (stx - stp)
        if bracketed:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            cap = stp + 0.66 * (sty - stp)
            stpf = min(cap, stpf) if stp > stx else max(cap, stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif bracketed:  # a lower value and a slope no smaller: step to the cubic's minimizer
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        gamma = _cubic_gamma(theta, dy, dp) * (-1.0 if stp > sty else 1.0)
        stpf = stp + ((gamma - dp) + theta) / (((gamma - dp) + gamma) + dy) * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        return lo, trial, stpf, bracketed
    return trial, (lo if opposite else hi), stpf, bracketed


def _validation_sweep(a: Superop, n: SubAlgebra, rng: np.random.Generator, n_validate: int):
    """Smallest I_A/D_N over ``n_validate`` random states, and how many were kept.

    The exponents H are drawn ``SWEEP_CHUNK`` at a time: k uniforms u in one
    ``rng.random(k)``, then the k GUE draws of scales 0.4 + 1.2 u in one
    ``random_hermitian`` call.  Each state is evaluated in its chart, as in
    ``_ratio_and_grad``, so no eigenvalue floor applies: ln rho = H + shift with
    shift = ln m - ln tr e^H, tau(rho ln rho) = sum r (w + shift) / m over the
    eigenvalues w of H, I_A = tau(A(rho) H) + shift tau(A(rho)), and, as E is
    a conditional expectation, tau(rho ln E rho) = tau(E rho ln E rho) takes
    only the spectrum of E(rho) (``expectation_entropy``, 0 for N = C 1).
    States with D_N below D_N_ZERO are dropped.
    """
    m = a.dim
    lowest, kept = math.inf, 0
    for lo in range(0, n_validate, SWEEP_CHUNK):
        k = min(SWEEP_CHUNK, n_validate - lo)
        h = random_hermitian(m, rng, 0.4 + 1.2 * rng.random(k))
        w, _, expw, r, rho = _chart(h)
        shift = math.log(m) - np.log(expw.sum(axis=-1))
        d = (r * (w + shift[:, None])).sum(axis=-1) / m - expectation_entropy(n, rho, False)[0]
        a_rho = a.apply(rho)
        i = (np.einsum("kij,kji->k", a_rho, h).real
             + shift * np.trace(a_rho, axis1=-2, axis2=-1).real) / m
        keep = d >= D_N_ZERO
        lowest = min(lowest, float(np.min(i[keep] / d[keep], initial=math.inf)))
        kept += int(keep.sum())
    return lowest, kept


def flsi_estimate(
    gen,
    n_starts: int = 8,
    seed: int = 0,
    n_validate: int = 10_000,
) -> FlsiEstimate:
    """Two upper bounds on the constant: I_A(rho)/D_N(rho) minimized over states.

    ``gen`` passes ``generator.markov_pair`` (else ValueError).  Each start runs
    the bounded L-BFGS ``_descend``, at most ``MAX_ITER`` iterations, on rho =
    m e^H / tr(e^H) with H = sum_k x_k B_k over the traceless orthonormal basis
    and |x_k| <= BOX, from the start's first evaluation; the analytic gradient
    is checked against a finite difference at the first start.
    Each evaluation diagonalizes H, and E(rho) too unless N = C 1
    (``_ratio_and_grad``); a start ends at a state with D_N <= 0, an overflowing
    ratio or an E(rho) that is not positive definite to rounding, and a start
    whose first state is one of these is skipped.  ``lambda_upper`` is the lowest
    ratio at an evaluated state with D_N >= D_N_ZERO and no eigenvalue at or below
    HELD (relative), the state ``argmin_state`` holds, and ``lambda_lower`` is that
    ratio re-validated against ``n_validate`` random states, ``SWEEP_CHUNK`` per
    stacked eigensolve; ``n_validated`` counts the states kept.  The gamma-e
    lambda* of a Lindblad generator bounds from below.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if n_validate < 0:
        raise ValueError(f"n_validate must be nonnegative, got {n_validate}")
    a, n = markov_pair(gen)
    if a.norm <= TRIVIAL:
        raise ValueError("FLSI undefined: generator has trivial dynamics")
    m = a.dim
    # rows are the flattened B_k, each entry as its (re, im) pair: H = x @ basis read as
    # complex, and Re tr(G B_k) = Re sum_ij G_ij conj(B_k)_ij = (basis @ vec G as pairs)_k
    basis = hermitian_basis(m)[1:].reshape(m * m - 1, m * m).view(float)
    best, best_state = math.inf, None
    grad_check = math.nan
    for start in range(n_starts):
        rng = np.random.default_rng([seed, start])
        h = random_hermitian(m, rng, scale=0.7 + 0.2 * (start % 3))
        x0 = basis @ h.reshape(-1).view(float)
        h = (x0 @ basis).view(complex).reshape(m, m)  # the traceless part, at x0 exactly
        i_val, d_val, rho, g = _ratio_and_grad(a, n, h, True)
        if g is None or d_val < D_N_ZERO:
            continue
        if start == 0:
            # finite-difference sanity on the analytic gradient
            k = random_hermitian(m, rng, scale=1.0)
            s = 1e-6
            ip, dp, _, _ = _ratio_and_grad(a, n, h + s * k, False)
            im_, dm_, _, _ = _ratio_and_grad(a, n, h - s * k, False)
            fd = (ip / dp - im_ / dm_) / (2 * s)
            an = norm_trace(g @ k).real
            grad_check = abs(fd - an) / max(abs(fd), 1.0)
        low = [i_val / d_val if rho is not None else math.inf, rho]

        def objective(x):
            i_x, d_x, rho_x, g_x = _ratio_and_grad(
                a, n, x.dot(basis).view(complex).reshape(m, m), True)
            if g_x is None:
                # D_N <= 0, an overflowing ratio or an undefined ln E(rho): the descent gets
                # no such value and the state is not recorded, so the start ends here
                raise _StartEnded
            if rho_x is not None and d_x >= D_N_ZERO and i_x / d_x < low[0]:
                low[:] = i_x / d_x, rho_x
            # d/dx_k of the ratio is Re tau(G B_k)
            return i_x / d_x, basis.dot(g_x.ravel().view(float)) / m

        with contextlib.suppress(_StartEnded):
            _descend(objective, x0, i_val / d_val, basis.dot(g.ravel().view(float)) / m)
        if low[0] < best:
            best, best_state = low
    if best_state is None:
        raise ValueError("FLSI undefined: no state with positive D_N found")
    # validation sweep: min(descent, sweep) is a ratio at a state, so an upper bound too
    rng = np.random.default_rng([seed, 999_983])
    sampled, n_validated = _validation_sweep(a, n, rng, n_validate)
    return FlsiEstimate(
        lambda_lower=min(best, sampled),
        lambda_upper=best,
        argmin_state=best_state,
        grad_check=grad_check,
        n_validated=n_validated,
    )


# ---------------------------------------------------------------------------
# decay and L_p inequality checks
# ---------------------------------------------------------------------------

def _report(quantity: str, lam: float, seed: int, slack: np.ndarray, locate) -> dict:
    """Check report: the largest slack, or 0 if none is positive, and above
    VIOLATION the witness ``locate`` names for its first index in row-major order."""
    top = float(np.max(slack, initial=0.0))
    witness = locate(np.unravel_index(np.argmax(slack), slack.shape)) if top > VIOLATION else None
    return {"quantity": quantity, "bound": lam, "passed": witness is None,
            "slack": top, "witness": witness, "seed": seed}


def check_decay_bound(gen, lam: float, n_states: int = 50, seed: int = 0) -> dict:
    """Verify D_N(T_t rho) <= e^{-lam t} D_N(rho) and the same for I_N.

    Both inequalities follow from a certified gradient-condition constant;
    the report carries the worst multiplicative slack and a witness when a
    violation is found.  The exponents H come from one ``rng.random(n_states)``
    and one ``random_hermitian`` call with spreads 0.5 + u, and each start
    state is taken in its chart, rho = m e^H / tr e^H with ln rho = H + ln m -
    ln tr e^H, so no eigenvalue floor applies to it.  ``gen`` passes
    ``generator.markov_pair`` (else ValueError), so E(T_t rho) = E(rho): E(rho) and
    the term tau(E rho ln E rho) of D_N are taken once per start state
    (``expectation_entropy``), and all states and times go through one semigroup
    evaluation and one stacked eigensolve, of eigenvalues only when N = C 1
    (``sub_terms``).  States with D_N below DECAY_SKIP are skipped, and a
    violation is a slack above VIOLATION.
    """
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    a, n = markov_pair(gen)
    m = a.dim
    grid = default_grid(lam)
    rng = np.random.default_rng([seed, 17])
    w, u, expw, r, rho0 = _chart(random_hermitian(m, rng, 0.5 + rng.random(n_states)))
    log_r = w + (math.log(m) - np.log(expw.sum(axis=-1)))[:, None]
    h, _ = expectation_entropy(n, rho0, False)
    d0, i0 = sub_terms(n, rho0, (r, u, log_r), rho0, h)
    kept = np.flatnonzero(d0 >= DECAY_SKIP)
    rho_t = semigroup_apply(a, grid, rho0[kept]).swapaxes(0, 1)  # (state, t, m, m)
    rho_t = (rho_t + rho_t.conj().swapaxes(-1, -2)) / 2.0
    d_t, i_t = sub_terms(n, rho_t, None, rho0[kept, None], h[kept, None])
    val = np.stack([d_t, i_t], axis=-1)  # (state, t, D_N then I_N)
    ref = np.exp(-lam * grid)[:, None] * np.stack([d0, i0], axis=-1)[kept, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(ref > TINY, val / ref - 1.0, 0.0)
    return _report("entropy_decay", lam, seed, slack, lambda w: {
        "state_index": int(kept[w[0]]), "t": float(grid[w[1]]), "which": ("D_N", "I_N")[w[2]]})


LP_EXPONENTS = (1.0, 2.0, 4.0, math.inf)


def check_lp_decay(gen, lam: float, n_x: int = 50, seed: int = 0) -> dict:
    """Verify ||T_t(x) - E(x)||_p <= e^{-lam t} ||x - E(x)||_p, p in LP_EXPONENTS, on random x.

    ``gen`` passes ``generator.markov_pair`` (else ValueError): T_t(x) - E(x) = T_t(x - E(x)).
    The probes take two draws: every Hermitian part in one ``random_hermitian``
    call, then the anti-Hermitian parts of the odd-indexed probes in one more.
    All probes and times go through one semigroup evaluation and one stacked
    SVD, whose singular values give every p; (x, p) pairs with base norm below
    LP_BASE are skipped.
    """
    if n_x < 1:
        raise ValueError("n_x must be at least 1")
    a, n = markov_pair(gen)
    m = a.dim
    grid = default_grid(lam, n=20)
    rng = np.random.default_rng([seed, 23])
    x = random_hermitian(m, rng, np.ones(n_x))
    x[1::2] += 1j * random_hermitian(m, rng, np.ones(n_x // 2))
    x0 = x - n.expectation.apply(x)
    x_t = np.concatenate([x0[None], semigroup_apply(a, grid, x0)])
    s = np.linalg.svd(x_t, compute_uv=False)
    slack = np.full((n_x, len(LP_EXPONENTS), grid.size), -np.inf)
    for ip, p in enumerate(LP_EXPONENTS):
        norms = _schatten(s, p, m)  # (1 + t, x): the base norm, then each time
        base = norms[0]
        ok = base >= LP_BASE
        slack[ok, ip] = (norms[1:, ok] / (np.exp(-lam * grid)[:, None] * base[ok]) - 1.0).T
    return _report("lp_decay", lam, seed, slack, lambda w: {
        "x_index": int(w[0]), "p": LP_EXPONENTS[w[1]], "t": float(grid[w[2]])})


# ---------------------------------------------------------------------------
# dual Lipschitz norm and geometric concentration
# ---------------------------------------------------------------------------

def gamma_dual_norm(gen: LindbladGenerator, rho: np.ndarray) -> tuple[float, float]:
    """Bracket (lower, upper) of sup{|Re tau(rho f)| : f = f*, E(f) = 0, ||Gamma(f,f)|| <= 1}.

    With rho0 = Herm(rho - E rho) the target is tau(rho0 f) = <rho0, f>_tau.  For
    L = sum_k ad_{a_k}^2, tau(Gamma(f,f)) = <f, L f>_tau <= ||Gamma(f,f)||, so
    Cauchy-Schwarz gives upper = sqrt(q), q = <rho0, L^+ rho0>_tau.  The test
    function f1 = L^+ rho0 is feasible once divided by sqrt(||Gamma(f1,f1)||), so
    lower = q / sqrt(||Gamma(f1,f1)||) <= upper; the two meet when Gamma(f1,f1)
    is a multiple of 1.  L^+ comes from the cached eigendecomposition of L,
    with its dim N lowest modes (the kernel, as in spectral_gap) dropped.  Each
    end carries eigh's rounding of 1/w, about u ||L|| / w[dim N] relative (u the
    unit roundoff), so a gap at or below PSD ||L|| raises "no spectral gap"
    (``require_gap``).
    """
    if abs(norm_trace(rho).real) > PSD:
        raise ValueError("dual norm expects a trace-zero perturbation")
    require_gap(gen)
    rho0 = rho - gen.e_fix.apply(rho)
    rho0 = (rho0 + rho0.conj().T) / 2.0
    w, v = gen.superop.eig
    off = gen.fixed_algebra.size
    v, w = v[:, off:], w[off:]
    c = v.conj().T @ rho0.reshape(-1)
    q = float(np.sum(np.abs(c) ** 2 / w)) / gen.dim
    if q <= 0.0:
        return 0.0, 0.0
    f1 = (v @ (c / w)).reshape(rho0.shape)
    f1 = (f1 + f1.conj().T) / 2.0
    return q / math.sqrt(_gamma_norm(gen, f1)), math.sqrt(q)


def _gamma_norm(gen: LindbladGenerator, f: np.ndarray) -> float:
    """||Gamma(f, f)||, the top eigenvalue of the PSD matrix Gamma(f, f)."""
    g = gradient_form(gen.jumps, f, f)
    return np.linalg.eigvalsh((g + g.conj().T) / 2.0)[-1]


def geometric_talagrand_check(
    gen: LindbladGenerator,
    lam: float,
    e1: np.ndarray,
    e2: np.ndarray,
    f: np.ndarray,
) -> dict:
    """Concentration check tau(e1) tau(e2) <= exp(-lam h^2 / 64).

    h is the separation of the projection means of the test function f, which
    must be Lipschitz for the jumps of ``gen``: ValueError when the top
    eigenvalue of Gamma(f, f) exceeds 1 by more than VIOLATION.  The constant
    64 is used verbatim.
    """
    if _gamma_norm(gen, f) > 1.0 + VIOLATION:
        raise ValueError("f is not Lipschitz: ||Gamma(f, f)|| exceeds 1")
    t1 = norm_trace(e1).real
    t2 = norm_trace(e2).real
    if t1 <= 0 or t2 <= 0:
        raise ValueError("projections must have positive trace")
    h = abs(norm_trace(e1 @ f).real / t1 - norm_trace(e2 @ f).real / t2)
    lhs = t1 * t2
    rhs = math.exp(-lam * h * h / 64.0)
    return {
        "h": h,
        "lhs": lhs,
        "rhs": rhs,
        "passed": bool(lhs <= rhs * (1.0 + VIOLATION)),
    }
