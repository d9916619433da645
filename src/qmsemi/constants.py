"""Decay-constant estimation, inequality checks and the dual Lipschitz norm.

The FLSI constant is bounded from above only: the optimizer's best ratio
I_A(rho)/D_N(rho) and that ratio re-validated against random states are ratios
at real states (nonconvex minimization cannot certify a global minimum); for a
Lindblad generator the gamma-e lambda* is the certified lower end.  The
dual Lipschitz norm is bracketed in closed form from the pseudo-inverse of L.
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
from .tolerances import D_N_ZERO, DECAY_SKIP, HELD, LP_BASE, PSD, TINY, TRIVIAL, VIOLATION

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
# FLSI upper bounds by multi-start L-BFGS-B over the exponential chart
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
# L-BFGS-B iterations per start of the FLSI descent.
MAX_ITER = 200


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
    L-BFGS-B, at most ``MAX_ITER`` iterations, on rho = m e^H / tr(e^H) with H =
    sum_k x_k B_k over the traceless orthonormal basis and |x_k| <= 40; the
    analytic gradient is checked against a finite difference at the first start.
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
        raise ValueError("need at least one start")
    if n_validate < 0:
        raise ValueError("n_validate must be nonnegative")
    from scipy.optimize import minimize

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
        i_val, d_val, rho, g = evaluated = _ratio_and_grad(a, n, h, True)
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
        # L-BFGS-B's first call asks for x0 again: it gets this evaluation
        first = {x0.tobytes(): evaluated}

        def objective(x):
            i_x, d_x, rho_x, g_x = first.pop(x.tobytes(), None) or _ratio_and_grad(
                a, n, x.dot(basis).view(complex).reshape(m, m), True)
            if g_x is None:
                # D_N <= 0, an overflowing ratio or an undefined ln E(rho): L-BFGS-B gets
                # no such value and the state is not recorded, so the start ends here
                raise _StartEnded
            if rho_x is not None and d_x >= D_N_ZERO and i_x / d_x < low[0]:
                low[:] = i_x / d_x, rho_x
            # d/dx_k of the ratio is Re tau(G B_k)
            return i_x / d_x, basis.dot(g_x.ravel().view(float)) / m

        # the box keeps ||H|| <= 40 sqrt(m^2 - 1) < 709 for m <= 16: e^H stays finite
        with contextlib.suppress(_StartEnded):
            minimize(objective, x0, jac=True, method="L-BFGS-B",
                     bounds=[(-40.0, 40.0)] * len(basis), options={"maxiter": MAX_ITER})
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
    g = gradient_form(gen.jumps, f1, f1)
    lip = np.linalg.eigvalsh((g + g.conj().T) / 2.0)[-1]  # ||Gamma(f1, f1)||
    return q / math.sqrt(lip), math.sqrt(q)


def geometric_talagrand_check(
    gen: LindbladGenerator,
    lam: float,
    e1: np.ndarray,
    e2: np.ndarray,
    f: np.ndarray,
) -> dict:
    """Concentration check tau(e1) tau(e2) <= exp(-lam h^2 / 64).

    h is the separation of the projection means of the Lipschitz test
    function f (caller guarantees ||Gamma(f,f)|| <= 1); the constant 64 is
    used verbatim.
    """
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
