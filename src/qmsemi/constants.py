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
from .entropy import check_kills_algebra, decay_terms, default_grid, ergodic_terms
from .generator import LindbladGenerator, gradient_form
from .matops import (
    Superop,
    _chart,
    divided_differences,
    hermitian_basis,
    norm_trace,
    random_hermitian,
    schur_multiplier,
    semigroup_apply,
)
from .tolerances import D_N_ZERO, DECAY_SKIP, LP_BASE, PSD, TINY, TRIVIAL, VIOLATION

__all__ = [
    "FlsiEstimate",
    "flsi_estimate",
    "check_decay_bound",
    "check_lp_decay",
    "gamma_dual_norm",
    "geometric_talagrand_check",
    "rho_multiplier",
    "schatten_norm",
]


# ---------------------------------------------------------------------------
# entropy multipliers
# ---------------------------------------------------------------------------

def rho_multiplier(rho: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The two-sided multiplier [rho](y) = int_0^1 rho^s y rho^{1-s} ds.

    In the eigenbasis of rho this is the Schur multiplier with entries
    (r_k - r_l)/(ln r_k - ln r_l), the divided difference of exp at
    (ln r_k, ln r_l); requires rho > 0.
    """
    w, u = _positive_eigh(rho)
    return schur_multiplier(np.log(w), u, w, np.exp, y)


def _positive_eigh(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, u = np.linalg.eigh(rho)
    if w.min() <= 0:
        raise ValueError("rho must be positive definite")
    return w, u


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


def _dynamics(gen) -> tuple[Superop, SubAlgebra, Superop]:
    a, n = (gen.superop, gen.fixed_algebra) if isinstance(gen, LindbladGenerator) else gen
    return a, n, n.expectation


def _ratio_and_grad(a: Superop, n: SubAlgebra, h: np.ndarray, want_grad: bool):
    """I_A/D_N at rho = m e^H / tr(e^H), plus the H-space gradient.

    d(I_A) = tau(beta (A(ln rho) + J_log(A rho))) and
    d(D_N) = tau(beta (ln rho - ln E rho)), so the rho-gradient of the ratio
    is G = X + J_log(A rho) / D_N with X = (A(ln rho) - (I_A/D_N)(ln rho -
    ln E rho)) / D_N.  The chart rho = s e^H, s = m / tr(e^H), maps G to the
    H-gradient s J_exp(G) - s^2 tau(G e^H) e^H.  In the eigenbasis (w, U) of
    H, rho has spectrum r = s e^w, so D_exp(w_k, w_l) D_log(r_k, r_l) = 1/s
    for every pair: s J_exp J_log is the identity, and the term is A(rho) / D_N
    with no divided difference of log (whose tie rule would misread
    eigenvalues of rho below PSD).  What remains is one Schur product with
    D_exp on U* X U, whose diagonal and tr A(rho) give the trace term t rho,
    and one rotation back.  For N = C 1, E(rho) = tau(rho) 1 = 1, so D_N =
    sum r ln r / m and ln E(rho) = 0: the one eigensolve is that of H.  Else
    E(rho) is diagonalized too.  The gradient is None unless ``want_grad``,
    and None where D_N <= 0 or the ratio overflows.
    """
    m = h.shape[0]
    w, u, expw, r, rho = _chart(h)
    uh = u.conj().T
    tr = expw.sum()
    log_r = w + math.log(m) - math.log(tr)
    log_rho = (u * log_r) @ uh
    # D_N keeps every x ln x term, as its gradient does: rho is full rank, so no zero floor
    # applies (an eigenvalue that underflows to 0 adds 0 ln 0 = 0)
    r_log_r = r * np.log(r, out=np.zeros_like(r), where=r > 0)
    if n.size == 1:
        d_val = float(r_log_r.sum()) / m
        log_e_rho = 0.0
    else:
        e_rho = n.expectation.apply(rho)
        e_rho = (e_rho + e_rho.conj().T) / 2.0
        w_e, u_e = np.linalg.eigh(e_rho)
        if w_e.min() <= 0:
            raise ValueError("E(rho) is singular: its logarithm is undefined")
        log_w_e = np.log(w_e)
        weights = (u_e.conj() * (rho @ u_e)).sum(axis=0).real
        d_val = float(r_log_r.sum() - (weights * log_w_e).sum()) / m
        log_e_rho = (u_e * log_w_e) @ u_e.conj().T
    a_rho = a.apply(rho)
    a_rho = (a_rho + a_rho.conj().T) / 2.0
    i_val = norm_trace(a_rho @ log_rho).real
    if not (want_grad and d_val > 0 and math.isfinite(float(i_val) / d_val)):
        return i_val, d_val, rho, None
    x = (a.apply(log_rho) - i_val / d_val * (log_rho - log_e_rho)) / d_val
    j_x = (m / tr) * divided_differences(w, expw, math.exp) * (uh @ x @ u)
    t = (np.trace(j_x).real + np.trace(a_rho).real / d_val) / m
    grad_h = u @ j_x @ uh + a_rho / d_val - t * rho
    grad_h = (grad_h + grad_h.conj().T) / 2.0
    return i_val, d_val, rho, grad_h


class _StartEnded(Exception):
    """Ends a start of the FLSI descent at a state with D_N <= 0 or an overflowing ratio."""


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
    only the spectrum of E(rho).  For N = C 1, E(rho) = 1 and that term is 0,
    so E is not applied and E(rho) is not diagonalized.  States with D_N below
    D_N_ZERO are dropped.
    """
    m = a.dim
    lowest, kept = math.inf, 0
    for lo in range(0, n_validate, SWEEP_CHUNK):
        k = min(SWEEP_CHUNK, n_validate - lo)
        h = random_hermitian(m, rng, 0.4 + 1.2 * rng.random(k))
        w, _, expw, r, rho = _chart(h)
        shift = math.log(m) - np.log(expw.sum(axis=-1))
        d = (r * (w + shift[:, None])).sum(axis=-1)
        if n.size > 1:
            w_e = np.linalg.eigvalsh(n.expectation.apply(rho))
            d -= (w_e * np.log(w_e, out=np.zeros_like(w_e), where=w_e > 0)).sum(axis=-1)
        d /= m
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

    Each start runs L-BFGS-B, at most ``MAX_ITER`` iterations, on
    rho = m e^H / tr(e^H) with H = sum_k x_k B_k over the traceless orthonormal
    basis and |x_k| <= 40; the analytic gradient is checked against a finite
    difference at the first start.  Each evaluation diagonalizes H, and E(rho)
    too unless N = C 1 (``_ratio_and_grad``); a start ends at a state with D_N <= 0
    or an overflowing ratio.  ``lambda_upper`` is the lowest ratio at an
    evaluated state with D_N >= D_N_ZERO, the state ``argmin_state`` holds, and
    ``lambda_lower`` is that ratio re-validated against ``n_validate`` random
    states, ``SWEEP_CHUNK`` per stacked eigensolve; ``n_validated`` counts the
    states kept.  The gamma-e lambda* of a Lindblad generator bounds from below.
    """
    if n_starts < 1:
        raise ValueError("need at least one start")
    if n_validate < 0:
        raise ValueError("n_validate must be nonnegative")
    from scipy.optimize import minimize

    a, n, _ = _dynamics(gen)
    if a.norm <= TRIVIAL:
        raise ValueError("FLSI undefined: generator has trivial dynamics")
    m = a.dim
    # rows are the flattened B_k: H = x @ basis, and tr(G B_k) = (conj(basis) @ vec G)_k
    # as each B_k is Hermitian
    basis = hermitian_basis(m)[1:].reshape(m * m - 1, m * m)
    dual = basis.conj()
    best, best_state = math.inf, None
    grad_check = math.nan
    for start in range(n_starts):
        rng = np.random.default_rng([seed, start])
        h = random_hermitian(m, rng, scale=0.7 + 0.2 * (start % 3))
        h -= np.trace(h).real / m * np.eye(m)
        i_val, d_val, rho, g = _ratio_and_grad(a, n, h, True)
        if d_val < D_N_ZERO:
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
        low = [i_val / d_val, rho]

        def objective(x):
            i_x, d_x, rho_x, g_x = _ratio_and_grad(a, n, (x @ basis).reshape(m, m), True)
            if g_x is None:
                # D_N <= 0 or an overflowing ratio: L-BFGS-B gets no such value, and as
                # D_N < D_N_ZERO there is no state to record, so the start ends here
                raise _StartEnded
            if d_x >= D_N_ZERO and i_x / d_x < low[0]:
                low[:] = i_x / d_x, rho_x
            # d/dx_k of the ratio is tau(G B_k) = tr(G B_k) / m
            return i_x / d_x, (dual @ g_x.reshape(-1)).real / m

        # the box keeps ||H|| <= 40 sqrt(m^2 - 1) < 709 for m <= 16: e^H stays finite
        with contextlib.suppress(_StartEnded):
            minimize(objective, (dual @ h.reshape(-1)).real, jac=True,
                     method="L-BFGS-B", bounds=[(-40.0, 40.0)] * len(basis),
                     options={"maxiter": MAX_ITER})
        if low[0] < best:
            best, best_state = low
    if best_state is None:
        raise ValueError("FLSI undefined: no state with positive D_N found")
    # validation sweep: the certified lower value never exceeds a sampled ratio
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
    ln tr e^H, so no eigenvalue floor applies to it.  A must vanish on N (else
    ValueError), so E(T_t rho) = E(rho) = sigma and B(T_t rho) = T_t rho - sigma:
    sigma is diagonalized once per state, and all states and times go through
    one semigroup evaluation and one stacked eigensolve.  For N = C 1, sigma =
    1, and D_N = D(rho||1) and I_N = D(rho||1) + D(1||rho) are functions of the
    spectrum (``ergodic_terms``): there is no sigma, and the stacked eigensolve
    takes eigenvalues only.  States with D_N below DECAY_SKIP are skipped, and
    a violation is a slack above VIOLATION.
    """
    if n_states < 1:
        raise ValueError("n_states must be at least 1")
    a, n, e = _dynamics(gen)
    check_kills_algebra(a, n)
    m = a.dim
    grid = default_grid(lam)
    rng = np.random.default_rng([seed, 17])
    w, u, expw, r, rho0 = _chart(random_hermitian(m, rng, 0.5 + rng.random(n_states)))
    log_r = w + (math.log(m) - np.log(expw.sum(axis=-1)))[:, None]
    if n.size == 1:
        d0, i0 = ergodic_terms(r, log_r)
    else:
        sigma = e.apply(rho0)
        sigma_eig = np.linalg.eigh(sigma)
        d0, i0 = decay_terms(rho0, (r, u, log_r), sigma_eig, rho0 - sigma)
    kept = np.flatnonzero(d0 >= DECAY_SKIP)
    rho_t = semigroup_apply(a, grid, rho0[kept]).swapaxes(0, 1)  # (state, t, m, m)
    rho_t = (rho_t + rho_t.conj().swapaxes(-1, -2)) / 2.0
    if n.size == 1:
        d_t, i_t = ergodic_terms(np.linalg.eigvalsh(rho_t), None)
    else:
        d_t, i_t = decay_terms(rho_t, np.linalg.eigh(rho_t),
                               (sigma_eig[0][kept], sigma_eig[1][kept]), rho_t - sigma[kept, None])
    val = np.stack([d_t, i_t], axis=-1)  # (state, t, D_N then I_N)
    ref = np.exp(-lam * grid)[:, None] * np.stack([d0, i0], axis=-1)[kept, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = np.where(ref > TINY, val / ref - 1.0, 0.0)
    return _report("entropy_decay", lam, seed, slack, lambda w: {
        "state_index": int(kept[w[0]]), "t": float(grid[w[1]]), "which": ("D_N", "I_N")[w[2]]})


LP_EXPONENTS = (1.0, 2.0, 4.0, math.inf)


def check_lp_decay(gen, lam: float, n_x: int = 50, seed: int = 0) -> dict:
    """Verify ||T_t(x) - E(x)||_p <= e^{-lam t} ||x - E(x)||_p, p in LP_EXPONENTS, on random x.

    A must vanish on N (else ValueError), so T_t(x) - E(x) = T_t(x - E(x)).
    The probes take two draws: every Hermitian part in one ``random_hermitian``
    call, then the anti-Hermitian parts of the odd-indexed probes in one more.
    All probes and times go through one semigroup evaluation and one stacked
    SVD, whose singular values give every p; (x, p) pairs with base norm below
    LP_BASE are skipped.
    """
    if n_x < 1:
        raise ValueError("n_x must be at least 1")
    a, n, e = _dynamics(gen)
    check_kills_algebra(a, n)
    m = a.dim
    grid = default_grid(lam, n=20)
    rng = np.random.default_rng([seed, 23])
    x = random_hermitian(m, rng, np.ones(n_x))
    x[1::2] += 1j * random_hermitian(m, rng, np.ones(n_x // 2))
    x0 = x - e.apply(x)
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
    with the kernel cut at L's null modes, as in spectral_gap.
    """
    if abs(norm_trace(rho).real) > PSD:
        raise ValueError("dual norm expects a trace-zero perturbation")
    rho0 = rho - gen.e_fix.apply(rho)
    rho0 = (rho0 + rho0.conj().T) / 2.0
    w, v = gen.superop.eig
    keep = ~gen.superop.null_modes
    v, w = v[:, keep], w[keep]
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
