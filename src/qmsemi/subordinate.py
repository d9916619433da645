"""Subordinated generators by spectral functional calculus.

A weight profile F on (0, inf) induces the Bernstein-type function

    phi_F(lam) = int_0^inf (1 - e^{-t lam}) F(t) dt/t

and the subordinated generator Phi_F(A) = phi_F(A), applied eigenvalue-wise
to the PSD self-adjoint superoperator A, so no operator-level discretization
is needed.  Each profile kind has one phi: a power law gives the fractional
power A^alpha, and the truncated eps-sigma profile gives the norm-controlled
approximants of the density construction in closed form (exponential
integrals), for all eigenvalues at once.  Scalar quadrature runs only for
table profiles and for Psi_F(r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# best_lambda stays importable from this module: perfbench/test_perfbench.py
# checks that the benchmark's tracer wraps the pencil here as in cporder
from .cporder import best_lambda, gamma_e, return_time
from .generator import markov_pair
from .matops import Superop, make_superop
from .tolerances import CF_STOP, QUAD_ABS, QUAD_REL, TINY

__all__ = [
    "WeightProfile",
    "phi_of_lambda",
    "subordinated_generator",
    "fractional_power",
    "eps_sigma_scalar",
    "eps_sigma_generator",
    "density_approximation",
    "psi_r_map",
    "best_lambda",
]

def _quad_dt_over_t(f, breaks):
    """Integral of f(t) dt/t over (0, inf) and its error estimate, via t = e^u.

    The log substitution turns endpoint power-law singularities into
    exponential tails on both sides, which QUADPACK's infinite-range
    transformation handles at QUAD_ABS absolute tolerance.  The u-axis is
    split at 0 and at ln b for each breakpoint b, where f may jump or kink.
    """
    from scipy.integrate import quad

    def g(u: float) -> float:
        if u > 700.0:  # t beyond 1e304: integrand negligible for any (I)-profile
            return 0.0
        t = math.exp(u)
        return f(t) if t > 0.0 else 0.0  # exp underflow: integrand vanishes under (I)

    edges = [-math.inf, *sorted({0.0, *(math.log(b) for b in breaks)}), math.inf]
    parts = [quad(g, lo, hi, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=300)
             for lo, hi in zip(edges, edges[1:])]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


@dataclass(frozen=True)
class WeightProfile:
    """Subordination weight F(t).

    kind is one of "power" (F(t) = c t^-alpha, c = alpha / Gamma(1 - alpha), so
    that phi(lam) = lam^alpha), "epssigma" ((t^-1 on [eps,1), t^-sigma on
    [1,inf)) / |ln eps|, whose phi is ``eps_sigma_scalar``), or "table"
    (log-log interpolation of sampled points).

    Every profile the constructors accept meets the one condition the calculus
    needs, (I): C_F = int min(1, t) F(t) dt/t < inf.  A power law with alpha in
    (0, 1) has C_F = c (1/(1 - alpha) + 1/alpha), an eps-sigma profile
    C_F = 1 + 1/(sigma |ln eps|), and a table is bounded and zero outside
    [t_1, t_n] with t_1 > 0.  A result that overflows float64 is refused by
    ``make_superop``.
    """

    kind: str
    alpha: float | None = None
    eps: float | None = None
    sigma: float | None = None
    points: np.ndarray | None = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def power_law(alpha: float) -> "WeightProfile":
        if not 0.0 < alpha < 1.0:
            raise ValueError("power-law exponent must lie in (0, 1)")
        return WeightProfile(kind="power", alpha=alpha)

    @staticmethod
    def eps_sigma(eps: float, sigma: float) -> "WeightProfile":
        # NaN fails both comparisons
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        _check_eps_sigma(math.log(eps), sigma)
        return WeightProfile(kind="epssigma", eps=eps, sigma=sigma)

    @staticmethod
    def table(points) -> "WeightProfile":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("table profile needs at least two (t, F) points")
        if not np.isfinite(pts).all():
            raise ValueError("table points must be finite")
        if np.any(pts[:, 0] <= 0) or np.any(pts[:, 1] < 0):
            raise ValueError("table points must have t > 0 and F >= 0")
        return WeightProfile(kind="table", points=pts[np.argsort(pts[:, 0])])

    # -- evaluation --------------------------------------------------------
    @property
    def norm_const(self) -> float:
        """c = alpha / Gamma(1 - alpha) of a power law: int (1 - e^-s) s^{-alpha} ds/s = 1 / c."""
        return self.alpha / math.gamma(1.0 - self.alpha)

    @property
    def breaks(self) -> tuple:
        """The t where F may jump or kink besides t = 1: eps, or every table point."""
        if self.kind == "epssigma":
            return (self.eps,)
        if self.kind == "table":
            return tuple(self.points[:, 0])
        return ()

    def f(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if self.kind == "power":
            return self.norm_const * t ** (-self.alpha)
        if self.kind == "epssigma":
            if t < self.eps:
                return 0.0
            return (1.0 / t if t < 1.0 else t ** (-self.sigma)) / -math.log(self.eps)
        # log-log interpolation, zero outside the sampled range
        pts = self.points
        if t < pts[0, 0] or t > pts[-1, 0]:
            return 0.0
        logt = np.log(pts[:, 0])
        vals = np.where(pts[:, 1] > 0, pts[:, 1], TINY)
        return float(np.exp(np.interp(math.log(t), logt, np.log(vals))))


def phi_of_lambda(profile: WeightProfile, lam: float) -> float:
    """phi_F(lam) = int (1 - e^{-t lam}) F(t) dt/t; 0 at lam = 0.  Raises
    unless lam is finite and >= 0, for every profile kind, and where a table's
    quadrature is not finite (its integral overflows)."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be nonnegative and finite, got {lam}")
    if lam == 0.0:
        return 0.0
    if profile.kind == "power":
        return lam ** profile.alpha
    if profile.kind == "epssigma":
        return eps_sigma_scalar(math.log(profile.eps), profile.sigma, lam)[0]
    phi = _quad_dt_over_t(lambda t: -math.expm1(-lam * t) * profile.f(t), profile.breaks)[0]
    if not math.isfinite(phi):
        raise ValueError(f"phi of the table profile is not finite at lambda = {lam}")
    return phi


def _spectral_map(gen, fn) -> Superop:
    """f(A) of the pair (A, N) of ``gen`` (``generator.markov_pair``) from the cached
    eigendecomposition; fn maps the array of eigenvalues, the dim N lowest (the
    modes E_N keeps) set to 0, to the array of values."""
    a, n = markov_pair(gen)
    w, v = a.eig
    w = np.concatenate((np.zeros(n.size), w[n.size:]))
    fw = np.asarray(fn(w), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # make_superop refuses an overflow
        mat = (v * fw) @ v.conj().T
    return make_superop(mat, a.dim)


def subordinated_generator(gen, profile: WeightProfile) -> Superop:
    """Phi_F(A) applied spectrally; keeps self-adjointness, PSD, nullspace."""
    if profile.kind == "power":
        return fractional_power(gen, profile.alpha)
    if profile.kind == "epssigma":
        return eps_sigma_generator(gen, math.log(profile.eps), profile.sigma)
    return _spectral_map(gen, lambda w: [phi_of_lambda(profile, lam) for lam in w])


def fractional_power(gen, theta: float) -> Superop:
    """A^theta by eigenvalue-wise power, theta in (0, 1]."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    return _spectral_map(gen, lambda w: [lam ** theta if lam > 0 else 0.0 for lam in w])


@cache
def _log_gamma_coef() -> np.ndarray:
    """zeta(k) / k for k = 59 down to 2, the series
    ln Gamma(1 - p) = EULER p + sum_{k >= 2} zeta(k) p^k / k used for 0 < p <= 1/2."""
    from scipy.special import zeta

    k = np.arange(2, 60)
    return (zeta(k) / k)[::-1]


# terms k = 1..20 of the series of E_{1+p}(x) at x <= 1: x^20 / 20! < 1e-18
_SERIES_K = np.arange(1.0, 21.0)
_SERIES_FACT = np.cumprod(_SERIES_K)


def _expint_cf(x: np.ndarray, nu: float) -> np.ndarray:
    """E_nu(x) for x > 1 by the continued fraction of E_nu, evaluated by
    the modified Lentz method (Numerical Recipes, section 6.3)."""
    b = x + nu
    c = np.full_like(x, np.inf)
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (nu - 1.0 + i)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h = h * delta
        if np.all(np.abs(delta - 1.0) <= CF_STOP):
            return h * np.exp(-x)
    raise ArithmeticError("continued fraction of E_nu did not converge")


def _x_expint(x: np.ndarray, sigma: float) -> np.ndarray:
    """x E_sigma(x) with E_sigma(x) = int_1^inf e^{-xt} t^-sigma dt, for x > 0.

    sigma < 1: x^sigma Gamma(1 - sigma) Q(1 - sigma, x); sigma = 1: x E_1(x).
    sigma > 1: the continued fraction where x > 1.  Where x <= 1, the series

        E_{1+p}(x) = (1 - x^p Gamma(1 - p)) / p - sum_{k>=1} (-x)^k / (k! (k - p))

    at p = frac(sigma) (leading term -ln x - EULER at p = 0), stepped up by
    E_{q+1} = (e^-x - x E_q) / q.  The leading term is an expm1 of a Taylor
    series of ln Gamma(1 - p) / p, so no step divides a cancelled difference
    by a small p.
    """
    from scipy.special import exp1, gamma, gammaincc, loggamma

    if sigma < 1.0:
        return x ** sigma * gamma(1.0 - sigma) * gammaincc(1.0 - sigma, x)
    if sigma == 1.0:
        return x * exp1(x)
    out = np.empty_like(x)
    far = x > 1.0
    out[far] = x[far] * _expint_cf(x[far], sigma)
    y = x[~far]
    p = sigma - math.floor(sigma)
    if p == 0.0:
        e = -np.log(y) - np.euler_gamma
    else:
        if p <= 0.5:
            lg = np.euler_gamma + p * np.polyval(_log_gamma_coef(), p)  # ln Gamma(1 - p) / p
        else:
            lg = loggamma(1.0 - p).real / p
        e = -np.expm1(p * (np.log(y) + lg)) / p
    e = e - ((-y[:, None]) ** _SERIES_K / (_SERIES_FACT * (_SERIES_K - p))).sum(axis=1)
    for q in p + np.arange(1.0, math.floor(sigma)):
        e = (np.exp(-y) - y * e) / q
    out[~far] = y * e
    return out


def _eps_sigma_values(lam: np.ndarray, sigma: float, log_eps: float):
    """(phi, psi, psi_tilde) of ``eps_sigma_scalar`` at every lam >= 0 at once:

        psi(lam)       = expm1(-lam) + lam (1 - e^{-lam eps}) / (lam eps)
                         + lam (E_1(lam eps) - E_1(lam)),
        psi_tilde(lam) = (1 - e^{-lam} + lam E_sigma(lam)) / sigma,

    with E_1(lam eps) = -EULER - ln(lam eps) where lam eps underflows.
    """
    from scipy.special import exp1

    lam = np.asarray(lam, dtype=float)
    psi, psit = np.zeros_like(lam), np.zeros_like(lam)
    pos = lam > 0.0
    x = lam[pos]
    lx = np.log(x) + log_eps  # ln(lam eps)
    xe = np.exp(lx)
    tiny = xe == 0.0
    xs = np.where(tiny, 1.0, xe)
    ratio = np.where(tiny, 1.0, -np.expm1(-xs) / xs)
    e1 = np.where(tiny, -np.euler_gamma - lx, exp1(xs))
    psi[pos] = np.expm1(-x) + x * ratio + x * (e1 - exp1(x))
    psit[pos] = (-np.expm1(-x) + _x_expint(x, sigma)) / sigma
    return (psi + psit) / abs(log_eps), psi, psit


def _check_eps_sigma(log_eps: float, sigma: float) -> None:
    """Raise unless ln eps is finite and < 0 (0 < eps < 1) and sigma is finite and > 0."""
    if not -math.inf < log_eps < 0.0:
        raise ValueError(f"require eps < 1: log_eps must be finite and < 0, got {log_eps}")
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")


def eps_sigma_scalar(log_eps: float, sigma: float, lam: float) -> tuple[float, float, float]:
    """(phi_{eps,sigma}(lam), psi(lam), psi_tilde(lam)) with

        psi(lam)        = int_eps^1 (1 - e^{-lam t}) dt/t^2,
        psi_tilde(lam)  = int_1^inf (1 - e^{-lam t}) dt/t^{1+sigma},
        phi             = (psi + psi_tilde) / |ln eps|,

    in closed form (see ``_eps_sigma_values``).  eps enters as ``log_eps`` =
    ln(eps), which keeps the calculus usable when eps underflows float64 (the
    construction below needs |ln eps| up to ~1e4).  Raises ValueError unless
    log_eps is finite and < 0, sigma finite and > 0 and lam finite and >= 0.
    """
    _check_eps_sigma(log_eps, sigma)
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    phi, psi, psit = _eps_sigma_values(np.array([lam]), sigma, log_eps)
    return float(phi[0]), float(psi[0]), float(psit[0])


def eps_sigma_generator(gen, log_eps: float, sigma: float) -> Superop:
    """phi_{eps,sigma}(L) with eps = e^log_eps, spectrally: a norm-controlled surrogate of L."""
    _check_eps_sigma(log_eps, sigma)
    return _spectral_map(gen, lambda w: _eps_sigma_values(w, sigma, log_eps)[0])


def _log_return_time(gen) -> tuple[float, float]:
    """The return time t0 and ln t0 clamped at 1 (the construction assumes t0 >= e)."""
    t0 = return_time(gen)
    if not math.isfinite(t0):
        raise ValueError("no convergence to the conditional expectation")
    return t0, max(math.log(t0), 1.0)


def auto_sigma(gen) -> dict:
    """sigma = 1/ln(t0) from the measured return time, clamped to 1 for t0 <= e."""
    t0, lt = _log_return_time(gen)
    return {"t0": t0, "sigma": 1.0 / lt}


def density_approximation(gen, eps: float) -> tuple[Superop, dict]:
    """Generator B_eps from functional calculus of L with a certified floor.

    Chooses sigma = 1/ln(t0) from the return time (clamped to 1 when
    t0 <= e) and |ln eps0| = (ln t0 + ||L||^2 / 2) / eps, which makes the
    scalar calculus bound come out at exactly eps.  The report carries the
    measured L2 distance, the certified gradient-condition constant of
    B_eps, and the predicted floor eps * alpha(L) with
    alpha(L) = 1 / (2e ln(t0) (ln(t0) + ||L||^2)).  ``gen`` passes
    ``generator.markov_pair`` (else ValueError), once.
    """
    if not 0.0 < eps:
        raise ValueError("eps must be positive")
    pair = markov_pair(gen)
    l, n = pair
    norm_l = l.norm
    t0, lt = _log_return_time(pair)
    sigma = 1.0 / lt
    ln_eps0 = (lt + norm_l**2 / 2.0) / eps
    eps0 = math.exp(-ln_eps0) if ln_eps0 < 700.0 else 0.0  # may underflow; log form used
    b = eps_sigma_generator(pair, -ln_eps0, sigma)
    dist = (l - b).norm
    alpha_l = 1.0 / (2.0 * math.e * lt * (lt + norm_l**2))
    cert = gamma_e(b, n)
    report = {
        "eps": eps,
        "t0": t0,
        "sigma": sigma,
        "eps0": eps0,
        "norm_L": norm_l,
        "distance": dist,
        "alpha_L": alpha_l,
        "predicted_floor": eps * alpha_l,
        "lambda_gamma_e": cert.lambda_star,
        "wide_eps0": bool(eps >= norm_l),
    }
    # alternative floor with better ||L|| dependence
    denom = 8.0 * norm_l + 2.0 * math.log(max(norm_l, TINY)) + ln_eps0 + 2.0 * lt
    report["refined_floor"] = eps / (2.0 * math.e * lt * denom) if denom > 0 else None
    return b, report


def psi_r_map(gen, profile: WeightProfile, r: float) -> tuple[Superop, float]:
    """Unital CP map Psi_F(r) = g(r)^{-1} int e^{-r/t} T_t F(t) dt/t and g(r).

    Acts spectrally: each eigenvalue lam of A is sent to the scalar
    quadrature g(r)^{-1} int e^{-r/t} e^{-t lam} F(t) dt/t.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    g_r = _quad_dt_over_t(lambda t: math.exp(-r / t) * profile.f(t), profile.breaks)[0]
    if not np.isfinite(g_r) or g_r <= 0.0:
        raise ValueError("normalization integral g(r) did not converge")

    def fn(lam: float) -> float:
        val = _quad_dt_over_t(
            lambda t: math.exp(-r / t) * math.exp(-t * lam) * profile.f(t), profile.breaks
        )[0]
        return val / g_r

    return _spectral_map(gen, lambda w: [fn(lam) for lam in w]), g_r

