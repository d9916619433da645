"""Subordinated generators by spectral functional calculus.

A weight profile F on (0, inf) induces the Bernstein-type function

    phi_F(lam) = int_0^inf (1 - e^{-t lam}) F(t) dt/t

and the subordinated generator Phi_F(A) = phi_F(A), applied eigenvalue-wise
to the PSD self-adjoint superoperator A.  This is exact up to the scalar
quadrature error, so no operator-level discretization is needed.  Power-law
profiles give fractional powers; the truncated eps-sigma profile yields the
norm-controlled approximants used in the density construction.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .cporder import best_lambda, kernel_from_superop, kernel_ie, return_time
from .generator import LindbladGenerator
from .matops import Superop, make_superop
from .tolerances import QUAD_ABS, QUAD_ERR, QUAD_REL, SPECTRAL_ZERO, TINY, rel_floor

__all__ = [
    "WeightProfile",
    "phi_of_lambda",
    "subordinated_generator",
    "fractional_power",
    "eps_sigma_scalar",
    "eps_sigma_generator",
    "density_approximation",
    "psi_r_map",
    "theta_family_report",
]

def _quad_dt_over_t(f, with_error: bool = False):
    """Integral of f(t) dt/t over (0, inf) via the substitution t = e^u.

    The log substitution turns endpoint power-law singularities into
    exponential tails on both sides, which QUADPACK's infinite-range
    transformation handles at QUAD_ABS absolute tolerance.
    """
    def g(u: float) -> float:
        if u > 700.0:  # t beyond 1e304: integrand negligible for any (I)-profile
            return 0.0
        t = math.exp(u)
        return f(t) if t > 0.0 else 0.0  # exp underflow: integrand vanishes under (I)

    lo, e1 = quad(g, -np.inf, 0.0, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=300)
    hi, e2 = quad(g, 0.0, np.inf, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=300)
    return (lo + hi, e1 + e2) if with_error else lo + hi


@dataclass(frozen=True)
class WeightProfile:
    """Subordination weight F(t) with numerically verified growth conditions.

    kind is one of "power" (F(t) = c(alpha) t^-alpha with the normalization
    c(alpha) computed by quadrature so that phi(lam) = lam^alpha), "epssigma"
    (the truncated profile t^-2 on [eps,1), t^-sigma on [1,inf)), or "table"
    (log-log interpolation of sampled points).

    conditions holds the integrability flag C_F (finite), the
    quasi-monotonicity constant C_mu at a given mu, and the doubling-type
    parameters (alpha, t_alpha, c_alpha); each entry is None when unchecked.
    """

    kind: str
    alpha: float | None = None
    eps: float | None = None
    sigma: float | None = None
    points: np.ndarray | None = None
    norm_const: float | None = None
    conditions: dict = field(default_factory=dict)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def power_law(alpha: float) -> "WeightProfile":
        if not 0.0 < alpha < 1.0:
            raise ValueError("power-law exponent must lie in (0, 1)")
        # c(alpha) with int (1 - e^-s) s^{-alpha} ds/s = 1/c(alpha); never hard-coded
        raw = _quad_dt_over_t(lambda s: -math.expm1(-s) * s ** (-alpha))
        c = 1.0 / raw
        prof = WeightProfile(kind="power", alpha=alpha, norm_const=c)
        return prof.with_checked_conditions()

    @staticmethod
    def eps_sigma(eps: float, sigma: float) -> "WeightProfile":
        # NaN fails both comparisons, so it stops here, before any quadrature
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must lie in (0, 1), got {eps}")
        if not 0.0 < sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {sigma}")
        prof = WeightProfile(kind="epssigma", eps=eps, sigma=sigma)
        return prof.with_checked_conditions()

    @staticmethod
    def table(points) -> "WeightProfile":
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("table profile needs at least two (t, F) points")
        if not np.isfinite(pts).all():
            raise ValueError("table points must be finite")
        if np.any(pts[:, 0] <= 0) or np.any(pts[:, 1] < 0):
            raise ValueError("table points must have t > 0 and F >= 0")
        pts = pts[np.argsort(pts[:, 0])]
        prof = WeightProfile(kind="table", points=pts)
        return prof.with_checked_conditions()

    # -- evaluation --------------------------------------------------------
    def f(self, t: float) -> float:
        if t <= 0.0:
            return 0.0
        if self.kind == "power":
            return self.norm_const * t ** (-self.alpha)
        if self.kind == "epssigma":
            if t < self.eps:
                return 0.0
            return t ** -2.0 if t < 1.0 else t ** (-self.sigma)
        # log-log interpolation, zero outside the sampled range
        pts = self.points
        if t < pts[0, 0] or t > pts[-1, 0]:
            return 0.0
        logt = np.log(pts[:, 0])
        vals = np.where(pts[:, 1] > 0, pts[:, 1], TINY)
        return float(np.exp(np.interp(math.log(t), logt, np.log(vals))))

    # -- conditions --------------------------------------------------------
    def with_checked_conditions(self) -> "WeightProfile":
        """Verify (integrability, quasi-monotonicity at mu = 1/2, doubling) on a log grid."""
        cond: dict = {}
        c_f, err = _quad_dt_over_t(lambda t: min(1.0, t) * self.f(t), with_error=True)
        cond["I"] = {"C_F": c_f, "ok": bool(np.isfinite(c_f) and err <= QUAD_ERR)}
        mu = 0.5
        grid = np.geomspace(1e-6, 1e6, 241)
        fg = np.array([self.f(t) for t in grid])
        fmu = np.array([self.f(mu * t) for t in grid])
        mask = fg > 0
        if mask.any():
            c_mu = float((fmu[mask] / fg[mask]).max())
            cond["QM"] = {"mu": mu, "C_mu": c_mu, "ok": bool(np.isfinite(c_mu))}
        else:
            cond["QM"] = {"mu": mu, "C_mu": None, "ok": False}
        if self.kind == "power":
            cond["Delta2"] = {"alpha": self.alpha, "t_alpha": 1e-6, "c_alpha": 1.0, "ok": True}
        else:
            # fit the smallest c_alpha for alpha = 1/2 on the grid t >= t_alpha
            t_alpha = 1.0
            al = 0.5
            sel = grid >= t_alpha
            ratios = []
            for s in (0.25, 0.5, 0.75):
                num = np.array([self.f(s * t) for t in grid[sel]])
                den = fg[sel] * s ** (-al)
                good = den > 0
                if good.any():
                    ratios.append((num[good] / den[good]).max())
            c_al = float(max(ratios)) if ratios else math.inf
            cond["Delta2"] = {
                "alpha": al,
                "t_alpha": t_alpha,
                "c_alpha": c_al,
                "ok": bool(np.isfinite(c_al)),
            }
        return dataclasses.replace(self, conditions=cond)


def phi_of_lambda(profile: WeightProfile, lam: float) -> float:
    """phi_F(lam) = int (1 - e^{-t lam}) F(t) dt/t; 0 at lam = 0."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam == 0.0:
        return 0.0
    if not profile.conditions.get("I", {}).get("ok", True):
        raise ValueError("profile fails the integrability condition")
    if profile.kind == "epssigma":
        return eps_sigma_scalar(profile.eps, profile.sigma, lam)[0]
    return _quad_dt_over_t(lambda t: -math.expm1(-lam * t) * profile.f(t))


def _spectral_map(a: Superop, fn) -> Superop:
    w, v = a.eig
    w = np.where(w < rel_floor(w, SPECTRAL_ZERO), 0.0, w)
    fw = np.array([fn(x) for x in w])
    mat = (v * fw) @ v.conj().T
    return make_superop(mat, a.dim)


def subordinated_generator(a: Superop, profile: WeightProfile) -> Superop:
    """Phi_F(A) applied spectrally; keeps self-adjointness, PSD, nullspace."""
    return _spectral_map(a, lambda lam: phi_of_lambda(profile, lam))


def fractional_power(a: Superop, theta: float) -> Superop:
    """A^theta by eigenvalue-wise power, theta in (0, 1]."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    return _spectral_map(a, lambda lam: lam ** theta if lam > 0 else 0.0)


def eps_sigma_scalar(
    eps: float | None, sigma: float, lam: float, log_eps: float | None = None
) -> tuple[float, float, float]:
    """(phi_{eps,sigma}(lam), psi(lam), psi_tilde(lam)) with

        psi(lam)        = int_eps^1 (1 - e^{-lam t}) dt/t^2,
        psi_tilde(lam)  = int_1^inf (1 - e^{-lam t}) dt/t^{1+sigma},
        phi             = (psi + psi_tilde) / |ln eps|.

    ``log_eps`` = ln(eps) may be passed instead of eps, which keeps the
    calculus usable when eps underflows float64 (the construction below
    needs |ln eps| up to ~1e4).  Both quadratures run in u = ln t, where the
    integrands are bounded with exponential tails.
    """
    if log_eps is None:
        if not 0.0 < eps < 1.0:
            raise ValueError("require 0 < eps < 1")
        log_eps = math.log(eps)
    if log_eps >= 0.0:
        raise ValueError("require eps < 1")
    if lam == 0.0:
        return 0.0, 0.0, 0.0

    def f_psi(u: float) -> float:
        t = math.exp(u)
        return -math.expm1(-lam * t) / t if t > 0.0 else lam

    # below u_c the integrand equals lam to double precision; integrate exactly
    u_c = min(0.0, -math.log(lam) - 37.0)
    if log_eps < u_c:
        psi = lam * (u_c - log_eps)
        psi += quad(f_psi, u_c, 0.0, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=500)[0]
    else:
        psi, _ = quad(f_psi, log_eps, 0.0, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=500)

    def f_psit(u: float) -> float:
        if u > 690.0:
            return math.exp(-sigma * u)
        return -math.expm1(-lam * math.exp(u)) * math.exp(-sigma * u)

    psit, _ = quad(f_psit, 0.0, np.inf, epsabs=QUAD_ABS, epsrel=QUAD_REL, limit=500)
    return (psi + psit) / abs(log_eps), psi, psit


def eps_sigma_generator(
    l: Superop, eps: float | None, sigma: float, log_eps: float | None = None
) -> Superop:
    """Spectral application of phi_{eps,sigma}; a norm-controlled surrogate of L."""
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    return _spectral_map(
        l, lambda lam: eps_sigma_scalar(eps, sigma, lam, log_eps=log_eps)[0]
    )


def auto_sigma(gen: LindbladGenerator) -> dict:
    """sigma = 1/ln(t0) from the measured return time, clamped to 1 for t0 <= e."""
    t0 = return_time(gen.superop, gen.fixed_algebra)
    lt = max(math.log(t0), 1.0) if math.isfinite(t0) else math.inf
    if not math.isfinite(lt):
        raise ValueError("no convergence to the conditional expectation")
    return {"t0": t0, "sigma": 1.0 / lt}


def density_approximation(gen: LindbladGenerator, eps: float) -> tuple[Superop, dict]:
    """Generator B_eps from functional calculus of L with a certified floor.

    Chooses sigma = 1/ln(t0) from the return time (clamped to 1 when
    t0 <= e) and |ln eps0| = (ln t0 + ||L||^2 / 2) / eps, which makes the
    scalar calculus bound come out at exactly eps.  The report carries the
    measured L2 distance, the certified gradient-condition constant of
    B_eps, and the predicted floor eps * alpha(L) with
    alpha(L) = 1 / (2e ln(t0) (ln(t0) + ||L||^2)).
    """
    l = gen.superop
    norm_l = l.norm
    if not 0.0 < eps:
        raise ValueError("eps must be positive")
    t0 = return_time(l, gen.fixed_algebra)
    if not math.isfinite(t0):
        raise ValueError("no convergence to the conditional expectation")
    lt = max(math.log(t0), 1.0)  # the construction assumes t0 >= e
    sigma = 1.0 / lt
    ln_eps0 = (lt + norm_l**2 / 2.0) / eps
    eps0 = math.exp(-ln_eps0) if ln_eps0 < 700.0 else 0.0  # may underflow; log form used
    b = eps_sigma_generator(l, None, sigma, log_eps=-ln_eps0)
    dist = (l - b).norm
    alpha_l = 1.0 / (2.0 * math.e * lt * (lt + norm_l**2))
    cert = best_lambda(kernel_ie(gen.fixed_algebra), kernel_from_superop(b))
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


def psi_r_map(a: Superop, profile: WeightProfile, r: float) -> tuple[Superop, float]:
    """Unital CP map Psi_F(r) = g(r)^{-1} int e^{-r/t} T_t F(t) dt/t and g(r).

    Acts spectrally: each eigenvalue lam of A is sent to the scalar
    quadrature g(r)^{-1} int e^{-r/t} e^{-t lam} F(t) dt/t.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    g_r = _quad_dt_over_t(lambda t: math.exp(-r / t) * profile.f(t))
    if not np.isfinite(g_r) or g_r <= 0.0:
        raise ValueError("normalization integral g(r) did not converge")

    def fn(lam: float) -> float:
        val = _quad_dt_over_t(
            lambda t: math.exp(-r / t) * math.exp(-t * lam) * profile.f(t)
        )
        return val / g_r

    return _spectral_map(a, fn), g_r


def theta_family_report(gen: LindbladGenerator, thetas=(0.25, 0.5, 0.75)) -> dict:
    """Measured gradient-condition constants of A^theta and a fitted prefactor.

    The family is fitted against lam(theta) = c0 * t0^-theta theta^2 (1-theta)
    by least squares in c0; the universal constant itself is not claimed.
    """
    t0 = return_time(gen.superop, gen.fixed_algebra)
    q_small = kernel_ie(gen.fixed_algebra)
    measured = {}
    shape_vals = []
    lam_vals = []
    for th in thetas:
        a_th = fractional_power(gen.superop, th)
        cert = best_lambda(q_small, kernel_from_superop(a_th))
        measured[th] = cert.lambda_star
        shape_vals.append(t0 ** (-th) * th**2 * (1.0 - th))
        lam_vals.append(cert.lambda_star)
    shape = np.array(shape_vals)
    lam = np.array(lam_vals)
    c0 = float(shape @ lam / (shape @ shape)) if shape.any() else math.nan
    return {"t0": t0, "lambda_theta": measured, "fitted_c0": c0}
