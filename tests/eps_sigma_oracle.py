"""The eps-sigma calculus by scalar quadrature, as ``subordinate.eps_sigma_scalar``
computed it before the closed forms.  Both integrals run in u = ln t, where
the integrands are bounded with exponential tails.  It misses its own
QUAD_REL target for psi_tilde (by up to 2.8e-9 relative at sigma = 2.5 for
lam >= 1e-6, and by far more below, where the QUAD_ABS target governs), so
it checks the closed forms only to 1e-7 and only for lam >= 1e-6.
"""

import math

import numpy as np
from scipy.integrate import quad

from qmsemi.tolerances import QUAD_ABS, QUAD_REL


def eps_sigma_by_quadrature(log_eps: float, sigma: float, lam: float) -> tuple[float, float, float]:
    """(phi, psi, psi_tilde) at lam > 0 for eps = exp(log_eps) < 1."""
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
