"""Reference return times, kept to check the solve in ``cporder.return_time``.

``return_time_by_module_basis`` builds, at every bisection step, the
(k m) x (k m) Choi matrix of T_t - E over a module basis of N and takes its
spectral norm by a full SVD (``cb_norm_1_to_inf``), whatever N is.
``return_time_by_bisection`` runs the plain doubling and bisection over the
same distance function as ``cporder.return_time``, evaluating g at every
midpoint, so the two must return the same float.
"""

import math

from qmsemi.algebra import module_basis
from qmsemi.cporder import _return_distance, cb_norm_1_to_inf
from qmsemi.generator import spectral_gap
from qmsemi.matops import semigroup_apply
from qmsemi.tolerances import RETURN_TIME


def return_time_by_module_basis(a, n) -> float:
    """The smallest t with ||chi_{T_t - E}|| <= 1/2, bisected to RETURN_TIME."""
    gap = spectral_gap(a)
    if gap <= 0.0:
        raise ValueError("generator has no spectral gap; no convergence to E")
    basis = module_basis(n)
    e = n.expectation

    def g(t: float) -> float:
        def diff(x):
            return semigroup_apply(a, t, x) - e.apply(x)

        return cb_norm_1_to_inf(diff, basis) - 0.5

    if g(0.0) <= 0.0:
        return 0.0
    t_cap = 1e4 / gap
    hi = 1.0 / gap
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > t_cap:
            return math.inf
    lo = 0.0 if hi <= 2.0 / gap else hi / 2.0
    while hi - lo > RETURN_TIME:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def return_time_by_bisection(a, n) -> float:
    """The smallest t with g(t) <= 0 by doubling, then bisection to RETURN_TIME."""
    g, gap = _return_distance(a, n)
    t_cap = 1e4 / gap
    hi = 1.0 / gap
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > t_cap:
            return math.inf
    lo = 0.0 if hi <= 2.0 / gap else hi / 2.0
    while hi - lo > RETURN_TIME:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi
