"""Reference return times, kept to check the solve in ``cporder.return_time``.

Both follow the definition t0 = RETURN_TIME min{k : g(k RETURN_TIME) <= 0}
by the plain route, ``grid_return_time``: doubling from 1/gap, then integer
bisection on k.  ``return_time_by_bisection`` runs it over the same distance
function as ``cporder.return_time``, so the two must return the same float.
``return_time_by_module_basis`` runs it over a g that builds, at every step,
the (k m) x (k m) Choi matrix of T_t - E over a module basis of N and takes
its spectral norm by a full SVD (``cb_norm_1_to_inf``), whatever N is.  Both
take a generator or a pair (A, N), as ``cporder.return_time`` does.
``l2_to_linf_cb_sq`` gives the squared L2 -> Linf cb-norm of T_t - E, which
the splitting identity equates with the Choi norm of T_{2t} - E.
"""

import math

import numpy as np

from qmsemi.algebra import module_basis
from qmsemi.cporder import _return_distance, cb_norm_1_to_inf
from qmsemi.generator import markov_pair, spectral_gap
from qmsemi.matops import Superop, semigroup_apply, tau_orthonormal_basis
from qmsemi.tolerances import PSD, RETURN_TIME


def grid_return_time(g, gap: float) -> float:
    """RETURN_TIME min{k : g(k RETURN_TIME) <= 0} for a non-increasing g with g(0) > 0,
    or math.inf when g stays above 0 up to 1e4 / gap."""
    t_cap = 1e4 / gap
    lo, hi = 0.0, 1.0 / gap
    while g(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > t_cap:
            return math.inf
    ka, kb = math.floor(lo / RETURN_TIME), math.ceil(hi / RETURN_TIME)
    while kb - ka > 1:
        mid = (ka + kb) // 2
        if g(mid * RETURN_TIME) > 0.0:
            ka = mid
        else:
            kb = mid
    return kb * RETURN_TIME


def return_time_by_module_basis(gen) -> float:
    """The grid return time with ||chi_{T_t - E}|| from an SVD over a module basis."""
    a, n = pair = markov_pair(gen)
    gap = spectral_gap(pair)
    if gap <= PSD * a.norm:
        raise ValueError("generator has no spectral gap; no convergence to E")
    basis = module_basis(n)
    e = n.expectation

    def g(t: float) -> float:
        def diff(x):
            return semigroup_apply(a, t, x) - e.apply(x)

        return cb_norm_1_to_inf(diff, basis) - 0.5

    if g(0.0) <= 0.0:
        return 0.0
    return grid_return_time(g, gap)


def return_time_by_bisection(gen) -> float:
    """The grid return time over ``cporder._return_distance``, by integer bisection."""
    return grid_return_time(*_return_distance(markov_pair(gen)))


def l2_to_linf_cb_sq(s: Superop) -> float:
    """Squared cb-norm of a map L2(tau) -> M for the self-dual structure:

        ||S||^2 = || sum_i S(e_i) (x) conj(S(e_i)) ||

    over any tau-orthonormal basis {e_i}.  For S = T_t - E of an ergodic
    self-adjoint semigroup this equals ||chi_{T_{2t} - E}|| exactly, which is
    the splitting identity relating the distance to equilibrium at time 2t
    to the squared L2 -> Linf norm at time t.
    """
    m = s.dim
    se = s.apply(tau_orthonormal_basis(m))
    acc = np.einsum("eij,ekl->ikjl", se, se.conj()).reshape(m * m, m * m)
    return float(np.linalg.norm(acc, 2))
