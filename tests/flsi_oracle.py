"""References for the FLSI estimate in ``constants``.

``sweep_one_by_one`` checks the stacked validation sweep.  It draws the
exponents as the sweep does, ``SWEEP_CHUNK`` at a time in one
``random_hermitian`` call, and maps each through the sweep's chart, so both
see the same matrices.  It then evaluates one state at a time through
``d_sub`` and ``fisher``, four eigensolves per state, and discards states
with D_N below 1e-6 before the Fisher information is taken.

``ratio_and_grad_reference`` checks the descent objective: it builds the
gradient from two divided-difference Schur multipliers, J_log at the
spectrum of rho and J_exp at that of H, where the objective cancels J_log,
and it takes ln rho by rotating ln r, A(rho) through its Hermitian part and
I_A through a matrix product, where the objective reads ln rho off H.

``rho_multiplier`` is the two-sided multiplier [rho] that J_log inverts.
"""

import math

import numpy as np

from qmsemi.constants import SWEEP_CHUNK
from qmsemi.entropy import d_sub, fisher
from qmsemi.matops import _chart, norm_trace, random_hermitian, schur_multiplier


def sweep_one_by_one(a, n, rng, n_validate: int) -> tuple[float, int]:
    """Smallest I_A/D_N over ``n_validate`` random states, and how many were kept."""
    lowest, kept = math.inf, 0
    for lo in range(0, n_validate, SWEEP_CHUNK):
        k = min(SWEEP_CHUNK, n_validate - lo)
        for h in random_hermitian(a.dim, rng, 0.4 + 1.2 * rng.random(k)):
            rho = _chart(h)[-1]
            d_val = d_sub(rho, n)
            if d_val < 1e-6:
                continue
            kept += 1
            lowest = min(lowest, fisher(a, rho) / d_val)
    return lowest, kept


def ratio_and_grad_reference(a, e, h, want_grad: bool):
    """I_A/D_N at rho = m e^H / tr(e^H) and its H-gradient through two Schur multipliers.

    The rho-gradient G = (D_N (A(ln rho) + J_log(A rho)) - I_A (ln rho - ln E rho)) / D_N^2
    takes J_log from the divided differences of log at the eigenvalues of rho, and
    the chain through the chart gives (m / tr e^H) J_exp(G) - (m / tr e^H)^2 tau(G e^H) e^H.
    Where rho has eigenvalues near 1e-13, J_log's entries (about 1e13) magnify the
    rounding of A(rho) in the eigenbasis, and across a pair of eigenvalues of H
    within a few PSD the two multipliers' quotients of nearly equal values leave
    O(eps / gap) in their product, so this gradient is off there.
    """
    m = h.shape[0]
    w, u, expw, r, rho = _chart(h)
    uh = u.conj().T
    tr = expw.sum()
    log_r = w + math.log(m) - math.log(tr)
    log_rho = (u * log_r) @ uh
    e_rho = e.apply(rho)
    e_rho = (e_rho + e_rho.conj().T) / 2.0
    w_e, u_e = np.linalg.eigh(e_rho)
    if w_e.min() <= 0:
        raise ValueError("E(rho) is singular: its logarithm is undefined")
    weights = (u_e.conj() * (rho @ u_e)).sum(axis=0).real
    r_log_r = r * np.log(r, out=np.zeros_like(r), where=r > 0)
    d_val = float(r_log_r.sum() - (weights * np.log(w_e)).sum()) / m
    a_rho = a.apply(rho)
    a_rho = (a_rho + a_rho.conj().T) / 2.0
    i_val = norm_trace(a_rho @ log_rho).real
    if not want_grad:
        return i_val, d_val, rho, None
    log_e_rho = (u_e * np.log(w_e)) @ u_e.conj().T
    grad_i = a.apply(log_rho) + schur_multiplier(r, u, log_r, np.reciprocal, a_rho)
    grad_i = (grad_i + grad_i.conj().T) / 2.0
    grad_d = log_rho - log_e_rho
    g_rho = (d_val * grad_i - i_val * grad_d) / d_val**2
    j_g = schur_multiplier(w, u, expw, np.exp, g_rho)
    exph = (u * expw) @ uh
    coef = (m / tr) ** 2 * norm_trace(g_rho @ exph).real
    grad_h = (m / tr) * j_g - coef * exph
    grad_h = (grad_h + grad_h.conj().T) / 2.0
    return i_val, d_val, rho, grad_h


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
