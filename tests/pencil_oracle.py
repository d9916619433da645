"""Oracles for the cp-order pencil, kept to check the direct solve.

``bisect_lambda`` bisects on the smallest eigenvalue of Q_big - lambda Q_small,
shifted by the same PSD floor that ``cp_order_holds`` allows, so it finds the
largest lambda the floor accepts, up to ``tol``.  ``dense_split_lambda``
splits the pencil through the factor C of Q_big = C* C, taken explicitly (no
kernel carries one): a full SVD of C, the (n - r) x (n - r) block
K* Q_small K over the whole kernel basis and a dense top eigenpair of it.
It is the reference for the closed-form leak that ``gamma_e_constant`` takes
for a jump pencil and for the dense split of ``best_lambda``.
"""

import numpy as np
import scipy.linalg

from qmsemi.cporder import FormKernel, GammaECertificate
from qmsemi.tolerances import PSD as PSD_RTOL, rel_floor


def bisect_lambda(q_small: FormKernel, q_big: FormKernel, tol: float = 1e-8) -> float:
    """Largest lambda with lambda * Q_small <= Q_big, by eigen-pencil bisection.

    The search interval is capped at ||Q_big|| / sigma_min^+(Q_small), which
    keeps it finite when Q_small is rank deficient.
    """
    ws = np.linalg.eigvalsh(q_small.q)
    pos = ws[ws > PSD_RTOL * max(np.abs(ws).max(), 1.0)]
    if pos.size == 0:
        raise ValueError("Q_small vanishes; no pencil to solve")
    wb = np.linalg.eigvalsh(q_big.q)
    upper = max(np.abs(wb).max() / pos.min(), tol)

    def slack(lam: float) -> float:
        w = np.linalg.eigvalsh(q_big.q - lam * q_small.q)
        return w[0] + rel_floor(w, PSD_RTOL)

    if slack(0.0) < 0.0:
        return 0.0
    if slack(upper) >= 0.0:
        return upper
    lo, hi = 0.0, upper
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slack(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def _top_eigpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    n = h.shape[0]
    w, v = scipy.linalg.eigh(h, subset_by_index=[n - 1, n - 1], driver="evr")
    return float(w[0]), v[:, 0]


def dense_split_lambda(q_small: FormKernel, c: np.ndarray) -> GammaECertificate:
    """lambda* of Q_big = C* C from a full SVD of the factor C and dense blocks."""
    floor_small = rel_floor(np.linalg.norm(q_small.q), PSD_RTOL)
    size = c.shape[1]
    _, s, vh = np.linalg.svd(c, full_matrices=True)
    wb = np.zeros(size)
    wb[size - s.size:] = s[::-1] ** 2
    vb = vh[::-1].conj().T
    floor = rel_floor(wb, PSD_RTOL)
    in_range = wb > floor
    ker = vb[:, ~in_range]
    leak = 0.0
    if ker.shape[1]:
        leak, v = _top_eigpair(ker.conj().T @ q_small.q @ ker)
        if leak > floor_small:
            return GammaECertificate(0.0, "zero", leak, leak - floor_small, floor, ker @ v)
    r = vb[:, in_range] / np.sqrt(wb[in_range])
    top, u = _top_eigpair(r.conj().T @ q_small.q @ r)
    wit = r @ u
    return GammaECertificate(1.0 / top, "positive", leak, floor_small - leak, floor,
                             wit / np.linalg.norm(wit))
