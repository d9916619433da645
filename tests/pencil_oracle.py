"""Bisection oracle for the cp-order pencil, kept to check the direct solve.

It bisects on the smallest eigenvalue of Q_big - lambda Q_small, shifted by
the same PSD floor that ``cp_order_holds`` allows, so it finds the largest
lambda the floor accepts, up to ``tol``.
"""

import numpy as np

from qmsemi.cporder import PSD_RTOL, FormKernel, _psd_floor


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
        return w[0] + _psd_floor(w)

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
