"""Projected gradient ascent for the dual Lipschitz norm, kept to check the
closed-form bracket of ``constants.gamma_dual_norm``.

Each start draws a random Hermitian test function, and every step moves it
along Herm(rho - E rho), recentres it against E and rescales it by
||Gamma(f,f)||^{-1/2} whenever the Lipschitz constraint is active.  A step is
kept only when it raises |tau(rho f)| by more than 1e-14, and halved
otherwise, down to 1e-8.  Every iterate is feasible, so the result is a lower
bound on the supremum.
"""

import math

import numpy as np

from qmsemi.generator import gradient_form
from qmsemi.matops import norm_trace, random_hermitian


def lip_norm_sq(gen, f) -> float:
    """||Gamma(f, f)||, the squared Lipschitz seminorm of f."""
    g = gradient_form(gen.jumps, f, f)
    return float(np.linalg.eigvalsh((g + g.conj().T) / 2.0).max())


def dual_norm_ascent(gen, rho, n_starts=4, seed=0, max_iter=250) -> float:
    """Best |tau(rho f)| the ascent reaches over ``n_starts`` seeded starts."""
    e = gen.e_fix
    m = gen.dim

    def project(f):
        f = (f + f.conj().T) / 2.0
        f = f - e.apply(f)
        f = (f + f.conj().T) / 2.0
        lip = lip_norm_sq(gen, f)
        if lip > 1.0:
            f = f / math.sqrt(lip)
        return f

    direction = rho - e.apply(rho)
    direction = (direction + direction.conj().T) / 2.0
    best = 0.0
    for start in range(n_starts):
        rng = np.random.default_rng([seed, start])
        f = project(random_hermitian(m, rng))
        step = 1.0
        for _ in range(max_iter):
            val = abs(norm_trace(rho @ f).real)
            sign = 1.0 if norm_trace(rho @ f).real >= 0 else -1.0
            f_new = project(f + step * sign * direction)
            val_new = abs(norm_trace(rho @ f_new).real)
            if val_new > val + 1e-14:
                f = f_new
            else:
                step *= 0.5
                if step < 1e-8:
                    break
        best = max(best, abs(norm_trace(rho @ f).real))
    return best
