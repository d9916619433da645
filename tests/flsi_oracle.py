"""Per-state validation sweep, kept to check the stacked sweep in ``constants``.

It draws the exponents as the sweep does, ``SWEEP_CHUNK`` at a time in one
``random_hermitian`` call, and maps each through the sweep's chart, so both
see the same matrices.  It then evaluates one state at a time through
``d_sub`` and ``fisher``, four eigensolves per state, and discards states
with D_N below 1e-6 before the Fisher information is taken.
"""

import math

from qmsemi.constants import SWEEP_CHUNK
from qmsemi.entropy import d_sub, fisher
from qmsemi.matops import _chart, random_hermitian


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
