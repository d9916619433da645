"""Per-state validation sweep, kept to check the stacked sweep in ``constants``.

It draws and evaluates one state at a time through ``random_state``,
``d_sub`` and ``fisher``, four eigensolves per state, and discards states
with D_N below 1e-6 before the Fisher information is taken.
"""

import math

from qmsemi.entropy import d_sub, fisher
from qmsemi.matops import random_state


def sweep_one_by_one(a, n, rng, n_validate: int) -> tuple[float, int]:
    """Smallest I_A/D_N over ``n_validate`` random states, and how many were kept."""
    lowest, kept = math.inf, 0
    for _ in range(n_validate):
        rho = random_state(a.dim, rng, spread=0.4 + 1.2 * rng.random())
        d_val = d_sub(rho, n)
        if d_val < 1e-6:
            continue
        kept += 1
        lowest = min(lowest, fisher(a, rho) / d_val)
    return lowest, kept
