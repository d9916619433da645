"""A map's matrix column by column from its action, kept as a test reference.

The package builds its superoperators from Kronecker products; the tests
check them, and build small example maps, from this direct construction.
"""

import numpy as np

from qmsemi.matops import make_superop, matrix_units, vec


def superop_from_action(action, m: int):
    """Matrix of a linear map from its action on the matrix units."""
    cols = np.empty((m * m, m * m), dtype=complex)
    units = matrix_units(m)
    for a in range(m * m):
        cols[:, a] = vec(action(units[a]))
    return make_superop(cols, m)
