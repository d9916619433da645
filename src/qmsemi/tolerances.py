"""The tolerance policy: every floor that decides when a computed number counts
as zero, negative, tied, Hermitian, converged or violating.

Each constant is named after the decision it makes, and no caller sets one.
Relative floors scale by ``rel_floor``, except that ``generator.spectral_gap``
(KERNEL * max|w|) and ``matops.nullspace_basis`` (NULLSPACE * s_max) scale by
the top value alone and TIE scales by max(|s|, |t|, 1) per pair.
"""

from __future__ import annotations

import numpy as np

HERMITIAN = 1e-12        # x - x* above this (relative) means x is not Hermitian
SUPEROP_FLAG = 1e-10     # a map matrix is self-adjoint / kills 1 below this (relative)
STATE_PSD = 1e-12        # an input state's eigenvalue below minus this (relative) is negative
PSD = 1e-9               # a Hermitian spectrum dipping below minus this (relative) is not PSD
TIE = 1e-9               # eigenvalues this close (relative) share a divided difference
NULLSPACE = 1e-9         # singular values below this times the largest span the nullspace
INDEPENDENT = 1e-8       # a Gram-Schmidt residual this short adds no direction
MODULE_RESIDUAL = 1e-9   # a module candidate whose residual norm is this small is dropped
MODULE_KERNEL = 1e-10    # eigenvalues of E(r* r) below this (relative) are its kernel
KERNEL = 1e-10           # eigenvalues of a generator below this (relative) are zero
SPECTRAL_ZERO = 1e-12    # eigenvalues of A set to 0 before a spectral map (relative)
SUPPORT = 1e-12          # a state's eigenvalues at or below this (relative) lie off its support
OFF_SUPPORT = 1e-12      # weight of rho off supp(sigma) above this (relative) makes D infinite
FISHER_LEAK = 1e-10      # A(rho) on ker(rho) above this (relative) makes I ill-defined
CP_VIOLATION = 1e-8      # an evolved state's eigenvalue below minus this breaks CP
PROBE = 1e-8             # a randomized linearity or bimodularity probe fails above this
TRIVIAL = 1e-12          # a generator norm at or below this means trivial dynamics
D_N_ZERO = 1e-6          # D_N below this leaves I_A / D_N fewer than ~10 correct digits
DECAY_SKIP = 1e-12       # a start state with D_N below this is skipped by the decay check
TRACE_ZERO = 1e-10       # |tau(x)| above this means x is not trace-zero
VIOLATION = 1e-8         # a relative excess above this fails an inequality check
LP_BASE = 1e-14          # an L_p probe whose centred norm is below this is skipped
BOUND_SLACK = 1e-10      # a measured distance may exceed its bound by this (relative)
TINY = 1e-300            # positive stand-in for 0 in a logarithm or a ratio
QUAD_ABS = 1e-12         # absolute error target of every scalar quadrature
QUAD_REL = 1e-11         # relative error target of every scalar quadrature
QUAD_ERR = 1e-10         # a quadrature error estimate above this fails integrability
RETURN_TIME = 1e-6       # resolution in t of the return-time bisection
CF_STOP = 1e-15          # a continued fraction stops once its last factor is this close to 1
CERT_SHIFT = 1e-6        # a superoperator pencil's Cholesky proves lambda_hat (1 - d), d >= this,
CERT_HEADROOM = 4.0      # and d puts its estimated least eigenvalue at this many rounding margins
CHOLESKY_UNIT = 2.0 ** -51   # rounding unit (4u) budgeted per complex operation in that proof
UNDERFLOW = 2.0 ** -1074     # smallest subnormal, the underflow term of that proof


def rel_floor(x, rtol: float, axis=None):
    """rtol * max(max|x|, 1), over ``axis`` when given; rtol for an empty x."""
    x = np.asarray(x)
    if axis is None:
        return rtol * max(np.abs(x).max(), 1.0) if x.size else rtol
    return rtol * np.maximum(np.abs(x).max(axis=axis), 1.0)
