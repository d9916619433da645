"""The tolerance policy: every floor that decides when a computed number counts
as zero, negative, tied, Hermitian, converged or violating.

One zero floor, PSD, decides every eigenvalue, singular value, weight, residual
and eigenvalue gap that counts as zero; the other constants are named after the
decision they make, and no caller sets one.  Relative floors scale by
``rel_floor``, except three that scale by the top value alone:
``matops.nullspace_basis`` (PSD * s_max, the SVD cutoff that decides N),
``matops.divided_differences``, which ties a pair whose values agree to
PSD * max(|f(s)|, |f(t)|), and PSD * ||A||, which A's spectrum meets in two
places only: ``generator.lindblad`` reads N = C 1 off the spectrum when
w[1] > PSD ||A||, and ``generator.require_gap`` finds no spectral gap when
w[dim N] <= PSD ||A|| (for ``return_time`` and ``gamma_dual_norm``).  No floor
decides which modes of A are null: they are exactly the dim N lowest, the
modes E_N keeps, for the spectral gap, the functional calculus and the dual
norm.
A pair (A, N) is evolved once ``generator.markov_pair`` passes it, at SUPEROP_FLAG and
PSD; no evolved state is tested for positivity.
"""

from __future__ import annotations

import numpy as np

HERMITIAN = 1e-12        # x - x* above this (relative) means x is not Hermitian
SUPEROP_FLAG = 1e-10     # a map matrix is self-adjoint / kills 1 / fixes 1 below this (relative)
PSD = 1e-9               # the zero floor: at or below this (relative) is 0, below minus it < 0
PROBE = 1e-8             # a randomized linearity or bimodularity probe fails above this
TRIVIAL = 1e-12          # a generator norm at or below this means trivial dynamics
D_N_ZERO = 1e-6          # D_N below this leaves I_A / D_N fewer than ~10 correct digits
HELD = 1e-6              # a matrix keeps an eigenvalue below this (relative) to < ~10 digits
DECAY_SKIP = 1e-12       # a start state with D_N below this is skipped by the decay check
VIOLATION = 1e-8         # a relative excess above this fails an inequality check
LP_BASE = 1e-14          # an L_p probe whose centred norm is below this is skipped
BOUND_SLACK = 1e-10      # a measured distance may exceed its bound by this (relative)
TINY = 1e-300            # positive stand-in for 0 in a logarithm or a ratio
QUAD_ABS = 1e-12         # absolute error target of every scalar quadrature
QUAD_REL = 1e-11         # relative error target of every scalar quadrature
RETURN_TIME = 1e-6       # return-time grid: t0 = RETURN_TIME min{k : g(k RETURN_TIME) <= 0}
CF_STOP = 1e-15          # a continued fraction stops once its last factor is this close to 1
CERT_SHIFT = 1e-6        # a superoperator pencil's Cholesky proves lambda_hat (1 - d), d >= this,
CERT_HEADROOM = 4.0      # and d puts its estimated least eigenvalue at this many rounding margins
CHOLESKY_UNIT = 2.0 ** -51   # rounding unit (4u) budgeted per complex operation in that proof
UNDERFLOW = 2.0 ** -1074     # smallest subnormal, the underflow term of that proof
DESCENT_GRAD = 1e-5      # an FLSI descent has converged once its projected gradient is at most this
DESCENT_DROP = 1e7 * 2.0 ** -52  # or once a step lowers the ratio by at most this (relative)
DESCENT_CURVATURE = 2.0 ** -52   # a step whose s'y is at most this times -g's keeps no L-BFGS pair
WOLFE_DECREASE = 1e-3    # a line-search step lowers f by at least this share of its linear model
WOLFE_CURVATURE = 0.9    # and brings |f'| to at most this share of its start value
WOLFE_XTOL = 0.1         # a line search stops once its bracket is this narrow (relative)


def rel_floor(x, rtol: float, axis=None):
    """rtol * max(max|x|, 1), over ``axis`` when given; rtol for an empty x."""
    x = np.asarray(x)
    if axis is None:
        return rtol * max(np.abs(x).max(), 1.0) if x.size else rtol
    return rtol * np.maximum(np.abs(x).max(axis=axis, initial=0.0), 1.0)
