"""Property tests of the conditional expectation E_N and the entropies built on it.

Over random block algebras (``random_degenerate_commutant``) and random
states: E is idempotent, N-bimodular and trace-preserving, D_N >= 0 to
rounding, and the Fisher information of I - E_N is the symmetrized divergence
I_N = D(rho||E rho) + D(E rho||rho).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import random_degenerate_commutant
from qmsemi.entropy import d_sub, fisher_n, relative_entropy
from qmsemi.matops import random_state

algebras = st.tuples(st.integers(2, 5), st.integers(0, 2**32 - 1))


def _draw(m, seed):
    rng = np.random.default_rng(seed)
    n = random_degenerate_commutant(m, rng)
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    c1, c2 = (rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size) for _ in range(2))
    n1, n2 = (np.tensordot(c, n.basis, axes=(0, 0)) for c in (c1, c2))
    return rng, n, x, n1, n2


@settings(max_examples=40, deadline=None)
@given(algebras)
def test_e_is_idempotent_bimodular_and_trace_preserving(drawn):
    _, n, x, n1, n2 = _draw(*drawn)
    e = n.expectation
    ex = e.apply(x)
    scale = max(np.abs(x).max(), 1.0)
    assert np.abs(e.apply(ex) - ex).max() <= 1e-12 * scale
    lhs, rhs = e.apply(n1 @ x @ n2), n1 @ ex @ n2
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(np.abs(rhs).max(), 1.0)
    assert abs(np.trace(ex) - np.trace(x)) <= 1e-12 * scale * n.dim


@settings(max_examples=40, deadline=None)
@given(algebras, st.floats(0.1, 2.0))
def test_d_n_is_nonnegative_and_i_n_is_the_symmetrized_divergence(drawn, spread):
    rng, n, _, _, _ = _draw(*drawn)
    rho = random_state(n.dim, rng, spread)
    e_rho = n.expectation.apply(rho)
    d_n = d_sub(rho, n)
    assert d_n >= 0.0
    i_n = fisher_n(n, rho)
    sym = d_n + relative_entropy(e_rho, rho)
    assert abs(i_n - sym) <= 1e-10 * max(1.0, sym)
