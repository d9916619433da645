"""Property tests of the cp-order pencil on a factored Q_big = C* C."""

import numpy as np
from hypothesis import given, settings, strategies as st

from qmsemi.cporder import FormKernel, best_lambda, cp_order_holds
from qmsemi.tolerances import PSD, rel_floor


def _orthonormal_rows(rng, rows, cols):
    g = rng.standard_normal((cols, rows)) + 1j * rng.standard_normal((cols, rows))
    return np.linalg.qr(g)[0].T.conj()


def _kernel(dim, basis_size, q, factor=None):
    return FormKernel(dim=dim, basis_size=basis_size, q=(q + q.conj().T) / 2, factor=factor)


@st.composite
def pencils(draw):
    """A wide factor C of known rank and conditioning, and a PSD Q_small.

    Q_small is a generic full-rank Gram matrix (ker C leaks out of ker Q_small)
    or (X C)* (X C), which vanishes on ker C so the pencil is positive.
    """
    dim = draw(st.integers(1, 3))
    basis_size = draw(st.integers(2, 9))
    size = dim * basis_size
    rows = draw(st.integers(1, max(1, size // 2)))
    rank = draw(st.integers(0, rows))
    scale = draw(st.floats(1e-2, 1e2))
    cond = draw(st.floats(1.0, 10.0))
    kind = draw(st.sampled_from(["generic", "range"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sing = np.zeros(rows)
    sing[:rank] = scale * np.geomspace(1.0, 1.0 / cond, rank)
    c = (_orthonormal_rows(rng, rows, rows) * sing) @ _orthonormal_rows(rng, rows, size)
    if kind == "generic":
        g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    else:
        x = rng.standard_normal((rows + 1, rows)) + 1j * rng.standard_normal((rows + 1, rows))
        g = x @ c / scale
    q_small = _kernel(dim, basis_size, g.conj().T @ g)
    if np.linalg.norm(q_small.q) <= PSD:  # a rank-0 C gives no range pencil
        q_small = _kernel(dim, basis_size, np.eye(size))
    return q_small, _kernel(dim, basis_size, c.conj().T @ c, factor=c)


@settings(max_examples=60, deadline=None)
@given(pencils())
def test_factored_pencil_is_tight_and_its_status_follows_the_leak(pencil):
    q_small, q_big = pencil
    cert = best_lambda(q_small, q_big)
    lam = cert.lambda_star
    assert cp_order_holds(q_small, q_big, lam)
    if cert.status == "positive":
        assert not cp_order_holds(q_small, q_big, lam + max(1e-6, 1e-6 * lam))
    floor_small = rel_floor(np.linalg.norm(q_small.q), PSD)
    assert (cert.status == "zero") == (cert.leak > floor_small)
