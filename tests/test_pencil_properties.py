"""Property tests of the cp-order pencil on a factored Q_big = C* C, and of the
index-element identities the closed-form leak of a jump pencil rests on."""

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from conftest import random_degenerate_commutant
from qmsemi.cporder import FormKernel, best_lambda, cp_order_holds, kernel_from_jumps, kernel_ie
from qmsemi.generator import jump_set, lindblad
from qmsemi.matops import tau_orthonormal_basis
from qmsemi.tolerances import PSD, rel_floor


def _orthonormal_rows(rng, rows, cols):
    g = rng.standard_normal((cols, rows)) + 1j * rng.standard_normal((cols, rows))
    return np.linalg.qr(g)[0].T.conj()


def _kernel(dim, basis_size, q):
    return FormKernel(dim=dim, basis_size=basis_size, q=(q + q.conj().T) / 2)


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
    return q_small, c


@settings(max_examples=60, deadline=None)
@given(pencils())
def test_factored_pencil_is_tight_and_its_status_follows_the_leak(pencil):
    q_small, c = pencil
    q_big = _kernel(q_small.dim, q_small.basis_size, c.conj().T @ c)
    floor_small = rel_floor(np.linalg.norm(q_small.q), PSD)
    cert = best_lambda(q_small, q_big)
    lam = cert.lambda_star
    assert cp_order_holds(q_small, q_big, lam)
    if cert.status == "positive":
        assert not cp_order_holds(q_small, q_big, lam + max(1e-6, 1e-6 * lam))
    assert (cert.status == "zero") == (cert.leak > floor_small)


def _index_element(n):
    """z = sum_a e_a E(e_a*) over the tau-orthonormal matrix units."""
    e = tau_orthonormal_basis(n.dim)
    return np.einsum("aij,ajk->ik", e, n.expectation.apply(e.conj().transpose(0, 2, 1)))


def _block_jumps(m, rng):
    """One or two jumps, block diagonal in a random unitary frame."""
    cuts = np.sort(rng.choice(np.arange(1, m), rng.integers(1, m), replace=False))
    sizes = np.diff(np.r_[0, cuts, m])
    u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    jumps = []
    for _ in range(rng.integers(1, 3)):
        gs = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) for s in sizes]
        jumps.append(u @ scipy.linalg.block_diag(*(g + g.conj().T for g in gs)) @ u.conj().T)
    return jump_set(jumps, m=m)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["commutant", "jumps"]), st.integers(2, 5), st.integers(0, 2**32 - 1))
@example(kind="jumps", m=4, seed=9307)  # [b, z] = 1.6e-12 here: z's entries grow like m
def test_the_index_element_is_central_and_fixes_the_rank_of_q_ie(kind, m, seed):
    rng = np.random.default_rng(seed)
    if kind == "commutant":
        n, jumps = random_degenerate_commutant(m, rng), None
    else:
        jumps = _block_jumps(m, rng)
        n = lindblad(jumps).fixed_algebra
    z = _index_element(n)
    scale = max(1.0, np.abs(z).max())  # rounding in z scales with its entries
    assert np.abs(n.project(z) - z).max() <= 1e-12 * scale  # z lies in N ...
    assert np.abs(n.basis @ z - z @ n.basis).max() <= 1e-12 * scale  # ... and commutes with N
    rank = m * (m * np.trace(np.linalg.inv(z)).real - 1)
    assert abs(rank - round(rank)) <= 1e-9
    q_small = kernel_ie(n)
    w, v = np.linalg.eigh(q_small.q)
    in_range = w > rel_floor(w, PSD)
    assert in_range.sum() == round(rank)
    if jumps is not None:  # ker Q_{I-E} lies in ker Q_A
        q_big = kernel_from_jumps(jumps.jumps)
        assert np.abs(q_big.q @ v[:, ~in_range]).max() <= rel_floor(q_big.q, PSD)
