"""The Lanczos leak of a factored pencil against the dense split it replaced.

A zero verdict on a jump kernel Q_A = C* C comes from the top Ritz pair of
P_K Q_small P_K, with P_K the projector onto ker Q_A; every other verdict
comes from the dense split, which ``pencil_oracle.dense_split_lambda`` keeps
as it was before the Lanczos step.
"""

import numpy as np
import pytest

from conftest import make_zoo
from pencil_oracle import dense_split_lambda
from qmsemi import cporder
from qmsemi.cporder import FormKernel, best_lambda, kernel_from_jumps, kernel_ie
from qmsemi.generator import jump_set, lindblad
from qmsemi.models import random_lindblad
from qmsemi.tolerances import PSD, rel_floor


def _spin(m):
    """J_x, J_y of the spin-(m - 1)/2 representation."""
    j = (m - 1) / 2
    mz = j - np.arange(m)
    jp = np.diag(np.sqrt(j * (j + 1) - mz[1:] * (mz[1:] + 1)), 1).astype(complex)
    return (jp + jp.conj().T) / 2, (jp - jp.conj().T) / 2j


def _pencil(gen):
    return kernel_ie(gen.fixed_algebra), kernel_from_jumps(gen.jumps.jumps)


def _no_dense_split(monkeypatch):
    def refuse(q):
        raise AssertionError("the dense split was taken")

    monkeypatch.setattr(cporder, "_kernel_eigh", refuse)


def _assert_matches_oracle(q_small, q_big, cert):
    ref = dense_split_lambda(q_small, q_big)
    assert cert.status == ref.status
    assert cert.lambda_star == ref.lambda_star
    if cert.status == "zero":
        assert abs(cert.leak - ref.leak) <= 1e-9 * ref.leak
    else:
        assert abs(cert.leak - ref.leak) <= rel_floor(np.linalg.norm(q_small.q), PSD)


def _assert_zero_witness(q_small, q_big, cert):
    v = cert.witness
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert np.linalg.norm(q_big.factor @ v) ** 2 <= cert.tolerance  # v lies in ker Q_A
    assert (v.conj() @ q_small.q @ v).real == pytest.approx(cert.leak, rel=1e-12)
    assert cert.margin == pytest.approx(cert.leak - rel_floor(np.linalg.norm(q_small.q), PSD))


@pytest.mark.parametrize("n_jumps", [2, 3])
@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_lanczos_leak_matches_the_dense_split_on_random_jumps(m, n_jumps, monkeypatch):
    gen = random_lindblad(m, n_jumps, np.random.default_rng(40 + 10 * m + n_jumps), scale=0.6)
    q_small, q_big = _pencil(gen)
    assert q_big.factor is not None
    _no_dense_split(monkeypatch)
    cert = best_lambda(q_small, q_big)
    assert cert.status == "zero"
    _assert_matches_oracle(q_small, q_big, cert)
    _assert_zero_witness(q_small, q_big, cert)


FACTORED_ZOO = sorted(name for name, gen in make_zoo().items()
                      if kernel_from_jumps(gen.jumps.jumps).factor is not None)


@pytest.mark.parametrize("name", FACTORED_ZOO)
def test_lanczos_leak_matches_the_dense_split_on_the_zoo(zoo, name):
    q_small, q_big = _pencil(zoo[name])
    cert = best_lambda(q_small, q_big)
    _assert_matches_oracle(q_small, q_big, cert)
    if cert.status == "zero":
        _assert_zero_witness(q_small, q_big, cert)


@pytest.mark.parametrize("m, jumps", [
    (3, lambda jx, jy: [jx]),
    (7, lambda jx, jy: [jx]),
    (5, lambda jx, jy: [jx, jy @ jy]),
])
def test_a_structured_pencil_whose_top_vector_misses_the_all_ones_start(m, jumps, monkeypatch):
    # spin jumps: the top eigenvector of K* Q_small K is orthogonal to the
    # all-ones vector, so that start could not see it; the seeded one does
    gen = lindblad(jump_set(jumps(*_spin(m)), m=m))
    q_small, q_big = _pencil(gen)
    _, s, vh = np.linalg.svd(q_big.factor, full_matrices=True)
    w = np.zeros(q_big.size)
    w[:s.size] = s ** 2
    ker = vh[w <= rel_floor(w, PSD)].conj().T
    h = ker.conj().T @ q_small.q @ ker
    top = np.linalg.eigh(h)[1][:, -1]
    ones = np.ones(q_big.size) / np.sqrt(q_big.size)
    assert abs((ker @ top).conj() @ ones) <= 1e-12
    _no_dense_split(monkeypatch)
    cert = best_lambda(q_small, q_big)
    assert cert.status == "zero"
    _assert_matches_oracle(q_small, q_big, cert)
    _assert_zero_witness(q_small, q_big, cert)


def test_a_swap_symmetric_pencil_keeps_an_all_ones_start_off_the_top(monkeypatch):
    # Q_small commutes with swapping coordinates 0 and 1 in exact arithmetic
    # (rows 0 and 1 have two entries each), and its top vector (1, -1, 0, ...)
    # is odd under the swap.  A Krylov space from an even start such as
    # all-ones stays even bit for bit and would report 9.5, not 15.
    n = 12
    q = np.diag(np.r_[10.0, 10.0, np.arange(1.5, 10.5, 1.0), 0.3]).astype(complex)
    q[0, 1] = q[1, 0] = -5.0
    c = np.zeros((1, n), dtype=complex)
    c[0, -1] = 1.0
    q_small = FormKernel(dim=1, basis_size=n, q=q)
    q_big = FormKernel(dim=1, basis_size=n, q=c.conj().T @ c, factor=c)
    _no_dense_split(monkeypatch)
    cert = best_lambda(q_small, q_big)
    assert cert.leak == pytest.approx(15.0, rel=1e-12)
    _assert_matches_oracle(q_small, q_big, cert)
    _assert_zero_witness(q_small, q_big, cert)


def _count_lanczos(monkeypatch):
    calls = []
    eigsh = cporder.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs["ncv"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(cporder, "eigsh", counted)
    return calls


def test_a_kernel_too_small_for_arpack_takes_the_dense_split(monkeypatch):
    # n = 2 leaves no ncv with k + 1 < ncv <= n
    c = np.array([[1.0, 1.0j]])
    q_big = FormKernel(dim=1, basis_size=2, q=c.conj().T @ c, factor=c)
    q_small = FormKernel(dim=1, basis_size=2, q=np.eye(2, dtype=complex))
    calls = _count_lanczos(monkeypatch)
    cert = best_lambda(q_small, q_big)
    assert calls == []
    assert cert.status == "zero" and cert.leak == pytest.approx(1.0)
    _assert_matches_oracle(q_small, q_big, cert)


def test_a_factored_positive_pencil_certifies_through_the_dense_split(monkeypatch):
    # Q_small = (X C)* (X C) vanishes on ker C: no leak, lambda* > 0
    rng = np.random.default_rng(5)
    gen = random_lindblad(3, 2, rng, scale=0.6)
    q_big = kernel_from_jumps(gen.jumps.jumps)
    x = rng.standard_normal((4, q_big.factor.shape[0]))
    g = x @ q_big.factor
    q_small = FormKernel(dim=3, basis_size=9, q=g.conj().T @ g)
    calls = _count_lanczos(monkeypatch)
    splits = []
    kernel_eigh = cporder._kernel_eigh
    monkeypatch.setattr(cporder, "_kernel_eigh", lambda q: splits.append(q) or kernel_eigh(q))
    cert = best_lambda(q_small, q_big)
    assert calls == [2 * 3 + 2] and len(splits) == 1
    assert cert.status == "positive" and cert.lambda_star > 0
    _assert_matches_oracle(q_small, q_big, cert)


def test_the_lanczos_leak_is_byte_identical_on_rerun():
    gen = random_lindblad(6, 2, np.random.default_rng(66), scale=0.6)
    certs = [best_lambda(*_pencil(gen)) for _ in range(2)]
    assert certs[0].to_json() == certs[1].to_json()
    assert np.array_equal(certs[0].witness, certs[1].witness)
