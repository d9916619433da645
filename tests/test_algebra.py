import numpy as np
import pytest

from conftest import random_degenerate_commutant
from qmsemi.algebra import (
    commutant,
    conditional_expectation,
    diagonal_algebra,
    full_algebra,
    identity_first_algebra,
    module_basis,
    scalar_algebra,
)
from qmsemi.matops import (
    hermitian_basis,
    hs_inner,
    hs_norm,
    norm_trace,
    nullspace_basis,
    random_hermitian,
    vec,
)
from qmsemi.models import pauli


def test_commutant_of_irreducible_pair_is_scalars():
    n = commutant([pauli("x"), pauli("z")], 2)
    assert n.size == 1
    assert np.abs(n.basis[0] - np.eye(2)).max() < 1e-10


def test_commutant_of_nothing_is_everything():
    assert commutant([], 3).size == 9


def test_commutant_rejects_a_generator_that_is_not_hermitian():
    with pytest.raises(ValueError, match="Hermitian generators"):
        commutant([pauli("x"), np.array([[0, 1], [0, 0]], dtype=complex)], 2)


def test_commutant_keeps_the_bits_of_the_kron_stack():
    """The broadcast commutator stack is np.kron's, so the basis keeps its bits."""
    rng = np.random.default_rng(3203)
    gen_sets = [random_hermitian(m, rng, np.ones(k)) for m in (2, 4, 6, 8) for k in (1, 2, 3)]
    gen_sets += [hermitian_basis(m) / np.sqrt(2.0 * m) for m in (2, 4, 6)]
    gen_sets += [np.array([np.diag([1.0, 1.0, 2.0]).astype(complex)])]
    for gens in gen_sets:
        m, eye = gens.shape[-1], np.eye(gens.shape[-1], dtype=complex)
        stacked = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in gens])
        ref = identity_first_algebra(nullspace_basis(stacked), m).basis
        got = commutant(list(gens), m).basis
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_commutant_of_nondegenerate_diagonal():
    n = commutant([np.diag([1.0, 2.0]).astype(complex)], 2)
    assert n.size == 2
    for b in n.basis:
        assert np.abs(b - np.diag(np.diag(b))).max() < 1e-10


def test_commutant_gram_and_closure():
    rng = np.random.default_rng(0)
    for m in (3, 4):
        n = random_degenerate_commutant(m, rng)
        k = n.size
        gram = np.array([[hs_inner(a, b) for b in n.basis] for a in n.basis])
        assert np.abs(gram - np.eye(k)).max() < 1e-10
        # closure under products and adjoints
        for i in range(k):
            for j in range(k):
                prod = n.basis[i] @ n.basis[j]
                assert hs_norm(prod - n.project(prod)) < 1e-9
            adj = n.basis[i].conj().T
            assert hs_norm(adj - n.project(adj)) < 1e-9


def test_expectation_on_scalars_is_trace():
    e = conditional_expectation(scalar_algebra(3))
    rng = np.random.default_rng(1)
    x = random_hermitian(3, rng)
    assert np.abs(e.apply(x) - norm_trace(x) * np.eye(3)).max() < 1e-12


def test_expectation_on_diagonal_extracts_diagonal():
    e = conditional_expectation(diagonal_algebra(3))
    rng = np.random.default_rng(2)
    x = random_hermitian(3, rng)
    assert np.abs(e.apply(x) - np.diag(np.diag(x))).max() < 1e-12


def test_expectation_bimodularity():
    rng = np.random.default_rng(3)
    n = random_degenerate_commutant(4, rng)
    e = n.expectation
    for _ in range(100):
        c1 = rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)
        c2 = rng.standard_normal(n.size) + 1j * rng.standard_normal(n.size)
        n1 = np.tensordot(c1, n.basis, axes=(0, 0))
        n2 = np.tensordot(c2, n.basis, axes=(0, 0))
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        resid = e.apply(n1 @ x @ n2) - n1 @ e.apply(x) @ n2
        assert np.abs(resid).max() < 1e-10 * max(1.0, np.abs(n1 @ x @ n2).max())


def test_expectation_is_projection_trace_preserving_contractive():
    rng = np.random.default_rng(4)
    n = random_degenerate_commutant(4, rng)
    e = n.expectation
    assert np.abs(e.matrix @ e.matrix - e.matrix).max() < 1e-10
    for _ in range(10):
        x = random_hermitian(4, rng) + 1j * random_hermitian(4, rng)
        ex = e.apply(x)
        assert abs(norm_trace(ex) - norm_trace(x)) < 1e-12
        assert hs_inner(ex, ex).real <= hs_inner(x, x).real + 1e-12


def test_expectation_requires_identity():
    from qmsemi.algebra import SubAlgebra

    basis = np.zeros((1, 2, 2), dtype=complex)
    basis[0, 0, 0] = np.sqrt(2)  # span{E_11} has no identity
    n = SubAlgebra(dim=2, basis=basis)
    with pytest.raises(ValueError):
        conditional_expectation(n)


def test_module_basis_over_full_algebra():
    mb = module_basis(full_algebra(3))
    assert mb.size == 1
    assert np.abs(mb.xis[0] - np.eye(3)).max() < 1e-12


def test_module_basis_over_scalars():
    mb = module_basis(scalar_algebra(2))
    assert mb.size == 4
    for p in mb.supports:
        assert np.abs(p - np.eye(2)).max() < 1e-8
    gram = np.array([[hs_inner(a, b) for b in mb.xis] for a in mb.xis])
    assert np.abs(gram - np.eye(4)).max() < 1e-8


def test_module_basis_orthogonality_and_reconstruction():
    rng = np.random.default_rng(5)
    for n in (diagonal_algebra(2), random_degenerate_commutant(4, rng)):
        mb = module_basis(n)
        e = n.expectation
        for i in range(mb.size):
            for j in range(mb.size):
                val = e.apply(mb.xis[i].conj().T @ mb.xis[j])
                target = mb.supports[i] if i == j else 0.0
                assert np.abs(val - target).max() < 1e-8
            p = mb.supports[i]
            assert np.abs(p @ p - p).max() < 1e-8
            assert np.abs(p - p.conj().T).max() < 1e-8
        for _ in range(50):
            x = random_hermitian(n.dim, rng) + 1j * random_hermitian(n.dim, rng)
            assert np.abs(mb.reconstruct(x) - x).max() < 1e-8
