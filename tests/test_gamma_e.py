"""``cporder.gamma_e``, the congruence + Cholesky solve of superoperator pencils,
against ``best_lambda`` (the oracle) on the zoo, the graph case and random
generators, its fallbacks, and the rounding margin of its certifying Cholesky."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import make_zoo, random_connected_weights
from qmsemi.algebra import diagonal_algebra, scalar_algebra
from qmsemi.casebook import _graph_superop, graph_kernels, graph_lambda_star
from qmsemi.cporder import (
    _cholesky_shift,
    best_lambda,
    cp_order_holds,
    gamma_e,
    kernel_from_superop,
    kernel_ie,
)
from qmsemi.matops import identity_superop
from qmsemi.models import random_lindblad
from qmsemi.subordinate import density_approximation, fractional_power


def _agree(a, n, basis=None):
    """gamma_e(a, n) against best_lambda on the same kernels; returns both."""
    q_small, q_big = kernel_ie(n, basis=basis), kernel_from_superop(a, basis=basis)
    got, ref = gamma_e(a, n, basis=basis), best_lambda(q_small, q_big)
    assert got.status == ref.status
    assert got.lambda_star == pytest.approx(ref.lambda_star, rel=1e-8, abs=0.0)
    if got.method == "congruence-cholesky":
        assert got.status == "positive"
        assert 0.0 < got.lambda_cert <= got.lambda_star
        assert cp_order_holds(q_small, q_big, got.lambda_cert)
        v = got.witness
        big, small = (v.conj() @ q_big.q @ v).real, (v.conj() @ q_small.q @ v).real
        assert big - got.lambda_star * small == pytest.approx(0.0, abs=1e-9 * big)
    else:
        assert got.method == "pencil-direct" and got.lambda_cert is None
    return got, ref


def _operators(gen):
    yield from ((th, fractional_power(gen.superop, th)) for th in (0.25, 0.5, 0.75))
    yield "B_eps", density_approximation(gen, 0.1)[0]


@pytest.mark.parametrize("name", sorted(make_zoo()))
def test_gamma_e_agrees_with_best_lambda_on_the_zoo(zoo, name):
    gen = zoo[name]
    for kind, a in _operators(gen):
        got, _ = _agree(a, gen.fixed_algebra)
        # with N = C 1 the compressed kernel is positive definite: no fallback
        assert (got.method == "congruence-cholesky") == (gen.fixed_algebra.size == 1), kind


@pytest.mark.parametrize("m", [5, 6])
def test_gamma_e_agrees_with_best_lambda_on_b_eps_up_to_m6(m):
    gen = random_lindblad(m, 2, np.random.default_rng(40 + m), scale=0.6)
    b, rep = density_approximation(gen, 0.1)
    got, _ = _agree(b, gen.fixed_algebra)
    assert got.method == "congruence-cholesky"
    assert rep["lambda_gamma_e"] == got.lambda_star


def test_gamma_e_agrees_with_best_lambda_on_graphs():
    rng = np.random.default_rng(17)
    methods = set()
    for v in range(2, 7):
        for complete in (True, False):
            w = random_connected_weights(v, rng, complete=complete)
            got, _ = _agree(_graph_superop(w), scalar_algebra(v), basis=diagonal_algebra(v).basis)
            assert graph_lambda_star(w) == got.lambda_star
            assert got.lambda_star == pytest.approx(best_lambda(*graph_kernels(w)).lambda_star,
                                                    rel=1e-8, abs=0.0)
            methods.add(got.method)
    assert methods == {"congruence-cholesky", "pencil-direct"}


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 3), n_jumps=st.integers(1, 3), theta=st.floats(0.1, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_gamma_e_agrees_with_best_lambda_on_random_powers(m, n_jumps, theta, seed):
    gen = random_lindblad(m, n_jumps, np.random.default_rng(seed), scale=0.6)
    _agree(fractional_power(gen.superop, theta), gen.fixed_algebra)


def test_fallback_for_a_superop_that_does_not_kill_one(zoo):
    # A = L^(1/2) + 0.3 I: the swapped-in 1 (x) C^m rows of Q_A do not vanish,
    # though the kernel without them is positive definite
    gen = zoo["random_2jump_m3"]
    a = fractional_power(gen.superop, 0.5) + 0.3 * identity_superop(3)
    got, ref = _agree(a, gen.fixed_algebra)
    assert got.method == "pencil-direct" and got.status == "positive"
    assert got.lambda_star == ref.lambda_star


def test_fallback_for_a_singular_compressed_kernel():
    # Q_{I - E_D} vanishes on D (x) C^m, more than 1 (x) C^m: Q_big' is singular,
    # and the leak of Q_{I - E} there makes lambda* = 0
    n = diagonal_algebra(3)
    got, ref = _agree(n.complement, scalar_algebra(3))
    assert got.method == "pencil-direct" and got.status == "zero"


def test_a_positive_status_needs_the_certifying_cholesky(zoo, monkeypatch):
    gen = zoo["random_2jump_m3"]
    a = fractional_power(gen.superop, 0.5)
    assert gamma_e(a, gen.fixed_algebra).method == "congruence-cholesky"

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(scipy.linalg, "cholesky", fail)
    got, ref = _agree(a, gen.fixed_algebra)
    assert got.method == "pencil-direct" and got.lambda_star == ref.lambda_star


def test_rump_shift_rejects_exactly_singular_gram_matrices():
    # rank n - 1 Gram matrices: rounding lets the plain Cholesky through on
    # some of them, never once the shift is taken off the diagonal
    plain = 0
    for n in (20, 60, 150):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
            h = g @ g.conj().T
            try:
                scipy.linalg.cholesky(h)
                plain += 1
            except np.linalg.LinAlgError:
                pass
            with pytest.raises(np.linalg.LinAlgError):
                scipy.linalg.cholesky(h - _cholesky_shift(h, 0.0) * np.eye(n))
    assert plain > 0


def test_rump_shift_is_small_on_a_well_conditioned_matrix():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    h = g @ g.conj().T + 40.0 * np.eye(40)
    shift = _cholesky_shift(h, 0.0)
    assert 0.0 < shift < 1e-9 * np.linalg.eigvalsh(h)[0]
    scipy.linalg.cholesky(h - shift * np.eye(40))
