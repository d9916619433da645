import math

import numpy as np
import pytest

from flsi_oracle import rho_multiplier
from superop_oracle import superop_from_action
from qmsemi.constants import SWEEP_CHUNK
from qmsemi.matops import (
    Superop,
    _chart,
    _gue,
    divided_difference_multiplier,
    divided_differences,
    hs_inner,
    identity_superop,
    make_state,
    make_superop,
    matrix_function,
    norm_trace,
    nullspace_basis,
    random_hermitian,
    random_state,
    schur_multiplier,
    semigroup_apply,
    subspace_gap,
    unvec,
    vec,
)
from qmsemi.models import pauli
from qmsemi.tolerances import PSD


def test_hs_inner_identity():
    assert hs_inner(np.eye(3, dtype=complex), np.eye(3)) == pytest.approx(1.0)


def test_hs_inner_pauli_orthogonality():
    assert abs(hs_inner(pauli("z"), pauli("x"))) < 1e-15


def test_hs_inner_matches_entry_sum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    val = hs_inner(x, x)
    assert val.real == pytest.approx(np.sum(np.abs(x) ** 2) / 4)
    assert val.real >= 0
    assert abs(val.imag) < 1e-14


def test_hs_inner_dim_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


def test_matrix_function_exp_of_identity():
    out = matrix_function(np.eye(2, dtype=complex), np.exp)
    assert np.allclose(out, np.e * np.eye(2))


def test_matrix_function_log_diag():
    out = matrix_function(np.diag([np.e, np.e**2]).astype(complex), np.log)
    assert np.allclose(out, np.diag([1.0, 2.0]))


def test_matrix_function_roundtrip():
    rng = np.random.default_rng(1)
    rho = random_state(5, rng)
    back = matrix_function(matrix_function(rho, np.log), np.exp)
    assert np.abs(back - rho).max() < 1e-10


def test_matrix_function_rejects_non_hermitian():
    with pytest.raises(ValueError):
        matrix_function(np.array([[0, 1], [0, 0]], dtype=complex), np.exp)


def test_matrix_function_rejects_log_of_singular():
    with pytest.raises(ValueError):
        matrix_function(np.diag([1.0, 0.0]).astype(complex), np.log)


def test_divided_difference_identity_function():
    rng = np.random.default_rng(2)
    rho = random_state(3, rng)
    y = random_hermitian(3, rng)
    out = divided_difference_multiplier(rho, lambda t: t, y, fprime=lambda t: 1.0)
    assert np.abs(out - y).max() < 1e-12


def test_divided_difference_square():
    rho = np.diag([1.0, 2.0]).astype(complex)
    y = np.ones((2, 2), dtype=complex)
    out = divided_difference_multiplier(rho, lambda t: t * t, y, fprime=lambda t: 2 * t)
    assert np.allclose(out, np.array([[2.0, 3.0], [3.0, 4.0]]))


def test_divided_difference_trace_derivative_law():
    # d/ds tau f(rho + s beta) = tau(f'(rho) beta) up to O(s^2)
    rng = np.random.default_rng(3)
    rho = random_state(3, rng)
    beta = random_hermitian(3, rng)
    f = lambda t: t * np.log(t)
    fprime = matrix_function(rho, lambda t: 1.0 + np.log(t))

    def err(s):
        lhs = norm_trace(matrix_function(rho + s * beta, f)).real
        lhs -= norm_trace(matrix_function(rho, f)).real
        return abs(lhs - s * norm_trace(fprime @ beta).real)

    assert err(1e-5) < 100 * 1e-10
    assert err(1e-6) < err(1e-5) / 20  # quadratic falloff


@pytest.mark.parametrize("gap", [0.0, 1e-11])
def test_divided_difference_midpoint_rule_on_near_ties(gap):
    # a pair ties when ln s and ln t agree to PSD of their size: ln vanishes at 1, so
    # 1 and 1 + gap tie only at gap 0, while 3 and 3 + 1e-11 tie
    y = random_hermitian(3, np.random.default_rng(10))
    for base in (1.0, 3.0):
        w = np.array([base, base + gap, 2.5])
        rho = np.diag(w).astype(complex)
        # the true derivative, then a marker that tells the midpoint from either end
        for fprime in (lambda s: 1.0 / s, lambda s: 1e12 * (s - base)):
            out = divided_difference_multiplier(rho, np.log, y, fprime=fprime)
            d = np.empty((3, 3))
            for k in range(3):
                for l in range(3):
                    fk, fl = np.log(w[k]), np.log(w[l])
                    if abs(fk - fl) <= 1e-9 * max(abs(fk), abs(fl)):
                        d[k, l] = fprime(0.5 * (w[k] + w[l]))
                    else:
                        d[k, l] = (fk - fl) / (w[k] - w[l])
            assert np.allclose(out, d * y, rtol=1e-12, atol=1e-12)
        tied = gap == 0.0 or base == 3.0
        want = 1e12 * gap / 2 if tied else math.log1p(gap) / gap
        assert abs(out[0, 1] / y[0, 1] - want) < 1e-3


def test_divided_difference_of_log_does_not_tie_eigenvalues_a_factor_apart():
    # 1e-12 and 1e-10 are 1e-10 apart, under PSD, but their logarithms differ by ln 100
    rho = np.diag([1e-12, 1e-10, 3.0 - 1e-10 - 1e-12]).astype(complex)
    out = divided_difference_multiplier(rho, np.log, np.ones((3, 3), dtype=complex),
                                        fprime=np.reciprocal)
    want = (math.log(1e-12) - math.log(1e-10)) / (1e-12 - 1e-10)
    assert out[0, 1].real == pytest.approx(want, rel=1e-12)


def _chart_divided_differences(w):
    """D_exp at w, D_log at the chart spectrum r = m e^w / sum e^w, r, and tr e^H / m."""
    r = w.size * np.exp(w) / np.exp(w).sum()
    return (divided_differences(w, np.exp(w), np.exp),
            divided_differences(r, np.log(r), np.reciprocal), r, np.exp(w).sum() / w.size)


def test_divided_differences_of_exp_and_log_over_the_chart_cancel():
    # ln r = w + const, so D_exp(w_k, w_l) D_log(r_k, r_l) = tr e^H / m for every pair
    rng = np.random.default_rng(28)
    for m in (2, 3, 4, 6):
        for _ in range(20):
            w = np.linalg.eigvalsh(random_hermitian(m, rng, 1.0))
            assert np.diff(w).min() > 1e-3  # separated: no pair near the tie floor
            d_exp, d_log, _, want = _chart_divided_differences(w)
            assert np.abs(d_exp * d_log / want - 1.0).max() <= 1e-10


@pytest.mark.parametrize("gap", [0.5 * PSD, 2.0 * PSD])
def test_divided_differences_cancel_across_the_tie_floor(gap):
    # e^w ties a pair 0.5 PSD apart (midpoint rule) and not one 2 PSD apart (a quotient
    # of nearly equal values); ln r ties neither, as its two values, below 0.2 in size,
    # differ by the gap itself.  Each keeps the product to O(eps / gap)
    for base in (-0.2, 0.0, 0.4):
        w = np.array([base, base + gap, 0.3, -0.4])
        d_exp, d_log, r, want = _chart_divided_differences(w)
        assert np.abs(d_exp * d_log / want - 1.0).max() <= 1e-6
        assert (d_exp[0, 1] == math.exp(0.5 * (w[0] + w[1]))) == (gap < PSD)
        log_r = np.log(r)
        assert d_log[0, 1] == (log_r[0] - log_r[1]) / (r[0] - r[1])


def _masked_schur_multiplier(w, u, fw, fprime, y):
    """The divided-difference Schur multiplier filled through boolean masks."""
    df = fw[:, None] - fw[None, :]
    tie = np.abs(df) <= PSD * np.maximum(np.abs(fw)[:, None], np.abs(fw)[None, :])
    d = np.empty(df.shape)
    d[~tie] = df[~tie] / (w[:, None] - w[None, :])[~tie]
    d[tie] = fprime((0.5 * (w[:, None] + w[None, :]))[tie])
    uh = u.conj().T
    return u @ (d * (uh @ y @ u)) @ uh


def test_schur_multiplier_keeps_the_bits_of_the_masked_form():
    rng = np.random.default_rng(29)
    for k in range(300):
        m = 1 + k % 6
        w, u = np.linalg.eigh(random_hermitian(m, rng, 2.0))
        if m > 2:  # plant a pair at, under or over a gap of about PSD
            w[1] = w[0] + PSD * (0.0, 0.5, 1.0, 2.0)[k % 4] * max(abs(w[0]), 1.0)
        y = random_hermitian(m, rng)
        for f, fprime, at in ((np.exp, np.exp, w), (np.log, np.reciprocal, np.abs(w) + 0.1)):
            assert np.array_equal(schur_multiplier(at, u, f(at), fprime, y),
                                  _masked_schur_multiplier(at, u, f(at), fprime, y))


@pytest.mark.parametrize("gap", [0.0, 1e-11])
def test_rho_multiplier_round_trip_on_near_ties(gap):
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    diag = np.diag([1.0, 1.0 + gap, 2.5]).astype(complex)
    y = random_hermitian(3, rng)
    for rho in (diag, q @ diag @ q.conj().T):
        # [rho]^{-1} is the divided difference of ln at rho
        back = divided_difference_multiplier(rho, np.log, rho_multiplier(rho, y),
                                             fprime=np.reciprocal)
        assert np.abs(back - y).max() < 1e-10


@pytest.mark.parametrize("r0", [0.0, -0.5])
def test_divided_difference_raises_where_f_is_undefined_on_the_spectrum(r0):
    rho = np.diag([r0, 1.0, 2.0]).astype(complex)
    y = random_hermitian(3, np.random.default_rng(12))
    with pytest.raises(ValueError, match="undefined on part of the spectrum"):
        divided_difference_multiplier(rho, np.log, y, fprime=np.reciprocal)


def test_superop_identity_action():
    s = superop_from_action(lambda x: x, 3)
    assert np.allclose(s.matrix, np.eye(9))
    assert s.hs_selfadjoint and not s.kills_identity


def test_superop_trace_projector():
    s = superop_from_action(lambda x: np.trace(x) / 2 * np.eye(2), 2)
    v1 = vec(np.eye(2)) / np.sqrt(2)
    assert np.allclose(s.matrix, np.outer(v1, v1.conj()))
    assert np.linalg.matrix_rank(s.matrix) == 1


def test_superop_dephasing_spectrum():
    a = pauli("z")
    s = superop_from_action(lambda x: a @ a @ x + x @ a @ a - 2 * a @ x @ a, 2)
    assert np.allclose(np.sort(np.linalg.eigvalsh(s.matrix)), [0, 0, 4, 4])


def test_semigroup_time_zero():
    rng = np.random.default_rng(4)
    a = identity_superop(3) - superop_from_action(lambda x: np.trace(x) / 3 * np.eye(3), 3)
    x = random_hermitian(3, rng)
    assert np.abs(semigroup_apply(a, 0.0, x) - x).max() < 1e-14


def test_semigroup_depolarizing_closed_form():
    rng = np.random.default_rng(5)
    m = 3
    e = superop_from_action(lambda x: np.trace(x) / m * np.eye(m), m)
    a = identity_superop(m) - e
    x = random_hermitian(m, rng)
    for t in (0.3, 1.7):
        expected = np.exp(-t) * x + (1 - np.exp(-t)) * norm_trace(x) * np.eye(m)
        assert np.abs(semigroup_apply(a, t, x) - expected).max() < 1e-12


def test_semigroup_preserves_trace_and_negative_time_rejected():
    rng = np.random.default_rng(6)
    from qmsemi.models import dephasing_generator

    gen = dephasing_generator(2)
    x = random_hermitian(2, rng)
    y = semigroup_apply(gen.superop, 0.8, x)
    assert abs(norm_trace(y) - norm_trace(x)) < 1e-10
    with pytest.raises(ValueError):
        semigroup_apply(gen.superop, -0.1, x)


def test_apply_and_semigroup_take_stacks_and_time_grids():
    rng = np.random.default_rng(12)
    from qmsemi.models import random_lindblad

    a = random_lindblad(3, 2, rng, scale=0.6).superop
    x = np.array([[random_hermitian(3, rng) + 1j * random_hermitian(3, rng) for _ in range(2)]
                  for _ in range(3)])
    grid = np.array([0.0, 0.05, 0.4, 1.3, 7.0])
    ax = a.apply(x)
    tx = semigroup_apply(a, grid, x)
    assert ax.shape == x.shape and tx.shape == (5, 3, 2, 3, 3)
    w, v = a.eig
    for i in range(3):
        for j in range(2):
            one = x[i, j]
            assert np.abs(ax[i, j] - unvec(a.matrix @ vec(one), 3)).max() < 1e-13
            assert np.abs(ax[i, j] - a.apply(one)).max() < 1e-13
            for k, t in enumerate(grid):
                expm = (v * np.exp(-t * w)) @ v.conj().T
                assert np.abs(tx[k, i, j] - unvec(expm @ vec(one), 3)).max() < 1e-13
                assert np.abs(tx[k, i, j] - semigroup_apply(a, t, one)).max() < 1e-13
    with pytest.raises(ValueError):
        semigroup_apply(a, np.array([0.5, -1e-3, 2.0]), x)


def test_nullspace_basis_of_tall_and_wide_matrices():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    # the tall 40 x 6 matrix needs only the reduced SVD, the wide 3 x 6 one the full V
    for rows, rank in ((40, 4), (3, 3)):
        c = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        ns = nullspace_basis(c @ q[:, :rank].conj().T)
        assert ns.shape == (6, 6 - rank)
        assert np.abs(ns.conj().T @ ns - np.eye(6 - rank)).max() < 1e-12
        assert subspace_gap(ns, q[:, rank:]) < 1e-10


def test_superop_flags_and_adjointness_symmetry():
    from qmsemi.models import random_lindblad

    rng = np.random.default_rng(7)
    gen = random_lindblad(3, 2, rng)
    a = gen.superop
    assert a.hs_selfadjoint and a.kills_identity
    for _ in range(5):
        x = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        y = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        assert abs(norm_trace(a.apply(x)).real) < 1e-10
        lhs = hs_inner(x, a.apply(y))
        rhs = np.conj(hs_inner(y, a.apply(x)))
        assert abs(lhs - rhs) < 1e-10


def test_semigroup_composition_law():
    from qmsemi.models import random_lindblad

    rng = np.random.default_rng(8)
    gen = random_lindblad(2, 2, rng)
    x = random_hermitian(2, rng)
    lhs = semigroup_apply(gen.superop, 1.1, x)
    rhs = semigroup_apply(gen.superop, 0.4, semigroup_apply(gen.superop, 0.7, x))
    assert np.abs(lhs - rhs).max() < 1e-9


def test_log_multiplier_inverse_identity():
    # J_log then the two-sided [rho] multiplier recovers the perturbation
    rng = np.random.default_rng(9)
    rho = random_state(4, rng)
    delta = random_hermitian(4, rng)
    j = divided_difference_multiplier(rho, np.log, delta, fprime=lambda s: 1.0 / s)
    back = rho_multiplier(rho, j)
    assert np.abs(back - delta).max() < 1e-8


def test_make_state_clamps_and_normalizes():
    mat = np.diag([1.0, -1e-13, 2.0]).astype(complex)
    rho = make_state(mat)
    assert abs(norm_trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= 0
    with pytest.raises(ValueError):
        make_state(np.diag([1.0, -0.5]).astype(complex))


def test_norm_of_a_map_that_is_not_self_adjoint_raises():
    s = make_superop(np.triu(np.ones((4, 4))), 2)
    assert not s.hs_selfadjoint
    with pytest.raises(ValueError, match="requires a self-adjoint map"):
        s.norm


def test_make_superop_rejects_bad_shape():
    with pytest.raises(ValueError):
        make_superop(np.eye(5), 2)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, SWEEP_CHUNK + 1])
@pytest.mark.parametrize("lo, width", [(0.7, 0.0), (0.4, 1.2)])
def test_stacked_draws_follow_the_per_item_stream(m, n, lo, width):
    # a scalar scale takes one (2, m, m) Gaussian block, as single draws always did;
    # n scales take n blocks in one call, the k-th matrix from the k-th block
    r1, r2 = np.random.default_rng([m, n]), np.random.default_rng([m, n])
    assert np.array_equal(random_hermitian(m, r2, lo), _gue(r1.standard_normal((2, m, m)), lo))
    assert np.array_equal(random_state(m, r2, lo),
                          _chart(_gue(r1.standard_normal((2, m, m)), lo))[-1])
    scale = lo + width * np.random.default_rng(n).random(n)
    for draw, form in ((random_hermitian, lambda h: h), (random_state, lambda h: _chart(h)[-1])):
        blocks = r1.standard_normal((n, 2, m, m))
        got = draw(m, r2, scale)
        assert got.shape == (n, m, m)
        for k in range(n):
            assert np.array_equal(got[k], form(_gue(blocks[k], scale[k])))
    assert r2.random() == r1.random()


def test_matrix_function_maps_a_stack_matrix_by_matrix():
    rng = np.random.default_rng(12)
    h = np.array([random_hermitian(3, rng) for _ in range(4)])
    got = matrix_function(h, np.exp)
    assert all(np.array_equal(g, matrix_function(x, np.exp)) for g, x in zip(got, h))
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_function(h + 1j * np.eye(3), np.exp)
