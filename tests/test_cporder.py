import math

import numpy as np
import pytest

from conftest import make_zoo
from pencil_oracle import bisect_lambda
from qmsemi.algebra import diagonal_algebra, module_basis, scalar_algebra
from qmsemi.cporder import (
    best_lambda,
    cb_norm_1_to_inf,
    choi_matrix,
    cp_order_holds,
    form_kernel,
    gamma_e_constant,
    kernel_from_jumps,
    kernel_from_superop,
    kernel_ie,
    l2_to_linf_cb_sq,
    return_time,
)
from qmsemi.generator import gradient_form, jump_set, lindblad
from qmsemi.matops import (
    identity_superop,
    make_superop,
    matrix_units,
    random_hermitian,
    semigroup_apply,
)
from qmsemi.models import dephasing_generator, depolarizing_generator, random_lindblad
from qmsemi.subordinate import density_approximation, fractional_power


def test_form_kernel_zero_form():
    k = form_kernel(lambda x, y: np.zeros((2, 2), dtype=complex), 2, check=False)
    assert np.abs(k.q).max() == 0.0


def test_form_kernel_dephasing_shape_and_rank():
    gen = dephasing_generator(2)
    k = form_kernel(lambda x, y: gradient_form(gen.jumps, x, y), 2)
    assert k.q.shape == (8, 8)
    w = np.sort(np.linalg.eigvalsh(k.q))
    assert w.min() >= -1e-9
    # direct diagonalization: the two off-diagonal commutator channels at 8
    assert np.allclose(w, [0, 0, 0, 0, 0, 0, 8, 8], atol=1e-10)
    fast = kernel_from_jumps(gen.jumps.jumps)
    assert np.abs(k.q - fast.q).max() < 1e-12


def test_form_kernel_ie_eigenvalue_pattern():
    # frozen from direct diagonalization on M_2
    k = kernel_ie(scalar_algebra(2))
    w = np.sort(np.linalg.eigvalsh(k.q))
    assert np.allclose(w, [0, 0, 0.5, 0.5, 0.5, 0.5, 2.0, 2.0], atol=1e-10)


def test_form_kernel_rejects_non_sesquilinear():
    with pytest.raises(ValueError):
        form_kernel(lambda x, y: x @ y + np.eye(2), 2)


def test_kernel_positivity_matches_sampled_weights():
    # Q >= 0 iff sum_ij z_i* Gamma(x_i, x_j) z_j >= 0 for vector weights
    rng = np.random.default_rng(0)
    gen = random_lindblad(3, 2, rng)
    k = kernel_from_jumps(gen.jumps.jumps)
    assert np.linalg.eigvalsh(k.q).min() >= -1e-9
    for _ in range(500):
        xs = [
            random_hermitian(3, rng) + 1j * random_hermitian(3, rng) for _ in range(3)
        ]
        zs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        acc = 0.0
        for xi, zi in zip(xs, zs):
            for xj, zj in zip(xs, zs):
                acc += (zi.conj() @ gradient_form(gen.jumps, xi, xj) @ zj).real
        assert acc >= -1e-8 * max(1.0, abs(acc))


def test_cp_order_basics():
    gen = dephasing_generator(2)
    q = kernel_from_jumps(gen.jumps.jumps)
    zero = form_kernel(lambda x, y: np.zeros((2, 2), dtype=complex), 2, check=False)
    assert cp_order_holds(zero, q, 0.0)
    assert cp_order_holds(q, q, 1.0)
    assert not cp_order_holds(q, q, 1.0 + 1e-3)


def test_best_lambda_self_and_scaling():
    q = kernel_ie(scalar_algebra(2))
    assert best_lambda(q, q).lambda_star == pytest.approx(1.0, abs=1e-8)
    q3 = type(q)(dim=q.dim, basis_size=q.basis_size, q=3.0 * q.q)
    assert best_lambda(q, q3).lambda_star == pytest.approx(3.0, abs=1e-7)


def test_best_lambda_rejects_zero_small():
    q = kernel_ie(scalar_algebra(2))
    zero = form_kernel(lambda x, y: np.zeros((2, 2), dtype=complex), 2, check=False)
    with pytest.raises(ValueError):
        best_lambda(zero, q)


def test_best_lambda_zero_with_witness_when_big_not_psd():
    q = kernel_ie(scalar_algebra(2))
    neg = type(q)(dim=q.dim, basis_size=q.basis_size, q=-q.q)
    cert = best_lambda(q, neg)
    assert cert.lambda_star == 0.0
    assert cert.witness is not None


def test_gamma_e_depolarizing_is_one():
    cert = gamma_e_constant(depolarizing_generator(2))
    assert cert.lambda_star == pytest.approx(1.0, abs=1e-7)


def test_gamma_e_dephasing_value_and_gap_consistency():
    from qmsemi.generator import spectral_gap

    gen = dephasing_generator(2)
    cert = gamma_e_constant(gen)
    assert 0 < cert.lambda_star <= 2 * spectral_gap(gen.superop) + 1e-9
    assert cert.lambda_star == pytest.approx(4.0, abs=1e-6)


def test_gamma_e_trivial_dynamics_is_zero():
    gen = lindblad(jump_set([], m=2))
    cert = gamma_e_constant(gen)
    assert cert.lambda_star == 0.0 and cert.status == "zero"


def _above(lam):
    """The smallest step above lambda* at which the order must fail."""
    return lam + max(1e-6, 1e-6 * lam)


def test_best_lambda_two_sided_bracket():
    # cp order at lambda* and a failure just above it, on both branches; a
    # zero certificate's witness lies in ker Q_big and carries the leak
    rng = np.random.default_rng(7)
    statuses = []
    for _ in range(10):
        m = int(rng.integers(2, 4))
        gen = random_lindblad(m, 3, rng)
        if gen.fixed_algebra.size != 1:
            continue
        q_small = kernel_ie(gen.fixed_algebra)
        q_big = kernel_from_jumps(gen.jumps.jumps)
        cert = best_lambda(q_small, q_big)
        lam = cert.lambda_star
        statuses.append(cert.status)
        assert (cert.status == "positive") == (lam > 0)
        assert cp_order_holds(q_small, q_big, lam)
        assert not cp_order_holds(q_small, q_big, _above(lam))
        v = cert.witness
        assert np.linalg.norm(v) == pytest.approx(1.0)
        big = (v.conj() @ q_big.q @ v).real
        small = (v.conj() @ q_small.q @ v).real
        if cert.status == "zero":
            assert abs(big) <= cert.tolerance
            assert small == pytest.approx(cert.leak, rel=1e-9)
            assert cert.margin > 0
        else:  # the witness is where the order becomes tight
            assert big - lam * small == pytest.approx(0.0, abs=1e-9 * big)
    assert "zero" in statuses and "positive" in statuses


def _pencil(gen, kind):
    q_small = kernel_ie(gen.fixed_algebra)
    if kind == "jumps":
        return q_small, kernel_from_jumps(gen.jumps.jumps)
    if kind == "B_eps":
        b, _ = density_approximation(gen, 0.1)
        return q_small, kernel_from_superop(b)
    return q_small, kernel_from_superop(fractional_power(gen.superop, kind))


@pytest.mark.parametrize("kind", ["jumps", 0.25, 0.5, "B_eps"])
@pytest.mark.parametrize("name", sorted(make_zoo()))
def test_best_lambda_agrees_with_bisection_oracle(zoo, name, kind):
    q_small, q_big = _pencil(zoo[name], kind)
    lam = best_lambda(q_small, q_big).lambda_star
    assert cp_order_holds(q_small, q_big, lam)
    assert not cp_order_holds(q_small, q_big, _above(lam))
    assert bisect_lambda(q_small, q_big) <= lam + 1e-6 * max(1.0, lam)


def test_random_zoo_jump_certificates_are_exactly_zero(zoo):
    # ker Q_big leaks out of ker Q_small: the generic generator fails the
    # gradient condition and the witness shows where
    for name in ("random_2jump_m3", "random_2jump_m4"):
        gen = zoo[name]
        q_small = kernel_ie(gen.fixed_algebra)
        q_big = kernel_from_jumps(gen.jumps.jumps)
        cert = gamma_e_constant(gen)
        assert cert.lambda_star == 0.0
        assert cert.status == "zero" and cert.method == "pencil-direct"
        assert cert.leak > 0.5
        v = cert.witness
        assert (v.conj() @ q_small.q @ v).real > 0.5
        assert abs(v.conj() @ q_big.q @ v) <= 1e-12


@pytest.mark.parametrize(
    "name, kind, expected, floor",
    [
        ("random_2jump_m3", 0.25, 0.8070, None),
        ("random_2jump_m3", 0.5, 0.5797, None),
        ("random_2jump_m3", "B_eps", 2.751e-3, 1.9e-4),
        ("random_2jump_m4", 0.25, 0.4375, None),
        ("random_2jump_m4", 0.5, 0.1769, None),
        ("random_2jump_m4", "B_eps", 5.113e-3, 7.1e-5),
    ],
)
def test_subordinated_generators_have_positive_rates(zoo, name, kind, expected, floor):
    # the subordinated approximants of a generic generator satisfy the
    # gradient condition with a genuinely positive constant
    cert = best_lambda(*_pencil(zoo[name], kind))
    assert cert.status == "positive"
    assert cert.lambda_star == pytest.approx(expected, rel=2e-4)
    if floor is not None:
        _, rep = density_approximation(zoo[name], 0.1)
        assert rep["predicted_floor"] == pytest.approx(floor, rel=0.05)
        assert cert.lambda_star > rep["predicted_floor"]


def test_gamma_e_monotone_in_jumps():
    # adding a jump never decreases the constant when the fixed algebra is unchanged
    rng = np.random.default_rng(1)
    a1 = random_hermitian(3, rng)
    a2 = random_hermitian(3, rng)
    g1 = lindblad(jump_set([a1, a2]))
    g2 = lindblad(jump_set([a1, a2, random_hermitian(3, rng, 0.5)]))
    assert g1.fixed_algebra.size == g2.fixed_algebra.size == 1
    c1 = gamma_e_constant(g1).lambda_star
    c2 = gamma_e_constant(g2).lambda_star
    assert c2 >= c1 - 1e-7


def test_choi_of_expectation_over_scalars_is_identity():
    n = scalar_algebra(2)
    mb = module_basis(n)
    chi = choi_matrix(n.expectation, mb)
    assert np.abs(chi - np.eye(chi.shape[0])).max() < 1e-10
    assert cb_norm_1_to_inf(n.expectation, mb) == pytest.approx(1.0, abs=1e-10)


def test_choi_of_identity_is_psd_gram():
    n = diagonal_algebra(2)
    mb = module_basis(n)
    chi = choi_matrix(identity_superop(2), mb)
    assert np.linalg.eigvalsh((chi + chi.conj().T) / 2).min() >= -1e-10


def test_choi_rejects_non_bimodular_maps():
    n = diagonal_algebra(2)
    mb = module_basis(n)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError):
        choi_matrix(lambda x: sx @ x @ sx, mb)


def test_choi_depolarizing_gap_linearity():
    gen = depolarizing_generator(2)
    mb = module_basis(gen.fixed_algebra)
    e = gen.e_fix
    base = cb_norm_1_to_inf(
        lambda x: x - e.apply(x), mb
    )
    assert base == pytest.approx(3.0, abs=1e-10)  # m^2 - 1
    for t in (0.4, 1.3):
        val = cb_norm_1_to_inf(
            lambda x: semigroup_apply(gen.superop, t, x) - e.apply(x), mb
        )
        assert val == pytest.approx(math.exp(-t) * base, abs=1e-9)


def test_choi_norm_independent_of_module_basis_order():
    gen = dephasing_generator(2)
    n = gen.fixed_algebra
    units = matrix_units(2)
    mb1 = module_basis(n, candidates=units)
    mb2 = module_basis(n, candidates=units[::-1])
    e = gen.e_fix
    t_map = lambda x: semigroup_apply(gen.superop, 0.3, x) - e.apply(x)
    v1 = cb_norm_1_to_inf(t_map, mb1)
    v2 = cb_norm_1_to_inf(t_map, mb2)
    assert abs(v1 - v2) < 1e-7


def test_return_time_depolarizing_closed_form():
    gen = depolarizing_generator(2)
    t0 = return_time(gen.superop, gen.fixed_algebra)
    assert t0 == pytest.approx(math.log(6.0), abs=1e-5)


def test_return_time_scaling():
    gen = depolarizing_generator(2)
    t0 = return_time(gen.superop, gen.fixed_algebra)
    t0_scaled = return_time(2.0 * gen.superop, gen.fixed_algebra)
    assert t0_scaled == pytest.approx(t0 / 2.0, abs=1e-5)


def test_return_time_requires_gap():
    gen = lindblad(jump_set([], m=2))
    with pytest.raises(ValueError):
        return_time(gen.superop, gen.fixed_algebra)


def test_kernel_splitting_identity_ergodic():
    # ||chi_{T_2t - E}|| equals the squared self-dual L2->Linf norm at time t
    rng = np.random.default_rng(2)
    for gen in (depolarizing_generator(2), random_lindblad(3, 3, rng)):
        if gen.fixed_algebra.size != 1:
            continue
        mb = module_basis(gen.fixed_algebra)
        e = gen.e_fix
        w, v = gen.superop.eig
        for t in (0.25, 1.0):
            lhs = cb_norm_1_to_inf(
                lambda x: semigroup_apply(gen.superop, 2 * t, x) - e.apply(x), mb
            )
            s = make_superop((v * np.exp(-t * w)) @ v.conj().T - e.matrix, gen.dim)
            rhs = l2_to_linf_cb_sq(s)
            assert abs(lhs - rhs) <= 1e-6 * max(lhs, 1e-30)


def amplified_min_eig(form_diff, xs, m, n=2):
    """Smallest eigenvalue of the level-n amplification [sum_k G(x_ki, x_kj)].

    This is the gradient form of the amplified generator evaluated at the
    operator matrix [x_ij]; its positivity is what the kernel test decides.
    """
    block = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = np.zeros((m, m), dtype=complex)
            for k in range(n):
                acc += form_diff(xs[k][i], xs[k][j])
            block[i * m : (i + 1) * m, j * m : (j + 1) * m] = acc
    return np.linalg.eigvalsh((block + block.conj().T) / 2).min(), np.abs(block).max()


def test_amplified_order_oracle_small():
    # kernel-level decision agrees with n=2 matrix amplification on samples
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(2, 4))
        j1 = random_lindblad(m, 2, rng).jumps
        j2 = random_lindblad(m, 2, rng).jumps
        q1 = kernel_from_jumps(j1.jumps)
        q2 = kernel_from_jumps(j2.jumps)
        lam = best_lambda(q1, q2).lambda_star
        if lam <= 0 or not cp_order_holds(q1, q2, lam):
            continue
        diff = lambda x, y: gradient_form(j2, x, y) - lam * gradient_form(j1, x, y)
        for _ in range(3):
            xs = [
                [random_hermitian(m, rng) + 1j * random_hermitian(m, rng) for _ in range(2)]
                for _ in range(2)
            ]
            wmin, scale = amplified_min_eig(diff, xs, m)
            assert wmin >= -1e-7 * max(1.0, scale)
