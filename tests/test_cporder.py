import math

import numpy as np
import pytest

from conftest import make_zoo
from kernel_oracle import (
    jump_factor_by_einsum,
    kernel_from_jumps_by_einsum,
    kernel_from_superop_by_einsum,
)
from pencil_oracle import _top_eigpair as evr_top_eigpair, bisect_lambda
from return_time_oracle import (
    grid_return_time,
    l2_to_linf_cb_sq,
    return_time_by_bisection,
    return_time_by_module_basis,
)
from qmsemi import algebra, cporder
from qmsemi.algebra import diagonal_algebra, module_basis, scalar_algebra
from qmsemi.cporder import (
    FormKernel,
    best_lambda,
    cb_norm_1_to_inf,
    choi_matrix,
    cp_order_holds,
    gamma_e_constant,
    kernel_from_jumps,
    kernel_from_superop,
    kernel_ie,
    return_time,
    _return_distance,
)
from qmsemi.generator import gradient_form, jump_set, lindblad, markov_pair, validate_generator
from qmsemi.matops import (
    identity_superop,
    make_superop,
    matrix_units,
    random_hermitian,
    reshuffle,
    semigroup_apply,
    vec,
)
from qmsemi.models import dephasing_generator, depolarizing_generator, random_lindblad
from qmsemi.subordinate import density_approximation, fractional_power
from qmsemi.tolerances import PSD, RETURN_TIME, rel_floor


def test_form_kernel_dephasing_shape_and_rank():
    k = kernel_from_jumps(dephasing_generator(2).jumps.jumps)
    assert k.q.shape == (8, 8)
    w = np.sort(np.linalg.eigvalsh(k.q))
    assert w.min() >= -1e-9
    # direct diagonalization: the two off-diagonal commutator channels at 8
    assert np.allclose(w, [0, 0, 0, 0, 0, 0, 8, 8], atol=1e-10)


def test_form_kernel_ie_eigenvalue_pattern():
    # frozen from direct diagonalization on M_2
    k = kernel_ie(scalar_algebra(2))
    w = np.sort(np.linalg.eigvalsh(k.q))
    assert np.allclose(w, [0, 0, 0.5, 0.5, 0.5, 0.5, 2.0, 2.0], atol=1e-10)


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


def _kernel_cases():
    """The zoo, dephasing m = 3 and random m = 2..6 with 2 and 3 jumps."""
    cases = make_zoo()
    cases["dephasing_m3"] = dephasing_generator(3)
    for m in (2, 3, 4, 5, 6):
        for n_jumps in (2, 3):
            rng = np.random.default_rng(100 * m + n_jumps)
            cases[f"random_{n_jumps}jump_m{m}"] = random_lindblad(m, n_jumps, rng, scale=0.6)
    return cases


KERNEL_CASES = _kernel_cases()


def _assert_kernel_close(q, ref, rtol=1e-12):
    assert q.shape == ref.shape
    assert np.abs(q - ref).max() <= rtol * max(np.abs(ref).max(), 1.0)


@pytest.mark.parametrize("m", range(1, 9))
def test_the_jump_factor_equals_the_einsum_construction_bit_for_bit(m):
    rng = np.random.default_rng(400 + m)
    for k in range(5):
        g = rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))
        jumps = (g + g.conj().swapaxes(1, 2)) / 2
        c = cporder._jump_factor(jumps)
        assert c.shape == (k * m, m ** 3)
        assert c.tobytes() == jump_factor_by_einsum(jumps).tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernels_match_the_einsum_oracle(name):
    gen = KERNEL_CASES[name]
    jumps = kernel_from_jumps(gen.jumps.jumps)
    _assert_kernel_close(jumps.q, kernel_from_jumps_by_einsum(gen.jumps.jumps).q)
    c = cporder._jump_factor(gen.jumps.jumps)
    assert c.shape == (gen.jumps.size * gen.dim, jumps.size)
    _assert_kernel_close(c.conj().T @ c, jumps.q)
    n = gen.fixed_algebra
    _assert_kernel_close(kernel_ie(n).q, kernel_from_superop_by_einsum(n.complement).q)
    _assert_kernel_close(kernel_from_superop(gen.superop).q,
                         kernel_from_superop_by_einsum(gen.superop).q)


def _superop_cases(m):
    """L, I - E, A^1/2 and B_eps of a random generator, and I - E onto the diagonals."""
    gen = random_lindblad(m, 2, np.random.default_rng(300 + m), scale=0.6)
    b_eps, _ = density_approximation(gen, 0.1)
    return {
        "L": gen.superop,
        "I-E": gen.fixed_algebra.complement,
        "A^1/2": fractional_power(gen, 0.5),
        "B_eps": b_eps,
        "I-E diagonal": diagonal_algebra(m).complement,
    }


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_gathered_superop_kernel_matches_the_einsum_oracle(m):
    for name, a in _superop_cases(m).items():
        k = kernel_from_superop(a)
        assert k.basis_size == m * m, name
        _assert_kernel_close(k.q, kernel_from_superop_by_einsum(a).q, rtol=1e-13)
        assert np.array_equal(k.q, k.q.conj().T), name


def _top_pair_inputs(n):
    """A random Hermitian matrix, a PSD one of rank n // 2 and one whose top
    eigenvalue is 3-fold (every eigenvalue, for n < 3)."""
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = g[:, : n // 2]
    u, _ = np.linalg.qr(g)
    w = np.sort(rng.standard_normal(n))
    w[-3:] = w[-1] + 1.0
    return {"hermitian": (g + g.conj().T) / 2, "rank-deficient": f @ f.conj().T,
            "degenerate": (u * w) @ u.conj().T}


@pytest.mark.parametrize("n", [1, 8, 64, 65, 128])
def test_the_top_eigenpair_agrees_with_scipy_evr(n):
    for name, h in _top_pair_inputs(n).items():
        lam, v = cporder._top_eigpair(h)
        ref, _ = evr_top_eigpair(h)
        norm = np.linalg.norm(h, 2)
        assert abs(lam - ref) <= 1e-12 * max(norm, 1.0), name
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12, name
        assert np.linalg.norm(h @ v - lam * v) <= 1e-12 * norm, name
    for bad in (np.nan, np.inf):
        h = _top_pair_inputs(n)["hermitian"]
        h[-1, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            cporder._top_eigpair(h)


def test_best_lambda_rejects_mismatched_kernels():
    q2 = kernel_ie(scalar_algebra(2))
    q3 = kernel_ie(scalar_algebra(3))
    sub = FormKernel(dim=2, basis_size=2, q=np.eye(4))  # same dim as q2, a smaller basis
    for small, big in ((q2, q3), (q3, q2), (q2, sub)):
        with pytest.raises(ValueError, match="kernel dimension mismatch"):
            best_lambda(small, big)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_gamma_e_constant_agrees_with_the_dense_split_and_bisection(name):
    gen = KERNEL_CASES[name]
    q_small = kernel_ie(gen.fixed_algebra)
    q_big = kernel_from_jumps(gen.jumps.jumps)
    cert = gamma_e_constant(gen)
    ref = best_lambda(q_small, q_big)
    assert cert.status == ref.status
    for field in ("lambda_star", "margin"):
        got, want = getattr(cert, field), getattr(ref, field)
        assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), field
    assert abs(cert.leak - ref.leak) <= rel_floor(np.linalg.norm(q_small.q), PSD)
    lam = cert.lambda_star
    assert abs(bisect_lambda(q_small, q_big) - lam) <= 1e-6 * max(1.0, lam)


def test_gamma_e_takes_no_eigendecomposition_of_the_full_jump_kernel(monkeypatch):
    gen = random_lindblad(6, 3, np.random.default_rng(6), scale=0.6)
    assert gen.fixed_algebra.size == 1
    full = (6 ** 3, 6 ** 3)
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    assert gamma_e_constant(gen).status == "zero"
    assert full not in shapes
    # the recorder does see the eigendecomposition of the dense Q_big
    best_lambda(kernel_ie(gen.fixed_algebra), kernel_from_jumps(gen.jumps.jumps))
    assert full in shapes


def _without_identity(m):
    """Depolarizing on M_m with its (commuting) identity jump dropped: K = m^2 - 1."""
    jumps = depolarizing_generator(m).jumps.jumps
    keep = [k for k, a in enumerate(jumps) if np.abs(a - a[0, 0] * np.eye(m)).max() > 1e-12]
    return lindblad(jump_set(jumps[keep], m=m))


@pytest.mark.parametrize("gen", [
    pytest.param(random_lindblad(m, k, np.random.default_rng(90 + 10 * m + k), scale=0.6),
                 id=f"random-m{m}-k{k}") for m, k in ((2, 2), (3, 2), (4, 3), (6, 3), (8, 3))
])
def test_gamma_e_constant_never_forms_q_a_for_fewer_than_m2_jumps(gen, monkeypatch):
    m = gen.dim
    assert gen.jumps.size < m * m and gen.fixed_algebra.size == 1
    ref = best_lambda(kernel_ie(gen.fixed_algebra), kernel_from_jumps(gen.jumps.jumps))

    def refuse(jumps_arr):
        raise AssertionError("the dense jump kernel was formed")

    monkeypatch.setattr(cporder, "kernel_from_jumps", refuse)
    cert = gamma_e_constant(gen)
    assert cert.status == ref.status
    assert cert.lambda_star == pytest.approx(ref.lambda_star, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("gen", [
    pytest.param(depolarizing_generator(m), id=f"depolarizing-m{m}") for m in (2, 3, 4)
] + [pytest.param(_without_identity(m), id=f"depolarizing-without-identity-m{m}") for m in (2, 3)])
def test_gamma_e_constant_takes_one_dense_split_at_the_rank_count(gen, monkeypatch):
    # K m >= m (m^2 - 1) = rank Q_{I-E} for N = C 1: the closed form cannot apply
    m = gen.dim
    assert gen.jumps.size >= m * m - 1 and gen.fixed_algebra.size == 1
    q_small, q_big = kernel_ie(gen.fixed_algebra), kernel_from_jumps(gen.jumps.jumps)
    splits = []
    split = cporder.best_lambda

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(cporder, "best_lambda", lambda *a: splits.append(a) or split(*a))
    monkeypatch.setattr(np.linalg, "svd", refuse)
    cert = gamma_e_constant(gen)
    assert len(splits) == 1
    assert cert.status == "positive"
    lam = cert.lambda_star
    assert abs(bisect_lambda(q_small, q_big) - lam) <= 1e-6 * max(1.0, lam)


def test_cp_order_basics():
    gen = dephasing_generator(2)
    q = kernel_from_jumps(gen.jumps.jumps)
    zero = FormKernel(dim=2, basis_size=4, q=np.zeros((8, 8)))
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
    zero = FormKernel(dim=2, basis_size=4, q=np.zeros((8, 8)))
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
    assert 0 < cert.lambda_star <= 2 * spectral_gap(gen) + 1e-9
    assert cert.lambda_star == pytest.approx(4.0, abs=1e-6)


def test_gamma_e_trivial_dynamics_is_zero(monkeypatch):
    # an empty jump set fixes all of M_m: zero by n.size == m^2, with no kernel built
    gen = lindblad(jump_set([], m=2))
    for name in ("kernel_ie", "kernel_from_superop", "kernel_from_jumps", "best_lambda"):
        monkeypatch.setattr(cporder, name, None)
    cert = gamma_e_constant(gen)
    assert cert.lambda_star == 0.0 and cert.status == "zero"
    assert cert.margin == PSD and cert.witness is None


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
    return q_small, kernel_from_superop(fractional_power(gen, kind))


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
    t0 = return_time(gen)
    assert t0 == pytest.approx(math.log(6.0), abs=1e-5)


def test_return_time_scaling():
    gen = depolarizing_generator(2)
    t0 = return_time(gen)
    t0_scaled = return_time((2.0 * gen.superop, gen.fixed_algebra))
    assert t0_scaled == pytest.approx(t0 / 2.0, abs=1e-5)


def test_return_time_requires_gap():
    gen = lindblad(jump_set([], m=2))
    with pytest.raises(ValueError):
        return_time(gen)


def _return_time_cases():
    """The zoo, non-ergodic dephasing m = 3 and random ergodic m = 2, 3, 4, 6."""
    cases = make_zoo()
    cases["dephasing_m3"] = dephasing_generator(3)
    for m in (2, 3, 4, 6):
        cases[f"random_m{m}"] = random_lindblad(m, 2, np.random.default_rng(700 + m), scale=0.6)
    return cases


RETURN_TIME_CASES = _return_time_cases()


@pytest.mark.parametrize("name", sorted(RETURN_TIME_CASES))
def test_return_time_matches_module_basis_oracle(name):
    gen = RETURN_TIME_CASES[name]
    t0 = return_time(gen)
    # both take the first grid point where their g is not positive: the same float
    assert t0 == return_time_by_module_basis(gen)


def _random_return_time_cases():
    """Two random 2- or 3-jump generators at each m = 2..8, at scales from 0.2 to 2."""
    rng = np.random.default_rng(240)
    return {f"m{m}_{k}": random_lindblad(m, int(rng.integers(2, 4)), rng,
                                        scale=float(rng.uniform(0.2, 2.0)))
            for m in (2, 3, 4, 5, 6, 8) for k in range(2)}


BISECTION_CASES = {**RETURN_TIME_CASES, **_random_return_time_cases()}


@pytest.mark.parametrize("name", sorted(BISECTION_CASES))
def test_return_time_is_the_grid_bisection_bit_for_bit(name):
    gen = BISECTION_CASES[name]
    t0 = return_time(gen)
    assert t0 == return_time_by_bisection(gen)


@pytest.mark.parametrize("name", sorted(BISECTION_CASES))
def test_return_time_is_the_first_grid_point_where_g_is_not_positive(name):
    gen = BISECTION_CASES[name]
    t0 = return_time(gen)
    g, _ = _return_distance(markov_pair(gen))
    k = round(t0 / RETURN_TIME)
    assert t0 == k * RETURN_TIME
    assert g(t0) <= 0.0 < g((k - 1) * RETURN_TIME)


def _patched_distance(monkeypatch, g, gap):
    """Route ``return_time`` to g and gap; returns the list of times g is called at."""
    ts = []

    def counted(t):
        ts.append(t)
        return g(t)

    monkeypatch.setattr(cporder, "markov_pair", lambda gen: gen)
    monkeypatch.setattr(cporder, "_return_distance", lambda pair: (counted, gap))
    return ts


@pytest.mark.parametrize("gap", [0.5, 1.0, 3.0])
def test_return_time_is_infinite_when_g_stays_positive_up_to_the_cap(monkeypatch, gap):
    ts = _patched_distance(monkeypatch, lambda t: 0.5 * math.exp(-gap * t / 1e5), gap)
    assert return_time(None) == math.inf
    assert max(ts) <= 1e4 / gap


STALLING_DISTANCES = {
    # flat, then steep: f = ln(2 g + 1) = ln 2 - (t/3)^40 keeps regula falsi at one end
    "flat_then_steep": lambda t: 0.5 * (2.0 * math.exp(-(t / 3.0) ** 40) - 1.0),
    # a step from just above 0 to -1/2: regula falsi creeps up one candidate a step
    # until Illinois halvings bring f at the upper end down to the 2e-12 of the lower
    "step": lambda t: 1e-12 if t < 2.9726381234 else -0.5,
}


@pytest.mark.parametrize("name", sorted(STALLING_DISTANCES))
def test_return_time_bisects_where_the_secant_stalls(monkeypatch, name):
    g = STALLING_DISTANCES[name]
    ts = _patched_distance(monkeypatch, g, 1.0)
    t0 = return_time(None)
    assert ts[:3] == [1.0, 2.0, 4.0] and g(2.0) > 0.0 >= g(4.0)
    assert t0 == grid_return_time(g, 1.0)
    span = round(4.0 / RETURN_TIME) - round(2.0 / RETURN_TIME)
    assert len(ts) - 3 <= 4 * math.ceil(math.log2(span))


def _eigvalsh_calls(monkeypatch, fn, gen) -> int:
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", counted)
        fn(gen)
    return len(calls)


@pytest.mark.parametrize("name", sorted(RETURN_TIME_CASES))
def test_return_time_takes_at_most_two_thirds_of_the_bisection_eigensolves(monkeypatch, name):
    gen = RETURN_TIME_CASES[name]
    plain = _eigvalsh_calls(monkeypatch, return_time_by_bisection, gen)
    assert plain >= 19
    assert _eigvalsh_calls(monkeypatch, return_time, gen) <= 2 * plain / 3


@pytest.mark.parametrize("name", sorted(make_zoo()))
def test_density_reports_agree_with_oracle_return_time(zoo, monkeypatch, name):
    _, rep = density_approximation(zoo[name], 0.1)
    monkeypatch.setattr("qmsemi.subordinate.return_time", return_time_by_module_basis)
    _, ref = density_approximation(zoo[name], 0.1)
    assert rep.keys() == ref.keys()
    for key, val in ref.items():
        assert rep[key] == pytest.approx(val, rel=1e-9, abs=1e-9), key


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_choi_reshuffle_gives_the_scalar_module_basis_norm(m):
    # over N = C 1: ||chi_T|| = m ||Choi(T)|| with the m^2 x m^2 reshuffle
    gen = random_lindblad(m, 2, np.random.default_rng(30 + m), scale=0.6)
    n = scalar_algebra(m)
    mb = module_basis(n)
    w, v = gen.superop.eig
    for t in (0.0, 0.3, 1.0, 2.0):
        s = (v * np.exp(-t * w)) @ v.conj().T - n.expectation.matrix
        chi_norm = cb_norm_1_to_inf(make_superop(s, m), mb)
        reshuffled = m * np.linalg.norm(reshuffle(s, m), 2)
        assert abs(reshuffled - chi_norm) <= 1e-12


def test_return_time_rejects_a_map_that_breaks_hermiticity():
    # 1 - |vec e12><vec e12| is HS-self-adjoint but sends e12 to 0 and e21 to e21
    e12 = vec(matrix_units(2)[1])
    a = make_superop(np.eye(4) - np.outer(e12, e12.conj()), 2)
    n = scalar_algebra(2)
    assert a.hs_selfadjoint
    assert not validate_generator(a)["cp_semigroup"]  # Choi(-A) is not Hermitian
    with pytest.raises(ValueError, match="not a quantum Markov generator"):
        return_time((a, n))


def test_ergodic_return_time_builds_no_module_basis_and_takes_no_svd(monkeypatch):
    # both generators and their fixed algebras are built before counting
    gen = random_lindblad(4, 2, np.random.default_rng(5), scale=0.6)
    deph = dephasing_generator(2)
    assert gen.fixed_algebra.size == 1 and deph.fixed_algebra.size == 2
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2):
            calls.append("norm")
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(algebra, "module_basis", counted("module_basis", algebra.module_basis))
    monkeypatch.setattr(cporder, "module_basis", counted("module_basis", cporder.module_basis))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    assert return_time(gen) > 0.0
    assert calls == []
    # the counters do see the module-basis path and the oracle's SVD norm
    return_time(deph)
    assert calls == ["module_basis"]
    return_time_by_module_basis(deph)
    assert "norm" in calls


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
