import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gammafn

from qmsemi import subordinate
from qmsemi.cporder import gamma_e, kernel_from_superop, kernel_ie, return_time
from qmsemi.generator import JumpSet, jump_set, lindblad
from qmsemi.matops import (
    identity_superop,
    make_superop,
    nullspace_basis,
    subspace_gap,
)
from qmsemi.models import dephasing_generator, depolarizing_generator, pauli, random_lindblad
from qmsemi.subordinate import (
    WeightProfile,
    auto_sigma,
    density_approximation,
    eps_sigma_generator,
    eps_sigma_scalar,
    fractional_power,
    phi_of_lambda,
    psi_r_map,
    subordinated_generator,
)


def c_f_by_quadrature(prof: WeightProfile) -> tuple[float, float]:
    """C_F = int min(1, t) F(t) dt/t of condition (I) and its error estimate."""
    return subordinate._quad_dt_over_t(lambda t: min(1.0, t) * prof.f(t), prof.breaks)


def test_phi_at_zero():
    assert phi_of_lambda(WeightProfile.power_law(0.5), 0.0) == 0.0


PROFILE_KINDS = {
    "power": lambda: WeightProfile.power_law(0.5),
    "epssigma": lambda: WeightProfile.eps_sigma(0.1, 0.5),
    "table": lambda: WeightProfile.table([[0.01, 1.0], [100.0, 1.0]]),
}


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", sorted(PROFILE_KINDS))
def test_phi_of_lambda_takes_only_a_finite_nonnegative_lambda(kind, lam):
    # one domain for every kind: NaN and inf used to give NaN, inf or a finite
    # number for the power and table kinds, and raise only for eps-sigma
    with pytest.raises(ValueError, match="lambda"):
        phi_of_lambda(PROFILE_KINDS[kind](), lam)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_phi_of_an_overflowing_table_raises():
    # C_F = 1e308 (1 - 1e-3 + ln 1e3) overflows float64, so the quadrature is not finite
    # at any lambda > 0; phi refuses it where it once returned NaN
    table = WeightProfile.table([[1e-3, 1e308], [1e3, 1e308]])
    assert phi_of_lambda(table, 0.0) == 0.0
    for lam in (0.5, 2.0, 7.0):
        with pytest.raises(ValueError, match="not finite"):
            phi_of_lambda(table, lam)


def test_power_law_normalization_against_gamma_function():
    # independent oracle: int (1-e^-s) s^{-a-1} ds = Gamma(1-a)/a
    for al in (0.25, 0.5, 0.75):
        prof = WeightProfile.power_law(al)
        assert prof.norm_const == pytest.approx(al / gammafn(1 - al), abs=1e-12)
        for lam in (0.3, 2.0, 17.0):
            assert phi_of_lambda(prof, lam) == pytest.approx(lam**al, abs=1e-10)


def test_power_law_rejects_bad_exponent():
    with pytest.raises(ValueError):
        WeightProfile.power_law(1.5)


def test_phi_linear_bound():
    # phi_F(lam) <= C_F (1 + lam) with C_F = int min(1,t) F dt/t
    prof = WeightProfile.power_law(0.4)
    c_f = c_f_by_quadrature(prof)[0]
    assert c_f == pytest.approx(prof.norm_const * (1.0 / 0.6 + 1.0 / 0.4), rel=1e-8)
    for lam in (0.1, 1.0, 30.0):
        assert phi_of_lambda(prof, lam) <= c_f * (1 + lam) + 1e-10


def test_phi_monotone_and_concave_spot_checks():
    prof = WeightProfile.power_law(0.6)
    lams = [0.2, 0.7, 1.9, 5.0]
    vals = [phi_of_lambda(prof, l) for l in lams]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    mid = phi_of_lambda(prof, 0.5 * (lams[0] + lams[2]))
    assert mid >= 0.5 * (vals[0] + vals[2]) - 1e-12


def test_subordinated_matches_fractional_power():
    rng = np.random.default_rng(0)
    gen = random_lindblad(3, 2, rng)
    for th in (0.3, 0.5):
        a1 = subordinated_generator(gen, WeightProfile.power_law(th))
        a2 = fractional_power(gen, th)
        np.testing.assert_array_equal(a1.matrix, a2.matrix)
    b1 = subordinated_generator(gen, WeightProfile.eps_sigma(1e-3, 0.7))
    b2 = eps_sigma_generator(gen, math.log(1e-3), 0.7)
    np.testing.assert_array_equal(b1.matrix, b2.matrix)


def test_closed_form_profiles_take_no_quadrature(monkeypatch):
    a = random_lindblad(3, 2, np.random.default_rng(10))
    profiles = [WeightProfile.power_law(0.5), WeightProfile.eps_sigma(1e-3, 0.7)]
    table = WeightProfile.table([[0.1, 1.0], [10.0, 0.1]])

    def fail(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(subordinate, "_quad_dt_over_t", fail)
    for prof in profiles:
        subordinated_generator(a, prof)
        phi_of_lambda(prof, 2.0)
    with pytest.raises(AssertionError, match="quadrature"):
        subordinated_generator(a, table)


def test_constructing_a_profile_runs_no_quadrature(monkeypatch):
    # (I) holds for every accepted profile by construction, so no constructor integrates
    def fail(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(subordinate, "_quad_dt_over_t", fail)
    assert WeightProfile.power_law(0.5).kind == "power"
    assert WeightProfile.eps_sigma(1e-3, 0.7).kind == "epssigma"
    table = WeightProfile.table([[10.0, 0.1], [0.1, 1.0]])
    np.testing.assert_array_equal(table.points, [[0.1, 1.0], [10.0, 0.1]])


@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-8, 1e-30, 1e-300])
def test_eps_sigma_profile_is_integrable_with_its_closed_form_c_f(eps):
    # F = (t^-1 on [eps, 1), t^-sigma on [1, inf)) / |ln eps|: C_F = 1 + 1/(sigma |ln eps|)
    for sigma in (0.3, 0.7, 1.0, 2.5):
        value, err = c_f_by_quadrature(WeightProfile.eps_sigma(eps, sigma))
        c_f = 1.0 + 1.0 / (sigma * abs(math.log(eps)))
        assert value == pytest.approx(c_f, rel=1e-8)
        assert err <= 1e-10 * max(value, 1.0)


@pytest.mark.parametrize("prof, c_f", [
    (WeightProfile.table([[0.01, 100.0], [100.0, 100.0]]), 100.0 * (0.99 + math.log(100.0))),
    (WeightProfile.eps_sigma(1e-2, 0.3), 1.0 + 1.0 / (0.3 * math.log(100.0))),
    (WeightProfile.eps_sigma(1e-3, 0.7), 1.0 + 1.0 / (0.7 * math.log(1000.0))),
    (WeightProfile.eps_sigma(0.5, 2.5), 1.0 + 1.0 / (2.5 * math.log(2.0))),
], ids=["table", "epssigma-0.01-0.3", "epssigma-0.001-0.7", "epssigma-0.5-2.5"])
def test_c_f_lies_within_its_reported_quadrature_error(prof, c_f):
    # F jumps at eps or at the table's ends: the quadrature splits there, so its error
    # estimate covers the distance to the closed form
    value, err = c_f_by_quadrature(prof)
    assert abs(value - c_f) <= err


@pytest.mark.parametrize("s", [1.0, 1e-3, 1e-5])
def test_fractional_power_does_not_depend_on_the_scale(s):
    # A scales as s^2, so A^(1/2) and its gamma-e constant scale as s
    gen = lindblad(JumpSet(dim=2, jumps=s * np.array([pauli("x"), pauli("z")])))
    lam = gamma_e(fractional_power(gen, 0.5), gen.fixed_algebra).lambda_star
    assert lam == pytest.approx(1.1715728752538 * s, rel=1e-9)


def test_profile_guards():
    with pytest.raises(ValueError, match="t > 0 and F >= 0"):
        WeightProfile.table([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="t > 0 and F >= 0"):
        WeightProfile.table([[0.5, 1.0], [1.0, -1.0]])
    prof = WeightProfile.power_law(0.5)
    with pytest.raises(ValueError, match="lambda must be nonnegative"):
        phi_of_lambda(prof, -1.0)
    gen = depolarizing_generator(2)
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError, match="eps must be positive"):
            density_approximation(gen, eps)
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="r must be positive"):
            psi_r_map(gen, prof, r)


def test_subordinated_zero_generator():
    a = lindblad(jump_set([], m=2))
    out = subordinated_generator(a, WeightProfile.power_law(0.5))
    assert np.abs(out.matrix).max() == 0.0


def test_subordination_preserves_nullspace():
    rng = np.random.default_rng(1)
    gen = random_lindblad(3, 2, rng)
    ns_a = nullspace_basis(gen.superop.matrix)
    for th in (0.25, 0.5, 0.75):
        a_th = fractional_power(gen, th)
        assert a_th.hs_selfadjoint and a_th.kills_identity
        ns_th = nullspace_basis(a_th.matrix)
        assert subspace_gap(ns_a, ns_th) < 1e-8


def test_fractional_power_identities():
    rng = np.random.default_rng(2)
    gen = random_lindblad(3, 2, rng)
    assert np.abs(fractional_power(gen, 1.0).matrix - gen.superop.matrix).max() < 1e-12
    half = fractional_power(gen, 0.5)
    assert np.abs((half @ half).matrix - gen.superop.matrix).max() < 1e-10
    dep = depolarizing_generator(2)
    for th in (0.2, 0.8):
        assert np.abs(fractional_power(dep, th).matrix - dep.superop.matrix).max() < 1e-10
    with pytest.raises(ValueError):
        fractional_power(gen, 1.2)
    with pytest.raises(ValueError):
        fractional_power(gen, 0.0)


def test_eps_sigma_scalar_zero_and_brackets():
    eps, sigma = 1e-3, 0.6
    assert eps_sigma_scalar(math.log(eps), sigma, 0.0) == (0.0, 0.0, 0.0)
    le = abs(math.log(eps))
    rng = np.random.default_rng(3)
    for lam in rng.uniform(0.01, 8.0, size=25):
        _, psi, psit = eps_sigma_scalar(math.log(eps), sigma, lam)
        assert le * lam - lam**2 / 2 - 1e-10 <= psi <= le * lam + 1e-10
        assert -1e-12 <= psit <= 1.0 / sigma + 1e-12


def test_eps_sigma_operator_bound():
    rng = np.random.default_rng(4)
    gen = random_lindblad(3, 2, rng, scale=0.6)
    l = gen.superop
    for eps in (1e-2, 1e-4):
        for sigma in (0.5, 1.0):
            b = eps_sigma_generator(gen, math.log(eps), sigma)
            bound = (2.0 / sigma + l.norm**2) / (2.0 * abs(math.log(eps)))
            assert (l - b).norm <= bound * (1 + 1e-10)


def test_eps_sigma_rejects_bad_parameters():
    a = depolarizing_generator(2)
    with pytest.raises(ValueError):
        eps_sigma_generator(a, math.log(1.5), 0.5)
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma"):
            eps_sigma_generator(a, math.log(0.5), sigma)


def test_density_approximation_basics():
    rng = np.random.default_rng(5)
    gen = random_lindblad(2, 2, rng, scale=0.6)
    b, rep = density_approximation(gen, 0.1)
    assert rep["distance"] <= 0.1
    assert rep["lambda_gamma_e"] >= rep["predicted_floor"] - 1e-6
    w, _ = b.eig
    assert w.min() >= -1e-10
    # degenerate accuracy request: still returns a valid PSD generator
    b2, rep2 = density_approximation(gen, gen.superop.norm * 2)
    assert rep2["wide_eps0"]
    w2, _ = b2.eig
    assert w2.min() >= -1e-10
    # the refined floor is always reported
    assert rep["refined_floor"] > 0.0


def test_psi_r_unital_and_monotone_normalization():
    rng = np.random.default_rng(6)
    gen = random_lindblad(2, 2, rng, scale=0.7)
    prof = WeightProfile.power_law(0.5)
    g_prev = None
    for r in (1.0, 0.5, 0.1):
        psi, g_r = psi_r_map(gen, prof, r)
        assert np.abs(psi.apply(np.eye(2)) - np.eye(2)).max() < 1e-10
        if g_prev is not None:
            assert g_r >= g_prev - 1e-12  # g decreases in r
        g_prev = g_r
    # closed form for the power law: g(r) = c(a) Gamma(a) r^-a
    _, g1 = psi_r_map(gen, prof, 1.0)
    assert g1 == pytest.approx(prof.norm_const * gammafn(0.5), abs=1e-10)


def test_psi_r_approximates_subordinated_generator():
    rng = np.random.default_rng(7)
    gen = random_lindblad(2, 2, rng, scale=0.7)
    prof = WeightProfile.power_law(0.5)
    phi_a = subordinated_generator(gen, prof)
    resids = []
    for r in (1.0, 0.1, 0.01, 0.001):
        psi, g_r = psi_r_map(gen, prof, r)
        resids.append((g_r * (identity_superop(2) - psi) - phi_a).norm)
    assert all(b < a for a, b in zip(resids, resids[1:]))


def test_psi_r_scalar_values_increase_to_phi():
    # g(r)(1 - psi_r(lam)) = int e^{-r/t}(1-e^{-t lam}) F dt/t increases as r -> 0,
    # to the phi_F(lam) that the profile's own F integrates to
    lam = 2.3
    for prof in (
        WeightProfile.power_law(0.5),
        WeightProfile.eps_sigma(0.5, 1.5),
        WeightProfile.eps_sigma(1e-3, 0.7),
        WeightProfile.table([[0.1, 1.0], [10.0, 0.1]]),
    ):
        target = quad(
            lambda t: (1 - math.exp(-lam * t)) * prof.f(t) / t, 0, np.inf, limit=200
        )[0]
        assert target == pytest.approx(phi_of_lambda(prof, lam), rel=1e-8), prof.kind
        prev = -math.inf
        for r in (1.0, 0.3, 0.1, 0.01, 1e-4):
            val = quad(
                lambda t: math.exp(-r / t) * (1 - math.exp(-lam * t)) * prof.f(t) / t,
                0, np.inf, limit=200,
            )[0]
            assert val >= prev - 1e-12
            assert val <= target + 1e-9
            prev = val
        assert target - prev < 0.05 * target


def test_gradient_domination_of_approximants():
    # g(r) Gamma_{I-Psi(r)} <= Gamma_{Phi(A)} at the kernel level
    rng = np.random.default_rng(8)
    gen = random_lindblad(2, 2, rng, scale=0.7)
    prof = WeightProfile.power_law(0.5)
    k_phi = kernel_from_superop(subordinated_generator(gen, prof))
    for r in (1.0, 0.1, 0.01):
        psi, g_r = psi_r_map(gen, prof, r)
        k_psi = kernel_from_superop(g_r * (identity_superop(2) - psi))
        wmin = np.linalg.eigvalsh(k_phi.q - k_psi.q).min()
        assert wmin >= -1e-7


def test_subordinated_floor_at_return_time():
    # Gamma_{Phi(A)} >= F(r)/(2 a c_a) Gamma_{I-E}, r = max(t0, t_a), for the power law
    rng = np.random.default_rng(9)
    for gen in (dephasing_generator(2), random_lindblad(2, 2, rng, scale=0.7)):
        al = 0.5
        prof = WeightProfile.power_law(al)
        t0 = return_time(gen)
        t_alpha, c_alpha = 1e-6, 1.0  # the power law's exact doubling constants
        r = max(t0, t_alpha)
        floor = prof.f(r) / (2.0 * al * c_alpha)
        k_phi = kernel_from_superop(subordinated_generator(gen, prof))
        k_e = kernel_ie(gen.fixed_algebra)
        wmin = np.linalg.eigvalsh(k_phi.q - floor * k_e.q).min()
        assert wmin >= -1e-7


def test_auto_sigma_clamps():
    gen = depolarizing_generator(2)  # t0 = ln 6 < e
    out = auto_sigma(gen)
    assert out["sigma"] == pytest.approx(1.0)


def test_table_profile_evaluation_and_conditions():
    pts = [(t, 0.3 * t**-0.5) for t in np.geomspace(1e-4, 1e4, 60)]
    prof = WeightProfile.table(pts)
    assert prof.f(1.0) == pytest.approx(0.3, rel=1e-6)
    assert prof.f(1e-6) == 0.0  # outside the sampled range
    value, err = c_f_by_quadrature(prof)
    assert math.isfinite(value) and err <= 1e-10 * max(value, 1.0)
    # F = 100 on [0.01, 100]: C_F = 100 (0.99 + ln 100) = 559.5, its error read on that scale
    value, err = c_f_by_quadrature(WeightProfile.table([[0.01, 100.0], [100.0, 100.0]]))
    assert err <= 1e-10 * value
    assert value == pytest.approx(100.0 * (0.99 + math.log(100.0)), rel=1e-8)
    with pytest.raises(ValueError):
        WeightProfile.table([(1.0, 1.0)])
