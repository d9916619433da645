"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the criterion lines;
each test also asserts, so a plain pytest run is authoritative.  Tolerances
are pinned here and match the module contracts.
"""

import math

import numpy as np
import pytest

from conftest import make_zoo, random_connected_weights, random_degenerate_commutant
from qmsemi.algebra import diagonal_algebra, module_basis, scalar_algebra
from qmsemi.casebook import (
    case_nonadditivity,
    case_poisson_Z,
    case_rothaus_failure,
    graph_lambda_star,
)
from qmsemi.constants import (
    check_decay_bound,
    check_lp_decay,
    flsi_estimate,
    gamma_dual_norm,
    geometric_talagrand_check,
    schatten_norm,
)
from qmsemi.cporder import (
    best_lambda,
    cp_order_holds,
    gamma_e_constant,
    kernel_from_jumps,
    kernel_from_superop,
    kernel_ie,
    return_time,
)
from qmsemi.entropy import d_sub, fisher, fisher_n, relative_entropy
from qmsemi.generator import gradient_form
from qmsemi.io import dump_json
from qmsemi.matops import (
    identity_superop,
    nullspace_basis,
    random_hermitian,
    random_state,
    semigroup_apply,
    subspace_gap,
)
from qmsemi.models import depolarizing_generator, random_lindblad
from qmsemi.subordinate import (
    WeightProfile,
    density_approximation,
    eps_sigma_generator,
    eps_sigma_scalar,
    fractional_power,
    psi_r_map,
    subordinated_generator,
)
from qmsemi.tolerances import D_N_ZERO
from test_cporder import amplified_min_eig

ZOO = make_zoo()


def _subordinated_rates():
    """(A^theta, N, certified rate) for the random zoo entries."""
    out = {}
    for name in ("random_2jump_m3", "random_2jump_m4"):
        gen = ZOO[name]
        q_small = kernel_ie(gen.fixed_algebra)
        for th in (0.25, 0.5):
            a_th = fractional_power(gen, th)
            lam = best_lambda(q_small, kernel_from_superop(a_th)).lambda_star
            out[name, th] = (a_th, gen.fixed_algebra, lam)
    return out


SUBORDINATED = _subordinated_rates()


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {desc}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {desc} {suffix}"


def test_c01_symmetrized_divergence_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(2, 7))
        kind = i % 3
        if kind == 0:
            n = scalar_algebra(m)
        elif kind == 1:
            n = diagonal_algebra(m)
        else:
            n = random_degenerate_commutant(m, rng)
        rho = random_state(m, rng, spread=0.5 + rng.random())
        e_rho = n.expectation.apply(rho)
        lhs = fisher_n(n, rho)
        rhs = relative_entropy(rho, e_rho) + relative_entropy(e_rho, rho)
        worst = max(worst, abs(lhs - rhs))
    _report(1, "Fisher information equals the symmetrized divergence",
            worst <= 1e-10, f"worst |diff| = {worst:.2e} over 100 instances")


def test_c02_graph_criterion_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(50):
        v = 2 + i % 7
        complete = i % 5 != 4  # every fifth graph misses an edge
        w = random_connected_weights(v, rng, complete=complete)
        expected = 2.0 * v * w[~np.eye(v, dtype=bool)].min()
        got = graph_lambda_star(w)
        worst = max(worst, abs(got - expected))
    _report(2, "graph pencil constant equals 2|V| min weight",
            worst <= 1e-6, f"worst |diff| = {worst:.2e} over 50 graphs")


def test_c03_rothaus_closed_forms():
    worst = 0.0
    ok = True
    for n in (2, 3, 4, 5, 6):
        for alpha in (1.0, math.sqrt(n), 10.0):
            r = case_rothaus_failure(n, alpha)
            ok &= r.passed
            worst = max(
                worst,
                abs(r.computed["d_x"] - r.expected["d_x"]["value"]),
                abs(r.computed["d_z"] - r.expected["d_z"]["value"]),
            )
    _report(3, "matrix-valued entropy closed forms (incl. self-adjoint variant)",
            ok and worst <= 1e-8, f"worst |diff| = {worst:.2e}")


def test_c04_integer_multiplier_matrix_inequalities():
    ok = True
    worst = 0.0
    for n in (4, 8, 16, 32, 64):
        r = case_poisson_Z(n)
        ok &= r.passed
        worst = min(
            worst,
            r.computed["min_eig_3K_minus_KIE"],
            r.computed["min_eig_4B_minus_I"],
            r.computed["min_eig_B_minus_ones"],
        )
    _report(4, "length-multiplier truncations are PSD at every size",
            ok and worst >= -1e-9, f"most negative eigenvalue = {worst:.2e}")


def test_c05_nonadditivity_counterexample():
    r = case_nonadditivity(1e-4)
    coeff_exact = abs(r.computed["coeff_11"] - (0.5 + 1e-4 / 3.0)) == 0.0
    ok = (
        r.passed
        and r.computed["V"] < 0
        and r.computed["V_1e2"] > r.computed["V_1e4"] > r.computed["V_1e6"]
        and coeff_exact
    )
    _report(5, "symmetrized divergence is not additive (negative, diverging)",
            ok, f"V(1e-4) = {r.computed['V']:.4f}")


def test_c06_truncated_calculus_bound():
    rng = np.random.default_rng(106)
    ok = True
    worst_ratio = 0.0
    for i in range(20):
        m = int(rng.integers(2, 5))
        gen = random_lindblad(m, 2, rng, scale=0.55)
        t0 = return_time(gen)
        sigmas = [0.5, 1.0 / max(math.log(t0), 1.0)]
        norm_l = gen.superop.norm
        for eps in (1e-2, 1e-4):
            for sigma in sigmas:
                b = eps_sigma_generator(gen, math.log(eps), sigma)
                bound = (2.0 / sigma + norm_l**2) / (2.0 * abs(math.log(eps)))
                ratio = (gen.superop - b).norm / bound
                worst_ratio = max(worst_ratio, ratio)
                ok &= ratio <= 1.0 + 1e-10
    # scalar brackets for the two integral pieces
    eps, sigma = 1e-3, 0.8
    le = abs(math.log(eps))
    for lam in np.random.default_rng(1061).uniform(0.01, 6.0, size=100):
        _, psi, psit = eps_sigma_scalar(math.log(eps), sigma, lam)
        ok &= le * lam - lam**2 / 2 - 1e-10 <= psi <= le * lam + 1e-10
        ok &= -1e-12 <= psit <= 1.0 / sigma + 1e-12
    _report(6, "truncated-calculus distance bound and scalar brackets",
            ok, f"worst distance/bound = {worst_ratio:.3f}")


def test_c07_dense_approximants():
    rng = np.random.default_rng(107)
    ok = True
    detail = []
    for m in (2, 3, 4):
        gen = random_lindblad(m, 2, rng, scale=0.5)
        for eps in (0.1, 0.01):
            _, rep = density_approximation(gen, eps)
            ok &= rep["distance"] <= eps
            ok &= rep["lambda_gamma_e"] >= rep["predicted_floor"] - 1e-6
        detail.append(f"m={m} ok")
    _report(7, "norm-close approximants with certified gradient floors",
            ok, "; ".join(detail))


def test_c08_entropy_decay_bounds():
    ok = True
    detail = []
    for name, gen in ZOO.items():
        lam = gamma_e_constant(gen).lambda_star
        rep = check_decay_bound(gen, lam, n_states=50, seed=108)
        ok &= rep["passed"]
        detail.append(f"{name}: slack {rep['slack']:.1e}")
    # the random zoo certifies 0; its fractional powers certify positive rates
    for (name, th), (a_th, n, lam) in SUBORDINATED.items():
        rep = check_decay_bound((a_th, n), lam, n_states=20, seed=108)
        ok &= lam > 0.1 and rep["passed"]
        detail.append(f"{name} A^{th}: rate {lam:.3f} slack {rep['slack']:.1e}")
    _report(8, "relative entropy and Fisher information decay at the certified rate",
            ok, "; ".join(detail))


def test_c09_lp_decay():
    ok = True
    worst = 0.0
    for name, gen in ZOO.items():
        lam = gamma_e_constant(gen).lambda_star
        rep = check_lp_decay(gen, lam, n_x=50, seed=109)
        ok &= rep["passed"]
        worst = max(worst, rep["slack"])
    for a_th, n, lam in SUBORDINATED.values():
        rep = check_lp_decay((a_th, n), lam, n_x=20, seed=109)
        ok &= lam > 0.1 and rep["passed"]
        worst = max(worst, rep["slack"])
    # exact equality for the depolarizing semigroup
    gen = ZOO["depolarizing_m2"]
    rng = np.random.default_rng(1091)
    x = random_hermitian(2, rng)
    x0 = x - gen.e_fix.apply(x)
    eq_err = 0.0
    for p in (1.0, 2.0, 4.0, math.inf):
        base = schatten_norm(x0, p)
        for t in (0.4, 1.0):
            val = schatten_norm(semigroup_apply(gen.superop, t, x0), p)
            eq_err = max(eq_err, abs(val - math.exp(-t) * base))
    ok &= eq_err <= 1e-10
    _report(9, "p-norm distance to equilibrium decays at the certified rate",
            ok, f"max slack {worst:.1e}; depolarizing equality err {eq_err:.1e}")


def test_c10_chain_consistency():
    ok = True
    detail = []
    # the random zoo certifies exactly 0, which any bracket dominates; its
    # A^0.5 pairs certify positive rates, so they are compared instead
    cases = [(name, gen, gamma_e_constant(gen).lambda_star)
             for name, gen in ZOO.items() if not name.startswith("random")]
    cases += [(f"{name} A^{th}", (a_th, n), lam)
              for (name, th), (a_th, n, lam) in SUBORDINATED.items() if th == 0.5]
    for name, gen, lam_star in cases:
        est = flsi_estimate(gen, n_starts=6, seed=110, n_validate=10_000)
        ok &= lam_star > 0.1 and est.lambda_upper >= lam_star - 1e-6
        detail.append(f"{name}: {lam_star:.3f} <= {est.lambda_upper:.3f}")
        if name == "depolarizing_m2":
            ok &= est.lambda_upper >= 1.0 - 1e-6
    _report(10, "decay-constant bracket dominates the pencil certificate",
            ok, "; ".join(detail))


# (A, N) for the zoo and the A^0.5 pairs of criterion 10
FLSI_PAIRS = {name: (gen.superop, gen.fixed_algebra) for name, gen in ZOO.items()}
FLSI_PAIRS.update({f"{name} A^0.5": (a_th, n) for (name, th), (a_th, n, _) in SUBORDINATED.items()
                   if th == 0.5})


@pytest.mark.parametrize("name", FLSI_PAIRS)
def test_c10_upper_end_is_the_ratio_at_its_state(name):
    # lambda_upper must be a ratio evaluated at argmin_state, a state that clears
    # the D_N floor, never an iterate the optimizer merely stopped at
    a, n = FLSI_PAIRS[name]
    est = flsi_estimate((a, n), n_starts=6, seed=110, n_validate=0)
    d_val = d_sub(est.argmin_state, n)
    assert d_val >= D_N_ZERO
    assert fisher(a, est.argmin_state) / d_val == pytest.approx(est.lambda_upper, rel=1e-9)


def test_c11_order_oracle_never_contradicted():
    rng = np.random.default_rng(111)
    violations = 0
    tested = 0
    for i in range(1000):
        m = 2 + i % 2
        j1 = random_lindblad(m, 2, rng).jumps
        j2 = random_lindblad(m, 2 + (i // 2) % 2, rng).jumps
        q1 = kernel_from_jumps(j1.jumps)
        q2 = kernel_from_jumps(j2.jumps)
        lam_star = best_lambda(q1, q2).lambda_star
        lam = lam_star if i % 2 == 0 else rng.uniform(0.0, 1.0) * lam_star
        if lam <= 0 or not cp_order_holds(q1, q2, lam):
            continue
        diff = lambda x, y: gradient_form(j2, x, y) - lam * gradient_form(j1, x, y)
        xs = [
            [random_hermitian(m, rng) + 1j * random_hermitian(m, rng) for _ in range(2)]
            for _ in range(2)
        ]
        wmin, _ = amplified_min_eig(diff, xs, m)
        tested += 1
        if wmin < -1e-7:
            violations += 1
    _report(11, "kernel order decision never contradicted by matrix amplification",
            violations == 0, f"{tested} kernel-passing instances sampled")


def test_c12_subordination_structure():
    ok = True
    # nullspace preservation for fractional powers
    worst_gap = 0.0
    for gen in (ZOO["dephasing_m2"], ZOO["random_2jump_m3"]):
        ns = nullspace_basis(gen.superop.matrix)
        for th in (0.25, 0.5, 0.75):
            ns_th = nullspace_basis(fractional_power(gen, th).matrix)
            worst_gap = max(worst_gap, subspace_gap(ns, ns_th))
    ok &= worst_gap <= 1e-8
    # gradient domination of the normalized approximants, and the floor at t0
    prof = WeightProfile.power_law(0.5)
    worst_ccc = 0.0
    worst_floor = 0.0
    for gen in (ZOO["dephasing_m2"], ZOO["random_2jump_m3"]):
        m = gen.dim
        k_phi = kernel_from_superop(subordinated_generator(gen, prof))
        for r in (1.0, 0.1, 0.01):
            psi, g_r = psi_r_map(gen, prof, r)
            k_psi = kernel_from_superop(g_r * (identity_superop(m) - psi))
            worst_ccc = min(worst_ccc, np.linalg.eigvalsh(k_phi.q - k_psi.q).min())
        t0 = return_time(gen)
        t_alpha, c_alpha = 1e-6, 1.0  # the power law's exact doubling constants
        r0 = max(t0, t_alpha)
        floor = prof.f(r0) / (2.0 * 0.5 * c_alpha)
        k_e = kernel_ie(gen.fixed_algebra)
        worst_floor = min(
            worst_floor, np.linalg.eigvalsh(k_phi.q - floor * k_e.q).min()
        )
    ok &= worst_ccc >= -1e-7 and worst_floor >= -1e-7
    _report(12, "fractional powers and weighted calculus keep the gradient order",
            ok, f"nullspace gap {worst_gap:.1e}; min eigs {worst_ccc:.1e}, {worst_floor:.1e}")


def test_c13_transport_and_concentration():
    # both ends of the dual-norm bracket against 4 sqrt(2 D_N / lambda); the
    # dephasing draws share the stream with the concentration draws below
    rng = np.random.default_rng(113)
    ok = True
    worst = -math.inf
    for name in ("dephasing_m2", "depolarizing_m2", "depolarizing_m3"):
        gen = ZOO[name]
        lam = gamma_e_constant(gen).lambda_star
        draw = rng if name == "dephasing_m2" else np.random.default_rng([113, gen.dim])
        for _ in range(100):
            rho = random_state(gen.dim, draw, spread=0.5 + draw.random())
            lower, upper = gamma_dual_norm(gen, rho - gen.e_fix.apply(rho))
            bound = 4.0 * math.sqrt(2.0 * d_sub(rho, gen.fixed_algebra) / lam)
            worst = max(worst, upper - bound)
            ok &= lower <= bound + 1e-6 and upper <= bound + 1e-6
    # geometric concentration over random projection pairs
    gen2 = ZOO["depolarizing_m2"]
    lam2 = gamma_e_constant(gen2).lambda_star
    failures = 0
    for _ in range(1000):
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        e1 = u @ np.diag([1.0, 0.0]).astype(complex) @ u.conj().T
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        e2 = v @ np.diag([1.0, 0.0]).astype(complex) @ v.conj().T
        f = random_hermitian(2, rng)
        f = f - gen2.e_fix.apply(f)
        f = (f + f.conj().T) / 2
        g = gradient_form(gen2.jumps, f, f)
        lip = np.linalg.eigvalsh((g + g.conj().T) / 2).max()
        if lip > 1.0:
            f = f / math.sqrt(lip)
        rep = geometric_talagrand_check(gen2, lam2, e1, e2, f)
        failures += 0 if rep["passed"] else 1
    ok &= failures == 0
    _report(13, "dual-norm transport bound and geometric concentration",
            ok, f"worst transport slack {worst:.2e}; {failures} concentration failures")


def test_c14_reproducibility():
    gen = ZOO["dephasing_m2"]
    docs = [
        dump_json(flsi_estimate(gen, n_starts=3, seed=114, n_validate=500).to_json())
        for _ in range(2)
    ]
    ok = docs[0] == docs[1]
    reps = [
        dump_json(check_decay_bound(gen, 1.0, n_states=5, seed=114)) for _ in range(2)
    ]
    ok &= reps[0] == reps[1]
    rho0 = np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -0.3]])
    vals = [gamma_dual_norm(gen, rho0) for _ in range(2)]
    ok &= vals[0] == vals[1]
    from qmsemi.casebook import run_case

    cases = [dump_json(run_case("depolarizing", seed=114).to_json()) for _ in range(2)]
    ok &= cases[0] == cases[1]
    _report(14, "stochastic runs are byte-identical under a fixed seed", ok)
