import math

import numpy as np
import pytest

from kernel_oracle import gradient_form_ie, gradient_form_weak
from superop_oracle import superop_from_action
from qmsemi.algebra import commutant, scalar_algebra
from qmsemi.cporder import return_time
from qmsemi.generator import (
    JumpSet,
    derivation,
    gradient_form,
    jump_set,
    lindblad,
    spectral_gap,
    validate_generator,
)
from qmsemi.matops import (
    identity_superop,
    is_hermitian,
    make_superop,
    norm_trace,
    nullspace_basis,
    random_hermitian,
    semigroup_apply,
    subspace_gap,
)
from qmsemi.models import dephasing_generator, depolarizing_generator, pauli, random_lindblad
from qmsemi.subordinate import fractional_power


def test_lindblad_dephasing_action():
    gen = dephasing_generator(2)
    assert np.abs(gen.superop.apply(pauli("x")) - 4 * pauli("x")).max() < 1e-12
    assert np.abs(gen.superop.apply(pauli("z"))).max() < 1e-12
    assert np.abs(gen.superop.apply(np.eye(2))).max() < 1e-12


def test_lindblad_trivial_jump_sets():
    empty = lindblad(jump_set([], m=3))
    assert np.abs(empty.superop.matrix).max() < 1e-12
    assert empty.fixed_algebra.size == 9
    ident = lindblad(jump_set(np.eye(3, dtype=complex)))
    assert np.abs(ident.superop.matrix).max() < 1e-12


def test_jump_set_rejects_non_hermitian():
    with pytest.raises(ValueError):
        JumpSet(dim=2, jumps=np.array([[[0, 1], [0, 0]]], dtype=complex))


def test_jump_set_names_the_first_bad_jump_against_its_own_floor():
    # jump 1 is off by 1e-10 < HERMITIAN * 1e3 but > HERMITIAN * 1: bad against its own floor
    jumps = np.array([1e3 * pauli("x"), pauli("z"), pauli("z"), np.diag([1.0, 1e3])])
    jumps[1, 0, 1] += 1e-10
    jumps[2, 0, 1] += 1e-10
    with pytest.raises(ValueError, match="^jump operator 1 is not Hermitian$"):
        JumpSet(dim=2, jumps=jumps)
    jumps[3, 0, 1] += 1e-10  # below jump 3's own floor, so only 1 and 2 are bad
    jumps[1, 0, 1] = jumps[2, 0, 1] = 0.0
    assert JumpSet(dim=2, jumps=jumps).size == 4


def test_jump_set_check_matches_the_per_jump_loop():
    """The stacked check accepts and rejects as is_hermitian does jump by jump."""
    rng = np.random.default_rng(3202)
    for _ in range(400):
        m, r = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        jumps = random_hermitian(m, rng, 10.0 ** rng.uniform(-3, 3, size=r))
        for k in np.flatnonzero(rng.random(r) < 0.5):
            i, j = rng.integers(0, m, size=2)
            jumps[k, i, j] += 10.0 ** rng.uniform(-15, -8) * rng.choice([1, 1j])
        if rng.random() < 0.05:
            jumps[rng.integers(0, r), 0, 0] = np.nan
        bad = [k for k, a in enumerate(jumps) if not is_hermitian(a)]
        if bad:
            with pytest.raises(ValueError, match=f"^jump operator {bad[0]} is not Hermitian$"):
                JumpSet(dim=m, jumps=jumps)
        else:
            assert JumpSet(dim=m, jumps=jumps).size == r


def _shortcut_cases(zoo):
    rng = np.random.default_rng(3201)
    cases = {f"zoo/{name}": gen.jumps for name, gen in zoo.items()}
    for m in (2, 3, 4, 5, 6, 7, 8, 15):
        for k in (2, 3):
            cases[f"random/m{m}/{k}"] = jump_set(random_hermitian(m, rng, np.ones(k)))
    for m in range(2, 7):
        cases[f"depolarizing/m{m}"] = depolarizing_generator(m).jumps
    return cases


def test_fixed_algebra_keeps_the_bits_of_the_commutant(zoo):
    """N = C 1 read off the generator's spectrum is the commutant's basis, bit for bit."""
    for name, jumps in _shortcut_cases(zoo).items():
        got = lindblad(jumps).fixed_algebra.basis
        ref = commutant(list(jumps.jumps), jumps.dim).basis
        assert got.shape == ref.shape and got.dtype == ref.dtype, name
        assert got.tobytes() == ref.tobytes(), name


@pytest.mark.parametrize("eps, size", [(1e-6, 1), (1e-8, 1), (1e-10, 2)])
def test_fixed_algebra_where_null_modes_and_the_svd_disagree(eps, size):
    # the generator's eigenvalue 4 eps^2 is at most PSD ||A|| at each eps here, while the
    # commutator stack's singular value ~eps clears the SVD cutoff down to eps ~ 1e-9
    jumps = jump_set([np.diag([1.0, 2.0]).astype(complex), eps * pauli("x")])
    got = lindblad(jumps).fixed_algebra.basis
    ref = commutant(list(jumps.jumps), 2).basis
    assert got.shape[0] == size
    assert got.tobytes() == ref.tobytes()


def test_ergodic_generator_takes_no_svd(zoo, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("an ergodic generator ran an SVD")

    cases = {k: v for k, v in _shortcut_cases(zoo).items() if "dephasing" not in k}
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for name, jumps in cases.items():
        assert lindblad(jumps).fixed_algebra.size == 1, name
    with pytest.raises(AssertionError, match="ran an SVD"):  # dim N = 2 still takes it
        lindblad(dephasing_generator(2).jumps)


def test_derivation_values_and_leibniz():
    gen = dephasing_generator(2)
    assert np.abs(derivation(gen.jumps, np.eye(2, dtype=complex))).max() < 1e-14
    d = derivation(gen.jumps, pauli("x"))
    assert np.abs(d[0] - 2j * pauli("y")).max() < 1e-12
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = random_hermitian(2, rng) + 1j * random_hermitian(2, rng)
        y = random_hermitian(2, rng) + 1j * random_hermitian(2, rng)
        lhs = derivation(gen.jumps, x @ y)
        rhs = derivation(gen.jumps, x) @ y + np.einsum(
            "ij,kjl->kil", x, derivation(gen.jumps, y)
        )
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


def test_derivation_star_relation():
    rng = np.random.default_rng(1)
    gen = random_lindblad(3, 2, rng)
    x = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
    lhs = derivation(gen.jumps, x.conj().T)
    rhs = -np.transpose(derivation(gen.jumps, x).conj(), (0, 2, 1))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_gradient_form_values():
    gen = dephasing_generator(2)
    assert np.abs(gradient_form(gen.jumps, np.eye(2), np.eye(2))).max() < 1e-14
    g = gradient_form(gen.jumps, pauli("x"), pauli("x"))
    assert np.abs(g - 4 * np.eye(2)).max() < 1e-12


def test_gradient_form_weak_consistency():
    # tau(Gamma(x,y) z) agrees with the weak definition through the generator
    rng = np.random.default_rng(2)
    gen = random_lindblad(3, 2, rng)
    a = gen.superop
    for _ in range(10):
        x = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        y = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        z = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        lhs = norm_trace(gradient_form(gen.jumps, x, y) @ z)
        rhs = 0.5 * (
            norm_trace(a.apply(x).conj().T @ y @ z)
            + norm_trace(x.conj().T @ a.apply(y) @ z)
            - norm_trace(x.conj().T @ y @ a.apply(z))
        )
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))
        weak = gradient_form_weak(a, x, y)
        assert np.abs(weak - gradient_form(gen.jumps, x, y)).max() < 1e-10


def test_gradient_form_ie_cases():
    n = scalar_algebra(3)
    rng = np.random.default_rng(3)
    assert np.abs(gradient_form_ie(n, np.eye(3), np.eye(3))).max() < 1e-14
    x = random_hermitian(3, rng)
    x -= norm_trace(x).real * np.eye(3)
    expected = 0.5 * (x @ x + norm_trace(x @ x) * np.eye(3))
    assert np.abs(gradient_form_ie(n, x, x) - expected).max() < 1e-12
    for _ in range(100):
        y = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        g = gradient_form_ie(n, y, y)
        assert np.linalg.eigvalsh((g + g.conj().T) / 2).min() >= -1e-10


def test_validate_generator_reports():
    gen = dephasing_generator(2)
    report = validate_generator(gen.superop)
    assert report["all_passed"]
    bad = -1.0 * (identity_superop(2) - scalar_algebra(2).expectation)
    report = validate_generator(bad)
    assert not report["psd"]
    # a Hermitian superop without Lindblad structure: flagged, not asserted
    rng = np.random.default_rng(4)
    h = random_hermitian(4, rng)
    rogue = make_superop(h, 2)
    validate_generator(rogue)


def test_spectral_gap_values():
    n = scalar_algebra(2)
    assert spectral_gap((identity_superop(2) - n.expectation, n)) == pytest.approx(1.0)
    assert spectral_gap(dephasing_generator(2)) == pytest.approx(4.0)
    assert spectral_gap((make_superop(np.zeros((4, 4)), 2), n)) == 0.0
    assert spectral_gap(lindblad(jump_set([], m=2))) == 0.0  # no mode off N = M_2


# the zoo's spectral gaps as float.hex: reading them at index dim N moves no bit
ZOO_GAPS = {
    "dephasing_m2": "0x1.0000000000000p+2",
    "depolarizing_m2": "0x1.ffffffffffffcp-1",
    "depolarizing_m3": "0x1.0000000000002p+0",
    "random_2jump_m3": "0x1.8631f3f10d174p-1",
    "random_2jump_m4": "0x1.6e22525c229d2p-5",
}


def test_the_zoo_gaps_are_unchanged_to_the_bit(zoo):
    assert {name: spectral_gap(gen).hex() for name, gen in zoo.items()} == ZOO_GAPS


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_the_dim_n_lowest_modes_are_null_and_no_other(eps):
    # {diag(1, 2), eps sigma_x}: N = C 1, and w[1] = 4 eps^2 falls from above PSD ||A||
    # (eps = 1e-4) to rounding (eps = 1e-8); only N decides that w[1] is not null
    gen = lindblad(jump_set([np.diag([1.0, 2.0]).astype(complex), eps * pauli("x")]))
    w, _ = gen.superop.eig
    assert gen.fixed_algebra.size == 1
    assert spectral_gap(gen) == w[1] > 0.0
    assert nullspace_basis(fractional_power(gen, 0.5).matrix).shape[1] == 1
    if eps == 1e-4:
        assert math.isfinite(return_time(gen))
    else:
        with pytest.raises(ValueError, match="no spectral gap"):
            return_time(gen)


def test_dirichlet_identity():
    rng = np.random.default_rng(5)
    gen = random_lindblad(3, 2, rng)
    for _ in range(10):
        x = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        y = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
        lhs = norm_trace(x.conj().T @ gen.superop.apply(y))
        rhs = norm_trace(gradient_form(gen.jumps, x, y))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_fixed_algebra_is_nullspace():
    rng = np.random.default_rng(6)
    for gen in (dephasing_generator(2), random_lindblad(3, 2, rng)):
        ns = nullspace_basis(gen.superop.matrix)
        fix = np.column_stack([b.reshape(-1) for b in gen.fixed_algebra.basis])
        assert subspace_gap(ns, fix) < 1e-8


def test_gradient_vanishes_exactly_on_fixed_algebra():
    rng = np.random.default_rng(7)
    gen = random_lindblad(4, 2, rng)
    for b in gen.fixed_algebra.basis:
        assert np.abs(gradient_form(gen.jumps, b, b)).max() < 1e-10
    # and conversely a random non-fixed element has positive energy
    x = random_hermitian(4, rng)
    x -= gen.fixed_algebra.project(x)
    if np.abs(x).max() > 1e-6:
        g = gradient_form(gen.jumps, x, x)
        assert np.linalg.eigvalsh((g + g.conj().T) / 2).max() > 1e-8


def test_semigroup_commutes_with_expectation():
    rng = np.random.default_rng(8)
    for gen in (dephasing_generator(2), depolarizing_generator(3),
                random_lindblad(3, 2, rng)):
        e = gen.e_fix
        w, v = gen.superop.eig
        for t in (0.5, 2.0):
            t_mat = (v * np.exp(-t * w)) @ v.conj().T
            assert np.abs(t_mat @ e.matrix - e.matrix).max() < 1e-9
            assert np.abs(e.matrix @ t_mat - e.matrix).max() < 1e-9


def test_lindblad_superop_is_psd():
    rng = np.random.default_rng(9)
    for _ in range(5):
        gen = random_lindblad(3, 2, rng)
        w, _ = gen.superop.eig
        assert w.min() >= -1e-10 * max(1.0, np.abs(w).max())


def test_lindblad_closed_form_matches_defining_action():
    rng = np.random.default_rng(10)
    gens = [random_lindblad(m, 2, rng) for m in (2, 3, 4, 6)]
    gens += [depolarizing_generator(4), dephasing_generator(3), lindblad(jump_set([], 3))]
    for gen in gens:
        a = gen.jumps.jumps
        sq = np.einsum("kij,kjl->il", a, a)

        def action(x):
            return sq @ x + x @ sq - 2.0 * np.einsum("kij,jl,klp->ip", a, x, a)

        ref = superop_from_action(action, gen.dim).matrix
        assert np.abs(gen.superop.matrix - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1.0)
