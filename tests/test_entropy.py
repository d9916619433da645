import math
import re

import numpy as np
import pytest

from conftest import make_zoo, random_degenerate_commutant
from qmsemi.algebra import diagonal_algebra, scalar_algebra
from qmsemi.entropy import (
    ILL_DEFINED,
    d_sub,
    default_grid,
    expectation_entropy,
    fisher,
    fisher_n,
    relative_entropy,
    simulate_decay,
    spectral_terms,
    sub_terms,
)
from qmsemi.generator import JumpSet, derivation, lindblad
from qmsemi.matops import (
    divided_difference_multiplier,
    identity_superop,
    make_state,
    make_superop,
    norm_trace,
    random_hermitian,
    random_state,
    semigroup_apply,
)
from qmsemi.models import depolarizing_generator, pauli, random_lindblad
from qmsemi.subordinate import fractional_power
from qmsemi.tolerances import PSD


def test_relative_entropy_of_state_with_itself():
    rng = np.random.default_rng(0)
    rho = random_state(3, rng)
    assert abs(relative_entropy(rho, rho)) < 1e-12


def test_relative_entropy_scalar_value():
    rho = np.diag([1.5, 0.5]).astype(complex)
    expected = (1.5 * math.log(1.5) + 0.5 * math.log(0.5)) / 2
    assert relative_entropy(rho, np.eye(2, dtype=complex)) == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_support_violation_is_infinite():
    rho = np.diag([2.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 2.0]).astype(complex)
    assert relative_entropy(rho, sigma) == math.inf


def test_relative_entropy_rejects_negative():
    with pytest.raises(ValueError):
        relative_entropy(np.diag([1.5, -0.5]).astype(complex), np.eye(2, dtype=complex))


def test_relative_entropy_nonnegative_same_trace():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rho, sigma = random_state(3, rng), random_state(3, rng)
        assert relative_entropy(rho, sigma) >= -1e-12


def test_d_sub_values():
    n = scalar_algebra(2)
    assert d_sub(make_state(np.eye(2, dtype=complex)), n) < 1e-12
    rho = np.diag([2.0, 0.0]).astype(complex)
    assert d_sub(rho, n) == pytest.approx(math.log(2), abs=1e-12)


def test_d_sub_is_the_entropic_projection():
    # D(rho||E rho) <= D(rho||sigma) for every state sigma in N
    rng = np.random.default_rng(2)
    n = diagonal_algebra(3)
    rho = random_state(3, rng)
    base = d_sub(rho, n)
    for _ in range(20):
        sigma = n.expectation.apply(random_state(3, rng))
        sigma = make_state((sigma + sigma.conj().T) / 2)
        assert base <= relative_entropy(rho, sigma) + 1e-9


def test_fisher_vanishes_at_fixed_point():
    gen = depolarizing_generator(3)
    assert abs(fisher(gen.superop, make_state(np.eye(3, dtype=complex)))) < 1e-12


def test_fisher_symmetrized_divergence_identity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        n = random_degenerate_commutant(m, rng)
        rho = random_state(m, rng)
        e_rho = n.expectation.apply(rho)
        lhs = fisher_n(n, rho)
        rhs = relative_entropy(rho, e_rho) + relative_entropy(e_rho, rho)
        assert abs(lhs - rhs) < 1e-10
        assert lhs >= d_sub(rho, n) - 1e-10


def test_fisher_positive_on_random_states():
    rng = np.random.default_rng(4)
    for _ in range(20):
        gen = random_lindblad(3, 2, rng)
        rho = random_state(3, rng)
        assert fisher(gen.superop, rho) >= -1e-10


def test_fisher_singular_state_branches():
    gen = depolarizing_generator(2)
    # A = I - E_tau, so at rho = diag(1 + s, 1 - s) I = (s / 2) ln((1 + s) / (1 - s))
    assert fisher(gen.superop, np.diag([1.5, 0.5]).astype(complex)) == pytest.approx(
        0.25 * math.log(3.0), rel=1e-12)
    # A(rho) has weight on the kernel of rho: the logarithm diverges there
    with pytest.raises(ValueError, match="^ill-defined Fisher information"):
        fisher(gen.superop, np.diag([2.0, 0.0]).astype(complex))
    # sigma_x + 0 mixes e_1 and e_2 only: at rho = diag(2, 1, 0), A(rho) = diag(2, -2, 0)
    # misses the kernel and the support-restricted I is (2 ln 2 - 2 ln 1) / 3
    a = np.zeros((1, 3, 3), dtype=complex)
    a[0, :2, :2] = pauli("x")
    block = lindblad(JumpSet(dim=3, jumps=a)).superop
    assert fisher(block, np.diag([2.0, 1.0, 0.0]).astype(complex)) == pytest.approx(
        2.0 * math.log(2.0) / 3.0, rel=1e-12)


def test_fisher_identity_on_near_pure_states():
    n = scalar_algebra(3)
    rho = make_state(np.diag([3.0 - 2e-6, 1e-6, 1e-6]).astype(complex))
    lhs = fisher_n(n, rho)
    e_rho = n.expectation.apply(rho)
    rhs = relative_entropy(rho, e_rho) + relative_entropy(e_rho, rho)
    assert abs(lhs - rhs) < 1e-10


def test_simulate_decay_flags_positivity_violation():
    # e^{t(I-E)} is not completely positive: states leave the cone, and A = -(I - E) is
    # refused by the Markov-pair guard before any state is evolved
    n = scalar_algebra(2)
    a = -1.0 * (identity_superop(2) - n.expectation)
    rho0 = make_state(np.diag([1.9, 0.1]).astype(complex))
    with pytest.raises(ValueError, match="not a quantum Markov generator: psd fails"):
        simulate_decay((a, n), rho0, np.array([0.5, 2.0, 6.0]), 0.0)


def test_fisher_via_divided_difference_route():
    # tau(A(rho) ln rho) = sum_k tau(d_k(rho)* J_log(d_k(rho)))
    rng = np.random.default_rng(5)
    for _ in range(5):
        gen = random_lindblad(3, 2, rng)
        rho = random_state(3, rng)
        direct = fisher(gen.superop, rho)
        d = derivation(gen.jumps, rho)
        alt = sum(
            norm_trace(
                dk.conj().T
                @ divided_difference_multiplier(rho, np.log, dk, fprime=lambda s: 1 / s)
            ).real
            for dk in d
        )
        assert abs(direct - alt) < 1e-8


def test_simulate_decay_zero_generator():
    n = scalar_algebra(2)
    a = make_superop(np.zeros((4, 4)), 2)
    rng = np.random.default_rng(6)
    rho = random_state(2, rng)
    trace = simulate_decay((a, n), rho, np.array([0.1, 1.0, 2.0]), 0.0)
    assert np.ptp(trace.d_n) < 1e-12


def test_simulate_decay_depolarizing_closed_form():
    m = 2
    gen = depolarizing_generator(m)
    rng = np.random.default_rng(7)
    rho0 = random_state(m, rng)
    grid = default_grid(1.0, n=20)
    trace = simulate_decay(gen, rho0, grid, lam=1.0)
    for t, d in zip(trace.times, trace.d_n):
        rho_t = math.exp(-t) * rho0 + (1 - math.exp(-t)) * np.eye(m)
        assert d == pytest.approx(d_sub(rho_t, gen.fixed_algebra), abs=1e-10)
    assert np.all(np.diff(trace.d_n) <= 1e-12)  # monotone decreasing


def test_simulate_decay_monotone_for_random_models():
    rng = np.random.default_rng(8)
    for _ in range(5):
        gen = random_lindblad(3, 2, rng, scale=0.7)
        rho0 = random_state(3, rng)
        trace = simulate_decay(gen, rho0, default_grid(1.0, n=25), 0.0)
        assert np.all(trace.d_n >= -1e-10)
        assert np.all(trace.i_a >= -1e-9)
        assert np.all(np.diff(trace.d_n) <= 1e-9)


@pytest.mark.parametrize("name, want", [
    ("random_2jump_m3", [("eigvalsh", ()), ("eigh", (25,))]),
    ("dephasing_m2", [("eigvalsh", ()), ("eigvalsh", ()), ("eigh", (25,))]),
])
def test_simulate_decay_diagonalizes_sigma_only_when_dim_n_exceeds_one(
        zoo, name, want, monkeypatch):
    # D_N = tau(rho ln rho) - tau(sigma ln sigma) reads off the eigenvalues of rho0 and of
    # the rho_t stack, and sigma = E(rho0) is diagonalized once, eigenvalues only, unless
    # N = C 1, where sigma = 1 and its term is 0
    gen = zoo[name]
    _ = gen.superop.eig  # the cached superoperator eigensolve, taken first
    rho0 = random_state(gen.dim, np.random.default_rng(11))
    calls = []

    def counted(solver_name):
        solver = getattr(np.linalg, solver_name)

        def wrapper(x, *args, **kwargs):
            calls.append((solver_name, x.shape[:-2]))
            return solver(x, *args, **kwargs)
        return wrapper

    for solver_name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, solver_name, counted(solver_name))
    simulate_decay(gen, rho0, default_grid(1.0, n=25), 0.0)
    assert calls == want


@pytest.mark.parametrize("t", [1e-10, 1e-8])
def test_decay_from_a_pure_state_is_ill_defined_while_its_kernel_is_under_the_floor(t):
    # depolarizing from rho0 = diag(2, 0): rho_t has spectrum 1 +- e^{-t}, so its small
    # eigenvalue is about t.  At or below PSD (relative) it is off the support, A(rho_t)
    # leaks onto it and the point raises; above it I_A has the closed form below.
    gen = depolarizing_generator(2)
    rho0 = make_state(np.diag([1.0, 0.0]).astype(complex))
    if t <= PSD:
        with pytest.raises(ValueError, match="ill-defined Fisher information"):
            simulate_decay(gen, rho0, np.array([t]), 0.0)
        return
    trace = simulate_decay(gen, rho0, np.array([t]), 0.0)
    q = math.exp(-t)
    assert trace.i_a[0] == pytest.approx(0.5 * q * math.log((1 + q) / (1 - q)), rel=1e-6)


def test_simulate_decay_rejects_bad_grid():
    gen = depolarizing_generator(2)
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        simulate_decay(gen, random_state(2, rng), np.array([1.0, 0.5]), 0.0)


def test_decay_trace_csv_format():
    gen = depolarizing_generator(2)
    rng = np.random.default_rng(10)
    trace = simulate_decay(gen, random_state(2, rng), np.array([0.5]), lam=1.0)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "t,D_N,I_A,bound"
    assert len(lines) == 2
    assert len(lines[1].split(",")) == 4


def test_data_processing_along_semigroup():
    rng = np.random.default_rng(11)
    gen = random_lindblad(3, 2, rng)
    for _ in range(10):
        rho, sigma = random_state(3, rng), random_state(3, rng)
        base = relative_entropy(rho, sigma)
        for t in (0.3, 1.0):
            rho_t = semigroup_apply(gen.superop, t, rho)
            sigma_t = semigroup_apply(gen.superop, t, sigma)
            rho_t = (rho_t + rho_t.conj().T) / 2
            sigma_t = (sigma_t + sigma_t.conj().T) / 2
            assert relative_entropy(rho_t, sigma_t) <= base + 1e-9


def test_fisher_n_scalar_example():
    n = scalar_algebra(2)
    rho = make_state(np.diag([1.6, 0.4]).astype(complex))
    one = make_state(np.eye(2, dtype=complex))
    expected = relative_entropy(rho, one) + relative_entropy(one, rho)
    assert fisher_n(n, rho) == pytest.approx(expected, abs=1e-12)


def _ergodic_pairs():
    """(A, N = C 1) named: the zoo members that fix only the scalars, depolarizing and a
    random generator at m = 6, and the A^theta of each."""
    gens = {name: gen for name, gen in make_zoo().items() if gen.fixed_algebra.size == 1}
    gens["depolarizing_m6"] = depolarizing_generator(6)
    gens["random_2jump_m6"] = random_lindblad(6, 2, np.random.default_rng(6), scale=0.5)
    for name, gen in gens.items():
        yield pytest.param(gen.superop, gen.fixed_algebra, id=name)
        for th in (0.25, 0.5):
            yield pytest.param(fractional_power(gen, th), gen.fixed_algebra,
                               id=f"{name}^{th}")


@pytest.mark.parametrize("a, n", list(_ergodic_pairs()))
def test_ergodic_terms_match_the_terms_through_sigma(a, n):
    # E(rho) = 1 for N = C 1: the spectrum alone gives D(rho||E rho) and tau((rho - E rho) ln rho)
    assert n.size == 1
    rho0 = random_state(a.dim, np.random.default_rng(8), np.array([0.5, 1.0, 1.5]))
    rho = semigroup_apply(a, default_grid(1.0, n=12), rho0)  # (t, state, m, m)
    rho = np.concatenate([rho0[None], (rho + rho.conj().swapaxes(-1, -2)) / 2.0])
    sigma = n.expectation.apply(rho)
    want = spectral_terms(rho, np.linalg.eigh(rho), np.linalg.eigh(sigma), rho - sigma)
    got = sub_terms(n, rho, None, rho, expectation_entropy(n, rho, False)[0])
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def _diagonal_states(w):
    """Diagonal states with the spectra w (..., m)."""
    w = np.asarray(w, dtype=float)
    return w[..., None] * np.eye(w.shape[-1])


def test_ergodic_terms_in_a_chart_are_the_spectral_sums():
    r = np.array([[0.5, 1.5], [1.0, 1.0]])
    rho = _diagonal_states(r)
    d, i = sub_terms(scalar_algebra(2), rho, (r, np.eye(2), np.log(r)), rho, np.zeros(2))
    assert d[0] == pytest.approx((0.5 * math.log(0.5) + 1.5 * math.log(1.5)) / 2, rel=1e-15)
    assert i[0] == pytest.approx((-0.5 * math.log(0.5) + 0.5 * math.log(1.5)) / 2, rel=1e-15)
    assert (d[1], i[1]) == (0.0, 0.0)


def test_ergodic_terms_keep_the_support_rules():
    def terms(w):
        rho = _diagonal_states(w)
        return sub_terms(scalar_algebra(rho.shape[-1]), rho, None, rho, 0.0)

    # rho - 1 weighs -1 on a zero eigenvalue, so I_N is ill-defined there
    with pytest.raises(ValueError, match=re.escape(ILL_DEFINED)):
        terms([[0.5, 1.5], [0.0, 2.0]])
    with pytest.raises(ValueError, match=re.escape(ILL_DEFINED)):
        terms([0.5 * PSD, 2.0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        terms([-1e-6, 2.0])
    # a spectrum a rounding below trace m: sum w ln w < 0, and D is clipped at 0
    w = np.array([0.9999999999999996, 0.9999999999999998, 0.9999999999999993])
    assert np.array_equal(np.linalg.eigvalsh(_diagonal_states(w)), np.sort(w))
    assert (w * np.log(w)).sum() < 0.0 and terms(w)[0] == 0.0


def test_the_term_of_scalar_n_is_exactly_zero_with_no_eigensolve(monkeypatch):
    # N = C 1: E(rho) = 1, so tau(E rho ln E rho) = 0 and ln E(rho) = 0 with E not applied
    n = scalar_algebra(3)
    rho = random_state(3, np.random.default_rng(12), np.array([0.5, 1.5]))

    def refuse(*args, **kwargs):
        raise AssertionError("no eigensolve and no E(rho) for N = C 1")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(type(n.expectation), "apply", refuse)
    for with_log in (False, True):
        h, log_sigma = expectation_entropy(n, rho, with_log)
        assert h.shape == (2,) and np.all(h == 0.0) and log_sigma == 0.0
