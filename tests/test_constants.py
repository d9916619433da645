import math

import numpy as np
import pytest

from conftest import make_zoo
from dual_norm_oracle import dual_norm_ascent
from flsi_oracle import ratio_and_grad_reference, sweep_one_by_one
from qmsemi import constants
from qmsemi.algebra import diagonal_algebra
from qmsemi.constants import (
    SWEEP_CHUNK,
    _validation_sweep,
    check_decay_bound,
    check_lp_decay,
    flsi_estimate,
    gamma_dual_norm,
    geometric_talagrand_check,
    schatten_norm,
)
from qmsemi.cporder import gamma_e_constant
from qmsemi.entropy import d_sub, default_grid, fisher, simulate_decay
from qmsemi.generator import gradient_form, jump_set, lindblad, markov_pair, spectral_gap
from qmsemi.matops import _chart, norm_trace, random_hermitian, random_state, semigroup_apply
from qmsemi.models import dephasing_generator, depolarizing_generator, pauli, random_lindblad
from qmsemi.subordinate import fractional_power
from qmsemi.tolerances import D_N_ZERO, PSD


def test_schatten_norms():
    x = np.diag([3.0, -4.0]).astype(complex)
    assert schatten_norm(x, math.inf) == pytest.approx(4.0)
    assert schatten_norm(x, 2.0) == pytest.approx(math.sqrt((9 + 16) / 2))
    assert schatten_norm(x, 1.0) == pytest.approx(3.5)


def test_flsi_depolarizing_has_unit_upper_bound():
    est = flsi_estimate(depolarizing_generator(2), n_starts=4, seed=0, n_validate=2000)
    assert est.lambda_upper >= 1.0 - 1e-6
    assert est.lambda_lower <= est.lambda_upper + 1e-6
    assert est.grad_check < 1e-5


def test_flsi_dominates_pencil_constant():
    for gen in (dephasing_generator(2), depolarizing_generator(3)):
        cert = gamma_e_constant(gen)
        est = flsi_estimate(gen, n_starts=4, seed=1, n_validate=2000)
        assert est.lambda_upper >= cert.lambda_star - 1e-6


def test_flsi_reproducible_across_seeds():
    vals = [
        flsi_estimate(dephasing_generator(2), n_starts=4, seed=s, n_validate=500).lambda_upper
        for s in (0, 1)
    ]
    assert abs(vals[0] - vals[1]) < 1e-4


@pytest.mark.parametrize("delta", [1e-13, 0.5 * PSD])
def test_flsi_objective_keeps_the_entropy_term_of_an_eigenvalue_under_the_floor(delta):
    # rho = 2|+><+| moved delta off its edge has E(rho) = 1 on the diagonal algebra of
    # dephasing, so D_N = tau(rho ln rho), delta ln delta included: the chart state is
    # full rank and the gradient keeps that term, so the objective's value must too
    gen = dephasing_generator(2)
    plus = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    r = np.array([2.0 - delta, delta])
    _, d, _, _ = constants._ratio_and_grad(gen.superop, gen.fixed_algebra,
                                           (plus * np.log(r)) @ plus, False)
    assert d == pytest.approx(float(r @ np.log(r)) / 2, rel=0, abs=1e-14)


def _objective_pairs():
    """(A, N) of the zoo and of the A^0.5 pairs of its random entries."""
    zoo = make_zoo()
    pairs = {name: (gen.superop, gen.fixed_algebra) for name, gen in zoo.items()}
    pairs.update({f"{name} A^0.5": (fractional_power(zoo[name], 0.5),
                                    zoo[name].fixed_algebra)
                  for name in ("random_2jump_m3", "random_2jump_m4")})
    return pairs


@pytest.mark.parametrize("spread", [0.3, 1.0])
def test_flsi_objective_matches_the_two_multiplier_reference(spread):
    # at these spreads no two eigenvalues of rho fall under the tie floor, so the
    # reference's J_log is right and the cancelled form must reproduce it.  The
    # reference diagonalizes E(rho) for every N, the objective only for dim N > 1:
    # all pairs but dephasing have N = C 1
    pairs = _objective_pairs()
    assert sorted(name for name, (_, n) in pairs.items() if n.size > 1) == ["dephasing_m2"]
    for name, (a, n) in pairs.items():
        rng = np.random.default_rng(26)
        for _ in range(10):
            h = random_hermitian(a.dim, rng, spread)
            i_val, d_val, rho, g = constants._ratio_and_grad(a, n, h, True)
            i_ref, d_ref, rho_ref, g_ref = ratio_and_grad_reference(a, n.expectation, h, True)
            assert np.array_equal(rho, rho_ref), name
            assert i_val == pytest.approx(i_ref, rel=1e-12, abs=0), name
            assert d_val == pytest.approx(d_ref, rel=1e-12, abs=0), name
            assert np.abs(g - g_ref).max() <= 1e-10 * np.abs(g_ref).max(), name


@pytest.mark.parametrize("m", [4, 6])
def test_flsi_gradient_matches_a_central_difference_where_rho_has_tiny_eigenvalues(m):
    # at spread 5 (a state inside the descent's box) several eigenvalues of rho lie
    # below PSD, where the reference's divided differences of log at the spectrum of
    # rho (about 1e13 there) magnify rounding that the cancelled form never meets
    gen = random_lindblad(m, 2, np.random.default_rng(m))
    a, n = gen.superop, gen.fixed_algebra
    rng = np.random.default_rng(260 + m)
    new_err, ref_err = [], []
    for _ in range(20):
        h = random_hermitian(m, rng, 5.0)
        k = random_hermitian(m, rng, 1.0)
        s = 1e-6
        ip, dp, _, _ = constants._ratio_and_grad(a, n, h + s * k, False)
        im, dm, _, _ = constants._ratio_and_grad(a, n, h - s * k, False)
        fd = (ip / dp - im / dm) / (2 * s)
        for g, err in ((constants._ratio_and_grad(a, n, h, True)[3], new_err),
                       (ratio_and_grad_reference(a, n.expectation, h, True)[3], ref_err)):
            err.append(abs(fd - norm_trace(g @ k).real) / max(abs(fd), 1.0))
    assert max(new_err) < 1e-6
    assert max(ref_err) > 1e-4


@pytest.mark.parametrize("gap", [0.5 * PSD, 2.0 * PSD])
@pytest.mark.parametrize("m", [3, 4])
def test_flsi_gradient_matches_a_central_difference_at_a_near_tied_h(m, gap):
    # the divided differences of exp tie a pair of eigenvalues of H 0.5 PSD apart
    # (midpoint rule) and not one 2 PSD apart (a quotient of nearly equal values), on
    # N = C 1 and on the diagonal algebra of dephasing.  The pair sits at -3, so ln r
    # is about -2.5 and the reference's divided differences of log tie it too: at 0.5
    # PSD both of its multipliers take the midpoint and it agrees to rounding, while
    # at 2 PSD the quotient of exponentials, off by O(eps / gap), meets their product,
    # which the objective cancels
    rng = np.random.default_rng(300 + m)
    for gen in (random_lindblad(m, 2, rng), dephasing_generator(m)):
        a, n = gen.superop, gen.fixed_algebra
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            w = rng.uniform(-0.5, 1.0, m)
            w[:2] = -3.0, -3.0 + gap
            h = (q * w) @ q.conj().T
            h = (h + h.conj().T) / 2.0
            assert np.diff(np.linalg.eigvalsh(h)).min() == pytest.approx(gap, rel=1e-3)
            k = random_hermitian(m, rng, 1.0)
            s = 1e-6
            ip, dp, _, _ = constants._ratio_and_grad(a, n, h + s * k, False)
            im, dm, _, _ = constants._ratio_and_grad(a, n, h - s * k, False)
            fd = (ip / dp - im / dm) / (2 * s)
            g = constants._ratio_and_grad(a, n, h, True)[3]
            g_ref = ratio_and_grad_reference(a, n.expectation, h, True)[3]
            assert abs(fd - norm_trace(g @ k).real) / max(abs(fd), 1.0) < 1e-6
            bound = 1e-10 if gap < PSD else 1e-6
            assert np.abs(g - g_ref).max() <= bound * np.abs(g_ref).max()


def _objective_calls(gen, monkeypatch):
    """Eigensolves, divided-difference matrices and applications of E_N in one
    evaluation of the descent objective with its gradient."""
    n = gen.fixed_algebra
    e = n.expectation
    # constants imports no schur_multiplier, so the objective makes no such product
    assert not hasattr(constants, "schur_multiplier")
    calls = {"eigh": 0, "divided_differences": 0, "E": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def apply(superop, x, _apply=type(e).apply):
        calls["E"] += superop is e
        return _apply(superop, x)

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(constants, "divided_differences",
                        counted("divided_differences", constants.divided_differences))
    monkeypatch.setattr(type(e), "apply", apply)
    h = random_hermitian(gen.dim, np.random.default_rng(27), 1.0)
    constants._ratio_and_grad(gen.superop, n, h, True)
    return calls


def test_flsi_objective_takes_two_eigensolves_and_one_schur_product(zoo, monkeypatch):
    # dim N = 2: the eigensolves of H and of E(rho), and one divided-difference
    # matrix, that of exp
    calls = _objective_calls(zoo["dephasing_m2"], monkeypatch)
    assert calls == {"eigh": 2, "divided_differences": 1, "E": 1}


@pytest.mark.parametrize("name", ["depolarizing_m2", "depolarizing_m3", "random_2jump_m3",
                                  "random_2jump_m4"])
def test_flsi_objective_on_scalar_n_takes_one_eigensolve_and_no_expectation(
        zoo, name, monkeypatch):
    # N = C 1: E(rho) = 1, so E is not applied and the one eigensolve is that of H
    calls = _objective_calls(zoo[name], monkeypatch)
    assert calls == {"eigh": 1, "divided_differences": 1, "E": 0}


def test_flsi_descent_hands_lbfgsb_only_finite_values(monkeypatch):
    # dephasing_m2 at seed 110 runs into states with D_N = 0, where the ratio is
    # infinite and its gradient NaN, and D_N < 0: each such state ends its start
    import scipy.optimize

    values = []

    def checked(fun, x0, _minimize=scipy.optimize.minimize, **kwargs):
        def recorded(x):
            f, g = fun(x)
            values.append((f, np.isfinite(g).all()))
            return f, g
        return _minimize(recorded, x0, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", checked)
    est = flsi_estimate(dephasing_generator(2), n_starts=6, seed=110, n_validate=0)
    assert values and all(math.isfinite(f) and g for f, g in values)
    assert math.isfinite(est.lambda_upper)


@pytest.mark.parametrize("name", ["depolarizing_m2", "random_2jump_m4"])
def test_flsi_descent_evaluates_each_first_state_once(zoo, name, monkeypatch):
    # the check before a start runs hands its evaluation to L-BFGS-B's first call, so
    # the objective runs once per L-BFGS-B evaluation, twice more for the finite
    # difference of start 0 and once for each start that is skipped
    import scipy.optimize

    objective_calls, nfev = [0], []

    def counted(*args, _ratio_and_grad=constants._ratio_and_grad):
        objective_calls[0] += 1
        return _ratio_and_grad(*args)

    def recorded(fun, x0, _minimize=scipy.optimize.minimize, **kwargs):
        def fun_counted(x):
            nfev[-1] += 1
            return fun(x)
        nfev.append(0)
        res = _minimize(fun_counted, x0, **kwargs)
        assert res.nfev == nfev[-1]
        return res

    monkeypatch.setattr(constants, "_ratio_and_grad", counted)
    monkeypatch.setattr(scipy.optimize, "minimize", recorded)
    n_starts = 4
    est = flsi_estimate(zoo[name], n_starts=n_starts, seed=0, n_validate=0)
    assert math.isfinite(est.grad_check)  # start 0 ran its finite difference
    assert objective_calls[0] == sum(nfev) + 2 + (n_starts - len(nfev))


@pytest.mark.parametrize("low", [-50.0, -3.0])
def test_flsi_objective_has_no_gradient_where_e_rho_is_singular(low):
    # jumps 1 (x) sigma_x and 1 (x) sigma_z on M_4: N = M_2 (x) 1, non-abelian, and E is
    # the normalized partial trace.  At H = diag(0, -1, low, low - 1) the ratio is finite
    # with D_N > 0, but for low = -50 E(rho) has eigenvalues under PSD, so ln E(rho) is
    # undefined and there is no gradient: a descent that reaches it ends its start
    one = np.eye(2)
    gen = lindblad(jump_set([np.kron(one, pauli("x")), np.kron(one, pauli("z"))]))
    a, n = markov_pair((gen.superop, gen.fixed_algebra))
    assert n.size == 4
    assert np.abs(n.basis[:, None] @ n.basis - n.basis @ n.basis[:, None]).max() > 0.1
    h = np.diag([0.0, -1.0, low, low - 1.0]).astype(complex)
    h -= np.trace(h) / 4.0 * np.eye(4)
    i_val, d_val, _, g = constants._ratio_and_grad(a, n, h, True)
    assert d_val >= D_N_ZERO and math.isfinite(i_val / d_val)
    e_rho = n.expectation.apply(_chart(h)[4])
    singular = bool(np.linalg.eigvalsh(e_rho)[0] <= PSD)
    assert singular is (low == -50.0)
    assert (g is None) is singular


def test_flsi_rejects_trivial_dynamics():
    gen = lindblad(jump_set([], m=2))
    with pytest.raises(ValueError):
        flsi_estimate(gen, n_starts=1, seed=0, n_validate=10)


def test_flsi_rejects_negative_validation_count():
    with pytest.raises(ValueError):
        flsi_estimate(dephasing_generator(2), n_starts=1, seed=0, n_validate=-1)


@pytest.mark.parametrize("n_validate", [500, SWEEP_CHUNK + 1])
def test_stacked_sweep_matches_per_state_oracle(zoo, n_validate):
    for name, gen in zoo.items():
        got, kept = _validation_sweep(
            gen.superop, gen.fixed_algebra, np.random.default_rng([7, 999_983]), n_validate
        )
        want, want_kept = sweep_one_by_one(
            gen.superop, gen.fixed_algebra, np.random.default_rng([7, 999_983]), n_validate
        )
        assert kept == want_kept, name
        assert got == pytest.approx(want, rel=1e-12), name


class CountedDraws:
    """A Generator that logs the name of every draw it makes."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls.append(name)
            return draw(*args, **kwargs)
        return counted


def test_sweep_and_decay_check_draw_no_single_states(zoo, monkeypatch):
    # one uniform and one Gaussian call per sweep chunk and per decay check; the L_p
    # check takes its real parts in one call and the odd probes' imaginary parts in one
    gen = zoo["random_2jump_m3"]
    rng = CountedDraws(np.random.default_rng(3))
    _validation_sweep(gen.superop, gen.fixed_algebra, rng, 2 * SWEEP_CHUNK + 1)
    assert rng.calls == ["random", "standard_normal"] * 3
    made = []
    default_rng = np.random.default_rng

    def counted_rng(seed):
        made.append(CountedDraws(default_rng(seed)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    check_decay_bound(gen, 0.1, n_states=5)
    check_lp_decay(gen, 0.1, n_x=5)
    assert [r.calls for r in made] == [["random", "standard_normal"],
                                       ["standard_normal", "standard_normal"]]


def test_lp_decay_takes_one_svd_for_every_p(zoo, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    check_lp_decay(zoo["random_2jump_m3"], 0.1, n_x=4)
    assert len(calls) == 1


def _decay_check_eigensolves(gen, monkeypatch):
    """(name, leading shape) of every eigensolve a 5-state decay check makes."""
    _ = gen.superop.eig  # the cached superoperator eigensolve, taken first
    calls = []

    def counted(name):
        solver = getattr(np.linalg, name)

        def wrapper(x, *args, **kwargs):
            calls.append((name, x.shape[:-2]))
            return solver(x, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    check_decay_bound(gen, 0.0, n_states=5)
    return calls


def test_decay_check_on_scalar_n_takes_the_charts_and_the_state_spectra(zoo, monkeypatch):
    # N = C 1: sigma = 1, so there is no sigma eigensolve, and D_N and I_N of the
    # evolved states need their eigenvalues only
    calls = _decay_check_eigensolves(zoo["random_2jump_m3"], monkeypatch)
    assert len(calls) == 2 and calls[0] == ("eigh", (5,))
    assert calls[1][0] == "eigvalsh" and calls[1][1][1:] == (60,)


def test_decay_check_takes_one_eigensolve_each_for_the_charts_the_sigmas_and_the_states(
        zoo, monkeypatch):
    # E(T_t rho) = E(rho): the spectrum of sigma is taken once per start state, never
    # per time, and D_N needs no eigenvectors of sigma
    calls = _decay_check_eigensolves(zoo["dephasing_m2"], monkeypatch)
    assert len(calls) == 3 and calls[:2] == [("eigh", (5,)), ("eigvalsh", (5,))]
    assert calls[2][0] == "eigh" and calls[2][1][1:] == (60,)


def test_decay_check_at_m16_takes_its_start_states_in_their_chart():
    # four of these start states have an eigenvalue at or below PSD (relative), where an
    # eigensolve would put it off the support and call their Fisher information ill-defined
    rep = check_decay_bound(random_lindblad(16, 2, np.random.default_rng(16)), 0.0, seed=1)
    assert rep["passed"], rep


@pytest.mark.parametrize(
    "check", ["simulate_decay", "check_decay_bound", "check_lp_decay", "flsi_estimate"])
def test_decay_refuses_a_generator_that_moves_the_algebra(check):
    # a random generator fixes only the scalars, so it does not vanish on the diagonal
    m = 3
    a, n = random_lindblad(m, 2, np.random.default_rng(5)).superop, diagonal_algebra(m)
    with pytest.raises(ValueError, match="vanish on the algebra"):
        if check == "simulate_decay":
            simulate_decay((a, n), random_state(m, np.random.default_rng(6)), default_grid(1.0),
                           0.0)
        elif check == "check_decay_bound":
            check_decay_bound((a, n), 0.0, n_states=3)
        elif check == "check_lp_decay":
            check_lp_decay((a, n), 0.0, n_x=5)
        else:
            flsi_estimate((a, n), n_starts=1, seed=0, n_validate=0)


@pytest.mark.parametrize(
    "name, lower, upper",
    [
        ("random_2jump_m3", 2.365577529021, 8.372967534679),
        ("random_2jump_m4", 2.101224462384, 8.299382811266),
        ("dephasing_m2", 8.000165477123, 8.436149978436),
    ],
)
def test_validation_sweep_lowers_short_descent_bracket(zoo, name, lower, upper, monkeypatch):
    # with no descent steps the sweep, not the optimizer, sets the lower end
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "minimize", lambda *args, **kwargs: None)
    est = flsi_estimate(zoo[name], n_starts=1, seed=4, n_validate=2000)
    assert est.lambda_lower < est.lambda_upper
    assert est.lambda_lower == pytest.approx(lower, rel=1e-9)
    assert est.lambda_upper == pytest.approx(upper, rel=1e-9)
    assert est.n_validated == 2000
    assert est.to_json()["n_validated"] == 2000


def test_validation_sweep_handles_states_with_eigenvalues_below_the_floor(monkeypatch):
    # at m = 12 some sweep states have eigenvalues below PSD * max: evaluated
    # through the support floors, A(rho) weighed on that "kernel" and the sweep raised
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "minimize", lambda *args, **kwargs: None)
    gen = random_lindblad(12, 2, np.random.default_rng(12))
    est = flsi_estimate(gen, n_starts=1, seed=4, n_validate=2000)
    assert math.isfinite(est.lambda_lower) and math.isfinite(est.lambda_upper)
    assert 0.0 < est.lambda_lower <= est.lambda_upper
    assert est.n_validated == 2000


def test_check_decay_bound_zero_rate_passes():
    gen = dephasing_generator(2)
    rep = check_decay_bound(gen, 0.0, n_states=5, seed=0)
    assert rep["passed"]


@pytest.mark.parametrize("count", [0, -3])
def test_decay_checks_refuse_an_empty_sample(count):
    gen = dephasing_generator(2)
    with pytest.raises(ValueError, match="at least 1"):
        check_decay_bound(gen, 0.0, n_states=count)
    with pytest.raises(ValueError, match="at least 1"):
        check_lp_decay(gen, 0.0, n_x=count)


def test_check_decay_bound_certified_rate_passes():
    gen = dephasing_generator(2)
    lam = gamma_e_constant(gen).lambda_star
    rep = check_decay_bound(gen, lam, n_states=20, seed=0)
    assert rep["passed"], rep


def test_check_decay_bound_catches_inflated_rate():
    gen = depolarizing_generator(2)
    est = flsi_estimate(gen, n_starts=2, seed=0, n_validate=200)
    rep = check_decay_bound(gen, 10.0 * est.lambda_upper, n_states=20, seed=0)
    assert not rep["passed"]
    assert rep["witness"] is not None


def test_check_lp_decay_certified_rate():
    gen = dephasing_generator(2)
    lam = gamma_e_constant(gen).lambda_star
    rep = check_lp_decay(gen, lam, n_x=20, seed=0)
    assert rep["passed"], rep


def test_check_lp_decay_depolarizing_is_exact():
    gen = depolarizing_generator(2)
    rng = np.random.default_rng(0)
    e = gen.e_fix
    x = random_hermitian(2, rng)
    x0 = x - e.apply(x)
    for p in (1.0, 2.0, 4.0, math.inf):
        base = schatten_norm(x0, p)
        for t in (0.3, 1.1):
            val = schatten_norm(semigroup_apply(gen.superop, t, x0), p)
            assert val == pytest.approx(math.exp(-t) * base, rel=1e-10)


def test_check_lp_decay_p2_matches_spectral_bound():
    # at p = 2 the decay rate is exactly the spectral gap
    gen = dephasing_generator(2)
    rng = np.random.default_rng(1)
    x = random_hermitian(2, rng)
    x0 = x - gen.e_fix.apply(x)
    gap = 4.0
    for t in (0.2, 0.6):
        val = schatten_norm(semigroup_apply(gen.superop, t, x0), 2.0)
        assert val <= math.exp(-gap * t) * schatten_norm(x0, 2.0) * (1 + 1e-10)


def test_gamma_dual_norm_zero_inputs():
    gen = dephasing_generator(2)
    assert gamma_dual_norm(gen, np.zeros((2, 2), dtype=complex)) == (0.0, 0.0)
    rng = np.random.default_rng(2)
    rho = random_state(2, rng)
    fixed = gen.e_fix.apply(rho)
    fixed = (fixed + fixed.conj().T) / 2
    centered = fixed - gen.e_fix.apply(fixed)  # identically zero
    assert max(gamma_dual_norm(gen, centered)) < 1e-12


def test_gamma_dual_norm_requires_centering():
    gen = dephasing_generator(2)
    with pytest.raises(ValueError):
        gamma_dual_norm(gen, np.eye(2, dtype=complex))


def test_gamma_dual_norm_transport_consistency():
    # both ends <= 4 sqrt(2 D_N / lambda) under the certified constant
    rng = np.random.default_rng(3)
    gen = dephasing_generator(2)
    lam = gamma_e_constant(gen).lambda_star
    for _ in range(10):
        rho = random_state(2, rng)
        lower, upper = gamma_dual_norm(gen, rho - gen.e_fix.apply(rho))
        bound = 4.0 * math.sqrt(2.0 * d_sub(rho, gen.fixed_algebra) / lam)
        assert lower <= upper * (1 + 1e-12)
        assert upper <= bound + 1e-6


def test_gamma_dual_norm_scaling_covariance():
    # halving the jumps doubles the dual norm (the Lipschitz ball doubles)
    rng = np.random.default_rng(4)
    for gen in (dephasing_generator(2), depolarizing_generator(3), random_lindblad(3, 2, rng)):
        half = lindblad(jump_set(0.5 * gen.jumps.jumps))
        rho = random_state(gen.dim, rng)
        rho0 = rho - gen.e_fix.apply(rho)
        for v1, v2 in zip(gamma_dual_norm(gen, rho0), gamma_dual_norm(half, rho0)):
            assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def dual_norm_cases():
    """The zoo and random 2-jump generators on M_2 .. M_4, four states each."""
    rng = np.random.default_rng(13)
    gens = list(make_zoo().values())
    gens += [dephasing_generator(m) for m in (3, 4)] + [depolarizing_generator(4)]
    gens += [random_lindblad(m, 2, rng, scale=0.6) for m in (2, 3, 4)]
    for gen in gens:
        for _ in range(4):
            rho = random_state(gen.dim, rng, spread=0.5 + rng.random())
            yield gen, rho - gen.e_fix.apply(rho)


def test_gamma_dual_norm_bracket_contains_the_ascent():
    for gen, rho0 in dual_norm_cases():
        lower, upper = gamma_dual_norm(gen, rho0)
        assert 0.0 < lower <= upper * (1 + 1e-12)
        assert dual_norm_ascent(gen, rho0, n_starts=2, seed=0) <= upper * (1 + 1e-9)


def test_gamma_dual_norm_is_exact_when_gamma_is_scalar():
    # dephasing on M_2: Gamma(f, f) is a multiple of 1 for f off the diagonal
    rng = np.random.default_rng(5)
    gen = dephasing_generator(2)
    for _ in range(5):
        rho = random_state(2, rng)
        lower, upper = gamma_dual_norm(gen, rho - gen.e_fix.apply(rho))
        assert lower == pytest.approx(upper, rel=1e-12)
        assert lower > 0.1


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_gamma_dual_norm_refuses_a_gap_at_rounding(eps):
    # {diag(1, 2), eps sigma_x} and rho = sigma_z: L sigma_z = 4 eps^2 sigma_z and
    # Gamma(f1, f1) is scalar, so both ends are 1/(2 eps), each to the rounding of
    # 1/w[1]; once w[1] <= PSD ||L|| (eps <= 1e-5) that rounding inverted the bracket
    gen = lindblad(jump_set([np.diag([1.0, 2.0]).astype(complex), eps * pauli("x")]))
    if spectral_gap(gen) <= PSD * gen.superop.norm:
        assert eps <= 1e-5
        with pytest.raises(ValueError, match="no spectral gap"):
            gamma_dual_norm(gen, pauli("z"))
        return
    assert eps >= 1e-4
    rounding = 4.0 * np.finfo(float).eps * gen.superop.norm / spectral_gap(gen)
    lower, upper = gamma_dual_norm(gen, pauli("z"))
    assert lower <= upper * (1.0 + rounding)
    assert lower == pytest.approx(0.5 / eps, rel=rounding)
    assert upper == pytest.approx(0.5 / eps, rel=rounding)


def test_geometric_talagrand_trivial_and_two_point():
    gen = depolarizing_generator(2)
    lam = gamma_e_constant(gen).lambda_star
    e1 = np.diag([1.0, 0.0]).astype(complex)
    rep = geometric_talagrand_check(gen, lam, e1, e1, np.zeros((2, 2), dtype=complex))
    assert rep["h"] == 0.0 and rep["passed"]
    # two-point example: f separates the diagonal projections
    f = np.diag([1.0, -1.0]).astype(complex)
    g = gradient_form(gen.jumps, f, f)
    lip = np.linalg.eigvalsh((g + g.conj().T) / 2).max()
    f = f / math.sqrt(lip)
    e2 = np.diag([0.0, 1.0]).astype(complex)
    rep = geometric_talagrand_check(gen, lam, e1, e2, f)
    assert rep["h"] > 0 and rep["passed"]


def test_geometric_talagrand_rejects_zero_projection():
    gen = depolarizing_generator(2)
    with pytest.raises(ValueError):
        geometric_talagrand_check(
            gen, 1.0, np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex),
            np.zeros((2, 2), dtype=complex),
        )


def test_tensorized_flsi_one_way():
    # min(lam1, lam2) D <= I_A for the tensor sum on random two-site states
    from qmsemi.entropy import fisher, relative_entropy
    from qmsemi.matops import tensor_sum_generator, tensor_superop

    g1 = depolarizing_generator(2)
    g2 = dephasing_generator(2)
    lam = min(gamma_e_constant(g1).lambda_star, gamma_e_constant(g2).lambda_star)
    a = tensor_sum_generator(g1.superop, g2.superop)
    e = tensor_superop(g1.e_fix, g2.e_fix)
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = random_state(4, rng)
        d_val = relative_entropy(rho, e.apply(rho))
        assert lam * d_val <= fisher(a, rho) + 1e-8
