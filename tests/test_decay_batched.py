"""The batched decay checks and decay trace against the per-point oracle, and the
identity E(T_t rho) = E(rho) they rest on."""

import math

import numpy as np
import pytest

from conftest import make_zoo, random_degenerate_commutant
from decay_oracle import (WITNESS_KEYS, decay_report_through_sigma, decay_slacks, lp_slacks,
                          report, simulate_decay_per_time)
from qmsemi import constants
from qmsemi.constants import _report, check_decay_bound, check_lp_decay, flsi_estimate
from qmsemi.cporder import gamma_e_constant
from qmsemi.entropy import (d_sub, default_grid, expectation_entropy, fisher_n, simulate_decay,
                            sub_terms)
from qmsemi.matops import _chart, make_superop, random_hermitian, random_state, semigroup_apply
from qmsemi.subordinate import fractional_power

ZOO = make_zoo()


@pytest.fixture(scope="module")
def rates():
    """Per entry: 0, the certified (else FLSI) rate and 10x the FLSI upper value."""
    out = {}
    for name, gen in ZOO.items():
        est = flsi_estimate(gen, n_starts=2, seed=0, n_validate=300)
        cert = gamma_e_constant(gen).lambda_star
        out[name] = (0.0, cert if cert > 0 else est.lambda_lower, 10.0 * est.lambda_upper)
    return out


def assert_same_report(rep, quantity, lam, seed, slacks):
    slacks = list(slacks)
    ref = report(quantity, lam, seed, slacks)
    assert rep["passed"] == ref["passed"]
    # a slack is already relative, so noise near 0 is compared on the scale 1
    assert abs(rep["slack"] - ref["slack"]) <= 1e-10 * max(abs(ref["slack"]), 1.0)
    if rep["witness"] != ref["witness"]:
        # only a tie may move the witness: its oracle slack is the oracle's maximum
        key = tuple(rep["witness"][k] for k in WITNESS_KEYS[quantity])
        assert abs(dict(slacks)[key] - ref["slack"]) <= 1e-12 * max(abs(ref["slack"]), 1.0)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_decay_checks_match_per_point_oracle(rates, name):
    gen = ZOO[name]
    for k, lam in enumerate(rates[name]):
        rep = check_decay_bound(gen, lam, n_states=8, seed=3)
        assert_same_report(rep, "entropy_decay", lam, 3, decay_slacks(gen, lam, 8, 3))
        lp = check_lp_decay(gen, lam, n_x=8, seed=3)
        assert_same_report(lp, "lp_decay", lam, 3, lp_slacks(gen, lam, n_x=8, seed=3))
        if k == 2:  # ten times the FLSI value is beyond every true rate
            assert not rep["passed"] and not lp["passed"]


@pytest.mark.parametrize("name", sorted(n for n, g in ZOO.items() if g.fixed_algebra.size == 1))
def test_the_spectrum_only_decay_check_matches_the_check_through_sigma(rates, name):
    # N = C 1: D_N and I_N from the eigenvalues of rho_t alone report what the
    # eigenvectors and sigma = E(rho) = 1 report, at the rates and far beyond them
    gen = ZOO[name]
    for lam in rates[name][1:] + (3.0 * rates[name][2],):
        rep = check_decay_bound(gen, lam, n_states=20, seed=5)
        ref = decay_report_through_sigma(gen, lam, n_states=20, seed=5)
        assert (rep["passed"], rep["witness"]) == (ref["passed"], ref["witness"])
        assert abs(rep["slack"] - ref["slack"]) <= 1e-10 * max(abs(ref["slack"]), 1.0)


def test_the_check_through_sigma_is_the_decay_check_on_dephasing():
    # N is the diagonal: D_N from two spectra and the traces against ln sigma differ by
    # rounding only, as do I_N from the diagonal of sigma and from that of rho - sigma
    gen = ZOO["dephasing_m2"]
    for lam in (0.0, 2.0, 20.0):
        rep = check_decay_bound(gen, lam, n_states=20, seed=5)
        ref = decay_report_through_sigma(gen, lam, n_states=20, seed=5)
        assert (rep["passed"], rep["witness"]) == (ref["passed"], ref["witness"])
        assert abs(rep["slack"] - ref["slack"]) <= 1e-10 * max(abs(ref["slack"]), 1.0)


def test_report_names_the_first_of_tied_maxima():
    def locate(w):
        return tuple(int(i) for i in w)

    rep = _report("lp_decay", 1.0, 0, np.array([[0.5, 2.0], [2.0, -np.inf]]), locate)
    assert (rep["slack"], rep["witness"], rep["passed"]) == (2.0, (0, 1), False)
    rep = _report("lp_decay", 1.0, 0, np.full((2, 2), 5e-9), locate)
    assert (rep["slack"], rep["witness"], rep["passed"]) == (5e-9, None, True)
    rep = _report("entropy_decay", 1.0, 0, np.zeros((0, 4, 2)), locate)
    assert (rep["slack"], rep["witness"], rep["passed"]) == (0.0, None, True)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_simulate_decay_matches_per_time_oracle(name):
    gen = ZOO[name]
    rho0 = random_state(gen.dim, np.random.default_rng(5))
    grid = default_grid(0.7)
    new = simulate_decay(gen, rho0, grid, 0.7)
    old = simulate_decay_per_time(gen.superop, gen.fixed_algebra, rho0, grid, 0.7)
    for got, want in ((new.d_n, old.d_n), (new.i_a, old.i_a), (new.bound, old.bound)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _fixing_pairs():
    """(A, N) named: the zoo, its A^theta and a symmetric generator B M B on a random
    block algebra, B = I - E_N and M = G G* a random positive semidefinite superoperator."""
    for name, gen in ZOO.items():
        yield pytest.param(gen.superop, gen.fixed_algebra, id=name)
        for th in (0.25, 0.5):
            yield pytest.param(fractional_power(gen, th), gen.fixed_algebra,
                               id=f"{name}^{th}")
    rng = np.random.default_rng(25)
    for m in (3, 4):
        n = random_degenerate_commutant(m, rng)
        g = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
        b = n.complement
        yield pytest.param(b @ make_superop(g @ g.conj().T / m**2, m) @ b, n, id=f"block_m{m}")


@pytest.mark.parametrize("a, n", list(_fixing_pairs()))
def test_the_semigroup_keeps_the_conditional_expectation(a, n):
    # E T_t = E: the decay checks take sigma = E(rho) once for every time
    e = n.expectation
    rho = random_state(a.dim, np.random.default_rng(7), np.array([0.5, 1.5]))
    want = e.apply(rho)
    got = e.apply(semigroup_apply(a, default_grid(1.0), rho))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _markov_pairs():
    """(A, N) named: the zoo, its A^theta and, on a random block algebra N, the generator
    I - E_N, whose semigroup e^{-t} + (1 - e^{-t}) E_N keeps states states."""
    for param in _fixing_pairs():
        a, n = param.values
        yield param if not param.id.startswith("block") else pytest.param(
            n.complement, n, id=param.id)


@pytest.mark.parametrize("a, n", list(_markov_pairs()))
def test_the_two_spectra_rule_is_the_traces_rule(a, n):
    # D_N = tau(rho ln rho) - tau(E rho ln E rho) against d_sub's traces against ln E(rho),
    # and I_N from the diagonal of E(rho) against fisher_n, at chart states (the decay
    # check's and the FLSI objective's) and at the states T_t evolves them to
    m = a.dim
    hs = random_hermitian(m, np.random.default_rng(9), np.array([0.5, 1.0, 1.5]))
    w, u, expw, r, rho0 = _chart(hs)
    log_r = w + (math.log(m) - np.log(expw.sum(axis=-1)))[:, None]
    h, _ = expectation_entropy(n, rho0, False)
    rho_t = semigroup_apply(a, default_grid(1.0, n=12), rho0).swapaxes(0, 1)  # (state, t, m, m)
    rho_t = (rho_t + rho_t.conj().swapaxes(-1, -2)) / 2.0
    for (d, i), states in ((sub_terms(n, rho0, (r, u, log_r), rho0, h), rho0),
                           (sub_terms(n, rho_t, None, rho0[:, None], h[:, None]), rho_t)):
        for d_k, i_k, rho in zip(d.ravel(), i.ravel(), states.reshape(-1, m, m)):
            want_d, want_i = d_sub(rho, n), fisher_n(n, rho)
            assert abs(d_k - want_d) <= 1e-13 * max(1.0, abs(want_d))
            assert abs(i_k - want_i) <= 1e-13 * max(1.0, abs(want_i))
    for h_k in hs:
        _, d_val, rho, _ = constants._ratio_and_grad(a, n, h_k, False)
        want_d = d_sub(rho, n)
        assert abs(d_val - want_d) <= 1e-13 * max(1.0, abs(want_d))
