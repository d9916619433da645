"""One conditional expectation per generator, and the CP check of validate_generator."""

import numpy as np
import pytest
import scipy.linalg

from superop_oracle import superop_from_action
from qmsemi.generator import markov_pair, validate_generator
from qmsemi.matops import identity_superop, make_superop, reshuffle
from qmsemi.models import random_lindblad
from qmsemi.subordinate import density_approximation, fractional_power


def test_e_fix_is_the_fixed_algebras_expectation(zoo):
    for gen in zoo.values():
        assert gen.e_fix is gen.fixed_algebra.expectation
        assert markov_pair(gen)[1].expectation is gen.e_fix
        assert markov_pair((gen.superop, gen.fixed_algebra))[1].expectation is gen.e_fix


def test_validate_generator_flags_a_semigroup_that_is_not_cp():
    # A = I - T with T the transpose on M_2: A is PSD (eigenvalues 0 and 2), but
    # e^{-tA} = a_t id + b_t T with b_t > 0 has a Choi matrix with eigenvalue -b_t
    a = identity_superop(2) - superop_from_action(lambda x: x.T, 2)
    report = validate_generator(a)
    assert report["hs_selfadjoint"] and report["kills_identity"]
    assert report["psd"] is True
    assert report["cp_semigroup"] is False
    assert report["all_passed"] is False


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("s", [0.25, 1.0])
def test_validate_generator_reads_cp_from_the_kossakowski_matrix(m, seed, s):
    # A = A_L + s (I - T), T the transpose: 7 of these 24 (random_lindblad(3, 2,
    # rng(3)) with s = 1 among them) have PSD Choi matrices of T_t at t = 0.1, 1
    # and 10, yet Choi(e^{-tA}) is negative at smaller t
    gen = random_lindblad(m, 2, np.random.default_rng(seed))
    transpose = superop_from_action(lambda x: x.T, m)
    a = make_superop(gen.superop.matrix + s * (identity_superop(m) - transpose).matrix, m)
    least = min(np.linalg.eigvalsh(reshuffle(scipy.linalg.expm(-t * a.matrix), m)).min()
                for t in np.geomspace(1e-4, 1.0, 20))
    assert abs(least) > 1e-7  # each draw is clearly CP or clearly not
    report = validate_generator(a)
    assert report["hs_selfadjoint"] and report["kills_identity"] and report["psd"]
    assert report["cp_semigroup"] is bool(least > 0.0)
    assert report["all_passed"] is bool(least > 0.0)


def test_validate_generator_passes_subordinated_generators_and_i_minus_e(zoo):
    for name, gen in zoo.items():
        b_eps, _ = density_approximation(gen, 0.1)
        for a in (fractional_power(gen, 0.5), b_eps, gen.fixed_algebra.complement):
            assert validate_generator(a)["cp_semigroup"], name


def test_validate_generator_passes_the_zoo(zoo):
    for gen in zoo.values():
        report = validate_generator(gen.superop)
        assert report == {"hs_selfadjoint": True, "kills_identity": True, "psd": True,
                          "cp_semigroup": True, "all_passed": True}


def test_validate_generator_reports_a_non_selfadjoint_map():
    g = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = identity_superop(2) - superop_from_action(lambda x: g @ x, 2)
    report = validate_generator(a)
    assert not report["hs_selfadjoint"] and not report["cp_semigroup"] and not report["psd"]
