"""One conditional expectation per generator, and the CP check of validate_generator."""

import numpy as np

from superop_oracle import superop_from_action
from qmsemi.constants import _dynamics
from qmsemi.generator import validate_generator
from qmsemi.matops import identity_superop


def test_e_fix_is_the_fixed_algebras_expectation(zoo):
    for gen in zoo.values():
        assert gen.e_fix is gen.fixed_algebra.expectation
        assert _dynamics(gen)[2] is gen.e_fix
        assert _dynamics((gen.superop, gen.fixed_algebra))[2] is gen.e_fix


def test_validate_generator_flags_a_semigroup_that_is_not_cp():
    # A = I - T with T the transpose on M_2: A is PSD (eigenvalues 0 and 2), but
    # e^{-tA} = a_t id + b_t T with b_t > 0 has a Choi matrix with eigenvalue -b_t
    a = identity_superop(2) - superop_from_action(lambda x: x.T, 2)
    report = validate_generator(a)
    assert report["hs_selfadjoint"] and report["kills_identity"]
    assert report["psd"] is True
    assert report["cp_semigroup"] is False
    assert report["all_passed"] is False


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
