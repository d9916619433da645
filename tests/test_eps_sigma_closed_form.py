"""The eps-sigma calculus in closed form against mpmath at 40 digits, the old
quadrature and its own operator form, and its input guard."""

import math

import numpy as np
import pytest

from eps_sigma_oracle import eps_sigma_by_quadrature
from qmsemi.models import random_lindblad
from qmsemi.subordinate import WeightProfile, eps_sigma_generator, eps_sigma_scalar, phi_of_lambda

mpmath = pytest.importorskip("mpmath")

SIGMAS = [1e-3, 0.05, 0.5, 0.999999, 1.0, 1.0 + 1e-6, 1.001, 1.5, 2.0, 3.7, 10.0, 40.0]
LOG_EPS = [math.log(1e-4), -50.0, -1.2e4]
LAMS = np.concatenate([np.geomspace(1e-12, 800.0, 43), [0.999, 1.0, 1.001, 1.3]])


def psi_reference(lam: float, log_eps: float) -> float:
    """int_eps^1 (1 - e^{-lam t}) dt/t^2 = (1 - e^{-lam eps})/eps + expm1(-lam)
    + lam (E_1(lam eps) - E_1(lam))."""
    with mpmath.workdps(40):
        lam, eps = mpmath.mpf(lam), mpmath.exp(mpmath.mpf(log_eps))
        return float(-mpmath.expm1(-lam * eps) / eps + mpmath.expm1(-lam)
                     + lam * (mpmath.expint(1, lam * eps) - mpmath.expint(1, lam)))


def psi_tilde_reference(lam: float, sigma: float) -> float:
    """int_1^inf (1 - e^{-lam t}) dt/t^{1+sigma} = 1/sigma - E_{1+sigma}(lam)."""
    with mpmath.workdps(40):
        sigma = mpmath.mpf(sigma)
        return float(1 / sigma - mpmath.expint(1 + sigma, mpmath.mpf(lam)))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_psi_tilde_matches_mpmath(sigma):
    got = np.array([eps_sigma_scalar(0.5, sigma, lam)[2] for lam in LAMS])
    ref = np.array([psi_tilde_reference(lam, sigma) for lam in LAMS])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("log_eps", LOG_EPS)
def test_psi_matches_mpmath(log_eps):
    got = np.array([eps_sigma_scalar(None, 1.0, lam, log_eps=log_eps)[1] for lam in LAMS])
    ref = np.array([psi_reference(lam, log_eps) for lam in LAMS])
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("log_eps", [math.log(1e-3), -50.0])
def test_closed_form_agrees_with_the_old_quadrature(sigma, log_eps):
    for lam in (1e-6, 0.03, 0.7, 2.0, 9.0, 60.0):
        got = eps_sigma_scalar(None, sigma, lam, log_eps=log_eps)
        ref = eps_sigma_by_quadrature(log_eps, sigma, lam)
        np.testing.assert_allclose(got, ref, rtol=1e-7, atol=0.0)


def test_generator_applies_the_scalar_calculus_to_every_eigenvalue():
    gen = random_lindblad(3, 2, np.random.default_rng(8), scale=0.6)
    l = gen.superop
    w, v = l.eig
    for eps, sigma in ((1e-4, 0.4), (1e-2, 1.0), (0.5, 2.5)):
        fw = [eps_sigma_scalar(eps, sigma, lam)[0] if lam > 1e-9 else 0.0 for lam in w]
        ref = (v * np.array(fw)) @ v.conj().T
        got = eps_sigma_generator(l, eps, sigma).matrix
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_profile_phi_uses_the_closed_form():
    prof = WeightProfile.eps_sigma(0.5, 1.5)
    for lam in (0.0, 0.2, 3.0):
        assert phi_of_lambda(prof, lam) == eps_sigma_scalar(0.5, 1.5, lam)[0]


@pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_scalar_rejects_a_sigma_that_is_not_finite_and_positive(sigma):
    with pytest.raises(ValueError, match="sigma"):
        eps_sigma_scalar(0.5, sigma, 1.0)


@pytest.mark.parametrize("lam", [-1.0, -1e-300, math.nan, math.inf])
def test_scalar_rejects_a_lambda_that_is_not_finite_and_nonnegative(lam):
    with pytest.raises(ValueError, match="lambda"):
        eps_sigma_scalar(0.5, 0.5, lam)


@pytest.mark.parametrize("log_eps", [0.0, 1.0, math.nan, -math.inf])
def test_scalar_rejects_a_log_eps_that_is_not_finite_and_negative(log_eps):
    with pytest.raises(ValueError, match="eps"):
        eps_sigma_scalar(None, 0.5, 1.0, log_eps=log_eps)
