"""Relative entropy, Fisher information (entropy production) and decay traces.

All quantities use the normalized trace tau = tr/m, so states carry matrix
trace m.  Eigenvalues at or below PSD (relative) are off the support before
logarithms, and the Fisher information of a singular state is taken on its
support, which is defined only when A(rho) does not weigh on its kernel.

D_N(rho) = D(rho||E rho) has one rule: as E is a conditional expectation,
tau(rho ln E rho) = tau(E rho ln E rho), so D_N = tau(rho ln rho) - tau(E rho
ln E rho) takes the spectra of rho and E(rho) (``expectation_entropy``), and
I_N = tau((rho - E rho) ln rho) takes rho's spectrum and the diagonal of E(rho)
in its eigenbasis (``sub_terms``).  Only ``_expectation`` reads N = C 1, where
E(rho) = 1.  ``relative_entropy``, ``d_sub`` and ``fisher`` keep traces against
ln sigma, the reference for the oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SubAlgebra
from .generator import markov_pair
from .matops import Superop, semigroup_apply
from .tolerances import PSD, rel_floor

__all__ = [
    "relative_entropy",
    "d_sub",
    "fisher",
    "fisher_n",
    "DecayTrace",
    "simulate_decay",
    "default_grid",
]


ILL_DEFINED = "ill-defined Fisher information: A(rho) weighs on the kernel of rho"


def _support(w: np.ndarray, name: str):
    """Checked and clipped spectra, their support masks and logs (0 off support)."""
    low = w.min(axis=-1)
    if (low < -rel_floor(w, PSD, axis=-1)).any():
        raise ValueError(f"{name} has negative eigenvalue {low.min():.3e}")
    w = np.clip(w, 0.0, None)
    on = w > rel_floor(w, PSD, axis=-1)[..., None]
    return w, on, np.log(np.where(on, w, 1.0))


def _diag_in_basis(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Real diagonal of u* x u, batched."""
    return (u.conj() * (x @ u)).sum(axis=-2).real


def _production(y, on, log_w):
    """tau(Y ln rho) from the diagonal y of Y in rho's eigenbasis, with rho's support mask
    and logs; raises where Y leaks more than PSD onto rho's kernel (ill-defined)."""
    if (np.abs(np.where(on, 0.0, y)).sum(axis=-1) > rel_floor(y, PSD, axis=-1)).any():
        raise ValueError(ILL_DEFINED)
    return (y * log_w).sum(axis=-1) / y.shape[-1]


def spectral_terms(rho, rho_eig, sigma_eig=None, a_rho=None):
    """D(rho||sigma) and I = tau(A(rho) ln rho) for a stack of states (..., m, m).

    ``rho_eig`` is (w, u) from ``eigh``, or (w, u, ln w) for a state given in
    its chart (``matops._chart``), full rank with exact logarithms, to which no
    support rule applies.  A(rho) and the eigenpairs of sigma carry rho's
    leading axes; D is a trace against ln sigma, read in sigma's eigenbasis.
    This is the one home of the support rules, all at the one zero floor PSD,
    relative (``rel_floor``): eigenvalues below -PSD raise and the rest are
    clipped at 0; those at or below PSD are off the support (0 log 0 = 0); D
    is +inf when rho weighs more than PSD off the support of sigma; I is
    ill-defined, and raises, when A(rho) leaks more than PSD onto the kernel of
    rho.  Returns (d, i), with None for a term whose inputs are missing.
    """
    if len(rho_eig) == 3:
        w, u, log_w = rho_eig
        on = True
    else:
        (w, on, log_w), u = _support(rho_eig[0], "rho"), rho_eig[1]
    d = i = None
    if sigma_eig is not None:
        _, on_s, log_s = _support(sigma_eig[0], "sigma")
        p = _diag_in_basis(rho, sigma_eig[1])  # the weights of rho on sigma's eigenvectors
        d = ((w * log_w).sum(axis=-1) - (p * log_s).sum(axis=-1)) / w.shape[-1]
        d = np.where(np.where(on_s, 0.0, p).sum(axis=-1) > rel_floor(w, PSD, axis=-1), np.inf, d)
    if a_rho is not None:
        i = _production(_diag_in_basis(a_rho, u), on, log_w)
    return d, i


def _expectation(n: SubAlgebra, rho: np.ndarray):
    """E(rho) for states rho (..., m, m) of trace m, or None for N = C 1, where E(rho) =
    tau(rho) 1 = 1 is neither formed nor diagonalized: the one place that reads N = C 1."""
    return None if n.size == 1 else n.expectation.apply(rho)


def expectation_entropy(n: SubAlgebra, rho: np.ndarray, with_log: bool):
    """tau(sigma ln sigma) for sigma = E(rho), states rho (..., m, m) of trace m, and
    ln sigma if ``with_log`` (else None); D_N = tau(rho ln rho) - tau(sigma ln sigma).

    The term takes ``eigvalsh`` of sigma, under the support rules of
    ``spectral_terms``; ln sigma, for the FLSI gradient, takes ``eigh`` and is
    None where sigma is singular to rounding (an eigenvalue at or below PSD).
    For N = C 1 both are 0, with no eigensolve.
    """
    sigma = _expectation(n, rho)
    if sigma is None:
        return np.zeros(rho.shape[:-2]), 0.0
    sigma = (sigma + sigma.conj().swapaxes(-1, -2)) / 2.0
    w, u = np.linalg.eigh(sigma) if with_log else (np.linalg.eigvalsh(sigma), None)
    w, on, log_w = _support(w, "E(rho)")
    log_sigma = None
    if with_log and on.all():
        log_sigma = (u * log_w[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return (w * log_w).sum(axis=-1) / w.shape[-1], log_sigma


def _d_n(w, log_w, h):
    """D_N = tau(rho ln rho) - h from rho's spectrum, clipped at 0: E is trace
    preserving, so D_N >= 0 exactly and a negative value is rounding."""
    return np.maximum((w * log_w).sum(axis=-1) / w.shape[-1] - h, 0.0)


def sub_terms(n: SubAlgebra, rho: np.ndarray, rho_eig, start: np.ndarray, h):
    """D_N(rho) and I_N(rho) = tau((rho - E rho) ln rho) for states rho (..., m, m) of trace m.

    E(rho) = E(start): ``start`` is rho itself or, for rho evolved under a
    semigroup with E T_t = E, its start states, on axes that broadcast against
    rho's, and ``h`` = tau(E rho ln E rho) is ``expectation_entropy`` of them.
    I_N takes rho's spectrum and the diagonal of E(rho) in its eigenbasis.
    ``rho_eig`` is (w, u, ln w) of states in their chart (exact logarithms, no
    support rule), or None: rho is then diagonalized under the support rules,
    eigenvalues only for N = C 1, where that diagonal is 1.
    """
    sigma = _expectation(n, start)
    if rho_eig is not None:
        w, u, log_w = rho_eig
        on = True
    elif sigma is None:
        (w, on, log_w), u = _support(np.linalg.eigvalsh(rho), "rho"), None
    else:
        w, u = np.linalg.eigh(rho)
        w, on, log_w = _support(w, "rho")
    i = _production(w - (1.0 if sigma is None else _diag_in_basis(sigma, u)), on, log_w)
    return _d_n(w, log_w, h), i


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D(rho||sigma) = tau(rho ln rho) - tau(rho ln sigma), +inf off-support.

    Uses 0 log 0 = 0.  Nonnegative whenever tau(rho) = tau(sigma).
    """
    d, _ = spectral_terms(rho, np.linalg.eigh(rho), np.linalg.eigh(sigma))
    return float(d)


def d_sub(rho: np.ndarray, n: SubAlgebra) -> float:
    """Relative entropy to the subalgebra, D(rho || E_N(rho)), clipped at 0."""
    return float(np.maximum(relative_entropy(rho, n.expectation.apply(rho)), 0.0))


def fisher(a: Superop, rho: np.ndarray) -> float:
    """Fisher information / entropy production tau(A(rho) ln rho).

    For singular rho the logarithm is restricted to the support of rho, which
    is legitimate only when A(rho) carries no weight on its kernel; otherwise
    the quantity diverges and a ValueError says so.
    """
    _, i = spectral_terms(rho, np.linalg.eigh(rho), a_rho=a.apply(rho))
    return float(i)


def fisher_n(n: SubAlgebra, rho: np.ndarray) -> float:
    """Fisher information of the generator I - E_N.

    Equals D(rho||E(rho)) + D(E(rho)||rho), the symmetrized divergence.
    """
    return fisher(n.complement, rho)


@dataclass(frozen=True)
class DecayTrace:
    """Entropy decay along the semigroup with an exponential reference bound."""

    times: np.ndarray
    d_n: np.ndarray
    i_a: np.ndarray
    bound: np.ndarray

    def to_csv(self) -> str:
        lines = ["t,D_N,I_A,bound"]
        for t, d, i, b in zip(self.times, self.d_n, self.i_a, self.bound):
            lines.append(f"{t:.17g},{d:.17g},{i:.17g},{b:.17g}")
        return "\n".join(lines) + "\n"


def default_grid(lam: float, n: int = 60) -> np.ndarray:
    """Geometric grid on [1e-3/lam, 6/lam], resolving slope and tail; lam <= 0 or NaN reads as 1."""
    if not lam > 0:
        lam = 1.0
    return np.geomspace(1e-3 / lam, 6.0 / lam, n)


def simulate_decay(gen, rho0: np.ndarray, t_grid: np.ndarray, lam: float) -> DecayTrace:
    """Evolve rho through e^{-tA}, recording D_N, I_A and e^{-lam t} D_N(rho0).

    ``gen`` passes ``generator.markov_pair`` (else ValueError), so E(rho_t) =
    E(rho0) at every t: the term tau(E rho ln E rho) of D_N is taken once, from
    the spectrum of E(rho0) (``expectation_entropy``), D_N(rho0) from that of
    rho0, and the time grid costs one stacked eigensolve of rho_t, whose one
    support pass gives both D_N and I_A.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    a, n = markov_pair(gen)
    h, _ = expectation_entropy(n, rho0, False)
    w0, _, log_w0 = _support(np.linalg.eigvalsh(rho0), "rho")
    d0 = float(_d_n(w0, log_w0, h))
    rho_t = semigroup_apply(a, t_grid, rho0)
    rho_t = (rho_t + rho_t.conj().swapaxes(-1, -2)) / 2.0
    w, u = np.linalg.eigh(rho_t)
    w, on, log_w = _support(w, "rho")
    i_a = _production(_diag_in_basis(a.apply(rho_t), u), on, log_w)
    bound = math.e ** (-lam * t_grid) * d0 if lam > 0 else np.full_like(t_grid, d0)
    return DecayTrace(times=t_grid, d_n=_d_n(w, log_w, h), i_a=i_a, bound=np.asarray(bound))
