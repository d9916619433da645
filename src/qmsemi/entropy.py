"""Relative entropy, Fisher information (entropy production) and decay traces.

All quantities use the normalized trace tau = tr/m, so states carry matrix
trace m.  Eigenvalues at or below PSD (relative) are off the support before
logarithms, and the Fisher information of a singular state is taken on its
support, which is defined only when A(rho) does not weigh on its kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import SubAlgebra
from .matops import Superop, semigroup_apply
from .tolerances import CP_VIOLATION, PSD, SUPEROP_FLAG, rel_floor

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


def spectral_terms(rho, rho_eig, sigma_eig=None, a_rho=None):
    """D(rho||sigma) and I = tau(A(rho) ln rho) for a stack of states (..., m, m).

    ``rho_eig`` is (w, u) from ``eigh``, or (w, u, ln w) for a state given in
    its chart (``matops._chart``), full rank with exact logarithms, to which no
    support rule applies.  A(rho) has rho's shape; the eigenpairs of sigma may
    carry only rho's first leading axes, each sigma shared along the rest, and
    D costs O(m^2) per state.  This is the one home of the entropy rules, all
    at the one zero floor PSD, relative (``rel_floor``): eigenvalues below -PSD
    raise and the rest are clipped at 0; those at or below PSD are off the
    support (0 log 0 = 0); D is +inf when rho weighs more than PSD off the
    support of sigma; I is NaN (ill-defined) when A(rho) leaks more than PSD
    onto the kernel of rho.  Returns (d, i), with None for a term whose inputs
    are missing.
    """
    if len(rho_eig) == 3:
        w, u, log_w = rho_eig
        on = True
    else:
        (w, on, log_w), u = _support(rho_eig[0], "rho"), rho_eig[1]
    m = w.shape[-1]
    d = i = None
    if sigma_eig is not None:
        _, on_s, log_s = _support(sigma_eig[0], "sigma")
        u_s = sigma_eig[1]
        # transposes X^T = conj(u) f u^T of X = ln sigma and of the projector off its support
        ops_t = (u_s.conj()[..., None, :, :] * np.stack([log_s, ~on_s], axis=-2)[..., None, :]
                 @ u_s.swapaxes(-1, -2)[..., None, :, :])
        # tr(rho X) = vec(rho) . vec(X^T): both traces for every rho sharing sigma at once
        lead = u_s.shape[:-2]
        traces = rho.reshape(lead + (-1, m * m)) @ ops_t.reshape(lead + (2, m * m)).swapaxes(-1, -2)
        traces = traces.real.reshape(rho.shape[:-2] + (2,))
        d = ((w * log_w).sum(axis=-1) - traces[..., 0]) / m
        d = np.where(traces[..., 1] > rel_floor(w, PSD, axis=-1), np.inf, d)
    if a_rho is not None:
        ydiag = _diag_in_basis(a_rho, u)
        leak = np.abs(np.where(on, 0.0, ydiag)).sum(axis=-1)
        ill = leak > rel_floor(ydiag, PSD, axis=-1)
        i = np.where(ill, np.nan, (ydiag * log_w).sum(axis=-1) / m)
    return d, i


def decay_terms(rho, rho_eig, sigma_eig, a_rho):
    """D(rho||sigma) and tau(A(rho) ln rho) for sigma = E(rho), as ``spectral_terms``.

    The caller gives the eigenpairs of sigma and A(rho), with the shapes
    ``spectral_terms`` takes.  For N = C 1 it gives sigma_eig None and rho_eig
    from ``eigh``: sigma = 1, so D = tau(rho ln rho) is read off the spectrum
    (``_entropy_to_one``).  E is trace preserving, so D >= 0 exactly and a
    rounding-negative D is clipped to 0.  An ill-defined Fisher value raises,
    as in ``fisher``.
    """
    d, i = spectral_terms(rho, rho_eig, sigma_eig, a_rho)
    if np.isnan(i).any():
        raise ValueError(ILL_DEFINED)
    if sigma_eig is None:
        return _entropy_to_one(rho_eig[0]), i
    return np.maximum(d, 0.0), i


def _entropy_to_one(w):
    """D(rho||1) = tau(rho ln rho) from the spectra w (..., m) of states of trace m.

    The support rules are those ``spectral_terms`` applies to D: eigenvalues
    below -PSD raise, the rest are clipped at 0 and 0 ln 0 = 0, so a singular
    state has a finite D.  D is clipped at 0, as in ``decay_terms``.
    """
    w, _, log_w = _support(w, "rho")
    return np.maximum((w * log_w).sum(axis=-1) / w.shape[-1], 0.0)


def ergodic_terms(w, log_w):
    """D_N and I_N for N = C 1 from the spectra w (..., m) of states of trace m.

    E(rho) = tau(rho) 1 = 1, so D_N(rho) = D(rho||1) = tau(rho ln rho) and
    I_N(rho) = tau((rho - 1) ln rho) = D(rho||1) + D(1||rho) read off the
    spectrum alone: no eigenvectors and no sigma.  ``log_w`` is ln w for a
    state given in its chart (full rank, exact logarithms, no support rule),
    or None for eigenvalues from ``eigvalsh``, which take the rules of
    ``spectral_terms``: below -PSD raises, the rest are clipped at 0 (0 ln 0 =
    0), and one at or below PSD makes I_N ill-defined, as rho - 1 weighs -1
    on it.  D is clipped at 0, as in ``decay_terms``.
    """
    if log_w is None:
        w, on, log_w = _support(w, "rho")
        if not on.all():
            raise ValueError(ILL_DEFINED)
    m = w.shape[-1]
    return np.maximum((w * log_w).sum(axis=-1) / m, 0.0), ((w - 1.0) * log_w).sum(axis=-1) / m


def check_kills_algebra(a: Superop, n: SubAlgebra) -> None:
    """Raise unless A vanishes on N: ||A E|| <= SUPEROP_FLAG, relative, entrywise.

    Then T_t fixes N, and as A and E are self-adjoint (``semigroup_apply``
    needs A to be) E A = (A E)* = 0 too, so E(T_t rho) = E(rho) at every t.
    """
    if np.abs(a.matrix @ n.expectation.matrix).max() > rel_floor(a.matrix, SUPEROP_FLAG):
        raise ValueError("the generator must vanish on the algebra N (A E = 0)")


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
    if np.isnan(i):
        raise ValueError(ILL_DEFINED)
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


def simulate_decay(
    a: Superop,
    n: SubAlgebra,
    rho0: np.ndarray,
    t_grid: np.ndarray,
    lam: float,
) -> DecayTrace:
    """Evolve rho through e^{-tA}, recording D_N, I_A and e^{-lam t} D_N(rho0).

    A must vanish on N (A E = 0, else ValueError), so E(rho_t) = E(rho0) at
    every t: the eigenpairs of sigma = E(rho0) are taken once, and the time
    grid costs one stacked eigensolve of rho_t.  For N = C 1, sigma = 1 for
    the state rho0 of trace m: D_N = tau(rho ln rho) is read off the spectra
    of rho0 and rho_t, with no sigma (``decay_terms``).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing")
    check_kills_algebra(a, n)
    if n.size == 1:
        sigma_eig = None
        d0 = float(_entropy_to_one(np.linalg.eigvalsh(rho0)))
    else:
        sigma_eig = np.linalg.eigh(n.expectation.apply(rho0))
        d0 = max(float(spectral_terms(rho0, np.linalg.eigh(rho0), sigma_eig)[0]), 0.0)
    rho_t = semigroup_apply(a, t_grid, rho0)
    rho_t = (rho_t + rho_t.conj().swapaxes(-1, -2)) / 2.0
    rho_eig = np.linalg.eigh(rho_t)
    wmin = rho_eig[0].min(axis=-1)
    bad = wmin < -CP_VIOLATION
    if bad.any():
        raise ValueError(f"state developed eigenvalue {wmin[bad][0]:.3e} (CP violation)")
    d_vals, i_vals = decay_terms(rho_t, rho_eig, sigma_eig, a.apply(rho_t))
    bound = math.e ** (-lam * t_grid) * d0 if lam > 0 else np.full_like(t_grid, d0)
    return DecayTrace(
        times=t_grid,
        d_n=d_vals,
        i_a=i_vals,
        bound=np.asarray(bound),
    )
