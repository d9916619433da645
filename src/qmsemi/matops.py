"""Dense Hermitian linear algebra over the matrix algebra M_m with normalized trace.

Conventions used throughout the package:

* tau(x) = tr(x) / m is the tracial state; all inner products, norms and
  entropies are taken with respect to tau.  States are positive matrices
  with tau(rho) = 1, i.e. ordinary matrix trace equal to m.
* Operators are plain complex ndarrays of shape (m, m).
* Linear maps on M_m ("superoperators") are stored as m^2 x m^2 matrices
  acting on the row-major vectorization vec(x) = x.reshape(-1).  Because
  the tau-orthonormal basis sqrt(m) * |i><j| differs from the matrix
  units only by a global scale, a map is self-adjoint for the tau inner
  product exactly when its matrix is Hermitian.
* All matrix functions go through the eigendecomposition; dimensions stay
  small (m <= ~16) so spectral accuracy beats any scaling/squaring scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .tolerances import HERMITIAN, PSD, SUPEROP_FLAG, rel_floor

__all__ = [
    "norm_trace",
    "hs_inner",
    "hs_norm",
    "is_hermitian",
    "matrix_function",
    "divided_difference_multiplier",
    "divided_differences",
    "schur_multiplier",
    "vec",
    "unvec",
    "matrix_units",
    "tau_orthonormal_basis",
    "hermitian_basis",
    "Superop",
    "make_superop",
    "identity_superop",
    "semigroup_apply",
    "reshuffle",
    "tensor_sum_generator",
    "tensor_superop",
    "nullspace_basis",
    "subspace_gap",
    "make_state",
    "random_hermitian",
    "random_state",
]


def norm_trace(x: np.ndarray) -> complex:
    """Normalized trace tau(x) = tr(x)/m."""
    return np.trace(x) / x.shape[0]


def hs_inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product tau(x* y).  Conjugate linear in the first argument."""
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return np.trace(x.conj().T @ y) / x.shape[0]


def hs_norm(x: np.ndarray) -> float:
    """L2 norm sqrt(tau(x* x))."""
    return np.sqrt(max(hs_inner(x, x).real, 0.0))


def _adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack (..., m, m)."""
    return x.conj().swapaxes(-1, -2)


def is_hermitian(x: np.ndarray) -> bool:
    """Whether x, or every matrix of a stack, is Hermitian up to HERMITIAN
    relative to its largest entry."""
    return np.max(np.abs(x - _adjoint(x)), initial=0.0) <= rel_floor(x, HERMITIAN)


def matrix_function(x: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    x is one matrix or a stack (..., m, m), all taken by one stacked eigh.
    Raises if x is not Hermitian or if f is undefined (non-finite) at an
    eigenvalue.  The result is Hermitian whenever f is real on the spectrum.
    """
    if not is_hermitian(x):
        raise ValueError("matrix_function requires a Hermitian argument")
    w, u = np.linalg.eigh(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w), dtype=complex)
    if not np.all(np.isfinite(fw)):
        raise ValueError("function undefined on part of the spectrum")
    return (u * fw[..., None, :]) @ _adjoint(u)


def divided_difference_multiplier(
    rho: np.ndarray,
    f: Callable,
    y: np.ndarray,
    fprime: Callable,
) -> np.ndarray:
    """First-order operator derivative of f at rho, applied to y.

    In the eigenbasis rho = sum_k r_k e_k this is the Schur multiplier

        J_f(y) = sum_{k,l} Df(r_k, r_l) e_k y e_l,

    with Df as in ``divided_differences``; f and fprime take arrays.
    Raises if f is undefined (non-finite) at an eigenvalue of rho.
    """
    if not is_hermitian(rho):
        raise ValueError("divided_difference_multiplier requires Hermitian rho")
    if rho.shape != y.shape:
        raise ValueError("dimension mismatch")
    w, u = np.linalg.eigh(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise ValueError("function undefined on part of the spectrum")
    return schur_multiplier(w, u, fw, fprime, y)


def schur_multiplier(w: np.ndarray, u: np.ndarray, fw: np.ndarray, fprime: Callable,
                     y: np.ndarray) -> np.ndarray:
    """Divided-difference Schur multiplier of f in the eigenbasis (w, u), fw = f(w):
    u (Df * (u* y u)) u* with Df from ``divided_differences``."""
    uh = u.conj().T
    return u @ (divided_differences(w, fw, fprime) * (uh @ y @ u)) @ uh


def divided_differences(w: np.ndarray, fw: np.ndarray, fprime: Callable) -> np.ndarray:
    """The matrix Df(w_k, w_l) of first divided differences of f, fw = f(w).

    Df(s, t) = (f(s) - f(t)) / (s - t), or f'((s+t)/2) from one call of fprime
    on the tied midpoints when |f(s) - f(t)| <= PSD * max(|f(s)|, |f(t)|): exp
    ties at a gap of about PSD at any height, log never ties s and t a factor
    apart, and the midpoint rule removes the 0/0 singularity with O(gap) error.
    """
    df = fw[:, None] - fw
    scale = PSD * np.abs(fw)
    tie = np.abs(df) <= np.maximum(scale[:, None], scale)
    d = df / np.where(tie, 1.0, w[:, None] - w)
    d[tie] = fprime(0.5 * (w[:, None] + w)[tie])
    return d


# ---------------------------------------------------------------------------
# vectorization and bases
# ---------------------------------------------------------------------------

def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, m: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(m, m)


def matrix_units(m: int) -> np.ndarray:
    """All |i><j| in lexicographic (row-major) order, shape (m*m, m, m)."""
    return np.eye(m * m, dtype=complex).reshape(m * m, m, m)


def tau_orthonormal_basis(m: int) -> np.ndarray:
    """Basis sqrt(m)*|i><j|, orthonormal for the tau inner product."""
    return np.sqrt(m) * matrix_units(m)


def hermitian_basis(m: int) -> np.ndarray:
    """Hermitian basis of M_m, orthonormal for the *unnormalized* trace.

    Generalized Gell-Mann construction: the scaled identity, the symmetric
    and antisymmetric off-diagonal pairs, and the diagonal ladder.
    """
    mats = [np.eye(m, dtype=complex) / np.sqrt(m)]
    for i in range(m):
        for j in range(i + 1, m):
            s = np.zeros((m, m), dtype=complex)
            s[i, j] = s[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(s)
            a = np.zeros((m, m), dtype=complex)
            a[i, j] = -1j / np.sqrt(2.0)
            a[j, i] = 1j / np.sqrt(2.0)
            mats.append(a)
    for k in range(1, m):
        d = np.zeros(m, dtype=complex)
        d[:k] = 1.0
        d[k] = -k
        mats.append(np.diag(d) / np.sqrt(k * (k + 1)))
    return np.array(mats)


# ---------------------------------------------------------------------------
# superoperators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Superop:
    """A linear map on M_m as an m^2 x m^2 matrix over row-major vec.

    Validity flags are computed at construction time:

    * ``hs_selfadjoint`` -- the matrix is Hermitian (map self-adjoint for tau);
    * ``kills_identity`` -- the map annihilates 1.
    """

    dim: int
    matrix: np.ndarray
    hs_selfadjoint: bool
    kills_identity: bool

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The map on x of shape (..., m, m), matrix by matrix over a stack."""
        # column vectors: each matrix gets the arithmetic of a lone matrix-vector product
        x = np.asarray(x, dtype=complex)
        return (self.matrix @ x.reshape(*x.shape[:-2], -1, 1)).reshape(x.shape)

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition of the (Hermitian) superoperator matrix."""
        if not self.hs_selfadjoint:
            raise ValueError("spectral calculus requires a self-adjoint map")
        return np.linalg.eigh(self.matrix)

    @cached_property
    def norm(self) -> float:
        """Operator norm on L2(tau) of the self-adjoint map, from its spectrum."""
        w, _ = self.eig
        return float(np.abs(w).max()) if w.size else 0.0

    def __add__(self, other: "Superop") -> "Superop":
        return make_superop(self.matrix + other.matrix, self.dim)

    def __sub__(self, other: "Superop") -> "Superop":
        return make_superop(self.matrix - other.matrix, self.dim)

    def __rmul__(self, c: float) -> "Superop":
        return make_superop(c * self.matrix, self.dim)

    def __matmul__(self, other: "Superop") -> "Superop":
        return make_superop(self.matrix @ other.matrix, self.dim)


def make_superop(matrix: np.ndarray, dim: int) -> Superop:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (dim * dim, dim * dim):
        raise ValueError("superoperator matrix must be m^2 x m^2")
    floor = rel_floor(matrix, SUPEROP_FLAG)
    sa = np.abs(matrix - matrix.conj().T).max() <= floor
    kills = np.linalg.norm(matrix @ vec(np.eye(dim))) / np.sqrt(dim) <= floor
    return Superop(dim=dim, matrix=matrix, hs_selfadjoint=sa, kills_identity=kills)


def identity_superop(m: int) -> Superop:
    return make_superop(np.eye(m * m, dtype=complex), m)


def semigroup_apply(a: Superop, t, x: np.ndarray) -> np.ndarray:
    """Evaluate e^{-tA}(x) by spectral calculus of the superoperator.

    x is one matrix or a stack of shape (..., m, m) and t one time or a time
    grid; the result has shape t.shape + x.shape, all from one contraction
    over the cached eigendecomposition, with the same arithmetic per (t, x)
    as a lone evaluation.  Any negative time raises.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("semigroup time must be nonnegative")
    w, v = a.eig
    x = np.asarray(x, dtype=complex)
    coeff = v.conj().T @ x.reshape(*x.shape[:-2], -1, 1)
    decay = np.exp(-np.multiply.outer(t, w)).reshape(t.shape + (1,) * (x.ndim - 2) + (-1, 1))
    return (v @ (decay * coeff)).reshape(t.shape + x.shape)


def reshuffle(s: np.ndarray, m: int) -> np.ndarray:
    """Choi(T) = sum_{bd} |b><d| (x) T(e_bd) of the map matrix s over row-major vec."""
    return s.reshape(m, m, m, m).transpose(2, 0, 3, 1).reshape(m * m, m * m)


def _interleave(kron_matrix: np.ndarray, m1: int, m2: int) -> Superop:
    """kron(S1, S2), which acts on vec(x1) (x) vec(x2), as a map on M_{m1 m2}."""
    n = m1 * m2
    k = kron_matrix.reshape((m1, m1, m2, m2) * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return make_superop(k.reshape(n * n, n * n), n)


def tensor_sum_generator(a1: Superop, a2: Superop) -> Superop:
    """Generator A1 (x) id + id (x) A2 on M_{m1 m2}."""
    m1, m2 = a1.dim, a2.dim
    kron_sum = np.kron(a1.matrix, np.eye(m2 * m2)) + np.kron(np.eye(m1 * m1), a2.matrix)
    return _interleave(kron_sum, m1, m2)


def tensor_superop(s1: Superop, s2: Superop) -> Superop:
    """The map S1 (x) S2 on M_{m1 m2} (used for tensored expectations)."""
    return _interleave(np.kron(s1.matrix, s2.matrix), s1.dim, s2.dim)


# ---------------------------------------------------------------------------
# subspace utilities
# ---------------------------------------------------------------------------

def nullspace_basis(k: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace: singular values at or below
    PSD * s_max count as zero."""
    # a tall k needs no U; a wide one needs the full V for its extra null directions
    _, s, vh = np.linalg.svd(k, full_matrices=k.shape[0] < k.shape[1])
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(k.shape[1], dtype=complex)
    return vh[int((s > PSD * smax).sum()):].conj().T


def subspace_gap(b1: np.ndarray, b2: np.ndarray) -> float:
    """Largest principal-angle sine between two subspaces (column spans)."""
    q1, _ = np.linalg.qr(b1)
    q2, _ = np.linalg.qr(b2)
    r1 = np.linalg.norm(q2 - q1 @ (q1.conj().T @ q2), 2) if q2.size else 0.0
    r2 = np.linalg.norm(q1 - q2 @ (q2.conj().T @ q1), 2) if q1.size else 0.0
    return max(r1, r2)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def make_state(mat: np.ndarray) -> np.ndarray:
    """Validate and normalize a state: Hermitian, no eigenvalue below -PSD (relative), tau = 1."""
    mat = np.asarray(mat, dtype=complex)
    if not is_hermitian(mat):
        raise ValueError("a state must be Hermitian")
    w, u = np.linalg.eigh(mat)
    if w.min() < -rel_floor(w, PSD):
        raise ValueError(f"state has negative eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    tot = w.sum()
    if tot <= 0:
        raise ValueError("state has zero trace")
    w *= mat.shape[0] / tot
    return (u * w) @ u.conj().T


def _gue(pairs: np.ndarray, scale) -> np.ndarray:
    """scale * Hermitian part of G = pairs[..., 0, :, :] + i pairs[..., 1, :, :]."""
    g = pairs[..., 0, :, :] + 1j * pairs[..., 1, :, :]
    return scale * (g + _adjoint(g)) / 2.0


def random_hermitian(m: int, rng: np.random.Generator,
                     scale: float | np.ndarray = 1.0) -> np.ndarray:
    """scale * (G + G*)/2 with G = X + iY, X then Y drawn as standard normals.

    A 1-D array of n scales draws the (n, m, m) stack in one call, the k-th
    matrix scaled by ``scale[k]`` from the k-th (2, m, m) Gaussian block.
    """
    scale = np.asarray(scale, dtype=float)
    return _gue(rng.standard_normal(scale.shape + (2, m, m)), scale[..., None, None])


def _chart(h: np.ndarray):
    """Eigenpairs (w, u) of H, e^w, and rho = m e^H / tr(e^H) with its spectrum r."""
    w, u = np.linalg.eigh(h)
    expw = np.exp(w)
    r = h.shape[-1] * expw / expw.sum(axis=-1, keepdims=True)
    return w, u, expw, r, (u * r[..., None, :]) @ np.swapaxes(u, -1, -2).conj()


def random_state(m: int, rng: np.random.Generator,
                 spread: float | np.ndarray = 1.0) -> np.ndarray:
    """Random invertible state m*exp(H)/tr(exp(H)) with H = random_hermitian(m, rng, spread),
    so a 1-D array of spreads gives a stack of states."""
    return _chart(random_hermitian(m, rng, spread))[-1]
