"""Completely positive order of gradient forms via Hermitian kernels.

A sesquilinear form Gamma with values in M_m is encoded on a tau-orthonormal
operator basis {e_a} as the Hermitian kernel

    Q[(a,u),(b,v)] = <u, Gamma(e_a, e_b) v>,

so that sum_{ij} z_i* Gamma(x_i, x_j) z_j >= 0 for all finite families
(x_i in span{e_a}, z_i in C^m) is exactly Q >= 0.  The gradient condition
"lambda * Gamma_{I-E} <= Gamma_A in cp order" becomes an eigenvalue pencil,
solved directly from one eigendecomposition of Q_A (see ``best_lambda``).
Matrix-amplified agreement is delegated to a sampling oracle in the tests.

The module also computes the module-basis Choi matrix whose operator norm is
the L1 -> Linf cb-norm of an N-bimodule map, and the derived return time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
import scipy.linalg

from .algebra import ModuleBasis, SubAlgebra, module_basis
from .generator import LindbladGenerator
from .matops import (
    Superop,
    identity_superop,
    semigroup_apply,
    tau_orthonormal_basis,
)

__all__ = [
    "FormKernel",
    "GammaECertificate",
    "form_kernel",
    "kernel_from_jumps",
    "kernel_from_superop",
    "kernel_ie",
    "cp_order_holds",
    "best_lambda",
    "gamma_e_constant",
    "choi_matrix",
    "cb_norm_1_to_inf",
    "return_time",
    "l2_to_linf_cb_sq",
]

PSD_RTOL = 1e-9


@dataclass(frozen=True)
class FormKernel:
    """Hermitian kernel of an operator-valued sesquilinear form."""

    dim: int                 # matrix size m (the "vector" slots)
    basis_size: int          # number of operator basis elements
    q: np.ndarray            # (basis_size*dim, basis_size*dim)

    @property
    def size(self) -> int:
        return self.basis_size * self.dim


def _symmetrize(q: np.ndarray) -> np.ndarray:
    return (q + q.conj().T) / 2.0


def form_kernel(
    form: Callable[[np.ndarray, np.ndarray], np.ndarray],
    m: int,
    basis: np.ndarray | None = None,
    check: bool = True,
) -> FormKernel:
    """Kernel of a form by evaluating it on all operator basis pairs.

    ``basis`` defaults to the full tau-orthonormal basis of M_m; a basis of a
    subalgebra restricts the form (used for commutative generators).  A quick
    randomized probe rejects forms that are not sesquilinear.
    """
    if basis is None:
        basis = tau_orthonormal_basis(m)
    k = basis.shape[0]
    if check and k >= 2:
        rng = np.random.default_rng(7)
        c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = form(c1 * basis[0] + c2 * basis[1], basis[1])
        rhs = np.conj(c1) * form(basis[0], basis[1]) + np.conj(c2) * form(basis[1], basis[1])
        scale = max(np.abs(rhs).max(), 1.0)
        if np.abs(lhs - rhs).max() > 1e-8 * scale:
            raise ValueError("form is not sesquilinear")
    q = np.empty((k, m, k, m), dtype=complex)
    for a in range(k):
        for b in range(k):
            q[a, :, b, :] = form(basis[a], basis[b])
    return FormKernel(dim=m, basis_size=k, q=_symmetrize(q.reshape(k * m, k * m)))


def kernel_from_jumps(jumps_arr: np.ndarray) -> FormKernel:
    """Kernel of Gamma(x,y) = sum_k [a_k,x]*[a_k,y] (vectorized)."""
    a = np.asarray(jumps_arr, dtype=complex)
    m = a.shape[-1]
    basis = tau_orthonormal_basis(m)
    # commutators [a_k, e_b] for all jumps and basis elements
    c = np.einsum("kij,bjl->kbil", a, basis) - np.einsum("bij,kjl->kbil", basis, a)
    q = np.einsum("kaiu,kbiv->aubv", c.conj(), c)
    k = basis.shape[0]
    return FormKernel(dim=m, basis_size=k, q=_symmetrize(q.reshape(k * m, k * m)))


def kernel_from_superop(a: Superop, basis: np.ndarray | None = None) -> FormKernel:
    """Kernel of the weak-form gradient of a self-adjoint generator A:

        Gamma_A(x, y) = (A(x)* y + x* A(y) - A(x* y)) / 2.
    """
    m = a.dim
    if basis is None:
        basis = tau_orthonormal_basis(m)
    k = basis.shape[0]
    ab = np.array([a.apply(b) for b in basis])
    prod = np.einsum("aji,bjl->abil", basis.conj(), basis)  # e_a* e_b
    aprod = np.einsum("pq,abq->abp", a.matrix, prod.reshape(k, k, m * m))
    aprod = aprod.reshape(k, k, m, m)
    q = 0.5 * (
        np.einsum("aji,bjl->abil", ab.conj(), basis)
        + np.einsum("aji,bjl->abil", basis.conj(), ab)
        - aprod
    )
    q = q.transpose(0, 2, 1, 3).reshape(k * m, k * m)
    return FormKernel(dim=m, basis_size=k, q=_symmetrize(q))


def kernel_ie(n: SubAlgebra, basis: np.ndarray | None = None) -> FormKernel:
    """Kernel of Gamma_{I-E_N}."""
    a = identity_superop(n.dim) - n.expectation
    return kernel_from_superop(a, basis=basis)


def _psd_floor(w: np.ndarray) -> float:
    return PSD_RTOL * max(np.abs(w).max() if w.size else 0.0, 1.0)


def cp_order_holds(q_small: FormKernel, q_big: FormKernel, lam: float) -> bool:
    """True iff Q_big - lam * Q_small is PSD up to a scale-relative floor."""
    if q_small.size != q_big.size or q_small.dim != q_big.dim:
        raise ValueError("kernel dimension mismatch")
    w = np.linalg.eigvalsh(q_big.q - lam * q_small.q)
    return bool(w.min() >= -_psd_floor(w))


def _top_eigpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a Hermitian matrix and a unit eigenvector."""
    n = h.shape[0]
    w, v = scipy.linalg.eigh(h, subset_by_index=[n - 1, n - 1], driver="evr")
    return float(w[0]), v[:, 0]


@dataclass(frozen=True)
class GammaECertificate:
    """lambda* = max{lambda : lambda Q_small <= Q_big} and how it was decided.

    ``leak`` = ||P_ker Q_small P_ker|| over ker Q_big (None if Q_big is not
    PSD); ``margin`` is how far the number that chose ``status`` ("positive"
    or "zero") clears its floor; ``tolerance`` is the floor of Q_big below
    which directions count as kernel.  ``witness`` is a unit vector where the
    order fails (zero) or is tight (positive); None for trivial dynamics.
    """

    method: ClassVar[str] = "pencil-direct"

    lambda_star: float
    status: str
    leak: float | None
    margin: float
    tolerance: float
    witness: np.ndarray | None = None

    def to_json(self) -> dict:
        return {
            "lambda_star": float(self.lambda_star),
            "status": self.status,
            "leak": None if self.leak is None else float(self.leak),
            "margin": float(self.margin),
            "method": self.method,
            "tolerance": float(self.tolerance),
        }


def best_lambda(q_small: FormKernel, q_big: FormKernel) -> GammaECertificate:
    """Largest lambda with lambda * Q_small <= Q_big, by a direct pencil solve.

    Q_small is PSD.  Q_big, split at the PSD floor into range R (eigenvalues
    S) and kernel K, gives lambda* = 0 if it has a direction below -floor or
    if the leak ||K* Q_small K|| exceeds the floor of Q_small (ker Q_big is
    not inside ker Q_small), and otherwise
    lambda* = 1 / lambda_max(S^-1/2 R* Q_small R S^-1/2).
    Raises ValueError when Q_small vanishes.
    """
    norm_small = np.linalg.norm(q_small.q)  # Frobenius: bounds ||Q_small||, no eigensolve
    if norm_small <= PSD_RTOL:
        raise ValueError("Q_small vanishes; no pencil to solve")
    floor_small = PSD_RTOL * max(norm_small, 1.0)
    wb, vb = np.linalg.eigh(q_big.q)
    floor = _psd_floor(wb)
    if wb[0] < -floor:
        return GammaECertificate(0.0, "zero", None, -wb[0] - floor, floor, vb[:, 0])
    in_range = wb > floor
    ker = vb[:, ~in_range]
    leak = 0.0
    if ker.shape[1]:
        leak, v = _top_eigpair(ker.conj().T @ q_small.q @ ker)
        if leak > floor_small:
            return GammaECertificate(0.0, "zero", leak, leak - floor_small, floor, ker @ v)
    r = vb[:, in_range] / np.sqrt(wb[in_range])  # R S^-1/2
    top, u = _top_eigpair(r.conj().T @ q_small.q @ r)
    if top <= 0.0:
        raise ValueError("Q_small vanishes on the range of Q_big; no pencil to solve")
    wit = r @ u
    wit /= np.linalg.norm(wit)
    return GammaECertificate(1.0 / top, "positive", leak, floor_small - leak, floor, wit)


def gamma_e_constant(gen: LindbladGenerator) -> GammaECertificate:
    """Certified gradient-condition constant of a Lindblad generator.

    Compares the kernel of Gamma_{I-E_fix} against the kernel of the jump
    gradient form.  A generator with trivial dynamics (fixed algebra all of
    M_m, so Gamma_{I-E} vanishes) gets a zero certificate without a solve.
    """
    q_small = kernel_ie(gen.fixed_algebra)
    norm_small = np.linalg.norm(q_small.q)
    if norm_small <= PSD_RTOL:
        return GammaECertificate(0.0, "zero", 0.0, PSD_RTOL - norm_small, PSD_RTOL)
    return best_lambda(q_small, kernel_from_jumps(gen.jumps.jumps))


# ---------------------------------------------------------------------------
# module-basis Choi matrix, cb-norms, return time
# ---------------------------------------------------------------------------

def _check_bimodular(
    apply_t: Callable[[np.ndarray], np.ndarray],
    n: SubAlgebra,
    rng_seed: int = 11,
    samples: int = 6,
) -> None:
    rng = np.random.default_rng(rng_seed)
    m = n.dim
    k = n.size
    for _ in range(samples):
        c1 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        c2 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        n1 = np.tensordot(c1, n.basis, axes=(0, 0))
        n2 = np.tensordot(c2, n.basis, axes=(0, 0))
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        lhs = apply_t(n1 @ x @ n2)
        rhs = n1 @ apply_t(x) @ n2
        scale = max(np.abs(rhs).max(), 1.0)
        if np.abs(lhs - rhs).max() > 1e-8 * scale:
            raise ValueError("map is not an N-bimodule map")


def choi_matrix(
    t: Superop | Callable[[np.ndarray], np.ndarray],
    basis: ModuleBasis,
    check: bool = True,
) -> np.ndarray:
    """Block matrix sum_{ij} |i><j| (x) T(xi_i* xi_j) over a module basis.

    Its operator norm is the L1 -> Linf cb-norm of the N-bimodule map T.
    """
    apply_t = t.apply if isinstance(t, Superop) else t
    if check:
        _check_bimodular(apply_t, basis.algebra)
    xis = basis.xis
    k = xis.shape[0]
    m = basis.algebra.dim
    chi = np.empty((k, m, k, m), dtype=complex)
    for i in range(k):
        for j in range(k):
            chi[i, :, j, :] = apply_t(xis[i].conj().T @ xis[j])
    return chi.reshape(k * m, k * m)


def cb_norm_1_to_inf(
    t: Superop | Callable[[np.ndarray], np.ndarray],
    basis: ModuleBasis,
    check: bool = False,
) -> float:
    chi = choi_matrix(t, basis, check=check)
    return float(np.linalg.norm(chi, 2))


def return_time(
    a: Superop,
    n: SubAlgebra,
    threshold: float = 0.5,
    tol: float = 1e-6,
    basis: ModuleBasis | None = None,
) -> float:
    """Smallest t with ||chi_{T_t - E}|| <= threshold, by bisection in t.

    The Choi norm of T_t - E is the L1 -> Linf cb distance to equilibrium;
    it decreases in t, so bisection is justified.  Returns math.inf when the
    threshold is not reached by t = 1e4 / gap, and raises if the generator
    has no spectral gap (no convergence to E).
    """
    from .generator import spectral_gap

    gap = spectral_gap(a)
    if gap <= 0.0:
        raise ValueError("generator has no spectral gap; no convergence to E")
    if basis is None:
        basis = module_basis(n)
    e = n.expectation

    def g(t: float) -> float:
        def diff(x):
            return semigroup_apply(a, t, x) - e.apply(x)

        return cb_norm_1_to_inf(diff, basis) - threshold

    if g(0.0) <= 0.0:
        return 0.0
    t_cap = 1e4 / gap
    hi = 1.0 / gap
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > t_cap:
            return math.inf
    lo = 0.0 if hi <= 2.0 / gap else hi / 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def l2_to_linf_cb_sq(s: Superop) -> float:
    """Squared cb-norm of a map L2(tau) -> M for the self-dual structure:

        ||S||^2 = || sum_i S(e_i) (x) conj(S(e_i)) ||

    over any tau-orthonormal basis {e_i}.  For S = T_t - E of an ergodic
    self-adjoint semigroup this equals ||chi_{T_{2t} - E}|| exactly, which is
    the splitting identity relating the distance to equilibrium at time 2t
    to the squared L2 -> Linf norm at time t.
    """
    m = s.dim
    basis = tau_orthonormal_basis(m)
    acc = np.zeros((m * m, m * m), dtype=complex)
    for e in basis:
        se = s.apply(e)
        acc += np.kron(se, se.conj())
    return float(np.linalg.norm(acc, 2))
