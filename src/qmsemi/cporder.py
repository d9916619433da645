"""Completely positive order of gradient forms via Hermitian kernels.

A sesquilinear form Gamma with values in M_m is encoded on a tau-orthonormal
operator basis {e_a} as the Hermitian kernel

    Q[(a,u),(b,v)] = <u, Gamma(e_a, e_b) v>,

so that sum_{ij} z_i* Gamma(x_i, x_j) z_j >= 0 for all finite families
(x_i in span{e_a}, z_i in C^m) is exactly Q >= 0.  Kernels are built from
a self-adjoint superoperator A (the weak form of Gamma_A, ``kernel_from_superop``,
gathered from A's entries in O(m^6) on the full basis, or over any explicit
basis such as that of a subalgebra) or from a jump set
(``kernel_from_jumps``).  The gradient condition
"lambda * Gamma_{I-E} <= Gamma_A in cp order" becomes an eigenvalue pencil,
solved directly (see ``best_lambda``).  For a Lindblad generator with K jumps
Q_A = C* C with the (K m) x m^3 commutator factor
C[(k,i),(b,u)] = ([a_k, e_b])_{iu}, so rank Q_A <= K m and ker Q_A has
dimension >= m^3 - K m.  When K < m^2 the leak of Q_{I-E} out of ker Q_A is
first sought by Lanczos on P_K Q_{I-E} P_K from a thin SVD of C: the zero
verdict then rests on a Ritz value and is proved by its Ritz vector, which
lies in ker Q_A.  A "positive" status of ``best_lambda`` comes from the
dense split of Q_A into range and kernel (a full SVD of C, or an
eigendecomposition of Q_A).  A superoperator pencil (``gamma_e``) first drops
the N (x) C^m directions, which both kernels kill, by a congruence; its
"positive" status is then proved by a Cholesky factorization with Rump's
rounding margin, and any other outcome takes ``best_lambda``.
Matrix-amplified agreement is delegated to a sampling oracle in the tests.

The module also computes the module-basis Choi matrix whose operator norm is
the L1 -> Linf cb-norm of an N-bimodule map, and the derived return time.
When N = C 1 an orthonormal module basis is unitarily equivalent to the
scaled matrix units, so ||chi_T|| = m ||Choi(T)|| with the m^2 x m^2
Choi(T) = sum_{bd} |b><d| (x) T(e_bd), the index reshuffle ``matops.reshuffle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .algebra import ModuleBasis, SubAlgebra, module_basis
from .generator import LindbladGenerator, spectral_gap
from .matops import Superop, make_superop, reshuffle, tau_orthonormal_basis
from .tolerances import (
    CERT_HEADROOM,
    CERT_SHIFT,
    CHOLESKY_UNIT,
    PROBE,
    PSD,
    RETURN_TIME,
    SUPEROP_FLAG,
    UNDERFLOW,
    rel_floor,
)

__all__ = [
    "FormKernel",
    "GammaECertificate",
    "kernel_from_jumps",
    "kernel_from_superop",
    "kernel_ie",
    "cp_order_holds",
    "best_lambda",
    "gamma_e_constant",
    "gamma_e",
    "choi_matrix",
    "cb_norm_1_to_inf",
    "return_time",
    "l2_to_linf_cb_sq",
]

@dataclass(frozen=True)
class FormKernel:
    """Hermitian kernel of an operator-valued sesquilinear form.

    ``factor``, when set, is a matrix C with fewer rows than columns and
    q = C* C, so its row count bounds the rank of q.
    """

    dim: int                 # matrix size m (the "vector" slots)
    basis_size: int          # number of operator basis elements
    q: np.ndarray            # (basis_size*dim, basis_size*dim)
    factor: np.ndarray | None = None  # (rows, basis_size*dim) with q = factor* factor

    def __post_init__(self) -> None:
        if self.factor is not None and (self.factor.ndim != 2 or self.factor.shape[1] != self.size):
            raise ValueError("kernel factor must have one column per kernel row")

    @property
    def size(self) -> int:
        return self.basis_size * self.dim


def _symmetrize(q: np.ndarray) -> np.ndarray:
    return (q + q.conj().T) / 2.0


def kernel_from_jumps(jumps_arr: np.ndarray) -> FormKernel:
    """Kernel of Gamma(x,y) = sum_k [a_k,x]*[a_k,y] as C* C.

    C[(k,i),(b,u)] = ([a_k, e_b])_{iu} is kept as the kernel's ``factor`` when
    it has fewer rows than columns (K < m^2 jumps).
    """
    a = np.asarray(jumps_arr, dtype=complex)
    m = a.shape[-1]
    basis = tau_orthonormal_basis(m)
    k = basis.shape[0]
    # commutators [a_k, e_b] for all jumps and basis elements
    c = np.einsum("kij,bjl->kbil", a, basis) - np.einsum("bij,kjl->kbil", basis, a)
    factor = c.transpose(0, 2, 1, 3).reshape(-1, k * m)
    q = _symmetrize(factor.conj().T @ factor)
    wide = factor.shape[0] < factor.shape[1]
    return FormKernel(dim=m, basis_size=k, q=q, factor=factor if wide else None)


def kernel_from_superop(a: Superop, basis: np.ndarray | None = None) -> FormKernel:
    """Kernel of the weak-form gradient of a self-adjoint generator A:

        Gamma_A(x, y) = (A(x)* y + x* A(y) - A(x* y)) / 2.

    On the default basis e_ij = sqrt(m) |i><j| both products are gathers of
    A's entries: <u, A(e_ij)* e_kl v> = m conj(A[(k,u),(i,j)]) delta_lv, and
    A(e_ij* e_kl) = m delta_ik A(|j><l|), so the kernel is
    (m/2) [X + X* - I_m (x) Choi(A)] with X = S (x) vec(1)^T of rank <= m,
    built in O(m^6).  It rounds exactly as the products over that basis do:
    A is scaled by sqrt(m) twice, and the diagonal blocks, where the Choi
    term enters, are replaced by their Hermitian part.  An explicit basis of
    k elements takes the products.
    """
    m = a.dim
    if basis is None:
        n, root, diag = m ** 3, np.sqrt(m), np.arange(m)
        s = (a.matrix.conj() * root * root).reshape(m, m, m * m).transpose(2, 1, 0).reshape(n, m)
        q = np.zeros((n, n), dtype=complex)
        q.reshape(n, m, m * m)[:, :, :: m + 1] = s[:, :, None]  # X at columns (k, l, l)
        q.reshape(m, m * m, n)[:, :: m + 1, :] += s.conj().T[:, None, :]  # X* at rows (k, l, l)
        q *= 0.5
        blocks = q.reshape(m, m * m, m, m * m)  # rows (i, (j, u)), columns (k, (l, v))
        d = blocks[diag, :, diag, :] - (0.5 * root * root) * reshuffle(a.matrix, m)
        blocks[diag, :, diag, :] = (d + d.conj().transpose(0, 2, 1)) / 2.0
        return FormKernel(dim=m, basis_size=m * m, q=q)
    k = basis.shape[0]

    def rows(x):  # x_a* stacked: rows (a, i), columns j
        return x.conj().transpose(0, 2, 1).reshape(k * m, m)

    cols = basis.transpose(1, 0, 2).reshape(m, k * m)  # e_b side by side: columns (b, l)
    ax_y = rows(a.apply(basis)) @ cols  # A(e_a)* e_b; x* A(y) is its adjoint
    prod = (rows(basis) @ cols).reshape(k, m, k, m).transpose(0, 2, 1, 3)  # e_a* e_b at [a, b]
    a_prod = (prod.reshape(-1, m * m) @ a.matrix.T).reshape(k, k, m, m)
    q = 0.5 * (ax_y + ax_y.conj().T - a_prod.transpose(0, 2, 1, 3).reshape(k * m, k * m))
    return FormKernel(dim=m, basis_size=k, q=_symmetrize(q))


def kernel_ie(n: SubAlgebra, basis: np.ndarray | None = None) -> FormKernel:
    """Kernel of Gamma_{I-E_N}."""
    return kernel_from_superop(n.complement, basis=basis)


def _check_same_shape(q_small: FormKernel, q_big: FormKernel) -> None:
    if q_small.size != q_big.size or q_small.dim != q_big.dim:
        raise ValueError("kernel dimension mismatch")


def cp_order_holds(q_small: FormKernel, q_big: FormKernel, lam: float) -> bool:
    """True iff Q_big - lam * Q_small is PSD up to a scale-relative floor."""
    _check_same_shape(q_small, q_big)
    w = np.linalg.eigvalsh(q_big.q - lam * q_small.q)
    return bool(w.min() >= -rel_floor(w, PSD))


def _kernel_eigh(q: FormKernel) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of q, from its factor when set.

    For q = C* C with C = U S V*, the eigenvalues are S^2 padded with exact
    zeros and the eigenvectors are the columns of V, both in reverse order.
    """
    if q.factor is None:
        return np.linalg.eigh(q.q)
    _, s, vh = np.linalg.svd(q.factor, full_matrices=True)
    w = np.zeros(q.size)
    w[q.size - s.size:] = s[::-1] ** 2
    return w, vh[::-1].conj().T


def _top_eigpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a Hermitian matrix and a unit eigenvector."""
    n = h.shape[0]
    w, v = scipy.linalg.eigh(h, subset_by_index=[n - 1, n - 1], driver="evr")
    return float(w[0]), v[:, 0]


@dataclass(frozen=True)
class GammaECertificate:
    """lambda* = max{lambda : lambda Q_small <= Q_big} and how it was decided.

    ``leak`` = ||P_ker Q_small P_ker|| over ker Q_big (None if Q_big is not
    PSD).  A zero status reached by Lanczos (factored Q_big) carries a Ritz
    value instead: the Rayleigh quotient of the witness, a lower bound on that
    norm which proves the verdict; a positive status carries the dense
    split's value, below the floor of Q_small.  ``margin`` is how far the
    number that chose ``status`` ("positive" or "zero") clears its floor;
    ``tolerance`` is the floor of Q_big below which directions count as
    kernel.  ``witness`` is a unit vector where the
    order fails (zero) or is tight (positive); None for trivial dynamics.
    ``method`` names the solve: "pencil-direct" (``best_lambda``) or
    "congruence-cholesky" (``gamma_e``), which also sets ``lambda_cert``, a
    lower bound on lambda* proved by a Cholesky factorization.
    """

    lambda_star: float
    status: str
    leak: float | None
    margin: float
    tolerance: float
    witness: np.ndarray | None = None
    lambda_cert: float | None = None
    method: str = "pencil-direct"

    def to_json(self) -> dict:
        doc = {
            "lambda_star": float(self.lambda_star),
            "status": self.status,
            "leak": None if self.leak is None else float(self.leak),
            "margin": float(self.margin),
            "method": self.method,
            "tolerance": float(self.tolerance),
        }
        if self.lambda_cert is not None:
            doc["lambda_cert"] = float(self.lambda_cert)
        return doc


def _lanczos_leak(
    q_small: FormKernel, q_big: FormKernel, floor_small: float
) -> GammaECertificate | None:
    """Zero certificate from the top Ritz pair of P_K Q_small P_K, or None.

    Q_big = C* C with a wide factor C = U S V*; R holds the right singular
    vectors with S^2 above the PSD floor and P_K = 1 - R R* projects onto
    ker Q_big.  ARPACK (``eigsh``, tol 0) works with x -> P_K Q_small P_K x
    alone, from a fixed seeded start, so no kernel basis and no
    (n - r) x (n - r) block are formed.  The witness P_K v lies in ker Q_big
    and its Rayleigh quotient is the leak; when that clears ``floor_small``
    it proves lambda* = 0.  None (use the dense split) when the leak does
    not clear the floor, when ARPACK does not converge, or when the kernel
    is too small for it (k + 1 < ncv <= n).  ncv = 2m + 2: for N = C 1,
    Q_small is 1/2 plus a rank-2m term, so the Krylov space of P_K Q_small P_K
    closes within 2m + 1 vectors and one Arnoldi pass is exact.
    """
    n = q_big.size
    ncv = min(n, 2 * q_big.dim + 2)
    if ncv <= 2:
        return None
    _, s, rh = np.linalg.svd(q_big.factor, full_matrices=False)
    w = s ** 2
    floor = rel_floor(w, PSD)
    rh = rh[w > floor]
    r = rh.conj().T
    qs = q_small.q

    def project(x: np.ndarray) -> np.ndarray:
        return x - r @ (rh @ x)

    op = LinearOperator((n, n), matvec=lambda x: project(qs @ project(x.ravel())), dtype=complex)
    rng = np.random.default_rng(13)  # fixed start and restarts: reruns are byte-identical
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    try:
        _, vec = eigsh(op, k=1, which="LA", tol=0, ncv=ncv, v0=v0, rng=rng)
    except ArpackError:  # ArpackNoConvergence included
        return None
    wit = project(vec[:, 0])
    wit /= np.linalg.norm(wit)
    leak = float((wit.conj() @ qs @ wit).real)
    if not leak > floor_small:
        return None
    return GammaECertificate(0.0, "zero", leak, leak - floor_small, floor, wit)


def best_lambda(q_small: FormKernel, q_big: FormKernel) -> GammaECertificate:
    """Largest lambda with lambda * Q_small <= Q_big, by a direct pencil solve.

    Q_small is PSD.  Q_big, split at the PSD floor into range R (eigenvalues
    S) and kernel K, gives lambda* = 0 if it has a direction below -floor or
    if the leak ||K* Q_small K|| exceeds the floor of Q_small (ker Q_big is
    not inside ker Q_small), and otherwise
    lambda* = 1 / lambda_max(S^-1/2 R* Q_small R S^-1/2).
    When Q_big carries a wide factor C (a jump kernel, rank Q_A <= K m, PSD
    by construction) the leak is first sought as a Lanczos Ritz value of
    P_K Q_small P_K from a thin SVD of C (``_lanczos_leak``); a Ritz value
    above the floor is a zero verdict proved by its witness in ker Q_big.
    Every other verdict, and every "positive" status, comes from the dense
    split: an eigendecomposition of Q_big, or a full SVD of its factor whose
    right singular vectors give R and K and whose squared singular values
    above the floor give S.
    Raises ValueError when the kernels differ in shape or Q_small vanishes.
    """
    _check_same_shape(q_small, q_big)
    norm_small = np.linalg.norm(q_small.q)  # Frobenius: bounds ||Q_small||, no eigensolve
    if norm_small <= PSD:
        raise ValueError("Q_small vanishes; no pencil to solve")
    floor_small = rel_floor(norm_small, PSD)
    if q_big.factor is not None:
        cert = _lanczos_leak(q_small, q_big, floor_small)
        if cert is not None:
            return cert
    wb, vb = _kernel_eigh(q_big)
    floor = rel_floor(wb, PSD)
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
    if norm_small <= PSD:
        return GammaECertificate(0.0, "zero", 0.0, PSD - norm_small, PSD)
    return best_lambda(q_small, kernel_from_jumps(gen.jumps.jumps))


def _cholesky_shift(h: np.ndarray, spread: float) -> float:
    """Diagonal shift c such that a completed floating-point Cholesky of
    fl(h - c 1) proves that the exact matrix h - ``spread`` 1 is positive definite.

    This is the criterion of S. M. Rump, "Verification of positive
    definiteness", BIT 46 (2006).  A completed Cholesky R of H = fl(h - c 1)
    has R* R = H + dH with |dH| <= gamma |R*| |R|, so ||dH|| <= gamma/(1 - gamma)
    tr(H); rounding h_ii - c costs at most v max_i h_ii more.  Hence

        c = gamma/(1 - 2 gamma) tr(h) + v max_i h_ii + spread
            + 4 n (2 (n + 1) + max_i h_ii) eta,
        gamma = (n + 1) v / (1 - (n + 1) v),

    with eta the smallest subnormal (Rump's underflow term) and v the rounding
    unit, taken as CHOLESKY_UNIT = 4u to cover complex arithmetic.  ``spread``
    bounds the spectral norm of the rounding error made in forming h.
    """
    n = h.shape[0]
    d = h.diagonal().real
    gamma = (n + 1) * CHOLESKY_UNIT / (1.0 - (n + 1) * CHOLESKY_UNIT)
    return (gamma / (1.0 - 2.0 * gamma) * d.sum() + CHOLESKY_UNIT * d.max() + spread
            + 4.0 * n * (2.0 * (n + 1) + d.max()) * UNDERFLOW)


def _congruence_cholesky(
    q_small: FormKernel, q_big: FormKernel, n: SubAlgebra, basis: np.ndarray
) -> GammaECertificate | None:
    """Positive certificate of a superoperator pencil that kills N, or None.

    Swap dim N basis elements e_p (chosen by a pivoted QR of N's coordinates)
    for N's basis.  When both kernels vanish on the swapped-in N (x) C^m
    directions (rows below the PSD floor), the congruence makes each kernel
    block diagonal with a zero block, so lambda* is that of the kernels with
    the e_p (x) C^m rows and columns deleted; no new matrix is formed.  One
    generalized ``eigh`` (Cholesky of Q_big' inside) gives lambda_hat, and a
    second Cholesky of Q_big' - lambda_hat (1 - delta) Q_small', shifted by
    Rump's margin (``_cholesky_shift``), proves that lower bound; delta is
    CERT_SHIFT or, when the margin needs more room, the smallest value whose
    estimated eigenvalue clears it CERT_HEADROOM times.  The proof is for the
    kernels with the swapped-in rows, which A's bimodularity makes exactly
    zero and the row check finds below the floor, set to zero.  None when a
    row check fails, Q_big' is not positive definite, the top eigenvalue is not
    positive, delta reaches 1, or the certifying Cholesky fails.
    """
    m, k = q_big.dim, q_big.basis_size
    coords = np.tensordot(n.basis, basis.conj(), axes=([1, 2], [1, 2])) / m  # tau(e_a* n_j)
    pivots = scipy.linalg.qr(coords, mode="r", pivoting=True)[1][: n.size]
    keep = np.ones((k, m), dtype=bool)
    keep[pivots] = False
    keep = keep.ravel()
    # Q times the swapped-in directions n_j (x) e_u, columns (j, u)
    swapped = [np.einsum("rau,ja->rju", q.q.reshape(-1, k, m), coords) for q in (q_small, q_big)]
    floors = [rel_floor(q.q, PSD) for q in (q_small, q_big)]
    if any(np.abs(s).max() > f for s, f in zip(swapped, floors)):
        return None
    qs, qb = q_small.q[np.ix_(keep, keep)], q_big.q[np.ix_(keep, keep)]
    size = qs.shape[0]
    if size == 0:
        return None
    try:
        mu, vec = scipy.linalg.eigh(qs, qb, subset_by_index=[size - 1, size - 1])
    except np.linalg.LinAlgError:
        return None
    if not mu[0] > 0.0:
        return None
    lam = 1.0 / mu[0]
    spread = 2.0 * CHOLESKY_UNIT * (np.linalg.norm(qb) + lam * np.linalg.norm(qs))
    h = qb - lam * qs
    # Q_big' - lam (1 - delta) Q_small' has its smallest eigenvalue near
    # delta / |v|^2 along the top eigenvector v (v* Q_big' v = 1): size delta
    # so that this clears Rump's margin CERT_HEADROOM times
    delta = max(CERT_SHIFT, CERT_HEADROOM * _cholesky_shift(h, spread) * np.vdot(vec, vec).real)
    if not delta < 1.0:
        return None
    lam_cert = lam * (1.0 - delta)
    h += (lam * delta) * qs
    h[np.diag_indices(size)] -= _cholesky_shift(h, spread)
    try:
        scipy.linalg.cholesky(h, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    # leak of Q_small on the swapped-in directions (orthonormal: both bases are)
    d = n.size
    vqv = np.einsum("ja,aup->jup", coords.conj(), swapped[0].reshape(k, m, d * m))
    leak = float(np.linalg.eigvalsh(vqv.reshape(d * m, d * m))[-1])
    wit = np.zeros(q_big.size, dtype=complex)
    wit[keep] = vec[:, 0]
    wit /= np.linalg.norm(wit)
    return GammaECertificate(lam, "positive", leak, floors[0] - leak, floors[1], wit,
                             lambda_cert=lam_cert, method="congruence-cholesky")


def gamma_e(a: Superop, n: SubAlgebra, basis: np.ndarray | None = None) -> GammaECertificate:
    """Certified lambda* of lambda Gamma_{I-E_N} <= Gamma_A for a superoperator A.

    Both kernels are built over ``basis`` (default: the matrix units, see
    ``kernel_from_superop``).  When A kills N the pencil is compressed by a
    congruence and certified by Cholesky (``_congruence_cholesky``); any
    other case, and any failed step, takes ``best_lambda``.
    """
    q_small = kernel_ie(n, basis=basis)
    q_big = kernel_from_superop(a, basis=basis)
    e = tau_orthonormal_basis(a.dim) if basis is None else basis
    cert = _congruence_cholesky(q_small, q_big, n, e)
    return cert if cert is not None else best_lambda(q_small, q_big)


# ---------------------------------------------------------------------------
# module-basis Choi matrix, cb-norms, return time
# ---------------------------------------------------------------------------

def _check_bimodular(apply_t: Callable[[np.ndarray], np.ndarray], n: SubAlgebra) -> None:
    """Probe T(n1 x n2) = n1 T(x) n2 at six random draws."""
    rng = np.random.default_rng(11)
    m, k = n.dim, n.size
    draws = [(rng.standard_normal(k) + 1j * rng.standard_normal(k),
              rng.standard_normal(k) + 1j * rng.standard_normal(k),
              rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
             for _ in range(6)]
    c1, c2, x = (np.array(z) for z in zip(*draws))
    n1 = np.tensordot(c1, n.basis, axes=(1, 0))
    n2 = np.tensordot(c2, n.basis, axes=(1, 0))
    lhs = apply_t(n1 @ x @ n2)
    rhs = n1 @ apply_t(x) @ n2
    if (np.abs(lhs - rhs).max(axis=(1, 2)) > rel_floor(rhs, PROBE, axis=(1, 2))).any():
        raise ValueError("map is not an N-bimodule map")


def choi_matrix(
    t: Superop | Callable[[np.ndarray], np.ndarray],
    basis: ModuleBasis,
    check: bool = True,
) -> np.ndarray:
    """Block matrix sum_{ij} |i><j| (x) T(xi_i* xi_j) over a module basis.

    Its operator norm is the L1 -> Linf cb-norm of the N-bimodule map T.  A
    callable T must map a stack of shape (..., m, m) matrix by matrix: it
    gets all k^2 products xi_i* xi_j in one (k, k, m, m) call.
    """
    apply_t = t.apply if isinstance(t, Superop) else t
    if check:
        _check_bimodular(apply_t, basis.algebra)
    xis = basis.xis
    k, m = xis.shape[0], basis.algebra.dim
    chi = apply_t(xis.conj().swapaxes(-1, -2)[:, None] @ xis[None])
    return chi.transpose(0, 2, 1, 3).reshape(k * m, k * m)


def cb_norm_1_to_inf(t: Superop | Callable[[np.ndarray], np.ndarray], basis: ModuleBasis) -> float:
    """||chi_T||, the L1 -> Linf cb-norm of the N-bimodule map T (unchecked)."""
    return float(np.linalg.norm(choi_matrix(t, basis, check=False), 2))


def return_time(a: Superop, n: SubAlgebra) -> float:
    """The return time t0: the smallest t with ||chi_{T_t - E}|| <= 1/2.

    The Choi norm of T_t - E is the L1 -> Linf cb distance to equilibrium;
    it decreases in t, so bisection to a resolution of RETURN_TIME in t is
    justified.  T_t - E comes from the cached ``a.eig``; chi is m Choi(T_t - E)
    when N = C 1 and is built over ``module_basis(n)`` otherwise, Hermitian as
    A preserves Hermiticity (checked), so ``eigvalsh`` gives ||chi||.  Returns
    math.inf when 1/2 is not reached by t = 1e4 / gap, and raises if A breaks
    Hermiticity or has no spectral gap (no convergence to E).
    """
    m = a.dim
    choi_a = reshuffle(a.matrix, m)
    if np.abs(choi_a - choi_a.conj().T).max() > rel_floor(choi_a, SUPEROP_FLAG):
        raise ValueError("generator does not preserve Hermiticity")
    gap = spectral_gap(a)
    if gap <= 0.0:
        raise ValueError("generator has no spectral gap; no convergence to E")
    w, v = a.eig
    if n.size == 1:
        scale, chi = m, lambda s: reshuffle(s, m)
    else:
        basis = module_basis(n)
        scale, chi = 1, lambda s: choi_matrix(make_superop(s, m), basis, check=False)

    def g(t: float) -> float:
        s = (v * np.exp(-t * w)) @ v.conj().T - n.expectation.matrix
        return scale * np.abs(np.linalg.eigvalsh(chi(s))).max() - 0.5

    if g(0.0) <= 0.0:
        return 0.0
    t_cap = 1e4 / gap
    hi = 1.0 / gap
    while g(hi) > 0.0:
        hi *= 2.0
        if hi > t_cap:
            return math.inf
    lo = 0.0 if hi <= 2.0 / gap else hi / 2.0
    while hi - lo > RETURN_TIME:
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
    se = s.apply(tau_orthonormal_basis(m))
    acc = np.einsum("eij,ekl->ikjl", se, se.conj()).reshape(m * m, m * m)
    return float(np.linalg.norm(acc, 2))
