"""Completely positive order of gradient forms via Hermitian kernels.

A sesquilinear form Gamma with values in M_m is encoded on a tau-orthonormal
operator basis {e_a} as the Hermitian kernel

    Q[(a,u),(b,v)] = <u, Gamma(e_a, e_b) v>,

so that sum_{ij} z_i* Gamma(x_i, x_j) z_j >= 0 for all finite families
(x_i in span{e_a}, z_i in C^m) is exactly Q >= 0.  Kernels are built from
a self-adjoint superoperator A (the weak form of Gamma_A, ``kernel_from_superop``,
gathered from A's entries in O(m^6)) or from a jump set (``kernel_from_jumps``),
always over the matrix units e_ij = sqrt(m) |i><j|.  The gradient condition
"lambda * Gamma_{I-E} <= Gamma_A in cp order" becomes an eigenvalue pencil,
solved directly (see ``best_lambda``).  For a Lindblad generator with K jumps
Q_A = C* C with the (K m) x m^3 commutator factor
C[(k,i),(b,u)] = ([a_k, e_b])_{iu}, so rank Q_A <= K m and ker Q_A has
dimension >= m^3 - K m.  When K m is below rank Q_{I-E} = m (m^2/dim N - 1)
(the rank when the index element of N is scalar), ``gamma_e_constant``
forms neither Q_A nor Q_{I-E}: a zero verdict, the exact leak of Q_{I-E} out
of ker Q_A and its floor follow in closed form from a thin SVD of C, the
m x m^3 matrix B = (e_b - E e_b)_{iu} and one m x m eigenproblem.  Every other
jump pencil splits the dense Q_A by an eigendecomposition (``best_lambda``).
A superoperator pencil (``gamma_e``) with N = C 1 first drops the 1 (x) C^m
directions, which both kernels kill, by a congruence; its "positive" status
is then proved by a Cholesky factorization with Rump's rounding margin, and
any other outcome takes ``best_lambda``.
Matrix-amplified agreement is delegated to a sampling oracle in the tests.

The module also computes the module-basis Choi matrix whose operator norm is
the L1 -> Linf cb-norm of an N-bimodule map, and the derived return time, the
first point of the grid RETURN_TIME * k where that norm for T_t - E is <= 1/2.
When N = C 1 an orthonormal module basis is unitarily equivalent to the
scaled matrix units, so ||chi_T|| = m ||Choi(T)|| with the m^2 x m^2
Choi(T) = sum_{bd} |b><d| (x) T(e_bd), the index reshuffle ``matops.reshuffle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import ModuleBasis, SubAlgebra, module_basis
from .generator import LindbladGenerator, MarkovPair, markov_pair, require_gap
from .matops import Superop, make_superop, reshuffle, tau_orthonormal_basis
from .tolerances import (
    CERT_HEADROOM,
    CERT_SHIFT,
    CHOLESKY_UNIT,
    PROBE,
    PSD,
    RETURN_TIME,
    TINY,
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
]

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


def _jump_factor(jumps_arr: np.ndarray) -> np.ndarray:
    """The (K m) x m^3 commutator factor C[(k,i),(b,u)] = ([a_k, e_b])_{iu}; over e_b = e_pq =
    sqrt(m) |p><q| it is sqrt(m) (a_{ip} delta_{qu} - delta_{ip} a_{qu}), two slice assignments."""
    k, m = np.shape(jumps_arr)[0], np.shape(jumps_arr)[-1]
    a, diag = np.sqrt(m) * np.asarray(jumps_arr, dtype=complex), np.arange(m)
    c = np.zeros((k, m, m, m, m), dtype=complex)  # (k, i, p, q, u)
    c[:, :, :, diag, diag] = a[:, :, :, None]
    c[:, diag, diag, :, :] -= a[:, None, :, :]
    return c.reshape(k * m, m ** 3)


def kernel_from_jumps(jumps_arr: np.ndarray) -> FormKernel:
    """Kernel of Gamma(x,y) = sum_k [a_k,x]*[a_k,y], the dense C* C of ``_jump_factor``."""
    c = _jump_factor(jumps_arr)
    m = np.shape(jumps_arr)[-1]
    return FormKernel(dim=m, basis_size=m * m, q=_symmetrize(c.conj().T @ c))


def kernel_from_superop(a: Superop) -> FormKernel:
    """Kernel of the weak-form gradient of a self-adjoint generator A:

        Gamma_A(x, y) = (A(x)* y + x* A(y) - A(x* y)) / 2.

    Over the matrix units e_ij = sqrt(m) |i><j| both products are gathers of
    A's entries: <u, A(e_ij)* e_kl v> = m conj(A[(k,u),(i,j)]) delta_lv, and
    A(e_ij* e_kl) = m delta_ik A(|j><l|), so the kernel is
    (m/2) [X + X* - I_m (x) Choi(A)] with X = S (x) vec(1)^T of rank <= m,
    built in O(m^6).  A is scaled by sqrt(m) twice rather than by m, which
    fixes the kernel's last bits, and the diagonal blocks, where the Choi
    term enters, are replaced by their Hermitian part.
    """
    m = a.dim
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


def kernel_ie(n: SubAlgebra) -> FormKernel:
    """Kernel of Gamma_{I-E_N}."""
    return kernel_from_superop(n.complement)


def _check_same_shape(q_small: FormKernel, q_big: FormKernel) -> None:
    if q_small.size != q_big.size or q_small.dim != q_big.dim:
        raise ValueError("kernel dimension mismatch")


def cp_order_holds(q_small: FormKernel, q_big: FormKernel, lam: float) -> bool:
    """True iff Q_big - lam * Q_small is PSD up to a scale-relative floor."""
    _check_same_shape(q_small, q_big)
    w = np.linalg.eigvalsh(q_big.q - lam * q_small.q)
    return bool(w.min() >= -rel_floor(w, PSD))


def _top_eigpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a Hermitian matrix and a unit eigenvector."""
    if not np.isfinite(h).all():
        raise ValueError("array must not contain infs or NaNs")
    w, v = np.linalg.eigh(h)
    return float(w[-1]), v[:, -1]


@dataclass(frozen=True)
class GammaECertificate:
    """lambda* = max{lambda : lambda Q_small <= Q_big} and how it was decided.

    ``leak`` = ||P_ker Q_small P_ker|| over ker Q_big (None if Q_big is not
    PSD), the exact norm to rounding: a zero status carries it above the floor
    of Q_small, a positive status below it.  ``margin`` is how far the
    number that chose ``status`` ("positive" or "zero") clears its floor;
    ``tolerance`` is the floor of Q_big below which directions count as
    kernel.  ``witness`` is a unit vector where the
    order fails (zero) or is tight (positive); None for trivial dynamics.
    ``method`` names the solve: "pencil-direct" (``best_lambda``, or the
    closed-form zero verdict of ``gamma_e_constant``) or
    "congruence-cholesky" (``gamma_e``), which also sets ``lambda_cert``, a
    lower bound on lambda* proved by a Cholesky factorization; the JSON always
    carries ``lambda_cert``, null where no proof ran.
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
        return {
            "lambda_star": float(self.lambda_star),
            "status": self.status,
            "leak": None if self.leak is None else float(self.leak),
            "margin": float(self.margin),
            "method": self.method,
            "tolerance": float(self.tolerance),
            "lambda_cert": None if self.lambda_cert is None else float(self.lambda_cert),
        }


def best_lambda(q_small: FormKernel, q_big: FormKernel) -> GammaECertificate:
    """Largest lambda with lambda * Q_small <= Q_big, by a direct pencil solve.

    Q_small is PSD.  One eigendecomposition splits Q_big at the PSD floor into
    range R (eigenvalues S) and kernel K: lambda* = 0 if Q_big has a direction
    below -floor or if the leak ||K* Q_small K|| exceeds the PSD floor of
    Q_small (ker Q_big is not inside ker Q_small), and otherwise
    lambda* = 1 / lambda_max(S^-1/2 R* Q_small R S^-1/2).
    Raises ValueError when the kernels differ in shape or Q_small vanishes.
    """
    _check_same_shape(q_small, q_big)
    norm_small = np.linalg.norm(q_small.q)  # Frobenius: bounds ||Q_small||, no eigensolve
    if norm_small <= PSD:
        raise ValueError("Q_small vanishes; no pencil to solve")
    floor_small = rel_floor(norm_small, PSD)
    wb, vb = np.linalg.eigh(q_big.q)
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


def _index_leak(c: np.ndarray, n: SubAlgebra) -> GammaECertificate | None:
    """Zero certificate of a jump pencil Q_big = C* C in closed form, or None.

    Over the matrix units e_a, z = sum_a e_a E(e_a*) is the index element of
    N: central, with tau(z) = dim N.  When z = c 1 (so c = dim N),
    (x, y) -> E((x - Ex)* (y - Ey)) has the kernel c (1 - P_0), P_0 the
    projector onto ker Q_small, and

        Q_small = B* B / 2 + (c/2)(1 - P_0),  B[i, (b, u)] = (e_b - E e_b)_{iu},

    with B of size m x m^3.  ker Q_small lies in ker C, and the caller
    passes only C with fewer rows than rank Q_small = m (m^2/c - 1), so ker C
    holds directions outside ker Q_small and lambda* = 0.  With R the rows of
    C's thin SVD with s^2 above the PSD floor and P_K = 1 - R* R, the leak is
    c/2 + lambda_max(B P_K B*)/2, reached at w = P_K B* y for the top
    eigenvector y of the m x m matrix B B* - (B R*)(B R*)*; w in ker C is the
    witness, orthogonal to ker Q_small (in ker C and ker B), so ``leak`` =
    w* Q_small w = (c + ||B w||^2)/2, the exact norm to rounding; the floor
    comes from ``_ie_norm``.  None (use ``best_lambda``) when z is not scalar
    or that top eigenvalue is at or under the PSD floor.
    """
    m, dim_n = n.dim, n.size
    e = tau_orthonormal_basis(m)
    ee = n.expectation.apply(e)
    z = np.einsum("aij,akj->ik", e, ee.conj())  # E(e_a*) = E(e_a)*
    if np.abs(z - dim_n * np.eye(m)).max() > rel_floor(z, PSD):
        return None
    _, s, rh = np.linalg.svd(c, full_matrices=False)
    floor = rel_floor(s ** 2, PSD)
    rh = rh[s ** 2 > floor]
    b = (e - ee).transpose(1, 0, 2).reshape(m, -1)
    bb, br = b @ b.conj().T, b @ rh.conj().T
    h = bb - br @ br.conj().T
    top, y = _top_eigpair(h)
    if not top > rel_floor(h, PSD):
        return None
    wit = b.conj().T @ y
    wit -= rh.conj().T @ (rh @ wit)
    wit /= np.linalg.norm(wit)
    leak = (dim_n + np.linalg.norm(b @ wit) ** 2) / 2.0
    floor_small = rel_floor(_ie_norm(bb, dim_n), PSD)
    return GammaECertificate(0.0, "zero", leak, leak - floor_small, floor, wit)


def _ie_norm(bb: np.ndarray, c: int) -> float:
    """||Q_{I-E}||_F from B B* when z = c 1: ||B* B/2 + (c/2)(1 - P_0)||_F with B P_0 = 0."""
    m = bb.shape[0]
    return math.sqrt(np.vdot(bb, bb).real + c * (2.0 * np.trace(bb).real + m * (m * m - c))) / 2.0


def gamma_e_constant(gen: LindbladGenerator) -> GammaECertificate:
    """Certified gradient-condition constant of a Lindblad generator.

    Compares the kernel of Gamma_{I-E_fix} against the kernel of the jump
    gradient form.  A generator with trivial dynamics (fixed algebra all of
    M_m, so Gamma_{I-E} vanishes) gets a zero certificate without a solve.
    With K jumps rank Q_A <= K m; when that is below m (m^2/dim N - 1), the
    rank of Q_{I-E} for a scalar index element, the factor C decides a zero
    verdict in closed form with no kernel built (``_index_leak``).  Every other
    pencil, and a closed form that does not apply, takes ``best_lambda``.
    """
    n, m, jumps = gen.fixed_algebra, gen.dim, gen.jumps.jumps
    if n.size == m * m:
        return GammaECertificate(0.0, "zero", 0.0, PSD, PSD)
    if gen.jumps.size * m < m * (m * m / n.size - 1):
        cert = _index_leak(_jump_factor(jumps), n)
        if cert is not None:
            return cert
    return best_lambda(kernel_ie(n), kernel_from_jumps(jumps))


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
    q_small: FormKernel, q_big: FormKernel, n: SubAlgebra
) -> GammaECertificate | None:
    """Positive certificate of a superoperator pencil that kills N = C 1, or None.

    Both kernels are over the matrix units.  Swap the matrix unit e_p with
    the largest |tau(e_p)| (the first diagonal one) for the unit
    1 / ||1||.  When both kernels vanish on the swapped-in 1 (x) C^m
    directions (rows below the PSD floor), the congruence makes each kernel
    block diagonal with a zero block, so lambda* is that of the kernels with
    the e_p (x) C^m rows and columns deleted; no new matrix is formed.  One
    generalized ``eigh`` (Cholesky of Q_big' inside) gives lambda_hat from its
    top pair (the full solve's top pair when the subset solve returns none, as
    it does on a flat spectrum), and a second Cholesky of Q_big' - lambda_hat
    (1 - delta) Q_small', shifted by Rump's margin (``_cholesky_shift``),
    proves that lower bound; delta is CERT_SHIFT or, when the margin needs
    more room, the smallest value whose estimated eigenvalue clears it
    CERT_HEADROOM times.  The proof is for the kernels with the swapped-in
    rows, which A's bimodularity makes exactly zero and the row check finds
    below the floor, set to zero.  None when a row check fails, Q_big' is not
    positive definite, neither solve returns a top pair, the top eigenvalue
    is not positive, delta reaches 1, or the certifying Cholesky fails.
    """
    import scipy.linalg

    m, k = q_big.dim, q_big.basis_size
    e = tau_orthonormal_basis(m)
    coords = np.tensordot(n.basis, e.conj(), axes=([1, 2], [1, 2])) / m  # tau(e_a* n_0)
    keep = np.ones((k, m), dtype=bool)
    keep[np.argmax(np.abs(coords[0]))] = False
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
        if mu.size == 0:  # gvx may return no pair on a flat spectrum: take the full solve's top
            mu, vec = scipy.linalg.eigh(qs, qb)
            mu, vec = mu[-1:], vec[:, -1:]
    except np.linalg.LinAlgError:
        return None
    if mu.size == 0 or not mu[0] > 0.0:
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
    vqv = np.einsum("ja,aup->jup", coords.conj(), swapped[0].reshape(k, m, m))
    leak = float(np.linalg.eigvalsh(vqv.reshape(m, m))[-1])
    wit = np.zeros(q_big.size, dtype=complex)
    wit[keep] = vec[:, 0]
    wit /= np.linalg.norm(wit)
    return GammaECertificate(lam, "positive", leak, floors[0] - leak, floors[1], wit,
                             lambda_cert=lam_cert, method="congruence-cholesky")


def gamma_e(a: Superop, n: SubAlgebra) -> GammaECertificate:
    """Certified lambda* of lambda Gamma_{I-E_N} <= Gamma_A for a superoperator A.

    Both kernels are built over the matrix units (``kernel_from_superop``).
    With N = C 1 the pencil is compressed by a congruence and certified by
    Cholesky (``_congruence_cholesky``); a failed step, or dim N > 1, takes
    ``best_lambda``.  Both forms are N-bimodular, so for dim N > 1 the
    directions (x n) (x) z - x (x) (n z) lie in both kernels and the
    compressed Q_big' would always be singular.
    """
    q_small = kernel_ie(n)
    q_big = kernel_from_superop(a)
    if n.size > 1:
        return best_lambda(q_small, q_big)
    cert = _congruence_cholesky(q_small, q_big, n)
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


def return_time(gen) -> float:
    """The return time t0 = RETURN_TIME min{k : g(k RETURN_TIME) <= 0} on the grid of
    step RETURN_TIME, with g(t) = ||chi_{T_t - E}|| - 1/2.

    The Choi norm of T_t - E is the L1 -> Linf cb distance to equilibrium;
    it does not increase in t, since T_{t+s} - E = T_s (T_t - E) with T_s
    unital CP, so any bracketing search finds the first grid point, and t0
    depends on g alone.  ``gen`` passes ``generator.markov_pair`` (else
    ValueError).  T_t - E comes from the cached eigendecomposition of A; chi
    is m Choi(T_t - E) when N = C 1 and is built over ``module_basis(N)``
    otherwise, Hermitian as A preserves Hermiticity (a Markov condition), so
    ``eigvalsh`` gives ||chi||.  A doubling from 1/gap brackets the root; then
    each step evaluates g at the grid point nearest an Illinois (modified
    regula falsi) estimate on f = ln(2 g + 1), nearly linear in t as ||chi_t||
    decays like C e^{-gap t}, and after three steps in a row that keep over
    half of the candidates the next step bisects.  Returns math.inf when 1/2
    is not reached by t = 1e4 / gap, and raises "no spectral gap" when the gap
    w[dim N] is at or below PSD ||A|| (``generator.require_gap``).
    """
    g, gap = _return_distance(markov_pair(gen))

    def f(gt: float) -> float:
        return math.log(max(2.0 * gt + 1.0, TINY))

    # g(0) > 0: m^2 - 3/2 if N = C 1, else >= 1/2 as chi_{I-E} has the entry xi_j - E(xi_j) = xi_j
    lo, hi = 0.0, 1.0 / gap
    g_hi = g(hi)
    f_lo = f(g_hi) + 1.0  # f(0), unevaluated, on the line of slope -gap through (1/gap, f)
    while g_hi > 0.0:
        lo, f_lo = hi, f(g_hi)
        hi *= 2.0
        if hi > 1e4 / gap:
            return math.inf
        g_hi = g(hi)
    f_hi = f(g_hi)
    # candidates ka + 1 .. kb on the grid, with g > 0 at ka and g <= 0 at kb
    ka, kb = math.floor(lo / RETURN_TIME), math.ceil(hi / RETURN_TIME)
    moved, stale = 0, 0  # the end the last step moved (-1 lower, 1 upper); steps since a halving
    while kb - ka > 1:
        span, bisect = kb - ka, stale == 3
        w = f_lo / (f_lo - f_hi) if f_lo > f_hi else 0.5
        k = round((lo + w * (hi - lo)) / RETURN_TIME)
        k = (ka + kb) // 2 if bisect else min(max(k, ka + 1), kb - 1)
        t = k * RETURN_TIME
        gt = g(t)
        # Illinois: the end that a second step in a row keeps has its f halved
        if gt > 0.0:
            ka, lo, f_lo = k, t, f(gt)
            f_hi /= 2.0 if moved == -1 else 1.0
            moved = -1
        else:
            kb, hi, f_hi = k, t, f(gt)
            f_lo /= 2.0 if moved == 1 else 1.0
            moved = 1
        stale = 0 if bisect or 2 * (kb - ka) <= span else stale + 1
    return kb * RETURN_TIME


def _return_distance(pair: MarkovPair) -> tuple[Callable[[float], float], float]:
    """g(t) = ||chi_{T_t - E}|| - 1/2 and the spectral gap of A, checked as in ``return_time``."""
    a, n = pair
    m = a.dim
    gap = require_gap(pair)
    w, v = a.eig
    if n.size == 1:
        scale, chi = m, lambda s: reshuffle(s, m)
    else:
        basis = module_basis(n)
        scale, chi = 1, lambda s: choi_matrix(make_superop(s, m), basis, check=False)

    def g(t: float) -> float:
        s = (v * np.exp(-t * w)) @ v.conj().T - n.expectation.matrix
        return scale * np.abs(np.linalg.eigvalsh(chi(s))).max() - 0.5

    return g, gap
