"""Einsum and pointwise form kernels, kept to check the kernels in ``cporder``.

The jump factor is the commutator tensor [a_k, e_b] of two einsums, and the
jump kernel contracts that tensor with itself by one 4-index einsum.  The
superoperator kernel assembles Gamma_A(e_a, e_b) from three einsums and k^2
matrix-vector applications of A.  A weighted graph's gradient form is
evaluated pointwise on diagonal matrices and its kernel filled one basis pair
at a time.  ``gradient_form_weak`` evaluates the weak form Gamma_A(x, y) of
any self-adjoint A pointwise, and ``gradient_form_ie`` that of I - E_N.
"""

import numpy as np

from qmsemi.algebra import SubAlgebra
from qmsemi.cporder import FormKernel, _symmetrize
from qmsemi.matops import Superop, tau_orthonormal_basis


def _commutators(jumps_arr: np.ndarray) -> np.ndarray:
    """c[k, b, i, u] = ([a_k, e_b])_{iu} for all jumps and basis elements, by two einsums."""
    a = np.asarray(jumps_arr, dtype=complex)
    basis = tau_orthonormal_basis(a.shape[-1])
    return np.einsum("kij,bjl->kbil", a, basis) - np.einsum("bij,kjl->kbil", basis, a)


def jump_factor_by_einsum(jumps_arr: np.ndarray) -> np.ndarray:
    """The (K m) x m^3 commutator factor C[(k,i),(b,u)] = ([a_k, e_b])_{iu}."""
    m = np.shape(jumps_arr)[-1]
    return _commutators(jumps_arr).transpose(0, 2, 1, 3).reshape(-1, m ** 3)


def kernel_from_jumps_by_einsum(jumps_arr: np.ndarray) -> FormKernel:
    """Kernel of Gamma(x,y) = sum_k [a_k,x]*[a_k,y] (vectorized)."""
    m = np.shape(jumps_arr)[-1]
    c = _commutators(jumps_arr)
    q = np.einsum("kaiu,kbiv->aubv", c.conj(), c)
    return FormKernel(dim=m, basis_size=m * m, q=_symmetrize(q.reshape(m ** 3, m ** 3)))


def kernel_from_superop_by_einsum(a: Superop) -> FormKernel:
    """Kernel of the weak-form gradient of a self-adjoint generator A:

        Gamma_A(x, y) = (A(x)* y + x* A(y) - A(x* y)) / 2.
    """
    m = a.dim
    basis = tau_orthonormal_basis(m)
    k = basis.shape[0]
    ab = a.apply(basis)
    prod = np.einsum("aji,bjl->abil", basis.conj(), basis)  # e_a* e_b
    q = 0.5 * (
        np.einsum("aji,bjl->abil", ab.conj(), basis)
        + np.einsum("aji,bjl->abil", basis.conj(), ab)
        - a.apply(prod)
    )
    q = q.transpose(0, 2, 1, 3).reshape(k * m, k * m)
    return FormKernel(dim=m, basis_size=k, q=_symmetrize(q))


def graph_form(weights: np.ndarray):
    """Gamma(f, g)(x) = sum_y w_xy conj(f(x) - f(y)) (g(x) - g(y)) on diagonal f, g."""
    def form(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        fd, gd = np.diag(f), np.diag(g)
        df = fd[:, None] - fd[None, :]
        dg = gd[:, None] - gd[None, :]
        return np.diag(np.sum(weights * df.conj() * dg, axis=1))

    return form


def kernel_from_form(form, m: int, basis: np.ndarray) -> FormKernel:
    """Kernel of a sesquilinear form by evaluating it on all basis pairs."""
    k = basis.shape[0]
    q = np.empty((k, m, k, m), dtype=complex)
    for a in range(k):
        for b in range(k):
            q[a, :, b, :] = form(basis[a], basis[b])
    return FormKernel(dim=m, basis_size=k, q=_symmetrize(q.reshape(k * m, k * m)))


def gradient_form_ie(n: SubAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient form of I - E_N: (x*y - E(x)*y - x*E(y) + E(x*y)) / 2."""
    return gradient_form_weak(n.complement, x, y)


def gradient_form_weak(a: Superop, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient form of an arbitrary self-adjoint generator A:

        Gamma_A(x, y) = (A(x)* y + x* A(y) - A(x* y)) / 2.
    """
    if x.shape != y.shape or x.shape[0] != a.dim:
        raise ValueError("dimension mismatch")
    xs = x.conj().T
    return 0.5 * (a.apply(x).conj().T @ y + xs @ a.apply(y) - a.apply(xs @ y))
