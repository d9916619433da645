"""Subalgebras of M_m: commutants, conditional expectations, module bases.

A *-subalgebra N of M_m is represented by a tau-orthonormal basis.  The
trace-preserving conditional expectation onto N is the orthogonal projection
for the tau inner product, E(x) = sum_i b_i tau(b_i* x); for a von Neumann
subalgebra this projection is automatically unital, positive and N-bimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matops import (
    Superop,
    hs_norm,
    identity_superop,
    is_hermitian,
    make_superop,
    matrix_units,
    nullspace_basis,
    vec,
)
from .tolerances import PSD, SUPEROP_FLAG, rel_floor

__all__ = [
    "SubAlgebra",
    "ModuleBasis",
    "commutant",
    "conditional_expectation",
    "module_basis",
    "full_algebra",
    "scalar_algebra",
    "diagonal_algebra",
]


@dataclass(frozen=True)
class SubAlgebra:
    """A *-subalgebra of M_m given by a tau-orthonormal basis."""

    dim: int
    basis: np.ndarray  # shape (k, m, m)

    @property
    def size(self) -> int:
        return self.basis.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection of x onto the span of the basis."""
        coeffs = np.tensordot(self.basis.conj(), x, axes=([1, 2], [0, 1])) / self.dim
        return np.tensordot(coeffs, self.basis, axes=(0, 0))

    @cached_property
    def expectation(self) -> Superop:
        return conditional_expectation(self)

    @cached_property
    def complement(self) -> Superop:
        """I - E_N, the generator whose Fisher information is I_N."""
        return identity_superop(self.dim) - self.expectation


def _coords_to_ops(coords: np.ndarray, m: int) -> np.ndarray:
    """Unit coordinate vectors (columns) -> tau-orthonormal operators."""
    return (np.sqrt(m) * coords).T.reshape(-1, m, m)


def commutant(gens: list[np.ndarray], m: int) -> SubAlgebra:
    """Commutant {x : [g, x] = 0 for all g} of Hermitian generators on M_m as a SubAlgebra.

    The generators are Hermitian (a generator that is not raises), so the
    result is a von Neumann algebra containing the identity.  Computed as the
    joint nullspace of the stacked commutator superoperators with a
    scale-aware singular value cutoff at PSD * sigma_max.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        return full_algebra(m)
    if not all(is_hermitian(g) for g in gens):
        raise ValueError("commutant requires Hermitian generators")
    eye = np.eye(m, dtype=complex)
    g = np.array(gens)[:, :, None, :, None]
    # row block k is kron(g_k, 1) - kron(1, g_k^T), entry by entry as np.kron forms it
    stacked = g * eye[:, None, :] - eye[:, None, :, None] * g.transpose(0, 4, 3, 2, 1)
    return identity_first_algebra(nullspace_basis(stacked.reshape(-1, m * m)), m)


def identity_first_algebra(ns: np.ndarray, m: int) -> SubAlgebra:
    """The algebra spanned by the orthonormal columns ns, its basis rotated to start at 1."""
    cols = [vec(np.eye(m, dtype=complex)) / np.sqrt(m)]  # Gram-Schmidt of ns after this
    for v in ns.T:
        for c in cols:
            v = v - c * (c.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm > PSD:
            cols.append(v / nrm)
    coords = np.column_stack(cols[: ns.shape[1]])
    return SubAlgebra(dim=m, basis=_coords_to_ops(coords, m))


def conditional_expectation(n: SubAlgebra) -> Superop:
    """Trace-preserving conditional expectation onto N as a superoperator.

    E(x) = sum_i b_i tau(b_i* x); unital, idempotent, positive and
    N-bimodular because the basis spans a *-subalgebra containing 1.  Raises
    unless E(1) = 1 up to SUPEROP_FLAG (relative), that is unless 1 lies in
    the span of the basis.
    """
    m = n.dim
    s = np.zeros((m * m, m * m), dtype=complex)
    for b in n.basis:
        vb = vec(b)
        s += np.outer(vb, vb.conj()) / m
    one = vec(np.eye(m))
    if np.linalg.norm(s @ one - one) / np.sqrt(m) > rel_floor(s, SUPEROP_FLAG):
        raise ValueError("conditional expectation requires 1 in the subalgebra")
    return make_superop(s, m)


def full_algebra(m: int) -> SubAlgebra:
    return SubAlgebra(dim=m, basis=np.sqrt(m) * matrix_units(m))


def scalar_algebra(m: int) -> SubAlgebra:
    return SubAlgebra(dim=m, basis=np.eye(m, dtype=complex)[None, :, :])


def diagonal_algebra(m: int) -> SubAlgebra:
    basis = np.zeros((m, m, m), dtype=complex)
    for i in range(m):
        basis[i, i, i] = np.sqrt(m)
    return SubAlgebra(dim=m, basis=basis)


@dataclass(frozen=True)
class ModuleBasis:
    """Right-module basis of M_m over N: <xi_i, xi_j> = E(xi_i* xi_j) = d_ij p_i."""

    algebra: SubAlgebra
    xis: np.ndarray       # (k, m, m)
    supports: np.ndarray  # (k, m, m), projections in N

    @property
    def size(self) -> int:
        return self.xis.shape[0]

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        return self.algebra.expectation.apply(self.xis.conj().swapaxes(-1, -2) @ x)

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        coeff = self.coefficients(x)
        return np.einsum("kij,kjl->il", self.xis, coeff)


def module_basis(n: SubAlgebra, candidates: np.ndarray | None = None) -> ModuleBasis:
    """Greedy module Gram-Schmidt over N, starting from xi_0 = 1.

    Candidates default to the matrix units in lexicographic order, which
    makes the basis deterministic across runs.  Each accepted residual r is
    normalized to r h^{-1/2} with h = E(r* r) restricted to its support
    (eigenvalues at or below PSD, relative, are its kernel), so E(xi* xi)
    is an exact projection.
    """
    m = n.dim
    e = n.expectation
    if candidates is None:
        candidates = matrix_units(m)
    xis = [np.eye(m, dtype=complex)]
    supports = [np.eye(m, dtype=complex)]
    for cand in candidates:
        r = cand.astype(complex)
        for xi in xis:
            r = r - xi @ e.apply(xi.conj().T @ r)
        if hs_norm(r) <= PSD:
            continue
        h = e.apply(r.conj().T @ r)
        h = (h + h.conj().T) / 2.0
        w, u = np.linalg.eigh(h)
        cut = rel_floor(w, PSD)
        inv_sqrt = np.where(w > cut, 1.0 / np.sqrt(np.clip(w, cut, None)), 0.0)
        supp = np.where(w > cut, 1.0, 0.0)
        xis.append(r @ ((u * inv_sqrt) @ u.conj().T))
        supports.append((u * supp) @ u.conj().T)
    return ModuleBasis(algebra=n, xis=np.array(xis), supports=np.array(supports))
