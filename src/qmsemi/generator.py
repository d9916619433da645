"""Lindblad generators built from Hermitian jump operators.

A jump set {a_1, ..., a_r} of Hermitian matrices defines the self-adjoint
generator

    L(x) = sum_k (a_k^2 x + x a_k^2 - 2 a_k x a_k),

the derivation delta(x) = ([a_k, x])_k, and the gradient form (carre du
champ) Gamma(x, y) = sum_k [a_k, x]* [a_k, y].  The fixed-point algebra of
e^{-tL} is the commutant of the jumps and carries the trace-preserving
conditional expectation against which all entropy decay is measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import SubAlgebra, commutant, identity_first_algebra
from .matops import Superop, _adjoint, hermitian_basis, make_superop, reshuffle
from .tolerances import HERMITIAN, PSD, SUPEROP_FLAG, rel_floor

__all__ = [
    "JumpSet",
    "jump_set",
    "LindbladGenerator",
    "lindblad",
    "derivation",
    "gradient_form",
    "validate_generator",
    "MarkovPair",
    "markov_pair",
    "spectral_gap",
    "require_gap",
]


@dataclass(frozen=True)
class JumpSet:
    """Hermitian jump operators a_1..a_r on M_m, each to HERMITIAN of its own largest entry."""

    dim: int
    jumps: np.ndarray  # (r, m, m)

    def __post_init__(self):
        off = np.abs(self.jumps - _adjoint(self.jumps)).max(axis=(-2, -1), initial=0.0)
        if (bad := ~(off <= rel_floor(self.jumps, HERMITIAN, axis=(-2, -1)))).any():
            raise ValueError(f"jump operator {int(bad.argmax())} is not Hermitian")

    @property
    def size(self) -> int:
        return self.jumps.shape[0]


def jump_set(jumps: list[np.ndarray] | np.ndarray, m: int | None = None) -> JumpSet:
    arr = np.asarray(jumps, dtype=complex)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.size == 0:
        if m is None:
            raise ValueError("dimension required for an empty jump set")
        arr = arr.reshape(0, m, m)
    return JumpSet(dim=arr.shape[-1], jumps=arr)


@dataclass(frozen=True)
class LindbladGenerator:
    jumps: JumpSet
    superop: Superop
    fixed_algebra: SubAlgebra

    @property
    def e_fix(self) -> Superop:
        return self.fixed_algebra.expectation

    @property
    def dim(self) -> int:
        return self.jumps.dim


def lindblad(jumps: JumpSet) -> LindbladGenerator:
    """Build the generator and its fixed algebra.

    Over row-major vec, x -> b x c has matrix b (x) c^T, so the generator is
    sq (x) 1 + 1 (x) sq^T - 2 sum_k a_k (x) a_k^T with sq = sum_k a_k^2.
    Jumps so large that this matrix overflows raise ValueError in ``make_superop``.
    When only the mode of 1, which eigh sorts first, is at or below PSD ||A||,
    N = C 1 comes off the cached spectrum: eigh's rounding keeps the commutator
    stack's sigma_2 far above the SVD cutoff of ``algebra.commutant``, which
    decides N otherwise.
    """
    m = jumps.dim
    a = jumps.jumps
    eye = np.eye(m)
    with np.errstate(over="ignore", invalid="ignore"):  # make_superop refuses an overflow
        sq = np.einsum("kij,kjl->il", a, a)
        sandwich = np.einsum("kij,kqp->ipjq", a, a).reshape(m * m, m * m)
        matrix = np.kron(sq, eye) + np.kron(eye, sq.T) - 2.0 * sandwich
    sup = make_superop(matrix, m)
    if sup.hs_selfadjoint and not (sup.eig[0][1:2] <= PSD * sup.norm).any():  # w[1], if m > 1
        return LindbladGenerator(jumps, sup, identity_first_algebra(sup.eig[1][:, :1], m))
    return LindbladGenerator(jumps, sup, commutant(list(a), m))


def derivation(jumps: JumpSet, x: np.ndarray) -> np.ndarray:
    """delta(x) = ([a_k, x])_k, shape (r, m, m)."""
    if x.shape != (jumps.dim, jumps.dim):
        raise ValueError("dimension mismatch")
    a = jumps.jumps
    return np.einsum("kij,jl->kil", a, x) - np.einsum("ij,kjl->kil", x, a)


def gradient_form(jumps: JumpSet, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gamma(x, y) = sum_k [a_k, x]* [a_k, y]; PSD at x = y, sesquilinear."""
    dx = derivation(jumps, x)
    dy = derivation(jumps, y)
    return np.einsum("kij,kil->jl", dx.conj(), dy)


# the conditions of validate_generator that make e^{-tA} a quantum Markov semigroup
MARKOV_CHECKS = ("hs_selfadjoint", "kills_identity", "psd", "cp_semigroup")


def validate_generator(a: Superop) -> dict:
    """Check the standing generator assumptions and report per-check results.

    e^{-tA} is completely positive for every t >= 0 exactly when -A preserves
    Hermiticity (Choi(-A) is Hermitian) and is conditionally completely
    positive, that is when the Kossakowski matrix K_jk = <f_j, Choi(-A) f_k>
    is PSD, with f_j = sum_b |b> (x) F_j |b> over the traceless Hermitian
    basis F_j (Lindblad 1976; Gorini, Kossakowski and Sudarshan 1976).
    """
    m = a.dim
    report: dict = {
        "hs_selfadjoint": bool(a.hs_selfadjoint),
        "kills_identity": bool(a.kills_identity),
        "psd": False,
        "cp_semigroup": False,
    }
    if a.hs_selfadjoint:
        w, _ = a.eig
        report["psd"] = bool(w.min() >= -rel_floor(w, PSD))
    choi = reshuffle(-a.matrix, m)
    if np.abs(choi - choi.conj().T).max() <= rel_floor(choi, SUPEROP_FLAG):
        f = hermitian_basis(m)[1:].transpose(0, 2, 1).reshape(m * m - 1, m * m)
        kos = f.conj() @ choi @ f.T
        kw = np.linalg.eigvalsh((kos + kos.conj().T) / 2.0)
        report["cp_semigroup"] = bool(kw.min(initial=0.0) >= -rel_floor(kos, PSD))
    report["all_passed"] = all(report[k] for k in MARKOV_CHECKS)
    return report


class MarkovPair(NamedTuple):
    """(A, N) known to be a quantum Markov pair; ``markov_pair`` hands it back unchecked."""

    superop: Superop
    algebra: SubAlgebra


def markov_pair(gen) -> MarkovPair:
    """(A, N) of a generator, or of a raw pair once checked to be a quantum Markov pair.

    A ``LindbladGenerator`` is one by construction: Hermitian jumps, N the kernel of A;
    so is a ``MarkovPair``, which a function that has checked its pair passes on.
    A raw pair must pass ``validate_generator`` and vanish on N, ||A E|| <= SUPEROP_FLAG
    (relative); then E A = (A E)* = 0 too, so E(T_t rho) = E(rho).  Else ValueError.
    """
    if isinstance(gen, MarkovPair):
        return gen
    if isinstance(gen, LindbladGenerator):
        return MarkovPair(gen.superop, gen.fixed_algebra)
    a, n = gen
    report = validate_generator(a)
    if failed := [k for k in MARKOV_CHECKS if not report[k]]:
        raise ValueError(f"not a quantum Markov generator: {failed[0]} fails")
    if np.abs(a.matrix @ n.expectation.matrix).max() > rel_floor(a.matrix, SUPEROP_FLAG):
        raise ValueError("the generator must vanish on the algebra N (A E = 0)")
    return MarkovPair(a, n)


def spectral_gap(gen) -> float:
    """w[dim N], the least eigenvalue of A off the dim N null modes (the modes E_N keeps);
    0.0 when A has no mode off N.  ``gen`` passes ``markov_pair`` (else ValueError)."""
    a, n = markov_pair(gen)
    off = a.eig[0][n.size:]
    return float(off[0]) if off.size else 0.0


def require_gap(gen) -> float:
    """``spectral_gap``, or ValueError "no spectral gap" when it is at or below PSD ||A||,
    where w[dim N] is no more than eigh's rounding of A's null modes."""
    pair = markov_pair(gen)
    gap = spectral_gap(pair)
    if gap <= PSD * pair.superop.norm:
        raise ValueError("generator has no spectral gap; no convergence to E")
    return gap
