"""Small zoo of concrete generators used by the cases, the CLI and the tests."""

from __future__ import annotations

import numpy as np

from .generator import JumpSet, LindbladGenerator, lindblad
from .matops import hermitian_basis, random_hermitian

__all__ = [
    "pauli",
    "dephasing_generator",
    "depolarizing_generator",
    "random_lindblad",
]

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(name: str) -> np.ndarray:
    return _PAULI[name].copy()


def dephasing_generator(m: int) -> LindbladGenerator:
    """Single diagonal jump; sigma_z for m = 2, diag(1..m) in general.

    The fixed-point algebra is the diagonal subalgebra.
    """
    if m == 2:
        a = pauli("z")
    else:
        a = np.diag(np.arange(1, m + 1).astype(complex))
    return lindblad(JumpSet(dim=m, jumps=a[None, :, :]))


def depolarizing_generator(m: int) -> LindbladGenerator:
    """Exact realization of I - E_tau as a Lindblad generator.

    With a trace-orthonormal Hermitian basis {g_j} one has
    sum_j g_j x g_j = tr(x) 1, so the jumps g_j / sqrt(2m) reproduce
    x - tau(x) 1 exactly; the fixed algebra is the scalars.
    """
    jumps = hermitian_basis(m) / np.sqrt(2.0 * m)
    return lindblad(JumpSet(dim=m, jumps=jumps))


def random_lindblad(
    m: int, n_jumps: int, rng: np.random.Generator, scale: float = 1.0
) -> LindbladGenerator:
    return lindblad(JumpSet(dim=m, jumps=random_hermitian(m, rng, np.full(n_jumps, scale))))
