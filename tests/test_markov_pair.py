"""One Markov-pair guard: ``generator.markov_pair`` decides, for every entry point that
takes a pair (the dynamics, the return time, the gap and the functional calculus),
whether a pair (A, N) may be used."""

import numpy as np
import pytest

from conftest import make_zoo, random_degenerate_commutant
from superop_oracle import superop_from_action
from qmsemi.algebra import scalar_algebra
from qmsemi.constants import check_decay_bound, check_lp_decay, flsi_estimate
from qmsemi.cporder import return_time
from qmsemi.entropy import default_grid, simulate_decay
from qmsemi import generator
from qmsemi.generator import LindbladGenerator, markov_pair, spectral_gap
from qmsemi.io import dump_json
from qmsemi.matops import (hermitian_basis, identity_superop, make_superop, random_state,
                           reshuffle, semigroup_apply)
from qmsemi.models import random_lindblad
from qmsemi.subordinate import (WeightProfile, density_approximation, eps_sigma_generator,
                                fractional_power, psi_r_map, subordinated_generator)

ZOO = make_zoo()
ENTRY_POINTS = ("flsi_estimate", "check_decay_bound", "check_lp_decay", "simulate_decay",
                "return_time", "spectral_gap", "density_approximation", "fractional_power",
                "eps_sigma_generator", "subordinated_generator", "psi_r_map")


def call(entry, pair):
    if entry == "flsi_estimate":
        return flsi_estimate(pair, n_starts=1, seed=0, n_validate=0)
    if entry == "check_decay_bound":
        return check_decay_bound(pair, 0.5, n_states=3)
    if entry == "check_lp_decay":
        return check_lp_decay(pair, 0.5, n_x=3)
    if entry == "simulate_decay":
        m = pair.dim if isinstance(pair, LindbladGenerator) else pair[0].dim
        return simulate_decay(pair, random_state(m, np.random.default_rng(1)),
                              default_grid(0.5), 0.5)
    if entry == "density_approximation":
        return density_approximation(pair, 0.1)
    if entry == "fractional_power":
        return fractional_power(pair, 0.5)
    if entry == "eps_sigma_generator":
        return eps_sigma_generator(pair, -5.0, 0.5)
    if entry == "subordinated_generator":
        return subordinated_generator(pair, WeightProfile.power_law(0.5))
    if entry == "psi_r_map":
        return psi_r_map(pair, WeightProfile.power_law(0.5), 1.0)
    return {"return_time": return_time, "spectral_gap": spectral_gap}[entry](pair)


def kossakowski_spread(a):
    """Least over top eigenvalue of the Kossakowski matrix of A."""
    m = a.dim
    f = hermitian_basis(m)[1:].transpose(0, 2, 1).reshape(m * m - 1, m * m)
    kos = f.conj() @ reshuffle(-a.matrix, m) @ f.T
    w = np.linalg.eigvalsh((kos + kos.conj().T) / 2.0)
    return w[0] / w[-1]


def lindblad_plus_transpose(m, seed, s=1.0):
    """A_L + s (I - T), T the transpose: self-adjoint, PSD and kills 1, on N = C 1."""
    gen = random_lindblad(m, 2, np.random.default_rng(seed))
    transpose = superop_from_action(lambda x: x.T, m)
    a = make_superop(gen.superop.matrix + s * (identity_superop(m) - transpose).matrix, m)
    return a, scalar_algebra(m)


def block_pair(m, seed):
    """B M B on a random non-abelian block algebra N, B = I - E_N, M = G G*."""
    rng = np.random.default_rng(seed)
    n = random_degenerate_commutant(m, rng)
    g = rng.standard_normal((m * m, m * m)) + 1j * rng.standard_normal((m * m, m * m))
    a = n.complement @ make_superop(g @ g.conj().T / m**2, m) @ n.complement
    basis = n.basis
    assert np.abs(basis[:, None] @ basis - basis @ basis[:, None]).max() > 0.1  # non-abelian
    return a, n


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("m, seed", [(2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3),
                                     (4, 0), (4, 1), (4, 2), (4, 3)])
def test_a_lindblad_plus_transpose_pair_is_refused(m, seed, entry):
    pair = lindblad_plus_transpose(m, seed)
    assert kossakowski_spread(pair[0]) < -1e-3
    with pytest.raises(ValueError, match="not a quantum Markov generator: cp_semigroup fails"):
        call(entry, pair)


def test_the_guard_refuses_what_no_evolved_state_shows():
    # random_lindblad(3, 2, rng(3)) + (I - T): every evolved state of 20 random starts
    # keeps its eigenvalues above -1e-8 on the default grid, yet e^{-tA} is not CP
    a, n = lindblad_plus_transpose(3, 3)
    rho0 = random_state(3, np.random.default_rng(0), np.ones(20))
    rho_t = semigroup_apply(a, default_grid(0.5), rho0)
    assert np.linalg.eigvalsh((rho_t + rho_t.conj().swapaxes(-1, -2)) / 2.0).min() > -1e-8
    with pytest.raises(ValueError, match="cp_semigroup fails"):
        markov_pair((a, n))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("m, seed", [(3, 1), (3, 3), (4, 0), (4, 1), (4, 2), (4, 3)])
def test_a_block_pair_b_m_b_is_refused(m, seed, entry):
    # B M B is self-adjoint, PSD and vanishes on N, but its Kossakowski matrix is not PSD
    pair = block_pair(m, seed)
    assert kossakowski_spread(pair[0]) < -1e-3
    with pytest.raises(ValueError, match="not a quantum Markov generator: cp_semigroup fails"):
        call(entry, pair)


def _markov_pairs():
    """(A, N) named: the zoo, its A^theta and B_0.1, and I - E_N on the zoo's algebras
    and on random block algebras."""
    for name, gen in ZOO.items():
        n = gen.fixed_algebra
        yield pytest.param(gen.superop, n, id=name)
        for th in (0.25, 0.5, 0.75):
            yield pytest.param(fractional_power(gen, th), n, id=f"{name}^{th}")
        yield pytest.param(density_approximation(gen, 0.1)[0], n, id=f"{name}-B_0.1")
        yield pytest.param(n.complement, n, id=f"{name}-I-E")
    rng = np.random.default_rng(25)
    for m in (3, 4):
        n = random_degenerate_commutant(m, rng)
        yield pytest.param(n.complement, n, id=f"block_m{m}-I-E")


@pytest.mark.parametrize("a, n", list(_markov_pairs()))
def test_markov_pairs_pass_the_guard(a, n):
    got = markov_pair((a, n))
    assert got[0] is a and got[1] is n


def test_a_generator_and_its_pair_give_the_same_bytes():
    for name, gen in ZOO.items():
        pair = (gen.superop, gen.fixed_algebra)
        for check in (check_decay_bound, check_lp_decay):
            want = dump_json(check(gen, 0.3, 5, seed=2))
            assert dump_json(check(pair, 0.3, 5, seed=2)) == want, name
        rho0 = random_state(gen.dim, np.random.default_rng(3))
        grid = default_grid(0.3, n=15)
        assert (simulate_decay(gen, rho0, grid, 0.3).to_csv()
                == simulate_decay(pair, rho0, grid, 0.3).to_csv()), name


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_raw_pair_is_validated_once_per_call_and_a_generator_never(monkeypatch, entry):
    gen = ZOO["random_2jump_m3"]
    checked = []
    validate = generator.validate_generator
    monkeypatch.setattr(generator, "validate_generator",
                        lambda a: checked.append(a) or validate(a))
    call(entry, gen)
    assert checked == []
    call(entry, (gen.superop, gen.fixed_algebra))
    assert checked == [gen.superop]


def test_a_lindblad_generator_is_trusted_without_an_eigensolve(monkeypatch):
    gen = random_lindblad(3, 2, np.random.default_rng(4))

    def refuse(*args, **kwargs):
        raise AssertionError("markov_pair ran an eigensolve on a LindbladGenerator")
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    a, n = markov_pair(gen)
    assert a is gen.superop and n is gen.fixed_algebra
