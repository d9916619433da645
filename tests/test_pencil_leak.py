"""The closed-form leak of a jump pencil against the dense split.

With K jumps, K m below rank Q_{I-E} = m (m^2/dim N - 1) and a fixed algebra
N whose index element z = sum_a e_a E(e_a*) is scalar, ``gamma_e_constant``
decides a zero verdict from a thin SVD of the jump factor C and one m x m
eigenproblem, and reports the exact leak ||P_ker Q_A Q_{I-E} P_ker Q_A||;
every other pencil takes the dense split of Q_A's eigendecomposition in
``best_lambda``.  ``pencil_oracle.dense_split_lambda`` is the reference.  The
zero verdict builds neither Q_A nor Q_{I-E}: its leak (c + ||B w||^2)/2 and
the Frobenius norm of Q_{I-E} come from B and B B*, and are checked here
against the dense kernel of ``kernel_ie``.
"""

import json

import numpy as np
import pytest

from conftest import make_zoo
from pencil_oracle import dense_split_lambda
from qmsemi import cporder
from qmsemi.cli import main
from qmsemi.cporder import FormKernel, best_lambda, gamma_e_constant, kernel_from_jumps, kernel_ie
from qmsemi.generator import jump_set, lindblad
from qmsemi.io import dump_json, jumps_to_obj
from qmsemi.matops import tau_orthonormal_basis
from qmsemi.models import dephasing_generator, depolarizing_generator, random_lindblad
from qmsemi.tolerances import PSD, rel_floor


def _spin(m):
    """J_x, J_y of the spin-(m - 1)/2 representation."""
    j = (m - 1) / 2
    mz = j - np.arange(m)
    jp = np.diag(np.sqrt(j * (j + 1) - mz[1:] * (mz[1:] + 1)), 1).astype(complex)
    return (jp + jp.conj().T) / 2, (jp - jp.conj().T) / 2j


def _two_by_h(m, seed):
    """Two jumps 1_2 (x) h on M_m: N = M_2 (x) 1, homogeneous with z = 4 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, m // 2, m // 2)) + 1j * rng.standard_normal((2, m // 2, m // 2))
    return lindblad(jump_set([np.kron(np.eye(2), h + h.conj().T) for h in g], m=m))


def _pencil(gen):
    """Q_{I-E} and the jump factor C of Q_A = C* C."""
    return kernel_ie(gen.fixed_algebra), cporder._jump_factor(gen.jumps.jumps)


def _no_dense_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense kernel was built")

    for name in ("kernel_ie", "kernel_from_superop", "kernel_from_jumps", "best_lambda"):
        monkeypatch.setattr(cporder, name, refuse)


def _count_dense_splits(monkeypatch):
    splits = []
    split = cporder.best_lambda
    monkeypatch.setattr(cporder, "best_lambda", lambda *a: splits.append(a) or split(*a))
    return splits


def _assert_matches_oracle(q_small, c, cert, ulps=0):
    ref = dense_split_lambda(q_small, c)
    assert cert.status == ref.status
    assert abs(cert.lambda_star - ref.lambda_star) <= ulps * np.spacing(ref.lambda_star)
    if cert.status == "zero":
        assert abs(cert.leak - ref.leak) <= 1e-9 * ref.leak
    else:
        assert abs(cert.leak - ref.leak) <= rel_floor(np.linalg.norm(q_small.q), PSD)


def _assert_zero_witness(q_small, c, cert):
    v = cert.witness
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert np.linalg.norm(c @ v) ** 2 <= cert.tolerance  # v lies in ker Q_A
    assert (v.conj() @ q_small.q @ v).real == pytest.approx(cert.leak, rel=1e-12)
    assert cert.margin == pytest.approx(cert.leak - rel_floor(np.linalg.norm(q_small.q), PSD))


def _assert_closed_form(gen, monkeypatch):
    """gamma_e_constant decides zero without a dense kernel, as the oracle does."""
    q_small, c = _pencil(gen)
    assert c.shape[0] < c.shape[1]
    with monkeypatch.context() as mp:
        _no_dense_kernel(mp)
        cert = gamma_e_constant(gen)
    assert cert.status == "zero" and cert.method == "pencil-direct"
    _assert_matches_oracle(q_small, c, cert)
    _assert_zero_witness(q_small, c, cert)
    again = gamma_e_constant(gen)
    assert again.to_json() == cert.to_json()
    assert np.array_equal(again.witness, cert.witness)


@pytest.mark.parametrize("n_jumps", [2, 3])
@pytest.mark.parametrize("m", [3, 4, 6, 8])
def test_the_closed_form_leak_matches_the_dense_split_on_random_jumps(m, n_jumps, monkeypatch):
    gen = random_lindblad(m, n_jumps, np.random.default_rng(40 + 10 * m + n_jumps), scale=0.6)
    assert gen.fixed_algebra.size == 1
    _assert_closed_form(gen, monkeypatch)


@pytest.mark.parametrize("gen", [
    pytest.param(dephasing_generator(3), id="dephasing-m3"),
    pytest.param(dephasing_generator(4), id="dephasing-m4"),
    pytest.param(dephasing_generator(6), id="dephasing-m6"),
    pytest.param(_two_by_h(4, 1), id="two-by-h-m4"),
    pytest.param(_two_by_h(6, 2), id="two-by-h-m6"),
])
def test_the_closed_form_leak_holds_on_homogeneous_fixed_algebras(gen, monkeypatch):
    # dim N > 1 with z = (dim N) 1: the E-part of Q_{I-E} is (dim N)/2 on its range
    assert gen.fixed_algebra.size > 1
    _assert_closed_form(gen, monkeypatch)


FACTORED_ZOO = sorted(name for name, gen in make_zoo().items() if gen.jumps.size < gen.dim ** 2)


@pytest.mark.parametrize("name", FACTORED_ZOO)
def test_the_closed_form_leak_matches_the_dense_split_on_the_zoo(zoo, name):
    q_small, c = _pencil(zoo[name])
    cert = gamma_e_constant(zoo[name])
    _assert_matches_oracle(q_small, c, cert)
    if cert.status == "zero":
        _assert_zero_witness(q_small, c, cert)


@pytest.mark.parametrize("m, jumps", [
    (3, lambda jx, jy: [jx]),
    (7, lambda jx, jy: [jx]),
    (5, lambda jx, jy: [jx, jy @ jy]),
])
def test_spin_jump_pencils_take_the_closed_form_or_one_dense_split(m, jumps, monkeypatch):
    # spin jumps: [J_x] fixes the J_x-diagonal algebra (z = m 1, closed form);
    # [J_x, J_y^2] at m = 5 fixes blocks of sizes 3 and 2, where z has the
    # eigenvalues 5/3 and 5/2, so the pencil takes the dense split
    gen = lindblad(jump_set(jumps(*_spin(m)), m=m))
    if gen.jumps.size == 1:
        _assert_closed_form(gen, monkeypatch)
        return
    q_small, c = _pencil(gen)
    splits = _count_dense_splits(monkeypatch)
    cert = gamma_e_constant(gen)
    assert len(splits) == 1
    assert cert.status == "zero"
    _assert_matches_oracle(q_small, c, cert)
    _assert_zero_witness(q_small, c, cert)


def test_a_factored_positive_pencil_certifies_through_the_dense_split():
    # Q_small = (X C)* (X C) vanishes on ker C: no leak, lambda* > 0
    rng = np.random.default_rng(5)
    gen = random_lindblad(3, 2, rng, scale=0.6)
    c = cporder._jump_factor(gen.jumps.jumps)
    x = rng.standard_normal((4, c.shape[0]))
    g = x @ c
    q_small = FormKernel(dim=3, basis_size=9, q=g.conj().T @ g)
    cert = best_lambda(q_small, kernel_from_jumps(gen.jumps.jumps))
    assert cert.status == "positive" and cert.lambda_star > 0
    # the oracle splits Q_A by an SVD of C, best_lambda by eigh of Q_A: the last bits may differ
    _assert_matches_oracle(q_small, c, cert, ulps=4)


def test_the_closed_form_leak_is_byte_identical_on_rerun(tmp_path):
    # the gamma-e command's JSON, with the closed-form leak in it, reruns byte for byte
    gens = [random_lindblad(6, 2, np.random.default_rng(66), scale=0.6), dephasing_generator(4)]
    for k, gen in enumerate(gens):
        path = tmp_path / f"jumps{k}.json"
        path.write_text(dump_json(jumps_to_obj(gen.jumps)))
        outs = [tmp_path / f"cert{k}-{r}.json" for r in range(2)]
        for out in outs:
            assert main(["gamma-e", str(path), "--out", str(out)]) == 2  # exit 2: lambda* = 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["leak"] == gamma_e_constant(gen).leak


SCALAR_INDEX = {
    **{name: gen for name, gen in make_zoo().items() if gen.fixed_algebra.size == 1},
    **{f"dephasing_m{m}": dephasing_generator(m) for m in range(2, 7)},
    "two_by_h_m4": _two_by_h(4, 1),
    "two_by_h_m6": _two_by_h(6, 2),
}


@pytest.mark.parametrize("name", sorted(SCALAR_INDEX))
def test_the_closed_forms_match_the_dense_kernel_of_q_ie(name):
    # z = c 1: ||Q_{I-E}||_F from B B*, and the leak (c + ||B w||^2)/2 = w* Q_{I-E} w
    gen = SCALAR_INDEX[name]
    n, m = gen.fixed_algebra, gen.dim
    q = kernel_ie(n).q
    e = tau_orthonormal_basis(m)
    b = (e - n.expectation.apply(e)).transpose(1, 0, 2).reshape(m, -1)
    ref = np.linalg.norm(q)
    assert abs(cporder._ie_norm(b @ b.conj().T, n.size) - ref) <= 1e-13 * ref
    if gen.jumps.size * m >= m * (m * m / n.size - 1):
        return  # the rank count sends this pencil to the dense split
    cert = cporder._index_leak(cporder._jump_factor(gen.jumps.jumps), n)
    w = cert.witness
    dense = (w.conj() @ q @ w).real
    assert abs((n.size + np.linalg.norm(b @ w) ** 2) / 2 - dense) <= 1e-13 * dense
    assert abs(cert.leak - dense) <= 1e-13 * dense


def _gue_jumps(m, n_jumps, rng):
    """Hermitian GUE-type jumps, drawn as the benchmark's certify inputs are."""
    g = rng.standard_normal((n_jumps, m, m)) + 1j * rng.standard_normal((n_jumps, m, m))
    return (g + g.conj().swapaxes(1, 2)) / 2.0


def _gamma_e_cli(gen, tmp_path):
    """The gamma-e command's exit code and JSON on the jumps of ``gen``."""
    path, out = tmp_path / "jumps.json", tmp_path / "cert.json"
    path.write_text(dump_json(jumps_to_obj(gen.jumps)))
    return main(["gamma-e", str(path), "--out", str(out)]), json.loads(out.read_text())


@pytest.mark.parametrize("n_jumps", [2, 3])
@pytest.mark.parametrize("m", [4, 6, 8])
def test_a_zero_verdict_builds_no_dense_kernel(m, n_jumps, monkeypatch, tmp_path):
    gen = lindblad(jump_set(_gue_jumps(m, n_jumps, np.random.default_rng(400 + 10 * m + n_jumps))))
    with monkeypatch.context() as mp:
        _no_dense_kernel(mp)
        cert = gamma_e_constant(gen)
        code, doc = _gamma_e_cli(gen, tmp_path)
    assert cert.status == "zero" and code == 2
    assert doc["leak"] == cert.leak and doc["margin"] == cert.margin
    _assert_zero_witness(*_pencil(gen), cert)


def test_depolarizing_still_takes_one_dense_split(monkeypatch):
    splits = _count_dense_splits(monkeypatch)
    cert = gamma_e_constant(depolarizing_generator(3))
    assert len(splits) == 1
    assert cert.status == "positive"


@pytest.mark.parametrize("m", [2, 3])
def test_trivial_dynamics_is_zero_by_the_exact_rule(m, monkeypatch, tmp_path):
    # jumps that are multiples of 1 fix all of M_m: zero with no kernel and margin PSD
    gen = lindblad(jump_set([2.5 * np.eye(m), -0.75 * np.eye(m)]))
    assert gen.fixed_algebra.size == m * m
    with monkeypatch.context() as mp:
        _no_dense_kernel(mp)
        cert = gamma_e_constant(gen)
        code, doc = _gamma_e_cli(gen, tmp_path)
    assert cert.status == "zero" and cert.lambda_star == 0.0 and cert.margin == PSD
    assert code == 2 and doc["status"] == "zero" and doc["margin"] == PSD

