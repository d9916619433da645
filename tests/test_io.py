import json

import numpy as np
import pytest

from qmsemi.cli import main
from qmsemi.generator import JumpSet
from qmsemi.io import (
    dump_json,
    jumps_to_obj,
    obj_to_jumps,
    obj_to_operator,
    obj_to_operators,
    operator_to_obj,
    operators_to_obj,
    profile_from_obj,
    state_from_physics,
    state_to_physics,
)
from qmsemi.matops import random_hermitian
from qmsemi.models import random_lindblad


def test_operator_roundtrip():
    rng = np.random.default_rng(0)
    x = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
    back = obj_to_operator(operator_to_obj(x))
    assert np.abs(back - x).max() < 1e-15


def test_operator_obj_has_no_complex_strings():
    x = np.array([[1 + 2j]])
    obj = operator_to_obj(x)
    assert obj == {"dim": 1, "re": [[1.0]], "im": [[2.0]]}


def test_operator_list_roundtrip():
    rng = np.random.default_rng(1)
    mats = [random_hermitian(2, rng) for _ in range(3)]
    back = obj_to_operators(operators_to_obj(mats))
    for a, b in zip(mats, back):
        assert np.abs(a - b).max() < 1e-15


def test_operator_dimension_validation():
    with pytest.raises(ValueError):
        obj_to_operator({"dim": 3, "re": [[1.0]], "im": [[0.0]]})


def test_jumps_roundtrip():
    rng = np.random.default_rng(2)
    js = JumpSet(dim=2, jumps=np.array([random_hermitian(2, rng)]))
    back = obj_to_jumps(jumps_to_obj(js))
    assert np.abs(back.jumps - js.jumps).max() < 1e-15


def test_profile_parsing():
    p = profile_from_obj({"kind": "power", "alpha": 0.5})
    assert p.kind == "power"
    p = profile_from_obj({"kind": "epssigma", "eps": 1e-3, "sigma": 0.5})
    assert p.kind == "epssigma"
    p = profile_from_obj({"kind": "table", "points": [[0.1, 1.0], [10.0, 0.1]]})
    assert p.kind == "table"
    with pytest.raises(ValueError):
        profile_from_obj({"kind": "mystery"})


def test_state_convention_conversion():
    rho_tau = np.diag([1.5, 0.5]).astype(complex)  # tau = 1
    phys = state_to_physics(rho_tau)
    assert np.trace(phys).real == pytest.approx(1.0)
    assert np.abs(state_from_physics(phys) - rho_tau).max() < 1e-15


def test_dump_json_is_stable():
    obj = {"b": 1.5, "a": [1, 2]}
    assert dump_json(obj) == dump_json({"a": [1, 2], "b": 1.5})


def _json_reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("obj", [
    [], {}, [[]], [[], []], [[1.0], []], [1, 2.5, -0.0, 1e300, 5e-324, 10**30],
    [True, False], [1, True], [[True, 1.0]], [None, 1.0],
    [np.float64(1.5), 2.0], [[np.float64(1.5)]], {"x": np.float64(0.25)},
    ["a, b", "], [", "x"], [[1, 2], ["], [", 3]], {"d": "s\n, t", "é": ["ü"]},
    [NAN, INF, -INF], [[NAN, 1.0], [INF, -INF]],
    {"b": [1, 2], "a": {"z": [], "y": {}}, "c": None, "e": [[1, 2], [3]]},
    {0.25: [1.0, 2.0], 0.5: [3.0]}, {"x": (1, 2), "y": [(1.0, 2.0)]},
    [[[1.0, 2.0], [3.0, 4.0]], [[5.0]]], [{"re": [[1.0]], "im": [[0.0]]}],
    3, 2.5, "str", None, True,
], ids=repr)
def test_dump_json_writes_the_bytes_of_json_indent_2(obj):
    assert dump_json(obj) == _json_reference(obj)


@pytest.mark.parametrize("mode", [["--eps", "1e-4", "--sigma", "auto"], ["--theta", "0.5"]])
def test_subordinate_documents_are_json_indent_2(tmp_path, mode):
    gen = random_lindblad(4, 2, np.random.default_rng(41), scale=0.6)
    jumps, out = tmp_path / "jumps.json", tmp_path / "out.json"
    jumps.write_text(dump_json(jumps_to_obj(gen.jumps)))
    assert main(["subordinate", str(jumps), *mode, "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert text == _json_reference(doc) == dump_json(doc)
