"""The tolerance policy: every numerical floor lives in ``qmsemi/tolerances.py``."""

import ast
from pathlib import Path

import numpy as np

from qmsemi.tolerances import rel_floor

SRC = Path(__file__).resolve().parents[1] / "src" / "qmsemi"
# the casebook's tolerances are each case's published claim, not policy
EXEMPT = {"tolerances.py", "casebook.py"}


def small_float_literals(source: str):
    """(line, value) of every float literal with 0 < |value| < 1e-7."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            if 0.0 < abs(node.value) < 1e-7:
                yield node.lineno, node.value


def test_no_numerical_floor_outside_the_policy_module():
    files = sorted(p for p in SRC.glob("*.py") if p.name not in EXEMPT)
    assert len(files) >= 10
    found = [f"{p.name}:{line}: {value!r}"
             for p in files for line, value in small_float_literals(p.read_text())]
    assert not found, "name these floors in qmsemi/tolerances.py:\n" + "\n".join(found)


def test_guard_sees_signed_and_exponent_literals():
    src = "a = x < -1e-9 * s\nb = 1e-300\nc = 2.5e-8\nd = 1e-7\ne = 0.0\n"
    assert sorted(v for _, v in small_float_literals(src)) == [1e-300, 1e-9, 2.5e-8]


def test_rel_floor_scales_by_the_largest_magnitude_but_never_below_rtol():
    assert rel_floor(np.array([0.5, -0.2]), 1e-9) == 1e-9
    assert rel_floor(np.array([3.0, -4.0]), 1e-9) == 1e-9 * 4.0
    assert rel_floor(np.zeros(0), 1e-9) == 1e-9
    assert rel_floor(2.0, 1e-9) == 1e-9 * 2.0
    rows = np.array([[0.1, 2.0], [-5.0, 0.0], [0.3, -0.2]])
    np.testing.assert_array_equal(rel_floor(rows, 1e-10, axis=-1), 1e-10 * np.array([2.0, 5.0, 1.0]))
