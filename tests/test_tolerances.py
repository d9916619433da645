"""The tolerance policy: every numerical floor lives in ``qmsemi/tolerances.py``.
The option ratchet: the number of defaulted parameters in ``qmsemi`` does not grow."""

import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qmsemi.algebra import diagonal_algebra, module_basis
from qmsemi.cporder import return_time
from qmsemi.entropy import relative_entropy
from qmsemi.generator import jump_set, lindblad
from qmsemi.matops import make_state
from qmsemi.models import pauli
from qmsemi.subordinate import density_approximation
from qmsemi.tolerances import PSD, rel_floor

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


def policy_constants(source: str) -> set[str]:
    """Upper-case names bound at the top level of the policy module."""
    body = ast.parse(source).body
    targets = [t for n in body if isinstance(n, ast.Assign) for t in n.targets]
    targets += [n.target for n in body if isinstance(n, ast.AnnAssign)]
    return {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}


def names_read(source: str) -> set[str]:
    """Names an expression reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_policy_constant_is_read_by_another_module():
    defined = policy_constants((SRC / "tolerances.py").read_text())
    assert len(defined) >= 20
    read = set().union(*(names_read(p.read_text()) for p in SRC.glob("*.py")
                         if p.name != "tolerances.py"))
    assert not defined - read, f"dead tolerances, delete them: {sorted(defined - read)}"


def test_dead_policy_guard_sees_definitions_and_reads():
    assert policy_constants("A = 1e-9\nb = 2\nB, C = 1, 2\nD: float = 3\nE = F = 4\n") == {"A", "D", "E", "F"}
    assert names_read("from .t import A, B\nx = A * t.C\nB = 1\n") == {"A", "t", "C"}


def tolerance_defaults(source: str, policy: set[str]):
    """(line, function, name) of every parameter default that reads a policy constant."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                read = names_read(ast.unparse(default)) & policy
                for name in sorted(read):
                    yield default.lineno, getattr(node, "name", "<lambda>"), name


def test_no_function_takes_a_tolerance_as_a_default():
    # a floor is a constant: no caller sets one, so no signature offers it
    policy = policy_constants((SRC / "tolerances.py").read_text())
    found = [f"{p.name}:{line}: {func}(... = {name})" for p in sorted(SRC.glob("*.py"))
             for line, func, name in tolerance_defaults(p.read_text(), policy)]
    assert not found, "read these floors inside the function:\n" + "\n".join(found)


def test_default_guard_sees_positional_keyword_and_attribute_defaults():
    src = ("def f(k, rtol=PSD): pass\n"
           "def g(*, tol=t.VIOLATION, n=3): pass\n"
           "h = lambda x, s=2 * FLOOR: x\n"
           "def ok(x, rtol=1e-9, name='PSD'): return PSD\n")
    policy = {"PSD", "VIOLATION", "FLOOR"}
    assert [(f, n) for _, f, n in tolerance_defaults(src, policy)] == [
        ("f", "PSD"), ("g", "VIOLATION"), ("<lambda>", "FLOOR")]


# Parameters with a default over src/qmsemi, lambdas and dataclass fields
# included.  Each is an option that some caller must need; adding one raises
# this number in the same edit.
MAX_OPTIONS = 40

# Lines of src/qmsemi/*.py, as ``cat src/qmsemi/*.py | wc -l`` counts them.  The
# same behaviour from less code lowers this number; a change that adds lines
# raises it in the same edit.
MAX_SRC_LINES = 3797


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a decorator is ``dataclass``, called or not, bare or as an attribute."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def defaulted_parameters(source: str):
    """(function or dataclass, name) of every parameter or dataclass field that has a default."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults):]
            named += [p for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param in named:
                yield getattr(node, "name", "<lambda>"), param.arg
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and isinstance(stmt.target, ast.Name)):
                    yield node.name, stmt.target.id


def test_no_option_is_added_without_raising_the_count():
    found = [f"{p.name}: {func}({name}=...)" for p in sorted(SRC.glob("*.py"))
             for func, name in defaulted_parameters(p.read_text())]
    assert len(found) <= MAX_OPTIONS, (
        f"{len(found)} defaulted parameters, over {MAX_OPTIONS}:\n" + "\n".join(found))


def test_src_does_not_grow_without_raising_the_count():
    lines = sum(p.read_text().count("\n") for p in SRC.glob("*.py"))
    assert lines <= MAX_SRC_LINES, f"src/qmsemi has {lines} lines, over {MAX_SRC_LINES}"


def test_option_count_sees_positional_keyword_only_and_lambda_defaults():
    src = ("def f(a, b=1, *, c, d=2): pass\n"
           "def g(p, /, q=3, *args, **kw): pass\n"
           "h = lambda x, y=4: x\n"
           "class K:\n    def m(self, r=5): pass\n")
    assert sorted(defaulted_parameters(src)) == [
        ("<lambda>", "y"), ("f", "b"), ("f", "d"), ("g", "q"), ("m", "r")]


def test_option_count_sees_dataclass_field_defaults():
    # a field default is an option of the constructor; a plain class attribute is not
    src = ("class K:\n    s: int = 6\n"
           "@dataclass(frozen=True)\nclass D:\n    u: int\n    v: str = 'x'\n"
           "@dataclasses.dataclass\nclass E:\n    w: list = field(default_factory=list)\n"
           "    Z = 7\n")
    assert sorted(defaulted_parameters(src)) == [("D", "v"), ("E", "w")]


# These modules take the N = C 1 case from ``entropy`` (``entropy._expectation``) and never
# read dim N themselves.
SCALAR_N_BLIND = ("constants.py", "casebook.py")


def algebra_size_compares(source: str):
    """(line, text) of every comparison with ``n.size`` or ``<x>.fixed_algebra.size`` in it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for side in [node.left, *node.comparators]:
                if isinstance(side, ast.Attribute) and side.attr == "size" and (
                        getattr(side.value, "id", None) == "n"
                        or getattr(side.value, "attr", None) == "fixed_algebra"):
                    yield node.lineno, ast.unparse(node)


def test_only_entropy_reads_scalar_n():
    found = [f"{name}:{line}: {text}" for name in SCALAR_N_BLIND
             for line, text in algebra_size_compares((SRC / name).read_text())]
    assert not found, "take the N = C 1 case from qmsemi.entropy:\n" + "\n".join(found)


def test_scalar_n_guard_sees_every_side_of_a_comparison():
    src = ("if n.size == 1: pass\n"
           "x = 1 < gen.fixed_algebra.size\n"
           "y = a <= b < self.fixed_algebra.size\n"
           "z = n.size\n"
           "w = ks.size == 2\n")
    assert [line for line, _ in algebra_size_compares(src)] == [1, 2, 3]


def test_rel_floor_scales_by_the_largest_magnitude_but_never_below_rtol():
    assert rel_floor(np.array([0.5, -0.2]), 1e-9) == 1e-9
    assert rel_floor(np.array([3.0, -4.0]), 1e-9) == 1e-9 * 4.0
    assert rel_floor(np.zeros(0), 1e-9) == 1e-9
    assert rel_floor(2.0, 1e-9) == 1e-9 * 2.0
    rows = np.array([[0.1, 2.0], [-5.0, 0.0], [0.3, -0.2]])
    np.testing.assert_array_equal(rel_floor(rows, 1e-10, axis=-1), 1e-10 * np.array([2.0, 5.0, 1.0]))


# Each probe puts one number x next to a top value of 1, so the relative floor
# is PSD itself, and says whether x (or -x, for a state) was taken for 0.
def _off_support(x):
    return math.isinf(relative_entropy(np.eye(2), np.diag([1.0, x])))


def _small_gap_jumps(x):
    """{diag(1, 2), eps sigma_x} with w[1] = 4 eps^2 = x and ||A|| = 1, up to rounding.
    N = C 1 on both sides of PSD (the SVD cutoff clears eps ~ 1e-9), so A^theta and the
    dual norm keep w[1]; the probes below see the floors that still compare it with PSD."""
    return jump_set([np.diag([1.0, 2.0]).astype(complex), math.sqrt(x) / 2.0 * pauli("x")])


def _left_to_the_commutant(x):
    # lindblad reads N = C 1 off the spectrum only when w[1] > PSD ||A||
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        gen = lindblad(_small_gap_jumps(x))
    assert gen.fixed_algebra.size == 1
    return svd.called


def _below_spectral_gap(x):
    # return_time finds no spectral gap when w[dim N] <= PSD ||A||
    try:
        return_time(lindblad(_small_gap_jumps(x)))
    except ValueError as exc:
        return "no spectral gap" in str(exc)
    return False


def _no_density_approximant(x):
    # B_eps is built from the return time, so the density construction refuses as it does
    try:
        density_approximation(lindblad(_small_gap_jumps(x)), 0.1)
    except ValueError as exc:
        return "no spectral gap" in str(exc)
    return False


def _clipped_in_a_state(x):
    # -x is clipped to 0, not rejected as a negative eigenvalue
    try:
        return make_state(np.diag([1.0, 1.0, -x]))[2, 2] == 0.0
    except ValueError:
        return False


def _in_module_kernel(x):
    # r = [[0, 1], [sqrt(x), 0]] over the diagonal algebra: E(r* r) = diag(x, 1)
    cand = np.array([[[0.0, 1.0], [math.sqrt(x), 0.0]]])
    support = module_basis(diagonal_algebra(2), cand).supports[1]
    return abs(support[0, 0]) < 0.5


@pytest.mark.parametrize("factor", [0.5, 2.0])
@pytest.mark.parametrize("probe", [_off_support, _left_to_the_commutant, _below_spectral_gap,
                                   _no_density_approximant, _clipped_in_a_state,
                                   _in_module_kernel])
def test_one_zero_floor_decides_every_kind_of_zero(probe, factor):
    assert probe(factor * PSD) == (factor < 1.0)
