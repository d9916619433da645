"""JSON/CSV serialization for operators, jump sets, profiles and reports.

Operator JSON carries separate real and imaginary parts (complex numbers are
never serialized as strings):

    {"dim": m, "re": [[...]], "im": [[...]]}

and lists of operators as {"dim": m, "matrices": [{"re": ..., "im": ...}]}.
Every loader accepts a "dim" that is an integer from 1 to MAX_DIM.
All documents are dumped with sorted keys so reruns are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .algebra import SubAlgebra
from .generator import JumpSet, LindbladGenerator
from .matops import Superop
from .subordinate import WeightProfile

__all__ = [
    "operator_to_obj",
    "obj_to_operator",
    "operators_to_obj",
    "obj_to_operators",
    "jumps_to_obj",
    "obj_to_jumps",
    "superop_to_obj",
    "subalgebra_to_obj",
    "generator_to_obj",
    "profile_from_obj",
    "state_to_physics",
    "state_from_physics",
    "dump_json",
]

MAX_DIM = 16  # the desk-scale envelope
MAX_GRID = 10_000  # time points of a decay grid; one N x m x m stack is ~41 MB at MAX_DIM


def operator_to_obj(x: np.ndarray) -> dict:
    x = np.asarray(x, dtype=complex)
    return {
        "dim": int(x.shape[0]),
        "re": x.real.tolist(),
        "im": x.imag.tolist(),
    }


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj: dict, field: str, default=None):
    """obj[field], else ``default`` if one is given, else a ValueError that names the field."""
    if field in obj:
        return obj[field]
    if default is None:
        raise ValueError(f'missing field "{field}"')
    return default


def _real(obj: dict, field: str, number: bool = False, default=None):
    """obj[field] (or ``default``) as a float array or, for ``number``, a float;
    else a ValueError that names the field."""
    value = _field(obj, field, default)
    try:
        return float(value) if number else np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        kind = "a number" if number else "an array of real numbers"
        raise ValueError(f'"{field}" must be {kind}, got {value!r:.40}') from None


def _dim(obj: dict) -> int:
    m = _field(_object(obj, "the document"), "dim")
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= MAX_DIM:
        raise ValueError(f'"dim" must be an integer from 1 to {MAX_DIM}, got {m!r}')
    return m


def _parse_matrix(entry: dict, m: int) -> np.ndarray:
    """One m x m matrix from its "re" and optional "im" parts; rejects NaN and inf."""
    re, im = _real(entry, "re"), _real(entry, "im", default=np.zeros((m, m)))
    if re.shape != (m, m) or im.shape != (m, m):
        raise ValueError("operator entries do not match the declared dimension")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("operator entries must be finite (no NaN or inf)")
    return re + 1j * im


def obj_to_operator(obj: dict) -> np.ndarray:
    return _parse_matrix(obj, _dim(obj))


def _operators_obj(m: int, mats) -> dict:
    mats = [np.asarray(x, dtype=complex) for x in mats]
    return {"dim": int(m), "matrices": [{"re": x.real.tolist(), "im": x.imag.tolist()}
                                        for x in mats]}


def operators_to_obj(mats: list[np.ndarray] | np.ndarray) -> dict:
    if len(mats) == 0:
        raise ValueError("empty operator list needs an explicit dimension")
    return _operators_obj(np.shape(mats[0])[0], mats)


def obj_to_operators(obj: dict) -> list[np.ndarray]:
    m = _dim(obj)
    mats = _field(obj, "matrices")
    if not (isinstance(mats, list) and all(isinstance(x, dict) for x in mats)):
        raise ValueError(f'"matrices" must be a list of operator objects, got {mats!r:.40}')
    return [_parse_matrix(entry, m) for entry in mats]


def jumps_to_obj(jumps: JumpSet) -> dict:
    """The jump list with the set's own dimension, so an empty set round-trips."""
    return _operators_obj(jumps.dim, jumps.jumps)


def obj_to_jumps(obj: dict) -> JumpSet:
    m = _dim(obj)
    mats = obj_to_operators(obj)
    arr = np.array(mats) if mats else np.zeros((0, m, m), dtype=complex)
    return JumpSet(dim=m, jumps=arr)


def superop_to_obj(s: Superop) -> dict:
    out = operator_to_obj(s.matrix)
    out["acts_on_dim"] = int(s.dim)
    out["hs_selfadjoint"] = bool(s.hs_selfadjoint)
    out["kills_identity"] = bool(s.kills_identity)
    return out


def subalgebra_to_obj(n: SubAlgebra) -> dict:
    return operators_to_obj(list(n.basis))


def generator_to_obj(gen: LindbladGenerator) -> dict:
    return {
        "jumps": jumps_to_obj(gen.jumps),
        "superop": superop_to_obj(gen.superop),
        "fixed_algebra": subalgebra_to_obj(gen.fixed_algebra),
    }


def profile_from_obj(obj: dict) -> WeightProfile:
    kind = _object(obj, "the profile").get("kind")
    if kind == "power":
        return WeightProfile.power_law(_real(obj, "alpha", number=True))
    if kind == "epssigma":
        return WeightProfile.eps_sigma(_real(obj, "eps", number=True),
                                       _real(obj, "sigma", number=True))
    if kind == "table":
        return WeightProfile.table(_real(obj, "points"))
    raise ValueError(f"unknown profile kind {kind!r}")


def state_to_physics(rho: np.ndarray) -> np.ndarray:
    """Convert a tau-normalized state (matrix trace m) to physics convention
    (matrix trace 1)."""
    return np.asarray(rho, dtype=complex) / rho.shape[0]


def state_from_physics(rho: np.ndarray) -> np.ndarray:
    """Convert a trace-1 density matrix to the tau convention used here."""
    return np.asarray(rho, dtype=complex) * rho.shape[0]


def dump_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, byte for byte.

    json's indented encoder is pure Python.  Here dicts with str keys and
    lists are laid out directly, each list of plain floats and ints (a matrix
    row) by one call of the C encoder re-indented with string joins; every
    other value comes from json itself, re-indented to its depth.
    """
    return _dump(obj, "\n") + "\n"


def _dump(obj, nl: str) -> str:
    """The indented text of obj with ``nl`` (a newline and the indent) before each
    of its lines but the first."""
    inner = nl + "  "
    if type(obj) is dict and obj and all(type(k) is str for k in obj):
        items = [json.dumps(k) + ": " + _dump(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(obj) is list and obj:
        if all(type(x) is float or type(x) is int for x in obj):
            return "[" + inner + json.dumps(obj)[1:-1].replace(", ", "," + inner) + nl + "]"
        return "[" + inner + ("," + inner).join(_dump(x, inner) for x in obj) + nl + "]"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", nl)
