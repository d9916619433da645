"""Fuzz the jump-file loaders through the CLI: any JSON document given to
``gamma-e`` or ``validate`` ends in exit 0, 1 or 2, never in an exception.

Documents are arbitrary JSON trees of depth at most 4, or near-valid operator
documents with ``dim`` from 1 to 3 whose "re"/"im" parts have random shapes
and types; some of those are Hermitian and run the whole pipeline.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from qmsemi.cli import main

NUMBERS = (st.integers(-1000, 1000)
           | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=4)


def _trees(depth):
    if depth == 0:
        return SCALARS
    kids = _trees(depth - 1)
    return (SCALARS | st.lists(kids, max_size=4)
            | st.dictionaries(st.text(max_size=4), kids, max_size=4))


TREES = _trees(4)


@st.composite
def parts(draw, m):
    """A "re" or "im" value: a random-shape grid of numbers, or any tree."""
    kind = draw(st.sampled_from(["grid", "square", "tree"]))
    if kind == "tree":
        return draw(TREES)
    rows, cols = (m, m) if kind == "square" else (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    return draw(st.lists(st.lists(NUMBERS, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def operator_documents(draw):
    """{"dim": m, "matrices": [...]} with entries that may or may not fit m."""
    m = draw(st.integers(1, 3))
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.sampled_from([True, True, False])):  # a Hermitian entry of the declared size
            g = np.array(draw(st.lists(NUMBERS, min_size=2 * m * m, max_size=2 * m * m)),
                         dtype=float).reshape(2, m, m)
            entry = {"re": (g[0] + g[0].T).tolist(), "im": (g[1] - g[1].T).tolist()}
        else:
            entry = {"re": draw(parts(m))}
            if draw(st.booleans()):
                entry["im"] = draw(parts(m))
        entries.append(entry)
    doc = {"dim": draw(st.sampled_from([m] * 6 + [0, 4, 2.5, "2", None, True])),
           "matrices": draw(st.sampled_from([entries] * 4 + [entries[:1], {}, None]))}
    for key in draw(st.sampled_from([(), (), (), (), ("dim",), ("matrices",)])):
        del doc[key]
    return doc


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=TREES | operator_documents())
def test_any_json_document_exits_0_1_or_2(doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    assert main(["gamma-e", str(path), "--out", out]) in (0, 1, 2)
    assert main(["validate", str(path), "--out", out]) in (0, 1, 2)
