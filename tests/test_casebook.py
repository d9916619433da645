import json
import math

import numpy as np
import pytest

from conftest import random_connected_weights
from kernel_oracle import graph_form, kernel_from_form
from qmsemi.algebra import diagonal_algebra
from qmsemi import casebook
from qmsemi.casebook import (
    case_depolarizing,
    case_graph_criterion,
    case_nonadditivity,
    case_poisson_Z,
    case_rothaus_failure,
    case_tensorization,
    graph_kernels,
    graph_lambda_star,
    run_all,
    run_case,
    summary_tsv,
)
from qmsemi.cporder import best_lambda
from qmsemi.io import dump_json


def test_graph_complete_three_vertices():
    r = case_graph_criterion(np.ones((3, 3)) - np.eye(3))
    assert r.passed
    assert r.computed["lambda_star"] == pytest.approx(6.0, abs=1e-6)


def test_graph_two_point_quarter_weight():
    w = np.array([[0.0, 0.25], [0.25, 0.0]])
    r = case_graph_criterion(w)
    assert r.passed
    assert r.computed["lambda_star"] == pytest.approx(1.0, abs=1e-6)


def test_graph_missing_edge_kills_the_constant():
    w = np.ones((4, 4)) - np.eye(4)
    w[0, 1] = w[1, 0] = 0.0  # still connected through the others
    r = case_graph_criterion(w)
    assert r.passed
    assert abs(r.computed["lambda_star"]) <= 1e-6


def test_graph_rejects_bad_weights():
    with pytest.raises(ValueError):
        case_graph_criterion(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        case_graph_criterion(-np.ones((2, 2)) + np.eye(2))
    for bad in (np.nan, np.inf):
        w = np.ones((3, 3)) - np.eye(3)
        w[0, 1] = w[1, 0] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            case_graph_criterion(w)


def test_graph_can_demand_connectivity():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0  # two components
    with pytest.raises(ValueError, match="disconnected"):
        case_graph_criterion(w)


def test_poisson_truncations():
    for n in (4, 64):
        r = case_poisson_Z(n)
        assert r.passed
    with pytest.raises(ValueError):
        case_poisson_Z(1)


def test_poisson_probe_reported():
    r = case_poisson_Z(8)
    assert "probe_min_eig_2K_minus_KIE" in r.details


def test_nonadditivity_values():
    r = case_nonadditivity(1e-4)
    assert r.passed
    assert r.computed["tau_x"] == pytest.approx(1.0, abs=1e-15)
    assert r.computed["coeff_11"] == pytest.approx(0.5 + 1e-4 / 3.0, abs=1e-15)
    assert r.computed["V"] < 0
    assert r.computed["V_1e2"] > r.computed["V_1e4"] > r.computed["V_1e6"]
    with pytest.raises(ValueError):
        case_nonadditivity(2.0)


def test_rothaus_matches_closed_forms():
    for n, alpha in [(3, 10.0), (2, math.sqrt(2.0)), (5, 1.0)]:
        r = case_rothaus_failure(n, alpha)
        assert r.passed, (n, alpha, r.computed, r.expected)
    with pytest.raises(ValueError):
        case_rothaus_failure(1, 1.0)


def test_rothaus_reports_printed_variant_deviation():
    r = case_rothaus_failure(3, 10.0)
    dev = r.details["printed_final_z_deviation"]
    n = 3
    assert dev == pytest.approx((1.0 / (2 * n)) * math.log((n + 1) / 2.0), abs=1e-9)


def test_depolarizing_case():
    r = case_depolarizing(2, seed=0)
    assert r.passed
    assert r.computed["lambda_upper"] >= 1.0 - 1e-6


def test_tensorization_case():
    r = case_tensorization(seed=0)
    assert r.passed
    assert r.details["lambda_1"] == pytest.approx(1.0, abs=1e-6)


def test_run_case_unknown_name():
    with pytest.raises(KeyError):
        run_case("no_such_case")


def test_results_serialize_deterministically():
    r1 = run_case("nonadditivity")
    r2 = run_case("nonadditivity")
    assert dump_json(r1.to_json()) == dump_json(r2.to_json())
    doc = json.loads(dump_json(r1.to_json()))
    assert doc["name"] == "nonadditivity"


def test_summary_table_lists_every_case():
    results = run_all()
    tsv = summary_tsv(results)
    lines = tsv.strip().split("\n")
    assert lines[0] == "name\tpass\tmax_slack"
    assert len(lines) == len(results) + 1
    assert all(r.passed for r in results)


def test_graph_lambda_star_oracle_small_sweep():
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = int(rng.integers(2, 6))
        w = random_connected_weights(v, rng, complete=True)
        off = w[~np.eye(v, dtype=bool)]
        assert graph_lambda_star(w) == pytest.approx(2.0 * v * off.min(), abs=1e-6)


def test_graph_kernels_match_the_pointwise_form():
    # 25 random weighted graphs on 2..6 vertices, complete and sparse
    rng = np.random.default_rng(41)
    for v in range(2, 7):
        basis = diagonal_algebra(v).basis
        w_ie = (np.ones((v, v)) - np.eye(v)) / (2.0 * v)  # Gamma_{I-E} as a graph form
        for complete in (True, False, True, False, True):
            w = random_connected_weights(v, rng, complete=complete)
            kernels = graph_kernels(w)
            refs = [kernel_from_form(graph_form(x), v, basis) for x in (w_ie, w)]
            for got, ref in zip(kernels, refs):
                assert np.abs(got.q - ref.q).max() <= 1e-12 * max(np.abs(ref.q).max(), 1.0)
            lam = best_lambda(*refs).lambda_star
            assert graph_lambda_star(w) == pytest.approx(lam, rel=1e-12)


def test_an_unknown_relation_is_refused():
    with pytest.raises(ValueError, match="unknown relation ne"):
        casebook._evaluate("x", {"v": 1.0}, {"v": {"value": 1.0, "relation": "ne"}})
