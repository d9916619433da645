"""Bad CLI input exits 1 with a message: non-finite matrices, bad dims, rates,
eps and sigmas, wrong-sized states, and casebook flags and sizes."""

import json
import warnings

import numpy as np
import pytest

from qmsemi import cli
from qmsemi.casebook import case_graph_criterion, run_case
from qmsemi.cli import main
from qmsemi.generator import JumpSet
from qmsemi.io import (MAX_GRID, dump_json, jumps_to_obj, obj_to_jumps, obj_to_operator,
                       obj_to_operators, operator_to_obj)
from qmsemi.models import depolarizing_generator, pauli


@pytest.fixture
def jumps_file(tmp_path):
    path = tmp_path / "pauli_z.json"
    path.write_text(dump_json(jumps_to_obj(JumpSet(dim=2, jumps=pauli("z")[None]))))
    return str(path)


def test_gamma_e_rejects_nan_jump_entries(tmp_path, capsys):
    obj = jumps_to_obj(JumpSet(dim=2, jumps=pauli("x")[None]))
    obj["matrices"][0]["re"][0][1] = obj["matrices"][0]["re"][1][0] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    assert main(["gamma-e", str(path)]) == 1
    assert "must be finite" in capsys.readouterr().err


def test_decay_rejects_an_inf_state_entry(jumps_file, tmp_path, capsys):
    obj = operator_to_obj(np.eye(2))
    obj["re"][1][1] = float("inf")
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert main(["decay", jumps_file, "--state", str(path), "--lambda", "0.5"]) == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["re", "im"])
def test_both_matrix_loaders_reject_non_finite_parts(part):
    one = operator_to_obj(np.eye(2))
    one[part][0][0] = float("-inf")
    with pytest.raises(ValueError, match="finite"):
        obj_to_operator(one)
    many = {"dim": 2, "matrices": [operator_to_obj(np.eye(2)), one]}
    with pytest.raises(ValueError, match="finite"):
        obj_to_operators(many)


@pytest.mark.parametrize("argv", [
    ["poisson", "--alpha", "3"],
    ["graph", "--m", "4"],
    ["--all", "--n", "5"],
])
def test_casebook_rejects_a_flag_the_case_does_not_take(argv, tmp_path, capsys):
    out = tmp_path / "case.json"
    assert main(["casebook", "run", *argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error:")


def test_casebook_flags_reach_the_case(tmp_path):
    out = tmp_path / "case.json"
    assert main(["casebook", "run", "poisson", "--n", "5", "--out", str(out)]) == 0
    assert '"N": 5' in out.read_text()


def test_run_case_passes_the_seed_only_where_taken():
    assert run_case("graph", seed=3).to_json() == case_graph_criterion().to_json()
    assert run_case("depolarizing", seed=2).details["seed"] == 2
    with pytest.raises(ValueError, match="alpha"):
        run_case("poisson", alpha=3.0)


def test_graph_case_defaults_to_the_complete_triangle():
    k3 = np.ones((3, 3)) - np.eye(3)
    assert case_graph_criterion().to_json() == case_graph_criterion(k3).to_json()


@pytest.mark.parametrize("dim", [2.7, 0, -2, 17, True])
def test_jump_file_dim_must_be_an_integer_within_the_cap(dim, tmp_path, capsys):
    obj = jumps_to_obj(JumpSet(dim=2, jumps=pauli("z")[None]))
    obj["dim"] = dim
    if dim == 17:
        obj["matrices"] = []  # rejected before anything is computed
    path = tmp_path / "jumps.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "cert.json"
    assert main(["gamma-e", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "from 1 to 16" in err


def test_state_file_dim_goes_through_the_same_check(jumps_file, tmp_path, capsys):
    obj = operator_to_obj(np.eye(2))
    obj["dim"] = 2.0
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    assert main(["decay", jumps_file, "--state", str(path), "--lambda", "0.5"]) == 1
    assert "from 1 to 16" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "-1", "inf", "fast"])
def test_decay_rejects_a_rate_that_is_not_finite_and_nonnegative(rate, jumps_file, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["decay", jumps_file, "--lambda", rate, "--out", str(out)]) == 1
    assert not out.exists()
    assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1", "abc"])
def test_subordinate_rejects_a_sigma_that_is_not_finite_and_positive(sigma, jumps_file, tmp_path,
                                                                     capsys):
    out = tmp_path / "sub.json"
    assert main(["subordinate", jumps_file, "--eps", "0.5", "--sigma", sigma,
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--sigma" in err


@pytest.mark.parametrize("mode", [["--theta", "0.5"], ["--profile", "{doc}"]])
def test_subordinate_refuses_a_sigma_outside_eps_mode(mode, jumps_file, tmp_path, capsys):
    doc = tmp_path / "power.json"
    doc.write_text(json.dumps({"kind": "power", "alpha": 0.5}))
    out = tmp_path / "sub.json"
    argv = ["subordinate", jumps_file, *(a.format(doc=doc) for a in mode), "--sigma", "7"]
    assert main(argv + ["--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --sigma")
    assert main(argv[:-2] + ["--out", str(out)]) == 0


@pytest.mark.parametrize("grid", ["1:0:5", "1:nan:5", "1:5", "0:1:5", "1:inf:5", "1:5:0", "1:5:2.5",
                                  "a:5:3", "1:5:3:4", "5:1:10", "1:1:5"])
def test_decay_rejects_a_grid_that_is_not_a_positive_finite_geometric_grid(grid, jumps_file,
                                                                          tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["decay", jumps_file, "--lambda", "0.5", "--grid", grid, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--grid" in err


def test_decay_rejects_a_grid_beyond_the_cap_before_any_allocation(jumps_file, tmp_path,
                                                                   capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was allocated")
    monkeypatch.setattr(np, "geomspace", refuse)
    monkeypatch.setattr(cli, "simulate_decay", refuse)
    out = tmp_path / "trace.csv"
    assert main(["decay", jumps_file, "--lambda", "0.5", "--grid", f"1:5:{MAX_GRID + 1}",
                 "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--grid" in err and str(MAX_GRID) in err


def test_a_grid_at_the_cap_parses():
    assert cli._parse_grid(f"1:5:{MAX_GRID}").shape == (MAX_GRID,)


def test_decay_accepts_a_one_point_grid(jumps_file, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["decay", jumps_file, "--lambda", "0.5", "--grid", "0.5:0.5:1",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("profile, name", [
    ({"kind": "epssigma", "eps": 0.5, "sigma": float("nan")}, "sigma"),
    ({"kind": "epssigma", "eps": 0.5, "sigma": float("inf")}, "sigma"),
    ({"kind": "epssigma", "eps": float("nan"), "sigma": 0.5}, "eps"),
    ({"kind": "table", "points": [[0.5, 1.0], [1.0, float("nan")]]}, "points"),
    ({"kind": "table", "points": [[0.5, 1.0], [float("inf"), 1.0]]}, "points"),
])
def test_subordinate_rejects_a_non_finite_profile_before_any_quadrature(profile, name, jumps_file,
                                                                       tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))  # json writes NaN and Infinity, and reads them back
    out = tmp_path / "sub.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a quadrature on a NaN integrand would warn
        assert main(["subordinate", jumps_file, "--profile", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and "integrab" not in err


@pytest.mark.parametrize("argv", [
    ["depolarizing", "--m", "17"],
    ["rothaus", "--n", "17"],
    ["poisson", "--n", "513"],
])
def test_casebook_rejects_a_size_beyond_its_cap(argv, tmp_path, capsys):
    # the caps are checked before anything is built
    out = tmp_path / "case.json"
    assert main(["casebook", "run", *argv, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "<=" in err


@pytest.mark.parametrize("alpha", ["nan", "inf", "1e308", "1e5", "0", "-1"])
def test_casebook_rothaus_rejects_an_alpha_the_arithmetic_cannot_support(alpha, tmp_path, capsys):
    # beyond 1e3 the computed D_N(|x|^2) drifts from its closed form (1.1e-5 at 1e5)
    out = tmp_path / "case.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["casebook", "run", "rothaus", "--alpha", alpha, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha" in err


def test_casebook_rothaus_passes_at_the_largest_alpha_it_accepts(tmp_path):
    out = tmp_path / "case.json"
    assert main(["casebook", "run", "rothaus", "--alpha", "1e3", "--out", str(out)]) == 0


STATE_OR_JUMPS = {
    "a list": [1, 2],
    "null": None,
    "re an object": {"dim": 2, "re": {"a": 1}},
    "re with an object entry": {"dim": 2, "re": [[1, {}], [0, 1]]},
}
JUMPS_ONLY = {
    "matrices a number": {"dim": 2, "matrices": 5},
    "matrices of numbers": {"dim": 2, "matrices": [5]},
    "matrices an object": {"dim": 2, "matrices": {"re": [[1, 0], [0, 1]]}},
    "im an object": {"dim": 2, "matrices": [{"re": [[1, 0], [0, -1]], "im": {"a": 1}}]},
}
PROFILES = {
    "a list": [1, 2],
    "alpha a list": {"kind": "power", "alpha": [0.5]},
    "eps null": {"kind": "epssigma", "eps": None, "sigma": 1.0},
    "points an object": {"kind": "table", "points": {"a": 1}},
}
MALFORMED = (
    [(["gamma-e", "{doc}"], d) for d in [*STATE_OR_JUMPS.values(), *JUMPS_ONLY.values()]]
    + [([cmd, "{doc}", *flags], d) for d in JUMPS_ONLY.values()
       for cmd, flags in [("flsi", []), ("subordinate", ["--theta", "0.5"]), ("decay", []),
                          ("validate", [])]]
    + [(["decay", "{jumps}", "--state", "{doc}"], d) for d in STATE_OR_JUMPS.values()]
    + [(["state-convert", "{doc}", "--to", "tau"], d) for d in STATE_OR_JUMPS.values()]
    + [(["subordinate", "{jumps}", "--profile", "{doc}"], d) for d in PROFILES.values()]
)


@pytest.mark.parametrize("argv, doc", MALFORMED)
def test_a_malformed_document_exits_1_with_a_message(argv, doc, jumps_file, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [a.format(doc=path, jumps=jumps_file) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_overflowing_jumps_exit_1_before_any_eigensolve(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 2, "matrices": [{"re": [[1e308, 0], [0, -1e308]]}]}))
    assert main(["gamma-e", str(path)]) == 1
    assert "not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_an_overflowing_profile_exits_1_with_no_document(jumps_file, tmp_path, capsys):
    # C_F = 1e308 (1 - 1e-3 + ln 1e3) is finite in exact arithmetic but not in float64;
    # phi's quadrature overflows to NaN off the kernel, and phi_of_lambda refuses it
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"kind": "table", "points": [[1e-3, 1e308], [1e3, 1e308]]}))
    out = tmp_path / "sub.json"
    assert main(["subordinate", jumps_file, "--profile", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err


def test_a_failed_eigensolve_exits_3(jumps_file, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    assert main(["validate", jumps_file, "--out", str(tmp_path / "report.json")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: Eigenvalues did not converge")


MISSING = [
    (["gamma-e", "{doc}"], {"matrices": [{"re": [[1, 0], [0, -1]]}]}, "dim"),
    (["gamma-e", "{doc}"], {"dim": 2}, "matrices"),
    (["gamma-e", "{doc}"], {"dim": 2, "matrices": [{"im": [[0, 1], [-1, 0]]}]}, "re"),
    (["state-convert", "{doc}", "--to", "tau"], {"dim": 2, "im": [[0, 0], [0, 0]]}, "re"),
    (["decay", "{jumps}", "--lambda", "0.5", "--state", "{doc}"], {"dim": 2}, "re"),
    (["subordinate", "{jumps}", "--profile", "{doc}"], {"kind": "power"}, "alpha"),
]


@pytest.mark.parametrize("argv, doc, name", MISSING)
def test_a_missing_field_is_named(argv, doc, name, jumps_file, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([a.format(doc=path, jumps=jumps_file) for a in argv]) == 1
    assert capsys.readouterr().err == f'error: missing field "{name}"\n'


def test_an_unknown_case_prints_its_message_unquoted(capsys):
    assert main(["casebook", "run", "nosuch"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown case 'nosuch'; available: [")


def test_validate_accepts_an_empty_jump_set(tmp_path):
    path, out = tmp_path / "none.json", tmp_path / "report.json"
    path.write_text(json.dumps({"dim": 2, "matrices": []}))
    assert main(["validate", str(path), "--out", str(out)]) == 0
    back = obj_to_jumps(json.loads(out.read_text())["generator"]["jumps"])
    assert back.dim == 2 and back.jumps.shape == (0, 2, 2)


def test_decay_names_a_state_of_the_wrong_size(tmp_path, capsys):
    jumps = tmp_path / "m3.json"
    jumps.write_text(dump_json(jumps_to_obj(depolarizing_generator(3).jumps)))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(operator_to_obj(np.eye(2))))
    assert main(["decay", str(jumps), "--state", str(state), "--lambda", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --state") and "2x2" in err and "3x3" in err


def test_flsi_names_a_negative_validate(jumps_file, tmp_path, capsys):
    out = tmp_path / "flsi.json"
    assert main(["flsi", jumps_file, "--validate", "-1", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --validate")


@pytest.mark.parametrize("eps", ["0", "1", "1.5", "-0.1", "nan", "inf"])
def test_subordinate_names_an_eps_outside_the_unit_interval(eps, jumps_file, tmp_path, capsys):
    out = tmp_path / "sub.json"
    assert main(["subordinate", jumps_file, "--eps", eps, "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --eps")


def test_decay_from_a_pure_state_is_ill_defined_near_t_0(tmp_path, capsys):
    jumps = tmp_path / "depolarizing.json"
    jumps.write_text(dump_json(jumps_to_obj(depolarizing_generator(2).jumps)))
    state = tmp_path / "pure.json"
    state.write_text(json.dumps(operator_to_obj(np.diag([2.0, 0.0]))))
    out = tmp_path / "trace.csv"
    assert main(["decay", str(jumps), "--state", str(state), "--lambda", "1",
                 "--grid", "1e-9:1:5", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ill-defined Fisher information") and "eps_shift" not in err
