import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmsemi.cli import build_parser, main
from qmsemi.generator import JumpSet
from qmsemi.io import dump_json, jumps_to_obj, operator_to_obj
from qmsemi.models import depolarizing_generator, pauli, random_lindblad


@pytest.fixture
def jumps_file(tmp_path):
    path = tmp_path / "pauli_z.json"
    path.write_text(dump_json(jumps_to_obj(JumpSet(dim=2, jumps=pauli("z")[None]))))
    return str(path)


@pytest.fixture
def empty_jumps_file(tmp_path):
    obj = {"dim": 2, "matrices": []}
    path = tmp_path / "empty.json"
    path.write_text(dump_json(obj))
    return str(path)


def test_gamma_e_positive_constant(jumps_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["gamma-e", jumps_file, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["lambda_star"] > 0
    assert doc["config"]["seed"] == 0


@pytest.mark.parametrize("flag", [["--tol", "psd=1e-6"], ["--format", "json"]])
def test_removed_flags_are_rejected_and_config_holds_only_the_seed(jumps_file, tmp_path, flag):
    assert main(["gamma-e", jumps_file] + flag) == 1
    out = tmp_path / "cert.json"
    assert main(["gamma-e", jumps_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {"seed": 0}


@pytest.mark.parametrize("argv", [
    ["gamma-e", "x.json", "--bogus"],
    ["flsi", "x.json", "--starts", "x"],
    ["subordinate", "x.json", "--theta", "half"],
    ["decay", "x.json", "--bogus"],
    ["casebook", "run", "--n", "x"],
    ["casebook"],
    ["state-convert", "x.json"],
    ["validate", "x.json", "--seed", "x"],
    ["bogus"],
    [],
])
def test_a_malformed_command_line_exits_1_with_the_usage_message(argv, capsys):
    # exit 2 is reserved for a meaningful negative result
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage: qmsemi" in err and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["gamma-e", "--help"], ["casebook", "run", "-h"]])
def test_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage: qmsemi" in capsys.readouterr().out


def test_the_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_main_reuses_one_parser_across_calls(jumps_file, tmp_path, capsys):
    # a usage error and --help leave the cached parser as a fresh one would be
    before = build_parser.cache_info()
    assert main(["flsi", jumps_file, "--starts", "x"]) == 1
    assert main(["--help"]) == 0
    docs = []
    for k in range(2):
        out = tmp_path / f"cert{k}.json"
        assert main(["gamma-e", jumps_file, "--out", str(out)]) == 0
        docs.append(out.read_bytes())
    after = build_parser.cache_info()
    assert after.hits + after.misses - before.hits - before.misses == 4
    assert after.misses <= 1 and after.currsize == 1
    fresh = tmp_path / "fresh.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "qmsemi.cli", "gamma-e", jumps_file,
                           "--out", str(fresh)], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert docs[0] == docs[1] == fresh.read_bytes()


def test_gamma_e_without_out_writes_the_same_bytes_to_stdout(jumps_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["gamma-e", jumps_file, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["gamma-e", jumps_file]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_gamma_e_empty_jumps_is_negative_result(empty_jumps_file, tmp_path):
    out = tmp_path / "cert.json"
    code = main(["gamma-e", empty_jumps_file, "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["lambda_star"] == 0.0


def test_gamma_e_certificate_status_decides_exit_code(tmp_path):
    # a generic random generator gets an exact zero (exit 2); the
    # depolarizing generator gets its closed-form constant 1 (exit 0)
    rng = np.random.default_rng(2024)
    cases = {
        "random": (random_lindblad(3, 2, rng, scale=0.6), 2),
        "depolarizing": (depolarizing_generator(3), 0),
    }
    for name, (gen, code) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(dump_json(jumps_to_obj(gen.jumps)))
        out = tmp_path / f"{name}-cert.json"
        assert main(["gamma-e", str(path), "--out", str(out)]) == code
        doc = json.loads(out.read_text())
        assert doc["method"] == "pencil-direct"
        if code == 2:
            assert doc["status"] == "zero" and doc["lambda_star"] == 0.0
            assert doc["leak"] > 0.5 and doc["margin"] > 0
        else:
            assert doc["status"] == "positive"
            assert abs(doc["lambda_star"] - 1.0) <= 1e-12


def test_gamma_e_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["gamma-e", str(bad)]) == 1


def test_flsi_deterministic_per_seed(jumps_file, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main([
            "flsi", jumps_file, "--starts", "2", "--validate", "100",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["lambda_upper"] >= doc["lambda_lower"] - 1e-6


def test_flsi_rejects_zero_starts(jumps_file):
    assert main(["flsi", jumps_file, "--starts", "0", "--validate", "10"]) == 1


def test_flsi_rejects_negative_validation_count(jumps_file):
    assert main(["flsi", jumps_file, "--starts", "1", "--validate", "-1"]) == 1


def test_subordinate_theta_one_echoes_generator(jumps_file, tmp_path):
    out = tmp_path / "sub.json"
    assert main(["subordinate", jumps_file, "--theta", "1.0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    mat = np.asarray(doc["superop"]["re"]) + 1j * np.asarray(doc["superop"]["im"])
    from qmsemi.models import dephasing_generator

    assert np.abs(mat - dephasing_generator(2).superop.matrix).max() < 1e-12


def test_subordinate_depolarizing_theta_is_idempotent(tmp_path):
    from qmsemi.models import depolarizing_generator

    gen = depolarizing_generator(2)
    jf = tmp_path / "depol.json"
    jf.write_text(dump_json(jumps_to_obj(gen.jumps)))
    out = tmp_path / "sub.json"
    assert main(["subordinate", str(jf), "--theta", "0.5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    mat = np.asarray(doc["superop"]["re"]) + 1j * np.asarray(doc["superop"]["im"])
    assert np.abs(mat - gen.superop.matrix).max() < 1e-9


def test_subordinate_eps_auto_sigma(jumps_file, tmp_path):
    out = tmp_path / "sub.json"
    code = main([
        "subordinate", jumps_file, "--eps", "1e-4", "--sigma", "auto",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["bound_satisfied"]
    assert "t0" in doc["report"]["mode"]


def _superop_of(argv, tmp_path):
    out = tmp_path / "sub.json"
    assert main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())["superop"]


@pytest.mark.parametrize("gen", [
    JumpSet(dim=2, jumps=np.array([pauli("z"), pauli("x")])),
    random_lindblad(4, 2, np.random.default_rng(12)).jumps,
], ids=["zx", "random_m4"])
def test_subordinate_profile_matches_theta_and_eps_byte_for_byte(gen, tmp_path):
    jf = tmp_path / "jumps.json"
    jf.write_text(dump_json(jumps_to_obj(gen)))
    pairs = [({"kind": "power", "alpha": 0.5}, ["--theta", "0.5"]),
             ({"kind": "epssigma", "eps": 1e-3, "sigma": 0.7}, ["--eps", "1e-3", "--sigma", "0.7"])]
    for profile, flags in pairs:
        pf = tmp_path / "profile.json"
        pf.write_text(json.dumps(profile))
        got = _superop_of(["subordinate", str(jf), "--profile", str(pf)], tmp_path)
        assert json.dumps(got) == json.dumps(_superop_of(["subordinate", str(jf), *flags], tmp_path))
    # a table with C_F = 559.5 passes the integrability gate
    pf.write_text(json.dumps({"kind": "table", "points": [[0.01, 100.0], [100.0, 100.0]]}))
    _superop_of(["subordinate", str(jf), "--profile", str(pf)], tmp_path)


def test_subordinate_mode_exclusivity(jumps_file):
    assert main(["subordinate", jumps_file]) == 1
    assert main(["subordinate", jumps_file, "--theta", "0.5", "--eps", "0.1"]) == 1


def test_decay_certified_rate_respects_bound(jumps_file, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["decay", jumps_file, "--lambda", "auto", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,D_N,I_A,bound"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(rows[:, 1] <= rows[:, 3] * (1 + 1e-8))


def test_decay_single_point_grid(jumps_file, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["decay", jumps_file, "--grid", "0.5:0.5:1", "--lambda", "1.0",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 2


def test_decay_fixed_state_gives_zero_trace(jumps_file, tmp_path):
    state = tmp_path / "state.json"
    state.write_text(dump_json(operator_to_obj(np.diag([1.4, 0.6]).astype(complex))))
    out = tmp_path / "trace.csv"
    code = main(["decay", jumps_file, "--lambda", "1.0", "--state", str(state),
                 "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    d_vals = [float(r.split(",")[1]) for r in rows]
    assert max(abs(v) for v in d_vals) < 1e-12


def test_decay_rerun_is_byte_identical(jumps_file, tmp_path):
    outs = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert main(["decay", jumps_file, "--lambda", "auto", "--seed", "11",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_casebook_run_single_and_all(tmp_path):
    out = tmp_path / "case.json"
    assert main(["casebook", "run", "rothaus", "--n", "3", "--alpha", "10",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert '"passed": true' in text
    out_all = tmp_path / "all.txt"
    assert main(["casebook", "run", "--all", "--out", str(out_all)]) == 0
    assert "name\tpass\tmax_slack" in out_all.read_text()


def test_casebook_run_needs_a_name_or_all(capsys):
    assert main(["casebook", "run"]) == 1
    assert "give a case name or --all" in capsys.readouterr().err


def test_casebook_unknown_case(tmp_path):
    assert main(["casebook", "run", "nope"]) == 1


def test_state_convert_roundtrip(tmp_path):
    rho = np.diag([1.2, 0.8]).astype(complex)
    f = tmp_path / "state.json"
    f.write_text(dump_json(operator_to_obj(rho)))
    out = tmp_path / "phys.json"
    assert main(["state-convert", str(f), "--to", "physics", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert np.trace(np.asarray(doc["re"])) == pytest.approx(1.0)


def test_state_convert_takes_no_seed(tmp_path, capsys):
    f = tmp_path / "state.json"
    f.write_text(dump_json(operator_to_obj(np.eye(2, dtype=complex))))
    argv = ["state-convert", str(f), "--to", "tau", "--out", str(tmp_path / "tau.json")]
    assert main(argv) == 0
    assert main(argv + ["--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_state_convert_round_trip_through_tau(tmp_path):
    rho = np.array([[0.5, 0.1 - 0.2j, 0.0], [0.1 + 0.2j, 0.3, 0.05j], [0.0, -0.05j, 0.2]])
    phys = tmp_path / "phys.json"
    phys.write_text(dump_json(operator_to_obj(rho)))
    tau, back = tmp_path / "tau.json", tmp_path / "back.json"
    assert main(["state-convert", str(phys), "--to", "tau", "--out", str(tau)]) == 0
    tau_doc = json.loads(tau.read_text())
    assert np.trace(np.asarray(tau_doc["re"])) == pytest.approx(3.0)
    assert main(["state-convert", str(tau), "--to", "physics", "--out", str(back)]) == 0
    doc = json.loads(back.read_text())
    np.testing.assert_allclose(np.asarray(doc["re"]) + 1j * np.asarray(doc["im"]), rho,
                               rtol=0.0, atol=1e-15)


def test_validate_command(jumps_file, tmp_path):
    out = tmp_path / "val.json"
    assert main(["validate", jumps_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["all_passed"]


def test_documents_hold_only_computed_keys(jumps_file, tmp_path):
    # every key is computed: flsi echoes neither --starts nor a second seed
    # beside config, and no map or algebra carries a flag that nothing checked
    argvs = {"flsi": ["flsi", jumps_file, "--starts", "1", "--validate", "10"],
             "theta": ["subordinate", jumps_file, "--theta", "0.5"],
             "validate": ["validate", jumps_file]}
    docs = {}
    for name, argv in argvs.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        docs[name] = json.loads(out.read_text())
    assert set(docs["flsi"]) == {"lambda_lower", "lambda_upper", "grad_check", "n_validated",
                                 "config"}
    superop = {"dim", "re", "im", "acts_on_dim", "hs_selfadjoint", "kills_identity"}
    assert set(docs["theta"]["superop"]) == superop
    assert set(docs["validate"]["generator"]) == {"jumps", "superop", "fixed_algebra"}
    assert set(docs["validate"]["generator"]["superop"]) == superop
    assert set(docs["validate"]["generator"]["fixed_algebra"]) == {"dim", "matrices"}
