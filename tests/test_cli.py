import json

import numpy as np
import pytest

from qmsemi.cli import main
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


def test_validate_command(jumps_file, tmp_path):
    out = tmp_path / "val.json"
    assert main(["validate", jumps_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["report"]["all_passed"]
