"""Start-up cost: ``import qmsemi`` loads numpy only, and each command loads
just the scipy subpackages its computation calls (each is imported inside the
function that uses it).  Every case runs in a fresh interpreter, because the
test process itself has scipy loaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmsemi.io import dump_json, jumps_to_obj, operator_to_obj
from qmsemi.models import depolarizing_generator, random_lindblad

SRC = Path(__file__).resolve().parents[1] / "src"
# prints the scipy subpackages (not private or plain modules) loaded once `run` ran
PROBE = """
import sys
{run}
names = sorted(n[6:] for n, mod in list(sys.modules.items())
               if n.startswith("scipy.") and n.count(".") == 1 and n[6] != "_"
               and hasattr(mod, "__path__"))
print(" ".join(names))
"""


def scipy_loaded(run: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", PROBE.format(run=run)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    jumps = d / "jumps.json"
    gen = random_lindblad(3, 2, np.random.default_rng(5), scale=0.6)
    jumps.write_text(dump_json(jumps_to_obj(gen.jumps)))
    # nine jumps at m = 3: gamma-e takes best_lambda's dense split of Q_A, status positive
    depol = d / "depol.json"
    depol.write_text(dump_json(jumps_to_obj(depolarizing_generator(3).jumps)))
    state = d / "state.json"
    state.write_text(json.dumps(operator_to_obj(np.diag([1.5, 1.0, 0.5]))))
    power = d / "power.json"
    power.write_text(json.dumps({"kind": "power", "alpha": 0.5}))
    epssigma = d / "epssigma.json"
    epssigma.write_text(json.dumps({"kind": "epssigma", "eps": 1e-3, "sigma": 0.7}))
    return {"jumps": str(jumps), "depol": str(depol), "state": str(state),
            "power": str(power), "epssigma": str(epssigma), "out": str(d / "out")}


def run_cli(argv: list[str], files: dict) -> set[str]:
    argv = [a.format(**files) for a in argv] + ["--out", files["out"]]
    return scipy_loaded(f"from qmsemi.cli import main\nassert main({argv!r}) in (0, 2)")


def test_importing_the_package_loads_no_scipy():
    assert scipy_loaded("import qmsemi, qmsemi.cli") == set()


def test_importing_the_cli_builds_no_parser():
    # the parser is built on the first main call, not at import
    assert scipy_loaded("from qmsemi.cli import build_parser\n"
                        "assert build_parser.cache_info().currsize == 0") == set()


@pytest.mark.parametrize("argv", [
    ["decay", "{jumps}", "--lambda", "0.5"],
    ["validate", "{jumps}"],
    ["state-convert", "{state}", "--to", "tau"],
    ["subordinate", "{jumps}", "--theta", "0.5"],
    ["subordinate", "{jumps}", "--profile", "{power}"],
    ["gamma-e", "{jumps}"],
    ["gamma-e", "{depol}"],
    ["decay", "{jumps}", "--lambda", "auto"],
    ["flsi", "{jumps}", "--starts", "1", "--validate", "200"],
])
def test_commands_without_a_scipy_call_load_no_scipy(argv, files):
    assert run_cli(argv, files) == set()


def test_the_casebook_loads_no_optimizer(files):
    # its FLSI case runs the descent of ``constants``, not scipy.optimize
    assert "optimize" not in run_cli(["casebook", "run", "--all"], files)


def test_a_superop_pencil_loads_scipy_linalg_only():
    # gamma_e proves a positive superop certificate by scipy.linalg's Cholesky
    assert scipy_loaded(
        "from qmsemi import fractional_power, gamma_e, random_lindblad\n"
        "import numpy as np\n"
        "gen = random_lindblad(3, 2, np.random.default_rng(5), scale=0.6)\n"
        "cert = gamma_e(fractional_power(gen, 0.5), gen.fixed_algebra)\n"
        "assert cert.method == 'congruence-cholesky'"
    ) == {"linalg"}


def test_the_eps_sigma_calculus_loads_no_optimizer_or_quadrature(files):
    loaded = run_cli(["subordinate", "{jumps}", "--eps", "0.5"], files)
    assert "special" in loaded and not loaded & {"optimize", "integrate"}


def test_an_eps_sigma_profile_loads_scipy_special_only(files):
    # a profile is built with no quadrature: its closed-form phi needs special alone
    assert run_cli(["subordinate", "{jumps}", "--profile", "{epssigma}"], files) == {"special"}
