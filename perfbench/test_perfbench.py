"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import summary  # noqa: E402
from qmsemi import cli, cporder  # noqa: E402


def _job(tmp_path: Path, source: str, m: int) -> jobs.Job:
    rng = jobs.np.random.default_rng(5)
    arr = jobs.random_jumps(m, rng) if source == "random" else jobs.depolarizing_jumps(m)
    path = tmp_path / f"{source}-{m}.json"
    path.write_text(jobs.jumps_document(arr))
    return jobs.Job(name=f"gamma-e/{source}/m{m}/0", kind="gamma-e", m=m, source=source,
                    path=str(path), seed=0)


def _certificate(job: jobs.Job, tmp_path: Path) -> tuple[int, dict]:
    out = tmp_path / "cert.json"
    rc = cli.main(["gamma-e", job.path, "--out", str(out)])
    return rc, json.loads(out.read_text())


@pytest.mark.parametrize("source", ["depolarizing", "random"])
def test_certificate_check_rejects_raised_lambda(tmp_path, source):
    job = _job(tmp_path, source, 3)
    rc, doc = _certificate(job, tmp_path)
    assert checks.check_certificate(job, rc, doc)["lambda_star"] == doc["lambda_star"]
    doc["lambda_star"] += 1e-3
    with pytest.raises(checks.CheckFailed, match="fails at lambda"):
        checks.check_certificate(job, 0, doc)


def test_certificate_check_accepts_exit2_zero_certificate(tmp_path):
    # a generic random generator has true constant 0: the cp order holds at
    # 0 and fails at every positive lambda
    job = _job(tmp_path, "random", 3)
    assert checks.check_certificate(job, 2, {"lambda_star": 0.0}) == {"lambda_star": 0.0}
    with pytest.raises(checks.CheckFailed, match="disagrees"):
        checks.check_certificate(job, 0, {"lambda_star": 0.0})


def test_depolarizing_certificate_must_be_one(tmp_path):
    job = _job(tmp_path, "depolarizing", 3)
    rc, doc = _certificate(job, tmp_path)
    assert abs(doc["lambda_star"] - 1.0) <= checks.CLOSED_FORM_TOL
    # lambda* far below 1 passes the cp test at lambda* but fails "just above"
    with pytest.raises(checks.CheckFailed, match="still holds above"):
        checks.check_certificate(job, 0, {"lambda_star": 0.5})


@pytest.mark.parametrize("n, p", [(5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0),
                                  (99, 75.0), (100, 90.0), (200, 95.0), (999, 95.0),
                                  (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert summary.tail_percentile(n) == p
    if p > 50.0:
        values = list(range(n))
        assert sum(v > summary.percentile(values, p) for v in values) >= summary.TAIL_BEYOND


def test_percentile_matches_median():
    for values in ([3.0, 1.0, 4.0, 1.5, 9.0, 2.6], [2.0, 7.0, 1.0]):
        assert summary.percentile(values, 50.0) == pytest.approx(statistics.median(values))


def _traced_gamma_e(tmp_path, tracer):
    job = _job(tmp_path, "depolarizing", 2)
    tracer.begin_job()
    outcome = jobs.run_job(job, str(tmp_path / "o.json"))
    tracer.end_job()
    assert outcome.rc == 0


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    originals = {(mod.__name__, attr): val for mod in (sys.modules["qmsemi.cporder"],
                                                       sys.modules["qmsemi.subordinate"],
                                                       sys.modules["numpy.linalg"])
                 for attr, val in vars(mod).items() if callable(val)}
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert cporder.best_lambda is not originals[("qmsemi.cporder", "best_lambda")]
        assert sys.modules["qmsemi.subordinate"].best_lambda is cporder.best_lambda
        _traced_gamma_e(tmp_path, tracer)
    finally:
        tracer.restore()
    assert layers.wrapped_attributes() == []
    for (modname, attr), val in originals.items():
        assert getattr(sys.modules[modname], attr) is val
    spans = tracer.jobs[0]
    assert spans["cporder.best_lambda"][0] == 1
    assert spans["cporder.best_lambda"][3] > 0           # eigensolves inside the pencil
    assert tracer.job_totals[0]["eig"] >= spans["cporder.best_lambda"][3]


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        tracer.install()
        try:
            _traced_gamma_e(tmp_path, tracer)
        finally:
            tracer.restore()
        counts.append(({fn: (row[0], row[3]) for fn, row in tracer.jobs[0].items()},
                       tracer.job_totals[0]["eig"]))
    assert counts[0] == counts[1]


def test_missing_function_is_skipped_and_reported(tmp_path, monkeypatch):
    listed = dict(layers.LAYER_FUNCTIONS)
    listed["cporder"] = listed["cporder"] + ("no_such_function",)
    listed["no_such_module"] = ("anything",)
    monkeypatch.setattr(layers, "LAYER_FUNCTIONS", listed)
    tracer = layers.Tracer()
    tracer.install()
    try:
        _traced_gamma_e(tmp_path, tracer)
    finally:
        tracer.restore()
    assert "cporder.no_such_function" in tracer.skipped
    assert "no_such_module.anything" in tracer.skipped
    assert layers.wrapped_attributes() == []


def test_warmup_has_one_job_per_cell(tmp_path):
    for name in jobs.WORKLOADS:
        timed = jobs.build_jobs(name, 3, tmp_path / name)
        warm = jobs.build_jobs(name, 3, tmp_path / name, warmup=True)
        cells = [(j.kind, j.m) for j in warm]
        assert sorted(cells) == sorted({(j.kind, j.m) for j in timed})
        assert not {j.path for j in warm} & {j.path for j in timed}


def test_inputs_repeat_for_a_seed(tmp_path):
    a = jobs.build_jobs("decay", 7, tmp_path / "a")
    b = jobs.build_jobs("decay", 7, tmp_path / "b")
    c = jobs.build_jobs("decay", 8, tmp_path / "c")
    read = lambda js: [Path(j.path).read_text() for j in js]  # noqa: E731
    assert read(a) == read(b)
    assert read(a) != read(c)
    assert [j.seed for j in a] == [j.seed for j in b]


def test_scaling_takes_the_reference_state_and_the_handler_out():
    import timing

    ref = timing.Reference()
    out, raw, scaled = ref.time(sum, range(3_000_000))
    assert out == sum(range(3_000_000))
    assert len(ref.samples) > 2                 # ticks ran inside the interval
    state = sum(ref.samples) / len(ref.samples)
    assert scaled == pytest.approx(raw / state)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
