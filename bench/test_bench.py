"""Self-tests of the benchmark, at toy sizes.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import calib  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from confcoh import closedform, dga  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert "fail_frac" in proc.stdout


def test_seed_changes_order_not_set():
    for name in workloads.WORKLOADS:
        a, b = workloads.points(name, 1), workloads.points(name, 2)
        assert a != b
        assert sorted(a) == sorted(b) == sorted(workloads.POINTS[name])
        assert workloads.points(name, 1) == a


def test_traced_run_splits_the_layers():
    proc = bench("closedform_tables", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["closedform.mixed_table.calls"]["value"] > 0
    assert metrics["series.TriSeries.mul.self_s"]["value"] > 0
    assert metrics["dga.differential_monomial.calls"]["value"] == 0
    assert metrics["linalg.rank.calls"]["value"] == 0


def _wrong_dims(g, n, model="A"):
    return {(0, 0): 2}


_right_dims = dga.cohomology_dims


def _wrong_model_b(g, n, model="A"):
    return _wrong_dims(g, n) if model == "B" else _right_dims(g, n, model)


def _raises(*args, **kwargs):
    raise RuntimeError("broken route")


@pytest.mark.parametrize("workload, module, name, broken", [
    ("verify_frontier", dga, "cohomology_dims", _wrong_dims),
    ("verify_frontier", dga, "cohomology_reps", _raises),
    ("model_b", dga, "cohomology_dims", _wrong_model_b),
    ("closedform_tables", closedform, "mixed_table", _raises),
])
def test_broken_route_trips_the_gate(monkeypatch, workload, module, name, broken):
    pts = workloads.points(workload, 0, toy=True)
    attempted, failed, errors = workloads.run(workload, pts)
    assert failed == 0 and attempted > 0
    monkeypatch.setattr(module, name, broken)
    attempted, failed, errors = workloads.run(workload, pts)
    assert failed > 0 and errors
    rep = {"attempted": attempted, "failed": failed, "errors": errors, "wall_s": 1.0,
           "cpu_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 10.0, "raw_wall_s": 1.0,
           "raw_cpu_s": 1.0, "raw_setup_s": 0.1}
    _, detail, result, code = run.report(workload, [rep], [rep], [], False)
    assert code != 0 and not result["correct"] and detail["fail_frac"] > 0


def test_timed_run_scales_by_the_calibration_slices(monkeypatch):
    slices = []

    def measure():
        slices.append(1)
        return 2 * calib.REFERENCE_S, 4 * calib.REFERENCE_S  # a box at half, a quarter speed

    monkeypatch.setattr(calib, "measure", measure)
    pts = workloads.points("closedform_tables", 0, toy=True)
    (wall, cpu), (ref_wall, ref_cpu), (attempted, failed, _) = child.timed_run(
        "closedform_tables", pts)
    assert attempted == len(pts) and failed == 0
    assert 2 <= len(slices) <= len(pts) + 1
    assert ref_wall == pytest.approx(wall / 2) and ref_cpu == pytest.approx(cpu / 4)


def test_calibration_slice_is_fixed_work():
    wall, cpu = calib.measure()
    assert wall > 0 and cpu > 0
    assert calib.EXPECTED == calib._work()


def test_euler_coefficient_matches_closed_form():
    for g in (1, 2, 5):
        assert [workloads._euler_coefficient(g, n) for n in range(8)] == \
            closedform.euler_binomials(g, 7)


def test_tracer_nested_self_time_is_not_double_counted():
    t = tracer.Tracer().install()
    try:
        assert closedform.mixed_table.__wrapped__
        start = time.perf_counter()
        closedform.mixed_table(2, 9)
        wall = time.perf_counter() - start
    finally:
        t.uninstall()
    report = t.report()
    assert not hasattr(closedform.mixed_table, "__wrapped__")
    assert report["closedform.mixed_table.calls"] == 1
    assert report["closedform.build_Q.calls"] == 1
    assert report["series.TriSeries.mul.calls"] > 0
    self_total = sum(v for k, v in report.items() if k.endswith(".self_s"))
    assert 0 < self_total <= wall


def test_tracer_reports_a_missing_target_as_absent():
    spans = tracer.SPANS + (("dga.gone", "dga", "no_such_function", None),)
    t = tracer.Tracer(spans=spans).install()
    try:
        dga.cohomology_dims(1, 5)
    finally:
        t.uninstall()
    assert t.absent == ["dga.no_such_function"]
    assert t.report()["dga.enumerate_basis.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("model_b", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
