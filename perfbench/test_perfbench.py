"""Self-test of the benchmark itself: ``python3 -m pytest perfbench``.

At a tiny size every workload reports every metric BENCHMARK.json names,
with its unit; a corrupted reference value raises failed_frac above 0;
traced counts repeat exactly; and without lbk's sources the benchmark
exits non-zero without printing a result.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import LargeR, Sweep, Triangle, scipy_closed_form  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "sweep": Sweep(cases=12),
    "triangle": Triangle(n_max=4, points_per_batch=2, sample=8),
    "large_R": LargeR(radii=(40.0, 80.0), alpha_bins=2, n_max=3),
}


@pytest.fixture(scope="module")
def lbk():
    module = run.import_lbk()
    assert module is not None
    return module


@pytest.fixture(autouse=True)
def restore_workers(monkeypatch):
    # The runs set LBK_WORKERS; restore it after each test.
    monkeypatch.setenv("LBK_WORKERS", "2")


def _units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_named_with_units(lbk, name):
    check, metrics, _ = run.timed_run(lbk, TINY[name], seed=7, seconds=0.01)
    assert _units(metrics) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert check.attempted > 0 and check.failed == 0
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_named_and_counts_repeat(lbk, name):
    first = run.traced_run(lbk, TINY[name], seed=7)[1]
    second = run.traced_run(lbk, TINY[name], seed=7)[1]
    assert _units(first) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    counts = [k for k, (_, unit) in first.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["trace.accounted_frac"][0] == pytest.approx(1.0, abs=0.02)


def _records(lbk, workload, seed=3):
    calls, _ = workload.batch(random.Random(seed))
    _, outputs = run.run_calls(lbk.cli.main, calls)
    return [workload.digest(*o) for o in outputs]


def test_corrupted_reference_fails_triangle(lbk):
    w = TINY["triangle"]
    records = _records(lbk, w)
    assert w.check(records).failed == 0
    bad = w.check(records, reference=lambda *a: scipy_closed_form(*a) * (1 + 1e-6) + 1e-6)
    assert bad.failed / bad.attempted > 0


def test_corrupted_reference_fails_large_R(lbk):
    w = TINY["large_R"]
    records = _records(lbk, w)
    assert w.check(records).failed == 0

    def corrupted(n, m, alpha, R):
        return lbk.closed_form_I(lbk.IntegralParams(n, m, alpha, R)) + 1e-6

    bad = w.check(records, reference=corrupted)
    assert bad.failed / bad.attempted > 0


def test_corrupted_reference_fails_sweep(lbk, monkeypatch):
    # verify's reference is its quadrature oracle: shift every oracle value.
    real = lbk.verify.integrate_I

    def corrupted(p, spec):
        r = real(p, spec)
        return lbk.QuadResult(r.value + 1e-6, r.est_error, r.panels_used,
                              r.converged)

    monkeypatch.setenv("LBK_WORKERS", "1")
    monkeypatch.setattr(lbk.verify, "integrate_I", corrupted)
    w = TINY["sweep"]
    bad = w.check(_records(lbk, w))
    assert bad.failed / bad.attempted > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
