"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Each workload's tiny cycle sends one request per subcommand.
"""

import copy
import shutil
import subprocess
import sys

import pytest

import run  # pins the BLAS threads before numpy loads
import hostspeed
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run.measure(workload, seed=0, seconds=0.0, trace=True, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {name for name, _ in run.metric_specs("per_layer")}
    # each workload does the work it was chosen for
    if workload == "verify-scan":
        assert metrics["extspec.probe.solves"] > 0
        assert metrics["extspec.probe.self_ms"] > 0.5 * metrics["trace.busy_ms"]
    else:
        assert metrics["extspec.probe.calls"] == 0
    if workload == "witness-batch":
        assert metrics["extspec.ratio_set.calls"] == 0


def test_untraced_run_emits_every_end_to_end_metric():
    result = run.measure("witness-batch", seed=0, seconds=0.0, trace=False, tiny=True)
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _ in run.metric_specs("end_to_end")}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_altered_reference_counts_as_a_failure():
    refs = copy.deepcopy(run.load_references("witness-batch"))
    first = workloads.cycle("witness-batch", 0, tiny=True)[0]
    refs[first.key]["rc"] = 1
    result = run.measure("witness-batch", seed=0, seconds=0.0, trace=False, tiny=True, refs=refs)
    assert result["failed"] >= 1 and not result["correct"]


def test_a_request_that_raises_counts_as_a_failure(monkeypatch):
    cli = run.load_compext()

    def boom(argv):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "main", boom)
    result = run.measure("witness-batch", seed=0, seconds=0.0, trace=False, tiny=True)
    assert result["failed"] == result["attempted"] and not result["correct"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "witness-batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_speed_scales_by_the_nearest_kernel_samples():
    speed = hostspeed.HostSpeed(warm=0)
    ref = hostspeed.REFERENCE_S
    # a steady host, then one twice as slow from t=10 on
    speed.marks = [(t, ref) for t in range(10)] + [(t, 2 * ref) for t in range(10, 20)]
    assert speed.scale(4.2) == 1.0
    assert speed.scale(15.0) == 0.5
    assert speed.scale(100.0) == 0.5  # past the last sample: the last ones count
