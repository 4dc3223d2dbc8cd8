"""Self-test of the benchmark, at tiny sizes.

    python3 -m pytest perfbench/test_bench.py -q

Checks that every workload reports every metric by name and unit, that a
corrupted result is counted as a failure, that the tracer patches every
binding and restores it, that BENCHMARK.json matches spec.py, and that the
benchmark refuses to run without the program's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [name for name, _ in spec.WORKLOADS]


def bench(cwd, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.2", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(*args):
    proc = bench(ROOT, *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result("--workload", workload, "--trace", "0")
    expected = {name: unit for name, unit, _, _ in spec.END_TO_END}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    out = result("--workload", workload, "--trace", "1")
    expected = {name: unit for name, unit, _ in spec.per_layer()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert out["correct"]
    assert 0.0 <= out["metrics"]["trace.unattributed_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failed(workload):
    # A perturbed multiplier (duals), a nudged state (Frank-Wolfe) or a wrong
    # exit code (CLI) on the first op.
    out = result("--workload", workload, "--trace", "1", "--corrupt")
    assert out["failed"] == 1 and not out["correct"]
    assert out["metrics"]["failed_frac"]["value"] == pytest.approx(1 / out["attempted"])
    out = result("--workload", workload, "--trace", "0", "--corrupt")
    assert out["failed"] == 1 and not out["correct"]


def test_tracer_patches_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import gmaxent.models
    import gmaxent.regions
    import gmaxent.simplex
    import gmaxent.solver
    from tracer import Tracer

    original = gmaxent.simplex.phase_one
    tracer = Tracer()
    tracer.install()
    try:
        for module in (gmaxent.simplex, gmaxent.solver, gmaxent.models, gmaxent.regions):
            assert module.phase_one is not original and module.phase_one.__wrapped__ is original
        gmaxent.solver.phase_one([[1.0, 1.0]], [1.0])
    finally:
        tracer.uninstall()
    assert gmaxent.solver.phase_one is original and gmaxent.models.phase_one is original
    assert tracer.metrics()["simplex.phase_one.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speedometer_scales_to_reference_speed():
    from reference import PARTS, Speedometer

    speed = Speedometer(("interpreter", "stream"))
    reference_s = PARTS["interpreter"][1] + PARTS["stream"][1]
    speed.at = [0.0, 1.0, 2.0]
    speed.kernel_s = [2.0 * reference_s] * 3  # the machine runs at half speed
    assert speed.scale([0.5, 1.5], [0.004, 0.010]) == pytest.approx([0.002, 0.005])
    speed.tick()
    assert len(speed.kernel_s) == 4 and speed.kernel_s[-1] > 0.0
