"""Tests of the benchmark harness itself (not of gridgrover).

    python3 -m pytest -q perfbench/test_harness.py

The smoke runs use desk-size inputs (``--smoke``) and one second each.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == run.WORKLOAD_NAMES
    assert list(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    stamp = json.loads(next(x for x in lines if x.startswith("# stamp "))[len("# stamp "):])
    assert {"git_sha", "python", "numpy", "nproc", "cpu_model", "seed"} <= set(stamp)
    assert stamp["seed"] == 5


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep-n4096", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    root = tracer.open("bench.unit")
    tracer.close(tracer.open("search.a"))  # 1..3
    child = tracer.open("search.b")  # 4..8
    tracer.close(tracer.open("grover.c"))  # 5..6
    tracer.close(child)
    tracer.close(root)  # 0..10
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert tracer.self_times().tolist() == [4.0, 2.0, 3.0, 1.0]


def test_installed_restores_the_library():
    import gridgrover.cli as cli
    import gridgrover.search as search
    import gridgrover.trajectory as trajectory

    before = (search.run_round, cli.main, trajectory.CostTable.__dict__["build"])
    with tracing.installed(tracing.Tracer()):
        assert search.run_round is not before[0]
    assert (search.run_round, cli.main, trajectory.CostTable.__dict__["build"]) == before


def test_checks_reject_wrong_outputs(tmp_path):
    sweep = workloads.WORKLOADS["sweep-n4096"]
    state = sweep.setup(7, True, tmp_path)
    outcome = sweep.unit(state, 0)
    assert sweep.check(state, 0, outcome)
    wrong = tuple((p + 1) % 256 for p in outcome.path)
    assert not sweep.check(state, 0, SimpleNamespace(success=True, path=wrong))

    bisect = workloads.WORKLOADS["bisect-3x8"]
    state = bisect.setup(7, True, tmp_path)
    b0, result = bisect.unit(state, 0)
    assert result.witness is not None and bisect.check(state, 0, (b0, result))
    bad_witness = SimpleNamespace(path=result.witness.path, cost=result.witness.cost * (1 + 1e-9))
    assert not bisect.check(state, 0, (b0, SimpleNamespace(
        interval=result.interval, rounds=result.rounds, witness=bad_witness)))
    assert not bisect.check(state, 0, (result.interval.upper * 0.5, result))
