"""Self-test of the serving benchmark at Q_8/S_5 sizes.

Run from the repository root (it is outside the tier-1 ``tests`` tree)::

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced against a real ``serve``
subprocess, with two-second windows.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    records = tmp_path_factory.mktemp("records")
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = records / f"{workload}-{trace}.json"
            done = bench("--workload", workload, "--seed", "3", "--seconds", "2",
                         "--trace", str(trace), "--small", "--record", str(record))
            assert done.returncode == 0, done.stdout + done.stderr
            results[workload, trace] = (done.stdout.splitlines(), record)
    return results


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(runs, workload, trace):
    lines, _ = runs[workload, trace]
    declared = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert printed == declared
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == declared
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # failed_share == 0


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in WORKLOADS:
        lines, _ = runs[workload, 0]
        metrics = json.loads(lines[-1])["metrics"]
        assert all(entry["value"] > 0 for entry in metrics.values()), workload


def test_traced_runs_confirm_each_workload_reason(runs):
    layers = {
        workload: {name: entry["value"] for name, entry in
                   json.loads(runs[workload, 1][0][-1])["metrics"].items()}
        for workload in WORKLOADS
    }
    seeded, explicit = layers["seeded_mix"], layers["explicit_http"]
    assert seeded["syndrome.build_ms"] > 0
    assert explicit["syndrome.build_ms"] == 0
    # Worker-side spans come back from the pool.
    assert explicit["kernel.set_builder_ms"] > 0
    for name in ("pool.publish_ms", "pool.task_ms"):
        assert explicit[name] > 0
        assert seeded[name] == 0
    assert seeded["store.put_ms"] > 0 and explicit["store.put_ms"] == 0
    for workload in layers.values():
        assert workload["pool.worker_compiles"] == 0
        assert workload["pool.worker_pair_builds"] == 0
        assert workload["trace.unattributed_share"] <= 0.10


def test_compare_refuses_differing_stamps(runs):
    compare = [sys.executable, "perfbench/compare.py"]
    _, seeded = runs["seeded_mix", 0]
    _, explicit = runs["explicit_http", 0]
    same = subprocess.run(compare + ["--base", str(seeded), "--new", str(seeded)],
                          cwd=ROOT, capture_output=True, text=True)
    assert same.returncode == 0, same.stdout
    differ = subprocess.run(compare + ["--base", str(seeded), "--new", str(explicit)],
                            cwd=ROOT, capture_output=True, text=True)
    assert differ.returncode == 2
    assert "workload" in differ.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "seeded_mix", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
