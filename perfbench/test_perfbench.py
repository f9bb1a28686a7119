"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench

Each test starts perfbench/run.py in a subprocess with short runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _bench(root: str, workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_traced_counts_repeat_exactly():
    runs = [_bench(ROOT, "shooting", 5, 1.5, 1) for _ in range(2)]
    for proc, result in runs:
        assert proc.returncode == 0, proc.stderr
    a, b = (r[1]["metrics"] for r in runs)
    counts = [k for k, v in a.items() if v["unit"] == "count"]
    assert {"integrator.steps", "vorticity.F_calls_per_step",
            "analysis.shots_per_solve"} <= set(counts)
    for key in counts + ["integrator.attempts_per_step"]:
        assert a[key]["value"] == b[key]["value"], key
    assert a["integrator.steps"]["value"] > 0


def test_seed_changes_inputs_not_metric_names():
    from workloads import WORKLOADS

    for name in ("ring_capture", "shooting", "model_audit"):
        wl = WORKLOADS[name]
        assert wl.plan(1, 12.0) != wl.plan(2, 12.0), name
        assert wl.plan(1, 12.0) == wl.plan(1, 12.0), name
        assert len(wl.plan(1, 12.0)) == len(wl.plan(2, 12.0)), name
    declared = _declared()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        names = []
        for seed in (1, 2):
            proc, result = _bench(ROOT, "model_audit", seed, 1.0, trace)
            assert proc.returncode == 0, proc.stderr
            names.append(list(result["metrics"]))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in declared[key]}
        assert names[0] == names[1]


def _copy_checkout(dst: str, with_program: bool = True) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, os.path.join(dst, "perfbench"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"),
                        ignore=skip)


def test_corrupted_reference_is_reported(tmp_path):
    _copy_checkout(str(tmp_path))
    path = tmp_path / "perfbench" / "refdata.json"
    data = json.loads(path.read_text())
    data["a_star"]["constantin"] += 1e-3
    path.write_text(json.dumps(data))
    proc, result = _bench(str(tmp_path), "shooting", 1, 1.0, 0)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "a*_ref" in proc.stderr


@pytest.mark.parametrize("trace", [0, 1])
def test_without_program_fails_without_result(tmp_path, trace):
    _copy_checkout(str(tmp_path), with_program=False)
    proc, result = _bench(str(tmp_path), "ring_capture", 1, 1.0, trace)
    assert proc.returncode != 0
    assert result is None
