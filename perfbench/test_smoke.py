"""Smoke test of the benchmark at toy sizes.

Runs perfbench/run.py on every workload, untraced and traced, with the
sizes of `workloads.TOY`, one repetition and one setup probe.  Each run
must exit 0 and report exactly the metrics BENCHMARK.json declares, with
their units, and fail no operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_toy_run_reports_every_declared_metric(name, trace, tmp_path):
    done = _run(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--toy", "--workdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in declared]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, done.stderr
    if trace:
        assert (tmp_path / f"spans-{name}-seed3.csv").is_file()
    else:
        assert result["metrics"]["pass_ratio"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_package(tmp_path):
    """With only BENCHMARK.json and perfbench/ present, exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "ladder-exact", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
