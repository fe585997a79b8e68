"""Smoke test of the benchmark: every workload at toy size, both metric sets.

    python3 perfbench/smoke.py            # or: python3 -m pytest -q perfbench/smoke.py

The file name keeps it out of the repository's default pytest run: it starts
about thirty fresh interpreters and takes about 30 s, most of it in the
numeric suites, which have no smaller grid.
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
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int = 0, *extra: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    result = result_of(run(workload, trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        # layer self times and untraced_s split the traced verdict time
        assert 0 <= values["untraced_s"] <= values["traced_verdict_s"]
        assert values["trace_overhead_ratio"] > 0
    else:
        assert values["verdict_s"] > 0 and values["setup_s"] > 0 and values["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", ("verify-exact-grid", "separate-wide"))
def test_wrong_reference_is_a_failure(workload, tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    reference["verify"]["toy"]["sov"]["sha256"] = "0" * 64
    reference["separate"] = {key: "0" * 64 for key in reference["separate"]}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result = result_of(run(workload, 0, "--reference", str(path)))
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("separate-wide", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
