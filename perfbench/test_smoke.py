"""Smoke test of the benchmark: tiny inputs, the result schema and the
correctness checks, with no timing bounds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import paradoxlab  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for entry in SPEC["workloads"] + metrics:
        assert NAME.fullmatch(entry["name"])
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len(set(names + [m["name"] for m in metrics])) == len(names) + len(
        metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_checks_and_reports_every_metric(workload,
                                                              trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "ensemble", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_changed_digest_is_flagged(tmp_path):
    record = {"digests": {"job": "a"}, "counts": {"words": 1}}
    assert worker.compare_with_earlier(tmp_path, "key", record) == []
    assert worker.compare_with_earlier(tmp_path, "key", record) == []
    record["counts"] = {"words": 2}
    assert worker.compare_with_earlier(tmp_path, "key", record) != []


def _path(n):
    return paradoxlab.build_undirected(n, [(i, i + 1) for i in range(n - 1)])


def test_checks_reject_wrong_outputs():
    graph = _path(20)
    spectral, vector = paradoxlab.eigenvector_centrality(graph)
    exact = 2.0 * np.cos(np.pi / 21)
    assert checks.eigen_certificate(graph, spectral.lambda1, vector.values,
                                    1e-12) == []
    assert checks.eigenvalue_is(graph, spectral.lambda1, vector.values, exact,
                                "P_20") == []
    bent = vector.values.copy()
    bent[0] *= 1.001
    assert checks.eigen_certificate(graph, spectral.lambda1, bent, 1e-12)
    assert checks.eigenvalue_is(graph, spectral.lambda1, vector.values,
                                exact + 1e-6, "P_20")

    closeness = paradoxlab.compute(
        graph, paradoxlab.CentralityParams(kind="closeness")).values
    assert checks.shortest_path_measures(graph, "closeness", closeness) == []
    assert checks.shortest_path_measures(graph, "harmonic", closeness)

    with pytest.raises(paradoxlab.ConvergenceError) as failure:
        paradoxlab.eigenvector_centrality(graph, max_iters=5)
    assert checks.unsolved(failure.value, 1e-12, 5) == []
    assert checks.unsolved(failure.value, 1e-12, 6)
