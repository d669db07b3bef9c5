"""Smoke test of the benchmark harness at its smallest scale.

Collected by the tier-1 run; a few seconds; writes only under
``tmp_path``.  Asserts plumbing and determinism, never a timing.
"""

from __future__ import annotations

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: ``scale=0`` takes every size floor and ``seconds=0`` the minimum op
#: count: a miniature of each workload in the same serving regime.
TINY = dict(seconds=0.0, scale=0.0)

#: Everything the harness may import from ``repro`` (ISSUE 13), so
#: engines, dict modes and knobs can be deleted without editing it.
ALLOWED_IMPORTS = {
    "repro.core": {"CachingModel", "FeatureEncoder", "RecMG", "RecMGConfig",
                   "RecMGManager", "build_labels", "caching_targets",
                   "train_caching_model"},
    "repro.dlrm": {"TieredMemoryConfig"},
    "repro.serving": {"Batcher", "Request", "RequestQueue"},
    "repro.traces": {"SyntheticTraceConfig", "generate_trace",
                     "generate_multi_tenant_trace"},
}


def names(section: str) -> set:
    return {metric["name"] for metric in SPEC[section]}


@pytest.fixture(autouse=True)
def one_set_up(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def test_workload_tables_agree():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert "setup_s" in names("end_to_end")
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_metrics_and_determinism(name):
    first = workloads.run_workload(name, 1, traced=False, **TINY)
    again = workloads.run_workload(name, 1, traced=False, **TINY)
    traced = workloads.run_workload(name, 1, traced=True, **TINY)

    assert set(first["metrics"]) == names("end_to_end")
    assert set(traced["metrics"]) == names("per_layer")
    for run in (first, again, traced):
        assert run["failed"] == 0 and run["attempted"] >= 1
        assert run["detail"]["occupancy_ok"]
        assert all(math.isfinite(value) for value in run["metrics"].values())
    assert all(value > 0 for value in first["metrics"].values())

    # Same seed, same decisions: across runs, and with tracing on.
    digests = {run["detail"]["decision_digest"]
               for run in (first, again, traced)}
    assert len(digests) == 1
    for exact in ("miss_rate", "modelled_batch_ms"):
        assert first["metrics"][exact] == again["metrics"][exact]
    other = workloads.run_workload(name, 2, traced=False, **TINY)
    assert other["detail"]["decision_digest"] not in digests

    assert traced["spans"]["name"].count("bench.op") >= 1
    assert traced["metrics"]["core.manager.op_ms_p50"] > 0
    assert traced["metrics"]["cache.buffer.busy_share"] > 0


def test_wrong_hit_array_is_a_failed_op():
    workload = workloads.WORKLOADS["steady-clock"]
    serving = workload.set_up(workload.make_inputs(1, 0.0), 0.0, {}, False)
    honest = serving.op

    def tampered(index):
        keys, hits = honest(index)
        if index == 1:
            hits = hits[:-1]
        elif index == 2:
            hits = ~hits
        elif index == 3:
            raise RuntimeError("op blew up")
        return keys, hits

    serving.op = tampered
    measured = workloads.measure(serving, 0, 5)
    assert measured.failed == 3
    assert int(np.count_nonzero(measured.keys)) == 4   # the run went on
    serving.close()


def test_harness_imports_only_the_listed_api():
    imported = {}
    for source in BENCH_DIR.glob("*.py"):
        if source.name.startswith("test_"):
            continue
        text = source.read_text()
        assert "_serve_" not in text and "ShardWorkerPool" not in text
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (
                    node.module or "").startswith("repro"):
                imported.setdefault(node.module, set()).update(
                    alias.name for alias in node.names)
    assert imported, "the harness imports repro somewhere"
    for module, group in imported.items():
        assert group <= ALLOWED_IMPORTS.get(module, set()), (module, group)


def test_command_line_contract(tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "tenants-sharded", "--seed", "2", "--seconds", "0", "--scale", "0",
         "--trace", "0", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, cwd=tmp_path)
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == listed
    assert json.loads(out.read_text())["detail"]["seed"] == 2
