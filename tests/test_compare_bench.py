"""Tests for benchmarks/compare_bench.py (the CI hot-path regression
gate), driven by synthetic BENCH_hotpaths.json fixtures.

The script is CI tooling that fails builds, so its three verdicts each
get a test: clean pass (exit 0), a gated speedup regressing more than
the threshold (exit 1), and a gated hot path vanishing from the fresh
run (exit 1) — plus the policy details: ungated entries never gate,
new paths are informational, and ``--max-regression`` moves the floor.

The hit-rate-lift gate (model-guided serving entries recorded with
``hit_rate_lift`` and no ``speedup``) has its own verdicts: a
committed positive lift surviving passes, vanishing (fresh lift <= 0)
or going missing fails, committed non-positive lifts never gate, and
lift-only entries must not leak into the speedup comparison.

The manifest of gated names (``benchmarks/gated_hotpaths.json``) must
fail two equally truncated files, and the committed baseline must hold
exactly the names it lists.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "compare_bench.py"
_MANIFEST = _SCRIPT.with_name("gated_hotpaths.json")
_BASELINE = _SCRIPT.parent.parent / "BENCH_hotpaths.json"


def _write_manifest(path, speedup=(), lift=()):
    path.write_text(json.dumps({"speedup": list(speedup),
                                "lift": list(lift)}))
    return path


@pytest.fixture(scope="module")
def compare_bench(tmp_path_factory):
    """The script as a module, its manifest emptied: the synthetic
    fixtures below use their own entry names (the manifest tests set
    one)."""
    spec = importlib.util.spec_from_file_location("compare_bench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.MANIFEST = _write_manifest(
        tmp_path_factory.mktemp("manifest") / "gated_hotpaths.json")
    return module


def _payload(entries):
    """BENCH_hotpaths.json shape from {name: (speedup, gated)} (a bare
    float means gated=True; None omits the speedup entirely)."""
    hot_paths = {}
    for name, value in entries.items():
        speedup, gated = (value if isinstance(value, tuple)
                          else (value, True))
        entry = {"accesses": 50_000, "seconds": 0.05}
        if speedup is not None:
            entry["speedup"] = speedup
        if gated:
            entry["gated"] = True
        hot_paths[name] = entry
    return {"source": "test", "hot_paths": hot_paths}


def _write(tmp_path, name, entries):
    path = tmp_path / name
    path.write_text(json.dumps(_payload(entries)))
    return str(path)


def test_clean_pass(compare_bench, tmp_path, capsys):
    baseline = _write(tmp_path, "base.json",
                      {"optgen": 20.0, "serving": 4.0})
    fresh = _write(tmp_path, "fresh.json",
                   {"optgen": 18.5, "serving": 4.2})
    assert compare_bench.main([baseline, fresh]) == 0
    out = capsys.readouterr().out
    assert "All 2 gated hot paths" in out
    assert "FAIL" not in out


def test_regression_beyond_threshold_fails(compare_bench, tmp_path,
                                           capsys):
    baseline = _write(tmp_path, "base.json",
                      {"optgen": 20.0, "serving": 4.0})
    fresh = _write(tmp_path, "fresh.json",
                   {"optgen": 20.0, "serving": 2.0})  # 50% drop
    assert compare_bench.main([baseline, fresh]) == 1
    captured = capsys.readouterr()
    assert "FAIL serving" in captured.out
    assert "regressed" in captured.err


def test_regression_within_threshold_passes(compare_bench, tmp_path):
    baseline = _write(tmp_path, "base.json", {"serving": 4.0})
    fresh = _write(tmp_path, "fresh.json", {"serving": 3.0})  # 25% drop
    assert compare_bench.main([baseline, fresh]) == 0
    # A tighter floor flips the verdict.
    assert compare_bench.main([baseline, fresh,
                               "--max-regression", "0.20"]) == 1


def test_vanished_gated_path_fails(compare_bench, tmp_path, capsys):
    baseline = _write(tmp_path, "base.json",
                      {"optgen": 20.0, "serving": 4.0})
    fresh = _write(tmp_path, "fresh.json", {"optgen": 20.0})
    assert compare_bench.main([baseline, fresh]) == 1
    assert "missing from the" in capsys.readouterr().err


def test_carried_over_gated_path_counts_as_vanished(compare_bench, tmp_path,
                                                    capsys):
    """Bench sessions merge into the existing file, so a gate that
    stopped running is still *present* in the fresh file — listed under
    ``carried_over``, which must read as missing, on the fresh side
    only (a committed baseline's carried-over gates still gate)."""
    entries = {"optgen": 20.0, "serving": 4.0}
    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps(
        {**_payload(entries), "carried_over": ["serving"]}))
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(
        {**_payload(entries), "carried_over": ["serving"]}))
    assert compare_bench.main([str(baseline), str(fresh)]) == 1
    assert "serving: gated hot path missing" in capsys.readouterr().err
    fresh.write_text(json.dumps({**_payload(entries), "carried_over": []}))
    assert compare_bench.main([str(baseline), str(fresh)]) == 0


def test_ungated_entries_never_gate(compare_bench, tmp_path, capsys):
    """Informational entries (no gated flag, or no speedup at all) are
    excluded on both sides: regressing or vanishing is fine."""
    baseline = _write(tmp_path, "base.json",
                      {"gated": 5.0,
                       "parity": (1.0, False),
                       "raw-only": (None, False)})
    fresh = _write(tmp_path, "fresh.json",
                   {"gated": 5.0, "parity": (0.2, False)})
    assert compare_bench.main([baseline, fresh]) == 0
    assert "All 1 gated hot paths" in capsys.readouterr().out


def test_metric_field_churn_is_tolerated(compare_bench, tmp_path,
                                         capsys):
    """Entries may rename, add or drop auxiliary metric fields
    (hit rates, depth stats, shard weights, ...) between runs without
    changing any verdict — only ``speedup`` and ``gated`` matter.  A
    gated entry vanishing outright still fails."""
    base_payload = _payload({"serving": 4.0, "hotshard": 2.0})
    base_payload["hot_paths"]["serving"]["queue_depth_mean"] = 3.5
    base = tmp_path / "base.json"
    base.write_text(json.dumps(base_payload))

    fresh_payload = _payload({"serving": 4.1, "hotshard": 1.9})
    # Renamed and newly added metric fields on the fresh side.
    fresh_payload["hot_paths"]["serving"]["latency_p99_ms"] = 2.5
    fresh_payload["hot_paths"]["hotshard"]["shard_weights"] = \
        [0.85, 0.05, 0.05, 0.05]
    fresh_payload["hot_paths"]["note"] = "not a dict — skipped"
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(fresh_payload))
    assert compare_bench.main([str(base), str(fresh)]) == 0
    assert "All 2 gated hot paths" in capsys.readouterr().out

    # Field churn does not weaken the vanished-gated-path check.
    del fresh_payload["hot_paths"]["hotshard"]
    fresh.write_text(json.dumps(fresh_payload))
    assert compare_bench.main([str(base), str(fresh)]) == 1
    assert "hotshard: gated hot path missing" in capsys.readouterr().err


def test_new_gated_path_is_informational(compare_bench, tmp_path,
                                         capsys):
    """A fresh-only path cannot gate until its baseline is committed —
    but it is surfaced as NEW so the committer sees it."""
    baseline = _write(tmp_path, "base.json", {"optgen": 20.0})
    fresh = _write(tmp_path, "fresh.json",
                   {"optgen": 20.0, "sharded": 1.05})
    assert compare_bench.main([baseline, fresh]) == 0
    assert "NEW sharded" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Hit-rate-lift gate (model-guided serving entries)
# ----------------------------------------------------------------------
def _write_lifts(tmp_path, name, lifts, speedups=None):
    """Payload whose lift entries are gated and speedup-free (the shape
    ``model_guided_*_sync`` records); ``speedups`` adds ordinary gated
    speedup entries alongside."""
    payload = _payload(speedups or {})
    for entry_name, lift in lifts.items():
        payload["hot_paths"][entry_name] = {
            "accesses": 35_000, "seconds": 0.3, "gated": True,
            "hit_rate": 0.55, "hit_rate_lift": lift,
        }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_preserved_lift_passes(compare_bench, tmp_path, capsys):
    baseline = _write_lifts(tmp_path, "base.json",
                            {"model_guided_zipf_sync": 0.030})
    fresh = _write_lifts(tmp_path, "fresh.json",
                         {"model_guided_zipf_sync": 0.012})
    assert compare_bench.main([baseline, fresh]) == 0
    out = capsys.readouterr().out
    assert "OK  model_guided_zipf_sync" in out
    assert "1 lift-gated entries checked" in out


def test_vanished_lift_fails(compare_bench, tmp_path, capsys):
    """The lift gate is strict — any fresh lift <= 0 fails, no 30%
    tolerance: lifts are decision metrics on a fixed seed, not
    wall-clock measurements."""
    baseline = _write_lifts(tmp_path, "base.json",
                            {"model_guided_zipf_sync": 0.030})
    fresh = _write_lifts(tmp_path, "fresh.json",
                         {"model_guided_zipf_sync": -0.002})
    assert compare_bench.main([baseline, fresh]) == 1
    captured = capsys.readouterr()
    assert "FAIL model_guided_zipf_sync" in captured.out
    assert "vanished" in captured.err


def test_missing_lift_entry_fails(compare_bench, tmp_path, capsys):
    baseline = _write_lifts(tmp_path, "base.json",
                            {"model_guided_zipf_sync": 0.030})
    fresh = _write_lifts(tmp_path, "fresh.json", {})
    assert compare_bench.main([baseline, fresh]) == 1
    assert "lift-gated entry missing" in capsys.readouterr().err


def test_lift_entries_skip_speedup_gate(compare_bench, tmp_path, capsys):
    """A lift-gated entry carries no ``speedup``, so it must neither
    count as a gated speedup nor trip the vanished-speedup check —
    and vice versa, speedup entries don't join the lift section."""
    baseline = _write_lifts(tmp_path, "base.json",
                            {"model_guided_zipf_sync": 0.030},
                            speedups={"optgen": 20.0})
    fresh = _write_lifts(tmp_path, "fresh.json",
                         {"model_guided_zipf_sync": 0.020},
                         speedups={"optgen": 19.0})
    assert compare_bench.main([baseline, fresh]) == 0
    out = capsys.readouterr().out
    assert "All 1 gated hot paths" in out
    assert "1 lift-gated entries checked" in out


def test_nonpositive_committed_lift_never_gates(compare_bench, tmp_path,
                                                capsys):
    """A scenario committed while the model underperforms must not lock
    the underperformance in as a requirement — or fail the build."""
    baseline = _write_lifts(tmp_path, "base.json",
                            {"model_guided_tenant_sync": -0.004})
    fresh = _write_lifts(tmp_path, "fresh.json", {})
    assert compare_bench.main([baseline, fresh]) == 0
    assert "SKIP model_guided_tenant_sync" in capsys.readouterr().out


def test_new_lift_entry_is_informational(compare_bench, tmp_path,
                                         capsys):
    baseline = _write_lifts(tmp_path, "base.json", {})
    fresh = _write_lifts(tmp_path, "fresh.json",
                         {"model_guided_zipf_sync": 0.030})
    assert compare_bench.main([baseline, fresh]) == 0
    assert "NEW model_guided_zipf_sync: lift" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Manifest of gated names
# ----------------------------------------------------------------------
def test_equally_truncated_files_fail_against_the_manifest(
        compare_bench, tmp_path, monkeypatch, capsys):
    """A baseline that lost a gated entry passes against a fresh file
    that lost the same one — unless the manifest names it."""
    baseline = _write_lifts(tmp_path, "base.json",
                            {"model_guided_zipf_sync": 0.030},
                            speedups={"optgen": 20.0})
    fresh = _write_lifts(tmp_path, "fresh.json",
                         {"model_guided_zipf_sync": 0.025},
                         speedups={"optgen": 19.0})
    assert compare_bench.main([baseline, fresh]) == 0
    monkeypatch.setattr(compare_bench, "MANIFEST", _write_manifest(
        tmp_path / "manifest.json", speedup=["optgen", "serving"],
        lift=["model_guided_zipf_sync", "model_guided_tenant_sync"]))
    assert compare_bench.main([baseline, fresh]) == 1
    err = capsys.readouterr().err
    for name in ("serving", "model_guided_tenant_sync"):
        for side in ("baseline", "fresh"):
            assert f"{name}: gated entry named in manifest.json missing " \
                   f"from the {side} file" in err
    assert "optgen: gated entry" not in err


def test_committed_baseline_holds_the_committed_manifest(compare_bench,
                                                         monkeypatch):
    """The committed ``BENCH_hotpaths.json`` gates exactly the names the
    committed manifest lists, so it passes against itself."""
    monkeypatch.setattr(compare_bench, "MANIFEST", _MANIFEST)
    manifest = json.loads(_MANIFEST.read_text())
    assert set(compare_bench.load_speedups(str(_BASELINE))) \
        == set(manifest["speedup"])
    assert set(compare_bench.load_lifts(str(_BASELINE))) \
        == set(manifest["lift"])
    assert compare_bench.main([str(_BASELINE), str(_BASELINE)]) == 0
