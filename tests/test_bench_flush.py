"""Tests for ``flush_hotpaths`` in benchmarks/conftest.py — the writer
of ``BENCH_hotpaths.json``, the committed hot-path regression baseline.

The file used to be overwritten with whatever a session ran, so one
aborted or ``-k``-filtered session silently dropped gated entries from
the baseline.  The writer now merges: a passing session refreshes what
it measured and carries the rest over (by name, under ``carried_over``,
which ``compare_bench.py`` reads — see ``tests/test_compare_bench.py``);
a failed session writes nothing.  Each entry (``hotpath_entry``)
carries its best time, its repeat count and its median.

Only a *gated* session (``--perf-budget > 0``) reaches the writer at
all (``pytest_sessionfinish``): a budget-0 session — tier-1 among them
— measured under whatever load the host had and checked no floor, so
it leaves the committed file as it is.
"""

import importlib.util
import json
import os
import platform
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
_CONFTEST = _BENCHMARKS / "conftest.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_conftest():
    return _load("bench_conftest", _CONFTEST)


@pytest.fixture(scope="module")
def flush_hotpaths(bench_conftest):
    return bench_conftest.flush_hotpaths


def _entry(speedup):
    return {"accesses": 50_000, "seconds": 0.05, "speedup": speedup,
            "gated": True}


def test_passing_session_merges_into_existing_file(flush_hotpaths, tmp_path):
    path = tmp_path / "BENCH_hotpaths.json"
    assert flush_hotpaths(path, {"optgen": _entry(20.0),
                                 "serving": _entry(4.0)}, 0)
    assert json.loads(path.read_text())["carried_over"] == []
    # A later session that ran one bench refreshes it and adds its new
    # entry; the bench it did not run keeps its committed numbers.
    assert flush_hotpaths(path, {"serving": _entry(5.0),
                                 "chunks": _entry(1.3)}, 0)
    payload = json.loads(path.read_text())
    assert payload["hot_paths"] == {"chunks": _entry(1.3),
                                    "optgen": _entry(20.0),
                                    "serving": _entry(5.0)}
    assert payload["carried_over"] == ["optgen"]


@pytest.mark.parametrize("exitstatus", [1, 2])
def test_failed_session_leaves_the_file_untouched(flush_hotpaths, tmp_path,
                                                  exitstatus):
    path = tmp_path / "BENCH_hotpaths.json"
    flush_hotpaths(path, {"optgen": _entry(20.0), "serving": _entry(4.0)}, 0)
    committed = path.read_bytes()
    # e.g. ``-x`` stopped at a failing gate after one bench had recorded.
    assert not flush_hotpaths(path, {"optgen": _entry(2.0)}, exitstatus)
    assert path.read_bytes() == committed


def test_session_without_hot_path_entries_writes_nothing(flush_hotpaths,
                                                         tmp_path):
    path = tmp_path / "BENCH_hotpaths.json"
    assert not flush_hotpaths(path, {}, 0)
    assert not path.exists()


def test_written_file_names_its_host(flush_hotpaths, tmp_path):
    """Timings are only comparable on the hardware that measured them:
    every written file carries the writing host's core count and
    python and numpy versions."""
    path = tmp_path / "BENCH_hotpaths.json"
    assert flush_hotpaths(path, {"optgen": _entry(20.0)}, 0)
    assert json.loads(path.read_text())["host"] == {
        "cpu_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def test_entry_records_repeats_and_median_beside_best(bench_conftest):
    """``_timed`` keeps every repeat's time, and the entry carries the
    repeat count and the median next to ``seconds``, which stays the
    best of them (what the gates and ``compare_bench.py`` read)."""
    perf = _load("perf_hotpaths", _BENCHMARKS / "test_perf_hotpaths.py")
    seconds, result = perf._timed(lambda: "done", repeats=3)
    assert result == "done" and len(seconds.times) == 3
    assert seconds == min(seconds.times)
    timing = perf.Timing([0.3, 0.1, 0.2, 0.5])
    entry = bench_conftest.hotpath_entry(1000, timing, ref_seconds=0.4,
                                         gated=True)
    assert entry["seconds"] == 0.1
    assert entry["repeats"] == 4
    assert entry["seconds_median"] == pytest.approx(0.25)
    assert entry["accesses_per_sec"] == pytest.approx(10_000)
    assert entry["speedup"] == pytest.approx(4.0)
    assert entry["gated"] is True
    merged = perf._best_of([perf.Timing([0.2]), perf.Timing([0.1, 0.3])])
    assert merged == 0.1 and merged.times == (0.2, 0.1, 0.3)
    # A plain float is one run.
    once = bench_conftest.hotpath_entry(10, 0.5)
    assert once["repeats"] == 1 and once["seconds_median"] == 0.5
    json.dumps(entry)


def _session(root, budget):
    """The slice of a pytest session ``pytest_sessionfinish`` reads."""
    options = {"--perf-budget": budget}
    return SimpleNamespace(config=SimpleNamespace(
        rootpath=root, getoption=options.__getitem__))


def test_budget_zero_session_leaves_the_file_untouched(bench_conftest,
                                                       tmp_path,
                                                       monkeypatch):
    """A passing session at ``--perf-budget 0`` that recorded entries
    writes nothing; the same session gated at 5 merges them."""
    path = tmp_path / "BENCH_hotpaths.json"
    bench_conftest.flush_hotpaths(path, {"optgen": _entry(20.0)}, 0)
    committed = path.read_bytes()
    monkeypatch.setattr(bench_conftest, "_HOTPATH_RESULTS",
                        {"optgen": _entry(1.1)})
    bench_conftest.pytest_sessionfinish(_session(tmp_path, 0.0), 0)
    assert path.read_bytes() == committed
    bench_conftest.pytest_sessionfinish(_session(tmp_path, 5.0), 0)
    assert json.loads(path.read_text())["hot_paths"] == {
        "optgen": _entry(1.1)}
