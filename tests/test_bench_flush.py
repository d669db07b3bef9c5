"""Tests for ``flush_hotpaths`` in benchmarks/conftest.py — the writer
of ``BENCH_hotpaths.json``, the committed hot-path regression baseline.

The file used to be overwritten with whatever a session ran, so one
aborted or ``-k``-filtered session silently dropped gated entries from
the baseline.  The writer now merges: a passing session refreshes what
it measured and carries the rest over (by name, under ``carried_over``,
which ``compare_bench.py`` reads — see ``tests/test_compare_bench.py``);
a failed session writes nothing.
"""

import importlib.util
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

_CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "conftest.py"


@pytest.fixture(scope="module")
def flush_hotpaths():
    spec = importlib.util.spec_from_file_location("bench_conftest", _CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.flush_hotpaths


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
