"""Smoke tests for the ``examples/`` scripts and the README snippet.

Each example is imported from its file and run end to end with
``load_dataset`` patched down to a tiny synthetic scale, so the scripts
cannot silently rot as the APIs they showcase evolve.  Assertions stay
qualitative (the script runs, prints something, and leaves no
exception); the numeric behavior is covered by the unit suites.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.traces import load_dataset

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

#: Scale factor applied to every dataset an example loads; the
#: generator floors at 1000 accesses, which keeps training in the
#: quickstart/serving examples to a couple of seconds.
SMOKE_SCALE = 0.02


def _load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_smoke_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [
    "quickstart",
    "cache_study",
    "compare_prefetchers",
    "inference_serving",
])
def test_example_runs_on_tiny_trace(name, monkeypatch, capsys):
    module = _load_example(name)
    assert hasattr(module, "main"), f"examples/{name}.py lost its main()"
    monkeypatch.setattr(
        module, "load_dataset",
        lambda dataset, scale=1.0: load_dataset(dataset, scale=SMOKE_SCALE))
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"examples/{name}.py printed nothing"


def test_serving_daemon_runs_on_tiny_stream(capsys):
    """The serving daemon generates its own multi-tenant stream (no
    ``load_dataset``), so it is smoke-run through its ``main()``
    keywords instead: a tiny trace on 2 shards."""
    module = _load_example("serving_daemon")
    module.main(total_accesses=4000, num_shards=2,
                max_batch_keys=256, queue_size=16, report_every=0)
    out = capsys.readouterr().out
    assert "hit rate" in out
    assert "latency ms" in out


def test_serving_daemon_elastic_rebalancing(capsys):
    """``--rebalance N``: the daemon serves with the online elastic
    rebalancer armed and reports migration stats (count, migrated
    keys, pause) plus the final capacity split."""
    module = _load_example("serving_daemon")
    module.main(total_accesses=4000, num_shards=2,
                max_batch_keys=256, queue_size=16, report_every=0,
                rebalance_interval=512)
    out = capsys.readouterr().out
    assert "elastic rebalancing" in out
    assert "final split" in out
    assert "hit rate" in out


def test_serving_daemon_model_in_the_loop(capsys):
    """``--model --retrain``: the head of the stream trains a caching
    model, the async provider refreshes priorities off the critical
    path (with online fine-tuning), and the report grows staleness and
    inference lines alongside the latency percentiles."""
    module = _load_example("serving_daemon")
    module.main(total_accesses=6000, num_shards=2,
                max_batch_keys=256, queue_size=16, report_every=0,
                model=True, online_retrain=True)
    out = capsys.readouterr().out
    assert "caching model" in out
    assert "priority staleness" in out
    assert "async inference" in out
    assert "online retrains" in out
    assert "hit rate" in out


def test_readme_minimal_library_use_runs(capsys):
    """The README's "Minimal library use" block is documentation that
    executes: extract the fenced snippet and run it, so a removed
    config field or constructor argument fails here instead of in a
    reader's terminal."""
    readme = (REPO_ROOT / "README.md").read_text()
    match = re.search(r"Minimal library use:\n\n```python\n(.*?)```",
                      readme, flags=re.DOTALL)
    assert match, "README.md lost its 'Minimal library use' block"
    exec(compile(match.group(1), "README.md", "exec"), {})
    assert 0.0 < float(capsys.readouterr().out) < 1.0  # the hit rate
