"""Rules the library source keeps, checked by scanning it.

``recmg-replay/peak_rss_mb`` is an end-to-end benchmark metric: the
library must earn it by what it allocates and frees, never steer it by
driving the garbage collector.  So no module under ``src/repro``
imports :mod:`gc` or calls into it.

The ``nn`` substrate trains and serves in float32: no module under
``src/repro/nn`` names ``np.float64`` (a float64 value there widens
every float32 step it meets) or brings back ``float32_twin``, the
cached float32 copy serving kept while training ran in float64.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
GC_USE = re.compile(r"\bimport\s+gc\b|\bfrom\s+gc\s+import\b|\bgc\.")
NN_FLOAT64 = re.compile(r"\b(?:np|numpy)\.float64\b|float32_twin")


def _offenders(root: Path, pattern: re.Pattern) -> list:
    sources = sorted(root.rglob("*.py"))
    assert sources, f"no library sources under {root}"
    return [
        f"{path.relative_to(SRC.parent)}:{number}: {line.strip()}"
        for path in sources
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]


def test_library_never_touches_the_garbage_collector():
    offenders = _offenders(SRC, GC_USE)
    assert not offenders, "\n".join(offenders)


def test_nn_names_no_float64_and_no_twin():
    offenders = _offenders(SRC / "nn", NN_FLOAT64)
    assert not offenders, "\n".join(offenders)


def test_nn_float64_pattern_catches_each_form():
    for line in ("x.astype(np.float64)", "dtype=np.float64)",
                 "np.asarray(grad, dtype=numpy.float64)",
                 "twin = self.float32_twin()", "def float32_twin(self):",
                 'cached = vars(self).get("_float32_twin")'):
        assert NN_FLOAT64.search(line), line
    for line in ("dtype=np.float32", "float64 values stay exact",
                 "np.float64x = 1", "# a float32 copy, no twin"):
        assert not NN_FLOAT64.search(line), line


def test_gc_pattern_catches_each_form():
    for line in ("import gc", "    import gc  # noqa",
                 "from gc import collect", "gc.collect()",
                 "was_on = gc.isenabled()"):
        assert GC_USE.search(line), line
    for line in ("import gcd", "logic.collect()", "self.gcount = 1"):
        assert not GC_USE.search(line), line
