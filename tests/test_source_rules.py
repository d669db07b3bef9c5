"""Rules the library source keeps, checked by scanning it.

``recmg-replay/peak_rss_mb`` is an end-to-end benchmark metric: the
library must earn it by what it allocates and frees, never steer it by
driving the garbage collector.  So no module under ``src/repro``
imports :mod:`gc` or calls into it.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
GC_USE = re.compile(r"\bimport\s+gc\b|\bfrom\s+gc\s+import\b|\bgc\.")


def test_library_never_touches_the_garbage_collector():
    sources = sorted(SRC.rglob("*.py"))
    assert sources, f"no library sources under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}:{number}: {line.strip()}"
        for path in sources
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1)
        if GC_USE.search(line)
    ]
    assert not offenders, "\n".join(offenders)


def test_gc_pattern_catches_each_form():
    for line in ("import gc", "    import gc  # noqa",
                 "from gc import collect", "gc.collect()",
                 "was_on = gc.isenabled()"):
        assert GC_USE.search(line), line
    for line in ("import gcd", "logic.collect()", "self.gcount = 1"):
        assert not GC_USE.search(line), line
