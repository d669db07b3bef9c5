"""Rules the library source keeps, checked by scanning it.

``recmg-replay/peak_rss_mb`` is an end-to-end benchmark metric: the
library must earn it by what it allocates and frees, never steer it by
driving the garbage collector.  So no module under ``src/repro``
imports :mod:`gc` or calls into it.

The ``nn`` substrate trains and serves in float32: no module under
``src/repro/nn`` names ``np.float64`` (a float64 value there widens
every float32 step it meets) or brings back ``float32_twin``, the
cached float32 copy serving kept while training ran in float64.

The manager and the serving layer reach the buffer through one façade,
``ShardedBuffer`` (one shard is the identity): no module under
``src/repro/core`` or ``src/repro/serving`` asks ``isinstance`` whether
a buffer is a ``ShardedBuffer`` or one of the backends
(``FastPriorityBuffer``, ``ClockBuffer``, ``PriorityBuffer``).

``repro.nn`` exports only what the library uses: every name in
``repro.nn.__all__`` is imported from the package by some module under
``src/repro`` outside ``nn/`` (a model, a loss site or a baseline).
"""

import ast
import re
from pathlib import Path

import repro.nn

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
GC_USE = re.compile(r"\bimport\s+gc\b|\bfrom\s+gc\s+import\b|\bgc\.")
NN_FLOAT64 = re.compile(r"\b(?:np|numpy)\.float64\b|float32_twin")
#: ``isinstance(...)`` naming a buffer class anywhere in its arguments,
#: across line breaks, at the top level or one level of parentheses down
#: (a tuple of classes).
BUFFER_ISINSTANCE = re.compile(
    r"\bisinstance\s*\((?:[^()]|\([^()]*\))*?(?:\([^()]*)?"
    r"\b(?:ShardedBuffer|FastPriorityBuffer|ClockBuffer|PriorityBuffer)\b")


def _offenders(root: Path, pattern: re.Pattern) -> list:
    """Every match of ``pattern`` in the sources under ``root``, as
    ``path:line: text`` of the line the match starts on (a match may
    span lines)."""
    sources = sorted(root.rglob("*.py"))
    assert sources, f"no library sources under {root}"
    found = []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for match in pattern.finditer(text):
            number = text.count("\n", 0, match.start()) + 1
            found.append(f"{path.relative_to(SRC.parent)}:{number}: "
                         f"{lines[number - 1].strip()}")
    return found


def _dead_exports(root: Path, exports) -> list:
    """The ``exports`` of ``<root>.nn`` that no module under ``root``
    outside ``nn/`` imports from that package."""
    imported = set()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).parts
        if parts[1] == "nn":
            continue
        package = parts[:-1]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + ((node.module,) if node.module else ()))
            if module == f"{root.name}.nn":
                imported.update(alias.name for alias in node.names)
    return [f"{root.name}.nn.__all__: {name} has no caller outside nn/"
            for name in exports if name not in imported]


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


def test_core_and_serving_never_test_a_buffer_class():
    offenders = [line for package in ("core", "serving")
                 for line in _offenders(SRC / package, BUFFER_ISINSTANCE)]
    assert not offenders, "\n".join(offenders)


def test_buffer_isinstance_pattern_catches_each_form():
    for text in ("isinstance(self.buffer, ShardedBuffer)",
                 "if isinstance(buffer, FastPriorityBuffer):",
                 "isinstance(buf, (ClockBuffer, PriorityBuffer))",
                 "isinstance(\n    self.buffer,\n    ShardedBuffer)",
                 "isinstance(getattr(self, 'buffer'), ClockBuffer)",
                 "isinstance(buf, buffer.PriorityBuffer)"):
        assert BUFFER_ISINSTANCE.search(text), text
    for text in ("isinstance(segment, np.ndarray)",
                 "isinstance(x, int) and ClockBuffer",
                 "buffer = ShardedBuffer(impl, capacity, key_space)",
                 "isinstance(buf, MyShardedBufferLike)",
                 "# a ClockBuffer is never tested with isinstance"):
        assert not BUFFER_ISINSTANCE.search(text), text


def test_nn_exports_only_what_the_library_imports():
    offenders = _dead_exports(SRC, repro.nn.__all__)
    assert not offenders, "\n".join(offenders)


def test_dead_export_rule_catches_an_unused_export(tmp_path):
    root = tmp_path / "repro"
    for package in ("nn", "core"):
        (root / package).mkdir(parents=True)
    (root / "nn" / "__init__.py").write_text(
        "from .tensor import Tensor, stack, unused\n")
    (root / "nn" / "rnn.py").write_text("from ..nn import unused\n")
    (root / "core" / "model.py").write_text(
        "from ..nn import (\n    Tensor,\n)\nfrom ..nn.tensor import unused\n")
    (root / "baseline.py").write_text(
        "def fit():\n    from repro.nn import stack\n    from . import nn\n")
    assert _dead_exports(root, ["Tensor", "stack", "unused"]) == [
        "repro.nn.__all__: unused has no caller outside nn/"]
