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

Each buffer backend answers membership from the one record it keeps
per entry: no module under ``src/repro`` brings back a separate
membership index (``ResidencyIndex``), reaches for one through a
``.residency`` attribute, or writes a duplicate spillover set
(``._overflow``).

The two array backends keep their entries in one slot layout: in
``cache/buffer.py`` only the ``_SlotLayout`` class names the spillover
dict (``_slot_over``, or the per-backend ``_over`` it replaced) or
checks an id against the universe (``< key_space``), so the
in-universe/spillover split is written once.

Shard rebalancing moves every backend through the one migration record
(``export_state`` / ``import_state``), so ``cache/sharding.py`` never
asks which backend it holds: no ``.approximate`` read, no ``isinstance``
on a backend class, no comparison against a backend name (``"clock"``,
``"fast"``, ``"reference"``).

The feature encoder's dense vocabulary is one sorted key array: no
module under ``src/repro`` brings back a key->dense dict
(``_key_to_dense``) or a table->id dict (``_table_to_id``) beside it.

OPTgen has one feasibility pass, the numpy slice pass inside
``run_optgen``, beside the recursive audit oracle
(``_RecursiveMaxSegmentTree``): no module under ``src/repro`` brings
back the flat segment tree (``_MaxSegmentTree``), its pass
(``_optgen_pass_tree``) or the mean-interval threshold that chose
between them (``_SLICE_ENGINE_MAX_MEAN_INTERVAL``).

``repro.nn`` exports only what the library uses: every name in
``repro.nn.__all__`` is imported from the package by some module under
``src/repro`` outside ``nn/`` (a model, a loss site or a baseline).

Every trainer runs the one loop in ``nn/optim.py``
(``train_minibatches`` and its ``optimizer_step``): no other module
under ``src/repro`` calls ``.backward(`` or an optimizer's ``.step()``.

Every model input goes through ``FeatureEncoder.encode_dense_chunks``:
no module under ``src/repro`` brings back ``predict_single``, the
one-chunk constructor ``EncodedChunks.single`` or a ``stride`` on
``encode_chunks``.
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
SECOND_MEMBERSHIP = re.compile(
    r"\bResidencyIndex\b|\.residency\b|\._overflow\b")

#: The spillover dict by name, or a ``< key_space`` bound (the upper
#: half of every ``0 <= key < key_space`` range check).
SPILL_SPLIT = re.compile(
    r"\b_(?:slot_)?over\b|<\s*(?:self\.)?_?key_space\b")

VOCABULARY_DICT = re.compile(r"\b_(?:key_to_dense|table_to_id)\b")
SECOND_OPTGEN_PASS = re.compile(
    r"\b_(?:MaxSegmentTree|optgen_pass_tree|SLICE_ENGINE_MAX_MEAN_INTERVAL)\b")
#: A backward pass or an optimizer step: ``.backward(`` with any
#: argument, ``.step()`` with none.
TRAINING_STEP = re.compile(r"\.backward\s*\(|\.step\s*\(\s*\)")
#: A second model-input path: the one-chunk predict and constructor,
#: or a ``stride`` inside an ``encode_chunks(...)`` signature or call.
SECOND_INPUT_PATH = re.compile(
    r"\bpredict_single\b|\bEncodedChunks\.single\b"
    r"|\bdef\s+single\s*\(|\bencode_chunks\s*\([^)]*\bstride\b")
BACKEND_NAME = r"[\"'](?:clock|fast|reference)[\"']"
BACKEND_KIND = re.compile(
    r"\.approximate\b|[\"']approximate[\"']"
    r"|\bisinstance\s*\((?:[^()]|\([^()]*\))*?(?:\([^()]*)?"
    r"\b(?:FastPriorityBuffer|ClockBuffer|PriorityBuffer)\b"
    rf"|(?:==|!=|\bin)\s*[(\[{{]?\s*{BACKEND_NAME}"
    rf"|{BACKEND_NAME}\s*(?:==|!=)")


def _offenders(root: Path, pattern: re.Pattern) -> list:
    """Every match of ``pattern`` in the sources under ``root``, as
    ``path:line: text`` of the line the match starts on (a match may
    span lines; ``path`` relative to ``src/`` when under it)."""
    sources = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    assert sources, f"no library sources under {root}"
    found = []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for match in pattern.finditer(text):
            number = text.count("\n", 0, match.start()) + 1
            label = (path.relative_to(SRC.parent)
                     if path.is_relative_to(SRC.parent) else path)
            found.append(f"{label}:{number}: "
                         f"{lines[number - 1].strip()}")
    return found


def _outside_class(path: Path, pattern: re.Pattern, name: str) -> list:
    """:func:`_offenders` of ``pattern`` in ``path`` that lie outside
    the body of its top-level class ``name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    spans = [(node.lineno, node.end_lineno) for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == name]
    assert len(spans) == 1, f"no one class {name} in {path}"
    first, last = spans[0]
    return [line for line in _offenders(path, pattern)
            if not first <= int(line.split(":")[1]) <= last]


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


def test_backends_keep_one_membership_record():
    offenders = _offenders(SRC, SECOND_MEMBERSHIP)
    assert not offenders, "\n".join(offenders)


def test_second_membership_pattern_catches_each_form():
    for text in ("from .residency import ResidencyIndex",
                 "self.residency = ResidencyIndex(key_space)",
                 "bitmap = self.residency.bitmap",
                 "self.residency._overflow.difference_update(spill)",
                 "overflow = index._overflow",
                 ":class:`~repro.cache.residency.ResidencyIndex` bitmap"):
        assert SECOND_MEMBERSHIP.search(text), text
    for text in ("residency of a whole segment", "self._over[key] = entry",
                 "self._overflow_count += 1", "self.residency_share = 0",
                 "# up to the overflowing first touch"):
        assert not SECOND_MEMBERSHIP.search(text), text


def test_spillover_split_lives_in_the_slot_layout():
    offenders = _outside_class(SRC / "cache" / "buffer.py", SPILL_SPLIT,
                               "_SlotLayout")
    assert not offenders, "\n".join(offenders)


def test_spill_split_pattern_catches_each_form():
    for text in ("if 0 <= key < self._key_space:",
                 "in_range = (keys >= 0) & (keys < self._key_space)",
                 "arr.max() < self.key_space", "0 <= victim < key_space",
                 "self._slot_over[key] = slot", "over = self._over",
                 "del self._over[victim]"):
        assert SPILL_SPLIT.search(text), text
    for text in ("make_buffer(impl, capacity, key_space=key_space)",
                 "self._overflow_count += 1", "self._slot_overs = []",
                 "if self.key_space >= self.num_shards:",
                 "ids of ``[0, key_space)`` spill to a side dict",
                 "len(buffer) < capacity"):
        assert not SPILL_SPLIT.search(text), text


def test_outside_class_skips_only_that_class(tmp_path):
    path = tmp_path / "buffer.py"
    path.write_text("class _SlotLayout:\n"
                    "    def find(self, key):\n"
                    "        return self._slot_over.get(key)\n"
                    "\n"
                    "class Backend(_SlotLayout):\n"
                    "    def find(self, key):\n"
                    "        return 0 <= key < self._key_space\n")
    offenders = _outside_class(path, SPILL_SPLIT, "_SlotLayout")
    assert len(offenders) == 1 and offenders[0].endswith(
        ":7: return 0 <= key < self._key_space")


def test_sharding_never_reads_a_backend_kind():
    offenders = _offenders(SRC / "cache" / "sharding.py", BACKEND_KIND)
    assert not offenders, "\n".join(offenders)


def test_backend_kind_pattern_catches_each_form():
    for text in ("exact = not buf.approximate",
                 "if self.shards[0].backend.approximate:",
                 "getattr(backend, 'approximate', False)",
                 "isinstance(backend, ClockBuffer)",
                 "isinstance(b, (FastPriorityBuffer, buffer.PriorityBuffer))",
                 "if self.impl == 'clock':", 'exact = impl != "clock"',
                 'if impl in ("reference", "fast"):', "'fast' == self.impl",
                 "impl in ['clock']"):
        assert BACKEND_KIND.search(text), text
    for text in ("make_buffer(self.impl, capacity, key_space)",
                 'policy == "contiguous"', "isinstance(arr, np.ndarray)",
                 "# the clock backend exports in hand order",
                 'ShardedBuffer("clock", 8, key_space=64)',
                 "victims approximately in order"):
        assert not BACKEND_KIND.search(text), text


def test_encoder_keeps_one_vocabulary_record():
    offenders = _offenders(SRC, VOCABULARY_DICT)
    assert not offenders, "\n".join(offenders)


def test_vocabulary_dict_pattern_catches_each_form():
    for text in ("self._key_to_dense: Optional[Dict[int, int]] = None",
                 "encoder._table_to_id = {int(t): i for i, t in x}",
                 "np.fromiter(self._key_to_dense, dtype=np.int64)",
                 "sorted(encoder._table_to_id)"):
        assert VOCABULARY_DICT.search(text), text
    for text in ("key_to_dense = {int(k): i for i, k in enumerate(keys)}",
                 "self._keys = np.asarray(keys)", "table_to_identity",
                 "self._dense_tables = tables", "_key_to_dense_ids()"):
        assert not VOCABULARY_DICT.search(text), text


def test_optgen_keeps_one_feasibility_pass():
    offenders = _offenders(SRC, SECOND_OPTGEN_PASS)
    assert not offenders, "\n".join(offenders)


def test_second_optgen_pass_pattern_catches_each_form():
    for text in ("class _MaxSegmentTree:",
                 "decide = _MaxSegmentTree(n).query_below_then_add",
                 "run_pass = _optgen_pass_tree",
                 "if mean_len <= _SLICE_ENGINE_MAX_MEAN_INTERVAL:",
                 "optgen._SLICE_ENGINE_MAX_MEAN_INTERVAL = 8192"):
        assert SECOND_OPTGEN_PASS.search(text), text
    for text in ("class _RecursiveMaxSegmentTree:",
                 "tree = _RecursiveMaxSegmentTree(n)",
                 "def run_optgen_reference(trace, capacity):",
                 "_optgen_pass_slices", "MaxSegmentTree"):
        assert not SECOND_OPTGEN_PASS.search(text), text


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


def test_only_the_training_loop_steps_an_optimizer():
    offenders = [line for line in _offenders(SRC, TRAINING_STEP)
                 if not line.startswith("repro/nn/optim.py:")]
    assert not offenders, "\n".join(offenders)


def test_training_step_pattern_catches_each_form():
    for text in ("loss.backward()", "root.backward(grad)",
                 "(a + b).backward ()", "optimizer.step()",
                 "self._optimizer.step( )", "opt.step()"):
        assert TRAINING_STEP.search(text), text
    for text in ("def backward(g: np.ndarray) -> None:",
                 "out._backward = backward", "def step(self) -> None:",
                 "self._step += 1", "losses.append(optimizer_step(",
                 "rows = range(0, n, step)", "walker.step(node)"):
        assert not TRAINING_STEP.search(text), text


def test_models_take_one_input_path():
    offenders = _offenders(SRC, SECOND_INPUT_PATH)
    assert not offenders, "\n".join(offenders)


def test_second_input_path_pattern_catches_each_form():
    for text in ("def predict_single(self, tables, rows, norm, freq):",
                 "self.model.predict_single(tables, rows, norm, freq, enc)",
                 "chunk = EncodedChunks.single(tables, rows, norm, freq)",
                 "    def single(cls, table_ids):",
                 "def encode_chunks(self, trace, stride=None):",
                 "encoder.encode_chunks(trace,\n    stride=1)"):
        assert SECOND_INPUT_PATH.search(text), text
    for text in ("predict_indices(chunks, encoder)[0]",
                 "encoder.encode_dense_chunks(window)",
                 "encoder.encode_chunks(trace)", "self.stride = 1",
                 "single_shard = True", "encode_chunks(trace)  # stride 1"):
        assert not SECOND_INPUT_PATH.search(text), text
