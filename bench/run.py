"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload steady-clock --seed 1 --seconds 15 --trace 0

Builds the inputs from the seed, serves the workload in this one
single-threaded process, verifies every operation and prints two JSON
lines: a ``detail`` line (decision digest, op counts, timings, host
fingerprint) and, last, the result line ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Metric names and units come
from ``BENCHMARK.json``.  Nothing is written unless ``--out`` names a
file.  Exits 2, printing no result, when the checkout has no
``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: OpenBLAS's second thread doubles CPU seconds for no speed-up on the
#: model workloads and made 2x set-up outliers; pinned before numpy is
#: imported, checked afterwards through cpu_s <= 1.05 * wall_s.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def format_metrics(values: dict, listed: list) -> dict:
    """Attach the units ``BENCHMARK.json`` lists; the computed and the
    listed metric names must be the same set."""
    units = {metric["name"]: metric["unit"] for metric in listed}
    if set(values) != set(units):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: computed only "
            f"{sorted(set(values) - set(units))}, listed only "
            f"{sorted(set(units) - set(values))}")
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the measured phase (sets its fixed "
                             "op count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run printing the per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink inputs, training and warm-up (smoke "
                             "test); the benchmark proper runs at 1")
    parser.add_argument("--out", help="also write the full result (and, "
                                      "traced, the raw spans) to this file")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Untimed throwaway import in a child: byte-compiles a fresh
    # checkout and warms the page cache, so neither lands in setup_s.
    subprocess.run(
        [sys.executable, "-c", "import numpy, repro"], check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=subprocess.DEVNULL)

    begin = time.perf_counter()
    import numpy
    import repro  # noqa: F401  (timed: importing it is part of set-up)
    import workloads
    import_s = time.perf_counter() - begin

    result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.scale, import_s)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result["metrics"] = format_metrics(result["metrics"], listed)
    spans = result.pop("spans")
    detail = result.pop("detail")
    detail.update(nproc=os.cpu_count(), python=platform.python_version(),
                  numpy=numpy.__version__)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({**result, "detail": detail, "spans": spans}, handle)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
