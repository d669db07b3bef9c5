#!/usr/bin/env python
"""Hot-path regression check: freshly emitted vs committed baseline.

CI runs the perf benches with ``--perf-budget 0`` (no wall-clock
assertions — shared runners are noisy), then calls this script to
compare the freshly written ``BENCH_hotpaths.json`` against the
baseline committed at ``HEAD``.  Raw accesses/sec are machine-bound
and meaningless across runners, so the comparison uses each hot path's
**speedup** (vectorized engine vs its reference engine, both measured
in the same process on the same machine) — a dimensionless ratio that
survives runner heterogeneity.  Only entries recorded with
``gated=True`` participate: informational parity entries (e.g. the
single-capacity LRU breakdown, committed at ~1x) would flake on noisy
shared runners where two near-equal engines can easily time 30% apart.
A gated hot path whose fresh speedup falls more than
``--max-regression`` (default 30%) below the committed one fails the
build; so does a gated hot path that disappears from the fresh run (a
silently dropped gate reads as a pass otherwise) — including one the
fresh file only *carries over*: bench sessions merge into the existing
file, and list what they did not re-measure under ``carried_over``.

Gated entries that carry a ``hit_rate_lift`` instead of a ``speedup``
(the model-guided serving scenarios) gate on the *lift*: a hit-rate
lift is a decision metric — deterministic on a fixed seed, immune to
runner noise — so the contract is strict: a committed **positive**
lift must stay positive in the fresh run (the model may not silently
stop helping), and the entry may not vanish.  Committed non-positive
lifts never gate (a scenario recorded while the model underperforms
must not lock that in).

Both files must also hold every gated entry the committed manifest
(``benchmarks/gated_hotpaths.json``) names, speedup and lift alike:
comparing the two files with each other alone lets a truncated
baseline pass against an equally truncated fresh file.

PRs that legitimately change a hot path's profile update the committed
``BENCH_hotpaths.json`` in the same commit, which rebaselines the
check; PRs that add, rename or delete a gated bench update the
manifest too.

Usage::

    python benchmarks/compare_bench.py BASELINE FRESH [--max-regression 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The committed names of every gated speedup and lift entry.
MANIFEST = Path(__file__).resolve().with_name("gated_hotpaths.json")


def manifest_gaps(label: str, speedups: dict, lifts: dict) -> list:
    """One failure line per gated entry :data:`MANIFEST` names that
    ``speedups`` / ``lifts`` (one file's, see :func:`load_speedups`)
    lack."""
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    missing = ((set(manifest["speedup"]) - set(speedups))
               | (set(manifest["lift"]) - set(lifts)))
    return [f"{name}: gated entry named in {MANIFEST.name} missing from "
            f"the {label} file" for name in sorted(missing)]


def _hot_paths(path: str, measured_only: bool) -> dict:
    """The entries of one ``BENCH_hotpaths.json``.  ``measured_only``
    (the fresh side) drops the entries its session did not run but
    carried over from the file it merged into (``carried_over``, see
    ``flush_hotpaths`` in ``benchmarks/conftest.py``): a carried-over
    gate is a gate that went missing from the fresh run."""
    with open(path) as handle:
        payload = json.load(handle)
    skip = payload.get("carried_over", ()) if measured_only else ()
    return {name: entry
            for name, entry in payload.get("hot_paths", {}).items()
            if isinstance(entry, dict) and name not in skip}


def load_speedups(path: str, measured_only: bool = False) -> dict:
    """Speedup per *gated* hot path (see module docstring).

    Only ``speedup`` and ``gated`` matter; every other metric field an
    entry carries (hit rates, latency percentiles, queue/in-flight
    depth stats, shard utilization, ...) is deliberately ignored, so
    entries may rename, add or drop such fields across PRs without
    tripping the comparison.  What is *not* tolerated is a gated entry
    vanishing from the fresh run — that check lives in :func:`main`
    and keys on the entry name alone.
    """
    return {name: entry["speedup"]
            for name, entry in _hot_paths(path, measured_only).items()
            if "speedup" in entry and entry.get("gated")}


def load_lifts(path: str, measured_only: bool = False) -> dict:
    """Hit-rate lift per *gated* lift entry (see module docstring).

    Disjoint from :func:`load_speedups` by construction: lift-gated
    entries are recorded without a reference engine, so they carry no
    ``speedup`` key and never trip the speedup comparison; conversely
    an entry with both keys gates on both axes independently.
    """
    return {name: entry["hit_rate_lift"]
            for name, entry in _hot_paths(path, measured_only).items()
            if "hit_rate_lift" in entry and entry.get("gated")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_hotpaths.json")
    parser.add_argument("fresh", help="freshly emitted BENCH_hotpaths.json")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="maximum allowed relative speedup drop per "
                             "hot path (default 0.30 = 30%%)")
    args = parser.parse_args(argv)

    baseline = load_speedups(args.baseline)
    fresh = load_speedups(args.fresh, measured_only=True)
    floor = 1.0 - args.max_regression
    failures = []
    for name in sorted(baseline):
        committed = baseline[name]
        if name not in fresh:
            failures.append(f"{name}: gated hot path missing from the "
                            f"fresh run (committed speedup {committed:.2f}x)")
            continue
        measured = fresh[name]
        ratio = measured / committed
        status = "OK " if ratio >= floor else "FAIL"
        print(f"{status} {name}: committed {committed:6.2f}x, "
              f"fresh {measured:6.2f}x ({ratio:.0%} of baseline)")
        if ratio < floor:
            failures.append(
                f"{name}: speedup regressed to {measured:.2f}x from the "
                f"committed {committed:.2f}x "
                f"(> {args.max_regression:.0%} drop)")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"NEW {name}: {fresh[name]:.2f}x (not in baseline — commit "
              f"the fresh BENCH_hotpaths.json to start gating it)")

    baseline_lifts = load_lifts(args.baseline)
    fresh_lifts = load_lifts(args.fresh, measured_only=True)
    for name in sorted(baseline_lifts):
        committed = baseline_lifts[name]
        if committed <= 0:
            # Never lock in an underperforming model.
            print(f"SKIP {name}: committed lift {committed:+.4f} is not "
                  f"positive — not gated")
            continue
        if name not in fresh_lifts:
            failures.append(
                f"{name}: lift-gated entry missing from the fresh run "
                f"(committed lift {committed:+.4f})")
            continue
        measured = fresh_lifts[name]
        status = "OK " if measured > 0 else "FAIL"
        print(f"{status} {name}: committed lift {committed:+.4f}, "
              f"fresh {measured:+.4f}")
        if measured <= 0:
            failures.append(
                f"{name}: committed hit-rate lift {committed:+.4f} "
                f"vanished (fresh {measured:+.4f}) — the model stopped "
                f"beating model-free serving")
    for name in sorted(set(fresh_lifts) - set(baseline_lifts)):
        print(f"NEW {name}: lift {fresh_lifts[name]:+.4f} (not in baseline "
              f"— commit the fresh BENCH_hotpaths.json to start gating it)")
    failures += manifest_gaps("baseline", baseline, baseline_lifts)
    failures += manifest_gaps("fresh", fresh, fresh_lifts)
    if failures:
        print("\nHot-path regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nAll {len(baseline)} gated hot paths within "
          f"{args.max_regression:.0%} of the committed baseline; "
          f"{len(baseline_lifts)} lift-gated entries checked.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
