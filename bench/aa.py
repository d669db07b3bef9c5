"""A/A self-check: does the benchmark agree with itself on this host?

    python3 bench/aa.py                      # seeds 1..10, as the PR driver does
    python3 bench/aa.py --seeds 1,1,1,1,1    # one seed repeated

Runs two sets, A and B, of the *same* checkout: one untraced
invocation of ``run.py`` per seed and workload in each set, interleaved
ABAB across workloads so a slow spell of the host hits both sets.
Prints, per end-to-end metric and workload, both medians, the gap
(how much worse B's median is than A's) and each set's spread (distance
between the first and third quartile over the median), as a Markdown
table.  Exits 1 when

* a gap exceeds half the metric's bound in ``BENCHMARK.json``,
* a spread exceeds the bound (``setup_s`` excepted: its spread is
  printed, only its gap is gated, as in the PR driver),
* runs that share a workload and a seed differ in ``miss_rate``,
  ``modelled_batch_ms`` or ``decision_digest``, or
* any run fails an operation or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict

from run import BENCH_DIR, load_spec

EXACT = ("miss_rate", "modelled_batch_ms")


def invoke(workload: str, seed: int, seconds: float):
    """One untraced run -> (metric values, detail)."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{done.returncode}\n{done.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run {result}")
    values = {name: metric["value"]
              for name, metric in result["metrics"].items()}
    return values, json.loads(lines[-2])["detail"]


def spread(values) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10",
                        help="comma-separated; each set runs every entry")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    workloads = args.workloads.split(",")
    if len(seeds) < 5:
        parser.error("need at least 5 runs per set for quartiles")

    samples = defaultdict(list)     # (set, workload, metric) -> values
    decisions = defaultdict(set)    # (workload, seed) -> decision tuples
    for seed in seeds:
        for workload in workloads:
            for side in "AB":
                values, detail = invoke(workload, seed, args.seconds)
                for metric, value in values.items():
                    samples[side, workload, metric].append(value)
                decisions[workload, seed].add(
                    (detail["decision_digest"],
                     *(values[metric] for metric in EXACT)))
                print(side, workload, seed, f"wall_s={detail['wall_s']:.1f}",
                      *(f"{metric}={value:.6g}"
                        for metric, value in values.items()),
                      file=sys.stderr)

    problems = []
    for (workload, seed), seen in decisions.items():
        if len(seen) > 1:
            problems.append(f"{workload} seed {seed}: decisions differ "
                            f"between runs: {sorted(seen)}")
    print("| workload | metric | median A | median B | gap | spread A "
          "| spread B | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = samples["A", workload, name]
            second = samples["B", workload, name]
            median_a = statistics.median(first)
            median_b = statistics.median(second)
            gap = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                gap = -gap
            spreads = (spread(first), spread(second))
            print(f"| {workload} | {name} | {median_a:.6g} | {median_b:.6g} "
                  f"| {gap:+.2%} | {spreads[0]:.2%} | {spreads[1]:.2%} "
                  f"| {bound:.0%} |")
            if gap > bound / 2:
                problems.append(f"{workload}/{name}: B's median is "
                                f"{gap:.2%} worse than A's, over half the "
                                f"bound {bound:.0%}")
            if name != "setup_s" and max(spreads) > bound:
                problems.append(f"{workload}/{name}: spread "
                                f"{max(spreads):.2%} over the bound "
                                f"{bound:.0%}")
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
