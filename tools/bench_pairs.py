"""Paired benchmark runs of two checkouts, parent and change, in alternation.

    python3 tools/bench_pairs.py PARENT CHANGE --workload chain-boundary \
        --pairs 10 --seed0 301 [--seconds 15]

`--workload all` runs every workload of the parent checkout's
BENCHMARK.json in turn, in its order, each with the same pairs and seeds,
and prints one table per workload.

Pair i runs `perfbench/run.py --workload W --seed S+i --seconds X --trace 0`
once in each checkout, each in its own interpreter; the parent goes first in
even pairs and the change in odd ones, so a drift of the machine's speed
does not favour one side.  Only each checkout's `perfbench/run.py` is run,
and only the JSON line it ends with is read.

For each end-to-end metric it prints both medians, the parent's quartiles,
the relative change of the medians (change / parent - 1, e.g. +23.8%) and
the number of pairs in which the change was better: higher is better for
throughput_ops_s and ok_share, lower for every other metric; a tie is not
a win.  Its verdict column reads `claim` when the change wins at least nine
tenths of the pairs and its median is better than the parent's by more than
the parent's q3 - q1, `WORSE` when its median is worse than the parent's by
more than the metric's relative `bound` in the parent checkout's
BENCHMARK.json, and `-` otherwise.  Then it prints each checkout's source
line count, the newlines in its src/cornercalc/*.py (what
`cat src/cornercalc/*.py | wc -l` gives).
It exits 1 when a run fails or a run's verdict is not correct; with
`--workload all` the other workloads still run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HIGHER_IS_BETTER = {"throughput_ops_s", "ok_share"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary of one end-to-end run in a checkout."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=checkout)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summary(runs: dict, bounds: dict) -> list[str]:
    """One line per metric: medians, the parent's quartiles, the relative
    change of the medians, the verdict and the change's wins; bounds maps a
    metric to its relative bound."""
    pairs = len(runs["parent"])
    lines = [f"{'metric':<18} {'parent median':>14} {'change median':>14} "
             f"{'parent q1..q3':>22} {'relative':>9} {'verdict':>8} {'change wins':>12}"]
    for name in runs["parent"][0]["metrics"]:
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = 1 if name in HIGHER_IS_BETTER else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        mp, mc = statistics.median(parent), statistics.median(change)
        rel = f"{(mc / mp - 1) * 100:+.1f}%" if mp else "n/a"
        gain = sign * (mc - mp)
        if wins * 10 >= 9 * pairs and gain > q3 - q1:
            mark = "claim"
        elif name in bounds and gain < -bounds[name] * abs(mp):
            mark = "WORSE"
        else:
            mark = "-"
        lines.append(f"{name:<18} {mp:>14.6g} {mc:>14.6g} "
                     f"{f'{q1:.6g}..{q3:.6g}':>22} {rel:>9} {mark:>8} {f'{wins}/{pairs}':>12}")
    return lines


def source_lines(checkout: Path) -> int:
    """The newlines in a checkout's src/cornercalc/*.py."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "cornercalc").glob("*.py"))


def workloads(name: str, spec: dict) -> list[str]:
    """The workloads a --workload value names: all of the spec's, in its
    order, for "all", else the one named."""
    return [w["name"] for w in spec["workloads"]] if name == "all" else [name]


def run_pairs(sides: dict, workload: str, args, bounds: dict) -> bool:
    """Run one workload's pairs and print its table; False when a run fails
    or a run's verdict is not correct."""
    runs = {"parent": [], "change": []}
    correct = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                result = run_once(sides[side], workload, seed, args.seconds)
            except RuntimeError as err:
                print(f"run failed: {err}", file=sys.stderr)
                return False
            correct = correct and result["correct"]
            runs[side].append(result)
        values = "  ".join(f"{side} {runs[side][-1]['metrics']['throughput_ops_s']['value']:.4g}"
                           for side in order)
        print(f"pair {i + 1} seed {seed}: throughput_ops_s {values}", flush=True)
    print(f"{workload}: {args.pairs} pairs from seed {args.seed0}, "
          f"--seconds {args.seconds:g}")
    for line in summary(runs, bounds):
        print(line)
    if not correct:
        print("a run's verdict was not correct")
    return correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    ok = True
    for workload in workloads(args.workload, spec):
        ok = run_pairs(sides, workload, args, bounds) and ok
    print("source lines (src/cornercalc/*.py): " + "  ".join(
        f"{side} {source_lines(path)}" for side, path in sides.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
