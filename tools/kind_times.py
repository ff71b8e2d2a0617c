"""Time taken by each kind family in one cold pass of a benchmark workload.

    python3 tools/kind_times.py homology-bordism [--seed 1] [--items 7]

runs one pass over a workload's corpus in one fresh interpreter, in the
order `perfbench/worker.py` runs it at that seed (its `Corpus`, imported,
not changed): operation i is of kind i mod K, and the seed orders each
kind's items.  Each operation samples its instance and decides it, as a
worker does, without deadlines or speed probes, and its wall time is
charged to its kind's family, the part of the kind's name before any `/`
(`strata/4` is `strata`).  It prints one line per family, the slowest
first: its operations, its time in ms and its share of the pass, after a
head line with the pass's operations, time and operations that raised.  The
items default to the workload's corpus size (`items` in
`perfbench/run.py`'s `WORKLOADS`).  Times are raw wall-clock times of this
machine, not scaled to the benchmark's reference speed; the shares are
what the tool is for.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def kind_times(workload: str, seed: int, items: int) -> tuple[Counter, Counter, int]:
    """(operations, seconds) per kind family over one pass, and the number
    of operations that raised (a sampler's refusal or a failure alike)."""
    corpus = worker.Corpus(workloads, workload, seed, items)
    ops, seconds, raised = Counter(), Counter(), 0
    for index in range(len(corpus.kinds) * items):
        kind, item = corpus.op(index)
        rng = workloads.item_random(workload, kind.name, item)
        start = time.perf_counter()
        try:
            kind.check(kind.sample(rng))
        except Exception:
            raised += 1
        family = kind.name.partition("/")[0]
        seconds[family] += time.perf_counter() - start
        ops[family] += 1
    return ops, seconds, raised


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--items", type=int,
                    help="items per check kind (default: the workload's corpus size)")
    args = ap.parse_args(argv)
    items = run.WORKLOADS[args.workload]["items"] if args.items is None else args.items
    ops, seconds, raised = kind_times(args.workload, args.seed, items)
    total = sum(seconds.values())
    print(f"{args.workload} items 0..{items - 1}, seed {args.seed}: "
          f"{sum(ops.values())} ops in {total * 1000:.1f} ms, {raised} raised")
    print(f"{'family':<20} {'ops':>5} {'ms':>10} {'share':>7}")
    for family, s in seconds.most_common():
        print(f"{family:<20} {ops[family]:>5} {s * 1000:>10.1f} {s / total:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
