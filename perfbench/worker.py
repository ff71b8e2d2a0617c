"""One benchmark interpreter: import cornercalc, run operations, report JSON.

`run.py` starts a fresh interpreter with this script for every measurement,
so each one pays the import and starts from an empty geometry cache.  The
last line of standard output is one JSON object.

A workload's corpus holds `--items` instances of each check kind, drawn
from streams that do not depend on the seed.  Operation `i` is of kind
`i % K`; the seed fixes the order in which each kind's items come, so one
pass of `K * items` operations measures the whole corpus in a seed-chosen
order.

Modes:
  setup   import and build the workload, report the set-up time and, with
          `--digest 1`, the digest of the draws of every kind's item 0.
  run     closed loop, one operation at a time, over `--ops` operations
          from `--first-op`.  `--trace 1` installs the tracer and replaces
          the wall-clock deadline by a span budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import OpTimeout, Tracer, layer_metrics  # noqa: E402


_PROBE_MATRIX = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i * j) % 5)
                  for j in range(9)] for i in range(8)]


# Speed of this machine at which times are reported: the probe's duration.
PROBE_REFERENCE_S = 0.002
# CPU time between two probes inside a running operation.
PROBE_EVERY_S = 0.05


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python exact arithmetic.

    The probe does not call cornercalc, so no change to the library moves
    it; it moves with the speed of the machine.
    """
    start = time.perf_counter()
    a = [list(r) for r in _PROBE_MATRIX]
    piv = 0
    for c in range(9):
        p = next((i for i in range(piv, 8) if a[i][c] != 0), None)
        if p is None:
            continue
        a[piv], a[p] = a[p], a[piv]
        inv = 1 / a[piv][c]
        a[piv] = [x * inv for x in a[piv]]
        for i in range(8):
            if i != piv and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[piv])]
        piv += 1
    return time.perf_counter() - start


class Speed:
    """Speed probes between operations and, every PROBE_EVERY_S of CPU time,
    inside them.

    A shared machine's speed drifts by up to a factor of two within seconds.
    An operation's time scaled by PROBE_REFERENCE_S over the mean probe time
    around and inside it does not drift.  Probe time inside an operation is
    taken out of the operation's latency.
    """

    def __init__(self):
        self.recent = deque([speed_probe() for _ in range(3)], maxlen=5)
        self.inside = []
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum, frame):
        self.inside.append(speed_probe())

    def between(self) -> float:
        probe = speed_probe()
        self.recent.append(probe)
        return probe

    def factor(self) -> float:
        """Current probe time over the reference; above 1 is slower."""
        return statistics.median(self.recent) / PROBE_REFERENCE_S

    def start_op(self) -> None:
        self.inside = []
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop_op(self) -> list:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return self.inside


def _on_alarm(signum, frame):
    raise OpTimeout("wall-clock deadline")


def _guarded(fn, deadline: float):
    """Call fn() under a wall-clock deadline; 0 means none."""
    if deadline:
        signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return fn()
    finally:
        if deadline:
            signal.setitimer(signal.ITIMER_REAL, 0)


class Corpus:
    def __init__(self, workloads, workload: str, seed: int, items: int):
        self.workloads = workloads
        self.workload = workload
        self.kinds = workloads.WORKLOADS[workload]()
        self.items = items
        self.orders = []
        for kind in self.kinds:
            order = list(range(items))
            Random(f"{workload}/{seed}/{kind.name}").shuffle(order)
            self.orders.append(order)

    def op(self, index: int) -> tuple:
        """(kind, item) of operation `index`."""
        k = index % len(self.kinds)
        return self.kinds[k], self.orders[k][(index // len(self.kinds)) % self.items]

    def run_op(self, index: int, deadline: float, speed: Speed) -> tuple:
        """Sample and check one operation; its record and draw digest.

        `deadline` is in seconds at reference speed; 0 means none.
        """
        kind, item = self.op(index)
        rng = self.workloads.item_random(self.workload, kind.name, item)
        status, detail = "ok", ""
        deadline *= speed.factor()
        start = time.perf_counter()
        speed.start_op()
        try:
            out = _guarded(lambda: kind.check(kind.sample(rng)), deadline)
            if not out.precondition:
                status, detail = "rejected", out.detail
            elif not out.ok:
                status, detail = "check", out.detail
        except self.workloads.SAMPLE_ERRORS as err:
            status, detail = "rejected", f"{type(err).__name__}: {err}"
        except OpTimeout as err:
            status, detail = "timeout", str(err)
        except Exception as err:
            status, detail = "error", f"{type(err).__name__}: {err}"
        inside = speed.stop_op()
        latency = time.perf_counter() - start - sum(inside)
        record = {"index": index, "kind": kind.name, "item": item,
                  "status": status, "latency_s": latency, "inside": inside,
                  "detail": detail[:200], "known_answer": kind.known_answer}
        return record, self.workloads.draw_digest(kind.name, rng)

    def first_items_digest(self, deadline: float) -> str:
        """Digest of the draws made while sampling every kind's item 0.

        A sampler that fails or stalls still made a fixed sequence of draws
        before it stopped, so its draws count as they are.
        """
        h = hashlib.sha256()
        for kind in self.kinds:
            rng = self.workloads.item_random(self.workload, kind.name, 0)
            try:
                _guarded(lambda: kind.sample(rng), deadline)
            except (OpTimeout, Exception):
                pass
            h.update(self.workloads.draw_digest(kind.name, rng))
        return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--items", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--first-op", type=int, default=0)
    ap.add_argument("--deadline", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--budget", type=int, default=0)
    ap.add_argument("--digest", type=int, default=0)
    args = ap.parse_args(argv)

    import cornercalc.geometry as geometry
    import workloads
    tracer = None
    if args.trace:
        tracer = Tracer(args.budget)
        tracer.install(extra_modules=[workloads])
    corpus = Corpus(workloads, args.workload, args.seed, args.items)
    signal.signal(signal.SIGALRM, _on_alarm)
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "kinds": len(corpus.kinds)}
    speed = Speed()
    result["setup_probe_s"] = statistics.median(speed.recent)

    if args.mode == "setup":
        if args.digest:
            result["first_items_digest"] = corpus.first_items_digest(
                args.deadline * speed.factor())
        print(json.dumps(result))
        return 0

    deadline = 0.0 if tracer else args.deadline
    info0 = geometry._face_data.cache_info()
    records = []
    digest = hashlib.sha256()
    start = time.perf_counter()
    before = speed.between()
    for index in range(args.first_op, args.first_op + args.ops):
        record, op_digest = corpus.run_op(index, deadline, speed)
        if tracer:
            record["spans"] = len(tracer.spans)
            tracer.commit()
        after = speed.between()
        probes = [before, after] + record.pop("inside")
        record["probe_s"] = sum(probes) / len(probes)
        before = after
        records.append(record)
        digest.update(op_digest)
    wall_s = time.perf_counter() - start
    info1 = geometry._face_data.cache_info()
    cache = {"hits": info1.hits - info0.hits,
             "misses": info1.misses - info0.misses,
             "evictions": info1.misses - info1.currsize}
    result.update({
        "wall_s": wall_s,
        "records": records,
        "digest": digest.hexdigest()[:16],
        "cache": cache,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer:
        result["layers"] = {k: list(v) for k, v in
                            layer_metrics(tracer, cache).items()}
        result["spans"] = sum(tracer.calls.values())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
