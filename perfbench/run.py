"""The cornercalc benchmark: one command, four workloads of identity checks.

    python3 perfbench/run.py --workload chain-boundary --seed 1 --seconds 15 --trace 0

Every measurement runs in a fresh interpreter (`worker.py`), single-threaded,
as a closed loop with one client: the next operation starts when the last
one ends.  An operation is one instance, sampled and checked; see
`workloads.py`.  Each operation is stopped at the workload's deadline.
Times are reported at the reference speed of `worker.Speed`.

A run is one pass over the workload's corpus: a fixed number of instances
of every check kind, drawn from seed-independent streams, taken in an order
the seed chooses.  `--seconds` scales the corpus: the item counts below are
sized for a pass of about 15 s at reference speed.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run over a prefix of the pass; traced counts repeat exactly at
one seed.  Both print the correctness verdict, the input digest and every
failed operation with the command that replays it, and end with one JSON
line.

`--op-index I` replays operation I of (workload, seed) alone and prints its
record.  `--ops N` runs exactly the first N operations of the pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import PROBE_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# deadline_s: time limit of one operation, at reference speed.  items: corpus
# items per check kind for a REFERENCE_SECONDS run.  trace_items: items per
# kind in the traced prefix.  budget: the traced run's span limit per
# operation, set between the span counts of the largest operation that
# finished untraced and the smallest that timed out, over a whole pass.
REFERENCE_SECONDS = 15.0
WORKLOADS = {
    "chain-boundary": {"deadline_s": 5.0, "items": 66, "trace_items": 20,
                       "budget": 200_000},
    "fibre-identities": {"deadline_s": 2.0, "items": 5, "trace_items": 2,
                         "budget": 15_000},
    "cochain-algebra": {"deadline_s": 5.0, "items": 11, "trace_items": 4,
                        "budget": 33_000},
    "homology-bordism": {"deadline_s": 10.0, "items": 7, "trace_items": 3,
                         "budget": 400_000},
}
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
FAILED = ("check", "error", "timeout")
SHOW_FAILURES = 40


class BenchError(RuntimeError):
    """The benchmark could not run or a child interpreter misbehaved."""


class Bench:
    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        self.cfg = WORKLOADS[name]
        scale = seconds / REFERENCE_SECONDS
        self.items = max(1, round(self.cfg["items"] * scale))
        self.trace_items = min(self.items,
                               max(1, round(self.cfg["trace_items"] * scale)))
        self.ends_at = time.monotonic() + TIME_LIMIT_S

    def _args(self, mode: str, **extra) -> list:
        args = ["--mode", mode, "--workload", self.name, "--seed", str(self.seed),
                "--items", str(self.items), "--deadline",
                str(self.cfg["deadline_s"]), "--budget", str(self.cfg["budget"])]
        for key, value in extra.items():
            args += [f"--{key.replace('_', '-')}", str(value)]
        return args

    def setup(self, probes: int) -> list:
        """Interpreter starts; the first also digests the corpus's item 0s."""
        return [self._child(self._args("setup", digest=int(i == 0)))
                for i in range(probes)]

    def run(self, ops: int, first_op: int = 0, trace: int = 0) -> dict:
        return self._child(self._args("run", ops=ops, first_op=first_op,
                                      trace=trace))

    def _child(self, args: list) -> dict:
        """Run one worker interpreter and return its JSON report."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--spawned-at", repr(time.monotonic())] + args
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(self.ends_at - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"the run passed its {TIME_LIMIT_S:.0f} s limit") from err
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker failed (exit {proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def verdict(self, probe: dict, run: dict) -> tuple:
        """Correct when the corpus digest is as recorded and every known
        answer is right."""
        expected = json.loads((HERE / "fingerprints.json").read_text())[self.name]
        got = probe["first_items_digest"]
        known = [r for r in run["records"] if r["known_answer"]]
        wrong = [r for r in known if r["status"] != "ok"]
        lines = [
            f"input digest {run['digest']} ({len(run['records'])} ops, seed "
            f"{self.seed}); corpus digest {got}, recorded {expected}: "
            f"{'match' if got == expected else 'MISMATCH'}",
            f"known answers: {len(known)} checked, {len(wrong)} wrong",
        ]
        return got == expected and not wrong, lines

    def failures(self, records: list) -> list:
        bad = [r for r in records if r["status"] in FAILED]
        lines = [f"failed op {r['index']} [{r['kind']} item {r['item']}] "
                 f"{r['status']}: {r['detail']} | replay: python3 "
                 f"perfbench/run.py --workload {self.name} --seed {self.seed} "
                 f"--op-index {r['index']}" for r in bad[:SHOW_FAILURES]]
        if len(bad) > SHOW_FAILURES:
            lines.append(f"... and {len(bad) - SHOW_FAILURES} more failed ops")
        return lines


def _at_reference(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REFERENCE_S / probe_s


def _op_seconds(record: dict, deadline_s: float) -> float:
    """An operation's time at reference speed; a timed-out one counts as
    taking exactly its deadline."""
    if record["status"] == "timeout":
        return deadline_s
    return _at_reference(record["latency_s"], record["probe_s"])


def _statuses(records: list) -> dict:
    out = dict.fromkeys(("ok", "rejected") + FAILED, 0)
    for r in records:
        out[r["status"]] += 1
    return out


def end_to_end(bench: Bench, ops) -> tuple:
    probes = bench.setup(SETUP_PROBES)
    kinds = probes[0]["kinds"]
    run = bench.run(kinds * bench.items if ops is None else ops)
    records = run["records"]
    st = _statuses(records)
    n = len(records)
    lat_ms = [_op_seconds(r, bench.cfg["deadline_s"]) * 1000 for r in records]
    setups = [_at_reference(p["setup_s"], p["setup_probe_s"])
              for p in probes + [run]]
    failed = sum(st[s] for s in FAILED)
    metrics = {
        "throughput_ops_s": (st["ok"] * 1000 / sum(lat_ms), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10,
                                                method="inclusive")[8], "ms"),
        "ok_share": (st["ok"] / n, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    beyond = sum(1 for x in lat_ms if x > metrics["latency_p90_ms"][0])
    cache = run["cache"]
    lookups = cache["hits"] + cache["misses"]
    raw_ms = statistics.median(r["latency_s"] for r in records) * 1000
    probe_ms = statistics.median(r["probe_s"] for r in records) * 1000
    lines = [
        f"workload {bench.name}, seed {bench.seed}: {n} ops ({kinds} kinds x "
        f"{bench.items} items) in {run['wall_s']:.2f} s, closed loop, 1 client, "
        f"deadline {bench.cfg['deadline_s']} s per op",
        f"  as measured: median op {raw_ms:.6g} ms, median speed probe "
        f"{probe_ms:.6g} ms (reference {PROBE_REFERENCE_S * 1000:g} ms)",
        f"  ops: {st['ok']} ok, {st['rejected']} rejected, {st['check']} failed "
        f"check, {st['error']} failed error, {st['timeout']} timed out",
        f"  fail_share {failed / n:.6g} ratio",
    ]
    for key, (value, unit) in metrics.items():
        extra = ""
        if key == "latency_p90_ms":
            extra = f" (n={n}, {beyond} beyond)"
        elif key == "setup_s":
            extra = f" (median of {len(setups)} interpreter starts)"
        lines.append(f"  {key} {value:.6g} {unit}{extra}")
    lines.append(f"  face cache: {cache['hits']} hits, {cache['misses']} misses, "
                 f"{cache['evictions']} evictions, hit ratio "
                 f"{cache['hits'] / lookups if lookups else 0:.4f}")
    ok, verdict = bench.verdict(probes[0], run)
    return metrics, ok, n, failed, lines + verdict + bench.failures(records)


def traced(bench: Bench, ops) -> tuple:
    probe = bench.setup(1)[0]
    count = probe["kinds"] * bench.trace_items if ops is None else ops
    plain = bench.run(count)
    run = bench.run(count, trace=1)
    records = run["records"]
    st = _statuses(records)
    metrics = {k: tuple(v) for k, v in run["layers"].items()}
    metrics["ops.rejected"] = (st["rejected"], "count")
    for status in FAILED:
        metrics[f"ops.failed.{status}"] = (st[status], "count")
    both = [(_at_reference(a["latency_s"], a["probe_s"]),
             _at_reference(b["latency_s"], b["probe_s"]))
            for a, b in zip(plain["records"], records)
            if a["status"] != "timeout" and b["status"] != "timeout"]
    traced_s = sum(b for _, b in both)
    metrics["trace_overhead"] = (
        sum(a for a, _ in both) / traced_s if traced_s else 1.0, "ratio")
    failed = sum(st[s] for s in FAILED)
    finished = [b["spans"] for a, b in zip(plain["records"], records)
                if a["status"] != "timeout"]
    stopped = [b["spans"] for a, b in zip(plain["records"], records)
               if a["status"] == "timeout"]
    lines = [f"workload {bench.name}, seed {bench.seed}: traced run over the "
             f"first {count} ops, {run['spans']} spans, span budget "
             f"{bench.cfg['budget']} per op",
             f"  untraced, the same ops: {len(stopped)} timed out; spans of "
             f"the largest op that finished untraced "
             f"{max(finished, default=0)}, of the smallest that timed out "
             f"{min(stopped, default='-')}"]
    lines += [f"  {k} {v:.6g} {u}" for k, (v, u) in sorted(metrics.items())]
    ok, verdict = bench.verdict(probe, run)
    return metrics, ok, len(records), failed, lines + verdict + bench.failures(records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--op-index", type=int, default=None)
    ap.add_argument("--ops", type=int, default=None)
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 2:
        ap.error("--ops needs at least 2 operations")
    if not (ROOT / "src" / "cornercalc" / "__init__.py").is_file():
        print(f"cornercalc sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds)
    try:
        if args.op_index is not None:
            run = bench.run(1, first_op=args.op_index)
            print(json.dumps(run["records"][0]))
            return 0
        measure = traced if args.trace else end_to_end
        metrics, ok, n, failed, lines = measure(bench, args.ops)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(f"correct: {str(ok).lower()}")
    print(json.dumps({
        "correct": ok, "attempted": n, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
