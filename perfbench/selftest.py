"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload it runs a few operations untraced and traced, and checks
that the last output line is the result object, that every metric named in
BENCHMARK.json is printed with its unit, that known answers hold, and that
every count of the traced run repeats exactly between two runs at one seed.
It also replays one operation alone.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result: dict, wanted: list, where: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True:
        raise AssertionError(f"{where}: verdict is not correct")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise AssertionError(f"{where}: bad attempted/failed counts")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            raise AssertionError(f"{where}: {metric['name']} not printed")
        if got["unit"] != metric["unit"]:
            raise AssertionError(f"{where}: {metric['name']} has unit "
                                 f"{got['unit']}, not {metric['unit']}")
        if not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{where}: {metric['name']} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    sizes = {"chain-boundary": 4, "fibre-identities": 24,
             "cochain-algebra": 10, "homology-bordism": 25}
    for workload in (w["name"] for w in spec["workloads"]):
        ops = str(sizes[workload])
        common = ["--workload", workload, "--seed", str(SEED), "--ops", ops]
        _check_result(_bench(*common, "--trace", "0"), spec["end_to_end"],
                      f"{workload} untraced")
        first = _bench(*common, "--trace", "1")
        second = _bench(*common, "--trace", "1")
        for result in (first, second):
            _check_result(result, spec["per_layer"], f"{workload} traced")
        moved = [name for name in counts
                 if first["metrics"][name] != second["metrics"][name]]
        if moved:
            raise AssertionError(f"{workload}: counts differ between two "
                                 f"runs at one seed: {moved}")
        print(f"{workload}: ok ({ops} ops, {len(counts)} counts repeat)")
    replay = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "chain-boundary",
         "--seed", str(SEED), "--op-index", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    record = json.loads(replay.stdout.strip().splitlines()[-1])
    if record["index"] != 3 or record["kind"] != "singular-bridge":
        raise AssertionError(f"replay returned {record}")
    print("replay: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
