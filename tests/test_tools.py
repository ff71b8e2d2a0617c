"""The committed equivalence tool, run on the first items of a workload."""

import hashlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EMPTY = hashlib.sha256(b"").hexdigest()


def _digest_lines(workload, items=1):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "outcome_digest.py"),
         "--workload", workload, "--items", str(items)],
        capture_output=True, text=True, check=True, timeout=60).stdout.splitlines()


@pytest.mark.parametrize("items, expected", [
    # The combined line moved when fibre-product components stopped carrying a
    # coorientation slot, which was None on every one recorded here.
    (1, ["fibre-identities items 0..0: 24 ops, 77 fibre_product_cells results (70 components)",
         "sha256 214a90eb5d0e95b2f4b81a9c46317b20be599b6cdf0da4aec978075cd9aa71fa",
         "outcomes sha256 14883f75bcdad41e29ab3760f7a75c66e560f0394399b689b70d65263f51867e",
         "distinct sha256 a0a7980562e55fb637523df9861a2368e137da4363bd005918d4a63f2160e50c"]),
    # The full corpus: every check kind, the swap's coordinate permutation and
    # both nestings of associativity and interchange.
    (5, ["fibre-identities items 0..4: 120 ops, 415 fibre_product_cells results "
         "(383 components)",
         "sha256 134004fd9ba27243ec7baecc2ee1df52d1cd3e341c7e73bc9fa8178af0cf5a72",
         "outcomes sha256 79fdf5c6bdf50e274fc616760fd926d236d431c1c9aaaeca3089bbc3f9a1204b",
         "distinct sha256 3f42041e5479f1ce9ffd647781d8a667ab674c085c48daff94b7d5b80cbdfd66"]),
], ids=["item-0", "items-0-4"])
def test_outcome_digest_of_one_item(items, expected):
    assert _digest_lines("fibre-identities", items) == expected


@pytest.mark.parametrize("items, expected", [
    # The combined line hashes every component's cell, sign and flags, so it
    # pins the orientation signs of the cups and caps, not only the outcomes.
    # The counts moved from 110 results (138 components) when check_dga came
    # to compute cup(c1, c2) once for its three laws instead of once per law;
    # the outcomes did not.  They moved again, from 98 results (122
    # components) here and 896 (1092) on the full corpus, when each law
    # check came to build each fibre product once, from one product table;
    # the combined line moved with them, as it hashes every product built,
    # and the outcomes and distinct lines did not.
    (1, ["cochain-algebra items 0..0: 10 ops, 64 fibre_product_cells results (75 components)",
         "sha256 c9e49b9f33b85240f73651ede83326927cbf69345256e9c44ae4f289e507298d",
         "outcomes sha256 1dd9881733bafec6d8d0fb5ed9962cc5d78f9341d2dce31262009a5f2599a4eb",
         "distinct sha256 f7b67e16d65c53e3913404c8cde2af0182801ecb8fd74e570e558985b84c8cf1"]),
    # The full corpus, with the products over T2 whose components keep free
    # torus coordinates.
    (11, ["cochain-algebra items 0..10: 110 ops, 598 fibre_product_cells results "
          "(691 components)",
          "sha256 4456fe0f2c15c9d5fdcf49012b6bdd2f54e0f65371c9ad0bf5bbaba9af8c8798",
          "outcomes sha256 32b3bf02da900f406346e802cd595c8a2310ebbefa40a98ae4ac8158249fd7ee",
          "distinct sha256 26ebd6fa713ccd15b32e86329f8e4ad8304fe41c79ab1c9b819bed1915435ffa"]),
], ids=["item-0", "items-0-10"])
def test_outcome_digest_of_one_cochain_item(items, expected):
    assert _digest_lines("cochain-algebra", items) == expected


@pytest.mark.parametrize("items, counts, outcomes", [
    (1, "chain-boundary items 0..0: 2 ops, 0 fibre_product_cells results (0 components)",
     "bc13f342d30de3ebe5ea75b52d35104d8d05f162fc0cd2c8fabc7523cf679246"),
    # The full corpus: every dd-zero chain and singular-bridge instance.
    (66, "chain-boundary items 0..65: 132 ops, 0 fibre_product_cells results (0 components)",
     "2d0b4d351dc38ec277f0cedaf97be13ecc73e625819819dcc9f79f92d02418e9"),
], ids=["item-0", "items-0-65"])
def test_outcome_only_digest_of_one_chain_boundary_item(items, counts, outcomes):
    # no fibre product: the distinct line hashes the empty set
    assert _digest_lines("chain-boundary", items) == [
        counts, f"sha256 {outcomes}", f"outcomes sha256 {outcomes}", f"distinct sha256 {EMPTY}"]


@pytest.mark.parametrize("items, counts, outcomes", [
    (1, "homology-bordism items 0..0: 25 ops, 0 fibre_product_cells results (0 components)",
     "af7886ba6038bde5315210fefae5567f7014e522f7be62e9ea96688f1c391a80"),
    # The full corpus: betti numbers, presentations, loops, strata and controls.
    (7, "homology-bordism items 0..6: 175 ops, 0 fibre_product_cells results (0 components)",
     "4e30416dd405b6547c5693408a253148e3d64c3b41af7193447b25c438a304f5"),
], ids=["item-0", "items-0-6"])
def test_outcome_only_digest_of_one_homology_bordism_item(items, counts, outcomes):
    assert _digest_lines("homology-bordism", items) == [
        counts, f"sha256 {outcomes}", f"outcomes sha256 {outcomes}", f"distinct sha256 {EMPTY}"]


def test_outcome_digest_of_all_workloads_in_one_run():
    # --workload all prints each workload's four lines, in perfbench/run.py's
    # order, as the workload's own run prints them
    order = ["chain-boundary", "fibre-identities", "cochain-algebra", "homology-bordism"]
    assert _digest_lines("all") == [line for w in order for line in _digest_lines(w)]


# Loads the tool with its digest stubbed out, then runs its command line once
# per workload named and once with --items 2.
_DEFAULT_ITEMS = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("outcome_digest", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
tool.outcome_digest = lambda workload, items: (items, {"results": 0, "components": 0},
                                                "", "", "")
for workload in sys.argv[2:]:
    tool.main(["--workload", workload])
tool.main(["--workload", sys.argv[2], "--items", "2"])
"""


def test_outcome_digest_defaults_to_the_corpus_size():
    # without --items the tool digests the benchmark's whole corpus, the
    # items count of perfbench/run.py, which the digest tests above pin
    sizes = {"chain-boundary": 66, "fibre-identities": 5, "cochain-algebra": 11,
             "homology-bordism": 7}
    out = subprocess.run(
        [sys.executable, "-c", _DEFAULT_ITEMS, str(ROOT / "tools" / "outcome_digest.py"),
         *sizes], capture_output=True, text=True, check=True, timeout=60).stdout
    heads = [line for line in out.splitlines() if " items 0.." in line]
    assert heads == [f"{w} items 0..{n - 1}: {n} ops, 0 fibre_product_cells results "
                     "(0 components)" for w, n in sizes.items()] + [
        "chain-boundary items 0..1: 2 ops, 0 fibre_product_cells results (0 components)"]


def test_bench_pairs_smoke():
    # one short pair of the same checkout on both sides: every end-to-end
    # metric gets a line, and the run is correct
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), str(ROOT), str(ROOT),
         "--workload", "chain-boundary", "--pairs", "1", "--seed0", "1", "--seconds", "0.3"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("pair 1 seed 1: throughput_ops_s parent ")
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert set(rows) >= {"metric", "throughput_ops_s", "latency_p50_ms", "latency_p90_ms",
                         "ok_share", "setup_s", "peak_rss_mb"}
    assert rows["ok_share"][1:3] == ["1", "1"] and rows["ok_share"][-1] == "0/1"
    count = _bench_pairs().source_lines(ROOT)
    assert lines[-1] == f"source lines (src/cornercalc/*.py): parent {count}  change {count}"


def test_kind_times_of_one_item():
    # one item of each homology-bordism kind: every family once, with its
    # number of kinds as its operations, and the shares of the whole pass
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "kind_times.py"), "homology-bordism",
         "--items", "1"], capture_output=True, text=True, check=True, timeout=120).stdout
    head, columns, *lines = out.splitlines()
    assert head.startswith("homology-bordism items 0..0, seed 1: 25 ops in ")
    assert head.endswith(" ms, 0 raised")
    assert columns.split() == ["family", "ops", "ms", "share"]
    rows = {line.split()[0]: line.split()[1:] for line in lines}
    assert {family: int(row[0]) for family, row in rows.items()} == {
        "betti": 6, "present": 2, "loop": 2, "strata": 13, "quotient-half": 1,
        "negative-controls": 1}
    times = [float(row[1]) for row in rows.values()]
    assert times == sorted(times, reverse=True)
    assert abs(sum(float(row[2].rstrip("%")) for row in rows.values()) - 100) < 0.5


@pytest.mark.parametrize("m, faces, classes, betti", [
    (1, 9, 6, "{0: 1, 1: 1}"),
    (2, 126, 54, "{0: 1, 1: 2, 2: 1}"),
])
def test_complex_scale_on_small_tori(m, faces, classes, betti):
    # the Freudenthal complexes of T^1 and T^2 at grid 3; T^3 (702 classes)
    # is left to the tool
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "complex_scale.py"), str(m)],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    head, betti_line, times, scaled = out.splitlines()
    assert head == f"T^{m}, grid 3: {faces} raw faces, {classes} classes"
    assert betti_line == f"betti {betti}"
    assert times.startswith("build ") and times.endswith(" s")
    # the same three times at the benchmark's reference speed: each raw time
    # times reference / probe, up to the rounding of both printed times
    names = ("build", "ChainComplex", "betti")
    number = r"(\d+\.\d\d)"
    raw = re.fullmatch(", ".join(f"{name} {number} s" for name in names), times)
    ref = re.fullmatch(rf"at reference speed \(probe {number} ms, reference {number} ms\): "
                       + ", ".join(f"{name} {number} s" for name in names), scaled)
    assert raw and ref
    probe, reference = float(ref[1]), float(ref[2])
    assert probe > 0 and reference > 0
    factor = reference / probe
    for t, t_ref in zip(map(float, raw.groups()), map(float, ref.groups()[2:])):
        assert abs(t_ref - t * factor) <= 0.005 * (1 + factor) + 0.01 * t * factor


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_fixed_runs():
    def runs(*values):
        return [{"metrics": {"throughput_ops_s": {"value": t}, "latency_p50_ms": {"value": p},
                             "setup_s": {"value": 0}}} for t, p in values]

    bounds = {"throughput_ops_s": 0.24, "latency_p50_ms": 0.24, "setup_s": 0.25}
    lines = _bench_pairs().summary({
        "parent": runs((100, 4.0), (110, 4.0), (90, 5.0), (100, 2.0)),
        "change": runs((125, 3.0), (120, 5.0), (130, 3.0), (99, 3.0))}, bounds)
    assert lines[0].split() == ["metric", "parent", "median", "change", "median",
                                "parent", "q1..q3", "relative", "verdict", "change", "wins"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    # medians 100 -> 122.5; the change is ahead in three pairs of four, too
    # few for a claim
    assert rows["throughput_ops_s"] == ["100", "122.5", "97.5..102.5", "+22.5%", "-", "3/4"]
    # lower is better, and a tie is not a win
    assert rows["latency_p50_ms"] == ["4", "3", "3.5..4.25", "-25.0%", "-", "2/4"]
    assert rows["setup_s"] == ["0", "0", "0..0", "n/a", "-", "0/4"]

    def ten(metric, parent, change):
        return {side: [{"metrics": {metric: {"value": v}}} for v in values]
                for side, values in (("parent", parent), ("change", change))}

    def row(metric, parent, change):
        lines = _bench_pairs().summary(ten(metric, parent, change), bounds)
        return lines[1].split()[1:]

    spread = [98, 99, 100, 101, 102, 100, 99, 101, 100, 100]
    # nine wins of ten and a median gain of 10 past the parent's q3 - q1 of 1.5
    assert row("throughput_ops_s", spread, [110] * 9 + [95])[-2:] == ["claim", "9/10"]
    # eight wins of ten are not a claim, however large the gain
    assert row("throughput_ops_s", spread, [110] * 8 + [95] * 2)[-2:] == ["-", "8/10"]
    # a gain inside the parent's quartiles is not a claim, even with ten wins
    assert row("throughput_ops_s", spread, [s + 1 for s in spread])[-2:] == ["-", "10/10"]
    # 30% slower against a bound of 24% is worse; 20% against 25% is not
    assert row("latency_p50_ms", [4.0] * 10, [5.2] * 10)[-2:] == ["WORSE", "0/10"]
    assert row("setup_s", [1.0] * 10, [1.2] * 10)[-2:] == ["-", "0/10"]
    # a metric without a bound is never worse
    assert row("peak_rss_mb", [10.0] * 10, [20.0] * 10)[-2:] == ["-", "0/10"]


def test_bench_pairs_workload_expansion():
    # "all" is every workload of the spec, in its order; any other name is itself
    spec = {"workloads": [{"name": "b", "why": ""}, {"name": "a", "why": ""},
                          {"name": "c", "why": ""}]}
    workloads = _bench_pairs().workloads
    assert workloads("all", spec) == ["b", "a", "c"]
    assert workloads("a", spec) == ["a"]
    assert workloads("all", {"workloads": []}) == []


def test_bench_pairs_source_lines_on_two_trees(tmp_path):
    # the newlines of src/cornercalc/*.py, as `cat src/cornercalc/*.py | wc -l`
    # counts them: a last line without a newline is not counted, and neither
    # is a file of another suffix or one in a subdirectory
    trees = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3", "notes.txt": "1\n2\n"},
             "change": {"a.py": "x = 1\n", "c.py": "\n\n\n", "sub/d.py": "w = 4\n"}}
    for name, files in trees.items():
        for rel, text in files.items():
            path = tmp_path / name / "src" / "cornercalc" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    source_lines = _bench_pairs().source_lines
    assert source_lines(tmp_path / "parent") == 2
    assert source_lines(tmp_path / "change") == 4


def _line_trace():
    spec = importlib.util.spec_from_file_location("line_trace", ROOT / "tools" / "line_trace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SYNTHETIC = '''\
def sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class Box:
    def __init__(self, value):
        self.value = value

    def doubled(self):
        return [
            2 * self.value,
        ]
'''


def test_line_trace_on_a_synthetic_module(tmp_path):
    # the lines the run never reaches: the branches for x < 0 and x == 0 and
    # the body of doubled, whose list spans two lines; headers are executed
    # by their enclosing code and count as run
    path = tmp_path / "synthetic.py"
    path.write_text(_SYNTHETIC)
    tool = _line_trace()
    assert tool.executable_lines(path) == {1, 2, 3, 4, 5, 6, 9, 10, 11, 13, 14, 15}
    spec = importlib.util.spec_from_file_location("synthetic", path)

    def run():
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(3) == 1
        module.Box(2)

    assert tool.never_run([path], run) == {str(path.resolve()): [4, 5, 6, 14, 15]}
    assert tool._ranges([4, 5, 6, 14, 15, 17]) == "4-6, 14-15, 17"


_RAISING = '''

def checked(x):
    if x < 0:
        raise ValueError(
            "negative")
    if x == 0:
        raise ZeroDivisionError("zero")
    return x
'''


def test_line_trace_lists_the_raises_never_run(tmp_path):
    # the synthetic module with two raises after it: the run takes the
    # second, so only the first, which spans two lines, is listed, by its
    # first line
    path = tmp_path / "synthetic.py"
    path.write_text(_SYNTHETIC + _RAISING)
    tool = _line_trace()
    assert tool.raise_statements(path) == {21: "raise ValueError(",
                                           24: 'raise ZeroDivisionError("zero")'}
    spec = importlib.util.spec_from_file_location("synthetic", path)

    def run():
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.sign(3)
        with pytest.raises(ZeroDivisionError):
            module.checked(0)

    missed = tool.never_run([path], run)
    assert tool.raise_report("run", missed) == [
        "run: 1 of 2 raise statements never ran", "synthetic.py:21: raise ValueError("]
