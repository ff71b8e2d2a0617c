"""Names other code relies on: console scripts, the benchmark's traced and imported names."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_console_scripts_resolve():
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())
    for name, target in scripts.get("project", {}).get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(_resolve(module, attr)), name


def test_traced_names_resolve():
    """Every span the benchmark's traced run installs names a live object."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, path, _ in spans.TRACED:
        assert callable(_resolve(f"cornercalc.{module}", path)), (module, path)


def test_benchmark_imports_resolve():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("cornercalc")
                for alias in node.names]
    assert imported
    for module, name in imported + [("cornercalc.geometry", "_face_data")]:
        _resolve(module, name)


_TRACED_SMOKE = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from fractions import Fraction
from cornercalc import cells, geometry, orbifold
import spans

tracer = spans.Tracer(budget=10**6)
tracer.install()
geometry.box([(0, 3), (0, 5), (0, 7)]).faces()
a, b = cells.Cell(geometry.box([(0, 2), (0, 2)])), cells.Cell(geometry.interval(Fraction(1, 3), 2))
cells.fibre_product_cells(a, cells.CellMap(cells.euclid(1), [[1, 0]], [[]], [0]),
                          b, cells.CellMap(cells.euclid(1), [[1]], [[]], [0]))
z2 = orbifold.cyclic_group(2)
act = orbifold.GroupAction(z2, geometry.interval(-1, 1), {"r0": ([[1]], [0]), "r1": ([[-1]], [0])})
sign = tuple(-1 if g == "r1" else 1 for g in z2.elements)
orbifold.orbifold_stratum(act, z2, orbifold.VirtualRep(z2, (sign,)))
tracer.commit()
print(json.dumps([tracer.counts["geometry.facets.cold_calls"],
                  tracer.calls["cells.slice_polytope"], tracer.calls["orbifold.cut_by_equations"]]))
"""


def test_traced_benchmark_hooks_see_work():
    """The benchmark's tracer counts cold facet runs, slices and cuts.

    Run in a subprocess: `Tracer.install` rebinds library names for good.
    """
    proc = subprocess.run([sys.executable, "-c", _TRACED_SMOKE, str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cold_facets, slices, cuts = json.loads(proc.stdout.strip().splitlines()[-1])
    assert cold_facets > 0 and slices > 0 and cuts > 0
