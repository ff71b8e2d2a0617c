"""Names other code relies on: console scripts, the benchmark's traced and imported names
and the number of strata cases it runs."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
import tomllib
from collections import Counter
from pathlib import Path

from cornercalc.suites import _strata_cases

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


def test_benchmark_runs_every_strata_case():
    """The benchmark fixes its number of strata kinds; a case added to the
    suite's table must be added there too, or it goes unbenchmarked."""
    from cornercalc.suites import _strata_cases

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    assert len(_strata_cases()) == workloads._STRATA_CASES


_TRACED_SMOKE = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from fractions import Fraction
from random import Random
from cornercalc import cells, chains, geometry, orbifold, randgen
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
chains.boundary(randgen.random_chain(Random(0), ("t", 0), max_ambient=2, ring="Q"))
tracer.commit()
print(json.dumps([tracer.counts["geometry.facets.cold_calls"],
                  tracer.calls["cells.slice_polytope"], tracer.calls["orbifold.cut_by_equations"],
                  tracer.counts["chains.chain_init.terms_in"]]))
"""


def test_traced_benchmark_hooks_see_work():
    """The benchmark's tracer counts cold facet runs, slices, cuts and the
    terms going into chains; its Chain.__init__ wrapper passes ring by
    position, so this pins that signature.

    Run in a subprocess: `Tracer.install` rebinds library names for good.
    """
    proc = subprocess.run([sys.executable, "-c", _TRACED_SMOKE, str(ROOT)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cold_facets, slices, cuts, terms_in = json.loads(proc.stdout.strip().splitlines()[-1])
    assert cold_facets > 0 and slices > 0 and cuts > 0 and terms_in > 0


def _unused_imports(source: str) -> list[str]:
    """Names a module imports, other than from __future__, that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_src_imports_are_used():
    modules = sorted((ROOT / "src" / "cornercalc").glob("*.py"))
    assert modules
    unused = {path.name: _unused_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _is_private(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__"))


def _names(node: ast.AST) -> Counter:
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def _attributes(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_src_private_definitions_are_referenced():
    """Every private function, class and method of the package is used in it.

    A module-level one is read by name in its module (which does not also
    import that name), imported from its module, or read as module.name; a
    method is read as an attribute.  Reads in a definition's own body do
    not count.
    """
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "cornercalc").glob("*.py"))}
    imports, attributes, qualified = Counter(), Counter(), Counter()
    for stem, tree in modules.items():
        attributes.update(_attributes(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                imports.update((stem, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                qualified[node.value.id, node.attr] += 1
    unused, checked = [], 0
    for stem, tree in modules.items():
        local = _names(tree)
        imported_here = {name for into, _, name in imports if into == stem}
        for node in (n for n in tree.body if _is_private(n)):
            checked += 1
            read_here = (node.name not in imported_here
                         and local[node.name] > _names(node)[node.name])
            elsewhere = (any(src == stem and name == node.name for _, src, name in imports)
                         or qualified[stem, node.name])
            if not (read_here or elsewhere):
                unused.append(f"{stem}.{node.name}")
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            for node in (n for n in cls.body if _is_private(n)):
                checked += 1
                if attributes[node.name] == _attributes(node)[node.name]:
                    unused.append(f"{stem}.{cls.name}.{node.name}")
    assert checked
    assert unused == []



def _callers(spelling: str, keep=lambda call: True) -> set[str]:
    """The innermost functions of the package holding a call, kept by `keep`,
    of a name or an attribute of that spelling."""
    found = set()
    for path in sorted((ROOT / "src" / "cornercalc").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        # breadth first, so an inner function claims its nodes last
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            owner.update((id(node), func.name) for node in ast.walk(func))
        found.update(owner[id(node)] for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and keep(node)
                     and spelling in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None)))
    return found


def _jordan(call: ast.Call) -> bool:
    return not any(k.arg == "jordan" and isinstance(k.value, ast.Constant)
                   and k.value.value is False for k in call.keywords)


def test_one_reduction_and_one_internal_chart():
    """Every Jordan reduction is _linalg._rref_over, and the orthogonal chart
    local_ints serves only the public Fraction views: a second copy of the
    reduction or a new reader of that chart fails here."""
    assert _callers("_eliminate", _jordan) == {"_rref_over"}
    assert _callers("local_ints") == {"local_matrix", "facet_inequalities"}
