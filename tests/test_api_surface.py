"""Names other code relies on: console scripts, the benchmark's traced and imported names."""

import ast
import importlib
import importlib.util
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
