"""Lines of `src/cornercalc` that a run never executes.

    python3 tools/line_trace.py tests     # tier-1 (pytest on tests/)
    python3 tools/line_trace.py bench     # the four benchmark corpora
    python3 tools/line_trace.py --both    # the lines neither run reaches
    python3 tools/line_trace.py --both --raises   # only the raise statements

runs tier-1 in process, or every check kind of every workload in
`perfbench/workloads.py` (imported, not changed) for the workload's corpus
size (`items` in `perfbench/run.py`'s `WORKLOADS`), without deadlines, under
one `sys.settrace` line tracer.  With `--both` it runs the two, one after the
other under the same tracer.  It prints, per module, the executable lines
that never ran: the line numbers that the module's code objects give in
`co_lines()`, without the header line of each function or class body, which
its enclosing code executes.  The first line gives the number of executable
lines and of lines never run over all modules.  With `--raises` it prints
only the `raise` statements, found from each module's AST, that never ran:
one line each, the module, the line number and the statement's first line.
"""

from __future__ import annotations

import argparse
import ast
import sys
import types
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cornercalc"


def executable_lines(path: Path) -> set[int]:
    """Line numbers of the instructions of every code object of a source file."""
    lines: set[int] = set()
    stack = [(compile(path.read_text(), str(path), "exec"), True)]
    while stack:
        code, top = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line and (top or line != code.co_firstlineno))
        stack += [(c, False) for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def traced(files: Iterable[Path], run: Callable[[], object]) -> dict[str, set[int]]:
    """The lines of each file that run() executes, by absolute path."""
    hits: dict[str, set[int]] = {str(Path(f).resolve()): set() for f in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hits


def never_run(files: Iterable[Path], run: Callable[[], object]) -> dict[str, list[int]]:
    """Per file, the executable lines that run() does not execute, ascending."""
    files = [Path(f).resolve() for f in files]
    hits = traced(files, run)
    return {str(f): sorted(executable_lines(f) - hits[str(f)]) for f in files}


def raise_statements(path: Path) -> dict[int, str]:
    """Line number -> first source line of each raise statement of a source file."""
    source = path.read_text()
    lines = source.splitlines()
    return {node.lineno: lines[node.lineno - 1].strip()
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)}


def raise_report(label: str, missed: dict[str, list[int]]) -> list[str]:
    """The raise statements among never_run's lines: a count, then one line
    each, as file name:line number: first source line."""
    raises = {path: raise_statements(Path(path)) for path in missed}
    never = [f"{Path(path).name}:{line}: {raises[path][line]}"
             for path, lines in missed.items() for line in lines if line in raises[path]]
    total = sum(map(len, raises.values()))
    return [f"{label}: {len(never)} of {total} raise statements never ran"] + never


def _run_tests() -> None:
    import pytest
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def _run_bench() -> None:
    sys.path[:0] = [str(ROOT / "perfbench")]
    import run
    import workloads
    for name, build in workloads.WORKLOADS.items():
        kinds = build()
        for item in range(run.WORKLOADS[name]["items"]):
            for kind in kinds:
                try:
                    kind.check(kind.sample(workloads.item_random(name, kind.name, item)))
                except Exception:  # an op that raises has still run its lines
                    pass


def _ranges(lines: list[int]) -> str:
    """1, 2, 3, 5 as '1-3, 5'."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("run", nargs="?", choices=["tests", "bench"],
                    help="what to run under the tracer")
    ap.add_argument("--both", action="store_true",
                    help="run tier-1 and the corpora; list the lines neither reaches")
    ap.add_argument("--raises", action="store_true",
                    help="list only the raise statements that never ran")
    args = ap.parse_args(argv)
    if (args.run is None) != args.both:
        ap.error("give one of tests, bench or --both")
    sys.path[:0] = [str(ROOT / "src")]
    runners = [_run_tests, _run_bench] if args.both else \
        [{"tests": _run_tests, "bench": _run_bench}[args.run]]
    files = sorted(PACKAGE.glob("*.py"))
    missed = never_run(files, lambda: [r() for r in runners])
    label = "tests and bench" if args.both else args.run
    if args.raises:
        print("\n".join(raise_report(label, missed)))
        return 0
    total = sum(len(executable_lines(f)) for f in files)
    print(f"{label}: {sum(map(len, missed.values()))} of {total} executable lines never ran")
    for path, lines in missed.items():
        if lines:
            print(f"{Path(path).name} ({len(lines)}): {_ranges(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
