"""Digests of the operation outcomes and fibre products of a benchmark workload.

    python3 tools/outcome_digest.py --workload fibre-identities --items 7

runs items 0..N-1 of every check kind of the workload, as defined in
`perfbench/workloads.py` (imported, not changed), without deadlines; N is the
workload's corpus size (`items` in `perfbench/run.py`'s `WORKLOADS`) unless
`--items` gives it.  `--workload all` digests the four workloads in turn
in one process, each as its own run would.  For each
item in turn, each kind samples its instance from the item's random stream
and decides it.  It prints the number of operations, the number of
`fibre_product_cells` results the operations produced (and their components),
one SHA-256 over

- every operation's outcome, or the class and message of what it raised;
- every fibre-product component, in the order they were built: its cell
  (polytope, torus rank and orientation sign), projection map, translate,
  transversality and orientability flags, sorted face pairs, `facets()` and
  `facet_inequalities()`;

a second SHA-256 over the operation outcomes alone, and a third, the
`distinct` one, over the sorted set of distinct fibre-product records, each
the operands (two cells and two maps) and the components built from them.
Two trees give the same first digest when they decide every operation alike
and build the same fibre products in the same order, the same second digest
when they decide every operation alike, whatever fibre products they build
on the way, and the same third digest when they build the same fibre
products, however often each is built.  To compare a change with its parent,
run the script in each checkout; it imports the `src/` and `perfbench/` next
to it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cornercalc.cells as cells  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _component_repr(comp) -> str:
    poly = comp.cell.polytope
    return repr((comp.cell, comp.pmap, comp.translate,
                 comp.transverse, comp.orientable,
                 sorted(comp.face_pairs.items()), poly.facets(),
                 poly.facet_inequalities()))


# The digest, tally and distinct records that the recorder feeds: the
# workload being digested.
_sink: dict = {}


def _record_fibre_products() -> None:
    """Rebind `fibre_product_cells` in every cornercalc module to a recorder
    that feeds `_sink`."""
    orig = cells.fibre_product_cells

    def recorded(cell1, map1, cell2, map2):
        result = orig(cell1, map1, cell2, map2)
        h, tally = _sink["hash"], _sink["tally"]
        tally["results"] += 1
        tally["components"] += len(result)
        comps = [_component_repr(comp) for comp in result]
        for rep in comps:
            h.update(rep.encode())
        _sink["distinct"].add(repr((cell1, map1, cell2, map2)) + " -> " + "".join(comps))
        return result

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "cornercalc" or name.startswith("cornercalc.")):
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, recorded)


def outcome_digest(workload: str, items: int) -> tuple[int, dict, str, str, str]:
    """(operations, fibre-product tally, combined, outcome-only and distinct
    SHA-256 hex digests) of items 0..items-1."""
    h, outcomes = hashlib.sha256(), hashlib.sha256()
    tally = {"results": 0, "components": 0}
    distinct: set = set()
    if not _sink:
        _record_fibre_products()
    _sink.update(hash=h, tally=tally, distinct=distinct)
    kinds = workloads.WORKLOADS[workload]()
    ops = 0
    for item in range(items):
        for kind in kinds:
            rng = workloads.item_random(workload, kind.name, item)
            try:
                outcome = repr(kind.check(kind.sample(rng)))
            except Exception as err:
                outcome = f"raised {type(err).__name__}: {err}"
            ops += 1
            line = f"{kind.name}|{item}|{outcome}\n".encode()
            h.update(line)
            outcomes.update(line)
    records = hashlib.sha256("".join(f"{r}\n" for r in sorted(distinct)).encode())
    return ops, tally, h.hexdigest(), outcomes.hexdigest(), records.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="a workload, or all four in turn in one process")
    ap.add_argument("--items", type=int,
                    help="items per check kind (default: the workload's corpus size)")
    args = ap.parse_args(argv)
    names = list(run.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        items = run.WORKLOADS[name]["items"] if args.items is None else args.items
        ops, tally, digest, outcomes, distinct = outcome_digest(name, items)
        print(f"{name} items 0..{items - 1}: {ops} ops, "
              f"{tally['results']} fibre_product_cells results "
              f"({tally['components']} components)")
        print(f"sha256 {digest}")
        print(f"outcomes sha256 {outcomes}")
        print(f"distinct sha256 {distinct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
