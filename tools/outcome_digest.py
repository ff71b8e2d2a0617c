"""Digests of the operation outcomes and fibre products of a benchmark workload.

    python3 tools/outcome_digest.py --workload fibre-identities --items 7

runs items 0..N-1 of every check kind of the workload, as defined in
`perfbench/workloads.py` (imported, not changed), without deadlines: for each
item in turn, each kind samples its instance from the item's random stream
and decides it.  It prints the number of operations, the number of
`fibre_product_cells` results the operations produced (and their components),
one SHA-256 over

- every operation's outcome, or the class and message of what it raised;
- every fibre-product component, in the order they were built: its cell
  (polytope, torus rank and orientation sign), projection map, translate,
  transversality and orientability flags, sorted face pairs, `facets()` and
  `facet_inequalities()`;

and a second SHA-256 over the operation outcomes alone.  Two trees give the
same first digest when they decide every operation alike and build the same
fibre products, and the same second digest when they decide every operation
alike, whatever fibre products they build on the way.  To compare a change
with its parent, run the script in each checkout; it imports the `src/` and
`perfbench/` next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cornercalc.cells as cells  # noqa: E402
import workloads  # noqa: E402


def _component_repr(comp) -> str:
    poly = comp.cell.polytope
    return repr((comp.cell, comp.pmap, comp.translate,
                 comp.transverse, comp.orientable,
                 sorted(comp.face_pairs.items()), poly.facets(),
                 poly.facet_inequalities()))


def _record_fibre_products(h, tally: dict) -> None:
    """Rebind `fibre_product_cells` in every cornercalc module to a recorder."""
    orig = cells.fibre_product_cells

    def recorded(*args, **kwargs):
        result = orig(*args, **kwargs)
        tally["results"] += 1
        tally["components"] += len(result)
        for comp in result:
            h.update(_component_repr(comp).encode())
        return result

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "cornercalc" or name.startswith("cornercalc.")):
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, recorded)


def outcome_digest(workload: str, items: int) -> tuple[int, dict, str, str]:
    """(operations, fibre-product tally, combined and outcome-only SHA-256 hex
    digests) of items 0..items-1."""
    h, outcomes = hashlib.sha256(), hashlib.sha256()
    tally = {"results": 0, "components": 0}
    _record_fibre_products(h, tally)
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
    return ops, tally, h.hexdigest(), outcomes.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--items", type=int, default=1)
    args = ap.parse_args(argv)
    ops, tally, digest, outcomes = outcome_digest(args.workload, args.items)
    print(f"{args.workload} items 0..{args.items - 1}: {ops} ops, "
          f"{tally['results']} fibre_product_cells results "
          f"({tally['components']} components)")
    print(f"sha256 {digest}")
    print(f"outcomes sha256 {outcomes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
