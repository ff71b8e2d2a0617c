"""Homology of T^M from the Freudenthal triangulation, at scale.

    python3 tools/complex_scale.py M [--grid 3]

builds the Freudenthal triangulation of T^M with grid n as a
coordinate-vertex complex.  Grid vertex i of (Z/n)^M sits at e_i in R^N,
N = n^M.  A simplex of the triangulation (a base point x and an order of
the M coordinates, its vertices x, x + e_(first), ..., x + (1, ..., 1)) is
one root generator:
- its polytope is the hull of the e_i of its vertices;
- each of its faces is labelled ("v", the face's sorted vertex indices), so
  tags are injective and two simplices label a shared face alike;
- its map goes into T^M, with column i of A the lift of vertex i in the
  simplex's chart (x plus a prefix of the steps, over n), b = 0 and torus
  rank 0.
Two simplices that share a face lift it by lifts that differ by one integer
vector, and `canonical_cell_map` reads the map on the hull and reduces the
offset modulo Z^M, so both give the face one key.  Each face of a root is
read through `_face_form`, and the raw faces (every face of every simplex)
go to `ChainComplex`.

It prints the raw faces, the classes, the Betti numbers (those of T^M are
the binomial coefficients) and the wall times of the build, of
`ChainComplex` and of `betti`, on this machine.  A last line gives the same
times at the benchmark's reference speed: each times PROBE_REFERENCE_S over
the median of `speed_probe` (both from `perfbench/worker.py`, imported, not
changed) taken five times before the build and five times after `betti`,
so that runs on a machine whose load varies can be compared.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cornercalc.cells import Cell, CellMap, torus  # noqa: E402
from cornercalc.chains import (ChainComplex, Generator, Tag, _face_form,  # noqa: E402
                               _normal_form)
from cornercalc.geometry import Polytope, mask_bits  # noqa: E402
from worker import PROBE_REFERENCE_S, speed_probe  # noqa: E402


def freudenthal_faces(m: int, n: int) -> list:
    """Every face of every simplex of the Freudenthal triangulation of T^m
    with grid n, one root generator per simplex and its faces read there."""
    grid = list(itertools.product(range(n), repeat=m))
    number = {v: i for i, v in enumerate(grid)}
    ambient = len(grid)
    target = torus(m)
    out = []
    for x in grid:
        for steps in itertools.permutations(range(m)):
            lifts = [x]
            for j in steps:
                lifts.append(tuple(c + (k == j) for k, c in enumerate(lifts[-1])))
            ids = [number[tuple(c % n for c in v)] for v in lifts]
            poly = Polytope.from_points(ambient, [[int(k == i) for k in range(ambient)]
                                                  for i in ids])
            a = [[Fraction(0)] * ambient for _ in range(m)]
            for i, v in zip(ids, lifts):
                for r in range(m):
                    a[r][i] = Fraction(v[r], n)
            cmap = CellMap(target, a, [()] * m, [0] * m)
            # the grid vertex at each of the polytope's sorted vertices
            at = [vertex.index(1) for vertex in poly.vertices]
            faces = poly._fd.face_dims()
            tag = Tag.of_masks(poly.vertices, [
                (g, (("v", *sorted(at[b] for b in mask_bits(g))),)) for g in faces])
            _, _, root = _normal_form(Generator(Cell(poly, 0), cmap, tag))
            top = (1 << len(poly.vertices)) - 1
            out += [root if g == top else _face_form(root, g)[2] for g in faces]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("m", type=int, help="dimension of the torus")
    ap.add_argument("--grid", type=int, default=3, help="grid points per circle (at least 3)")
    args = ap.parse_args(argv)
    if args.m < 1 or args.grid < 3:
        ap.error("needs M >= 1 and a grid of at least 3")
    probes = [speed_probe() for _ in range(5)]
    start = time.perf_counter()
    gens = freudenthal_faces(args.m, args.grid)
    built = time.perf_counter()
    cx = ChainComplex(gens)
    indexed = time.perf_counter()
    betti = cx.betti()
    ranked = time.perf_counter()
    probes += [speed_probe() for _ in range(5)]
    probe = statistics.median(probes)
    classes = sum(len(items) for items in cx.basis.values())
    times = {"build": built - start, "ChainComplex": indexed - built, "betti": ranked - indexed}
    print(f"T^{args.m}, grid {args.grid}: {len(gens)} raw faces, {classes} classes")
    print(f"betti {betti}")
    print(", ".join(f"{name} {t:.2f} s" for name, t in times.items()))
    print(f"at reference speed (probe {probe * 1000:.2f} ms, reference "
          f"{PROBE_REFERENCE_S * 1000:.2f} ms): "
          + ", ".join(f"{name} {t * PROBE_REFERENCE_S / probe:.2f} s"
                      for name, t in times.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
