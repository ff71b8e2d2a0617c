"""Seeded random instances for the identity check suites.

Every sampler draws from a caller-supplied random.Random, so one seed
reproduces the exact same cells, maps, and chains anywhere.  Coordinates are
small integers or simple fractions: the goal is many small exact cases, not
stress tests of the hull code.  Samplers with a side condition (a hull of the
requested dimension, a submersion over the target, a transverse overlap)
resample a bounded number of times and raise GenerationError when the budget
runs out, so a suite can never silently degrade into checking nothing.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Sequence

from ._linalg import mat, rank
from .bordism import BordismClass, PairingWitness
from .cells import (POINT, Cell, CellMap, Coorientation, Target, euclid,
                    fibre_product_cells, torus)
from .chains import Chain, Generator, SingularSimplex, Tag, TargetMap, numbered_tag
from .geometry import POINT_POLYTOPE, Polytope

MAX_TRIES = 200


class GenerationError(RuntimeError):
    """A sampler ran out of retries without meeting its side condition."""


def _fractions(rng: Random, count: int) -> list:
    return [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
            for _ in range(count)]


def _coefficient(rng: Random, ring: str = "Q") -> Fraction:
    num = rng.choice((1, -1)) * rng.randint(1, 3)
    if ring == "Z":
        return Fraction(num)
    return Fraction(num, rng.choice((1, 1, 2)))


def random_polytope(rng: Random, ambient: int, max_vertices: int = 6,
                    spread: int = 2, min_dim: int = 0) -> Polytope:
    """Convex hull of a few small integer points.

    Resamples until the hull reaches min_dim, so degenerate draws never leak
    out as silently lower-dimensional instances.
    """
    if ambient == 0:
        return POINT_POLYTOPE
    min_dim = min(min_dim, ambient)
    low = min_dim + 1
    for _ in range(MAX_TRIES):
        count = rng.randint(low, max(low, max_vertices))
        pts = [[rng.randint(-spread, spread) for _ in range(ambient)]
               for _ in range(count)]
        p = Polytope.from_points(ambient, pts)
        if p.dim >= min_dim:
            return p
    raise GenerationError("no polytope of the requested dimension in budget")


def random_cell(rng: Random, max_ambient: int = 3, max_torus: int = 1,
                max_vertices: int = 6, spread: int = 2) -> Cell:
    n = rng.randint(0, max_ambient)
    s = rng.randint(0, max_torus)
    p = random_polytope(rng, n, max_vertices, spread)
    return Cell(p, s, None, rng.choice((1, -1)))


def random_map(rng: Random, cell: Cell, target: Target,
               spread: int = 2) -> CellMap:
    """Affine map with a small integer linear part and simple offsets."""
    m = target.dim
    n = cell.polytope.ambient_dim
    s = cell.torus_rank
    a = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(m)]
    if target.is_torus:
        m_t = [[rng.randint(-spread, spread) for _ in range(s)]
               for _ in range(m)]
    else:
        m_t = [[0] * s for _ in range(m)]
    return CellMap(target, a, m_t, _fractions(rng, m))


def _invertible_matrix(rng: Random, m: int, spread: int = 2) -> list:
    if m == 0:
        return []
    for _ in range(MAX_TRIES):
        mm = [[rng.randint(-spread, spread) for _ in range(m)]
              for _ in range(m)]
        if rank(mat(mm)) == m:
            return mm
    raise GenerationError("no invertible matrix in budget")


# ---------------------------------------------------------------------------
# Chains for the double-boundary suite
# ---------------------------------------------------------------------------

_CHAIN_TARGETS = (POINT, euclid(1), torus(1), torus(2))


def random_generator(rng: Random, prefix, max_ambient: int = 4,
                     max_vertices: int = 10) -> Generator:
    """Oriented generator over a small target; dimension skews low."""
    pool = tuple(d for d in (0, 1, 1, 1, 2, 2, 2, 2, 3, 4) if d <= max_ambient)
    n = rng.choice(pool)
    cap = max_vertices if n < 3 else min(max_vertices, 5)
    p = random_polytope(rng, n, cap)
    cell = Cell(p, rng.randint(0, 1), None, rng.choice((1, -1)))
    target = rng.choice(_CHAIN_TARGETS)
    cmap = random_map(rng, cell, target)
    return Generator(cell, cmap, numbered_tag(p, prefix))


def random_chain(rng: Random, prefix="t", max_terms: int = 20,
                 max_ambient: int = 4, max_vertices: int = 10,
                 ring: str = "Q") -> Chain:
    terms = []
    for i in range(rng.randint(1, max_terms)):
        gen = random_generator(rng, (prefix, i), max_ambient, max_vertices)
        terms.append((_coefficient(rng, ring), gen))
    return Chain(terms, ring=ring)


# ---------------------------------------------------------------------------
# Fibre product instances
# ---------------------------------------------------------------------------

def submersive_cell(rng: Random, target: Target,
                    max_poly_dim: int = 2) -> tuple:
    """A cell and map restricting to a submersion on the cell's interior.

    Over a torus the map winds a dedicated circle factor; over a line the
    polytope is full-dimensional so any nonzero row is interior-submersive.
    """
    if target.dim == 0:
        cell = random_cell(rng, max_ambient=max_poly_dim, max_torus=1,
                           max_vertices=5)
        return cell, CellMap(POINT, (), (), ())
    if target.is_torus:
        n = rng.randint(0, max_poly_dim)
        p = random_polytope(rng, n, 5)
        cell = Cell(p, 1, None, rng.choice((1, -1)))
        a = [[rng.randint(-2, 2) for _ in range(n)]]
        m_t = [[rng.choice((1, -1, 2))]]
        return cell, CellMap(target, a, m_t, _fractions(rng, 1))
    n = rng.randint(1, max_poly_dim)
    p = random_polytope(rng, n, 5, min_dim=n)
    cell = Cell(p, 0, None, rng.choice((1, -1)))
    for _ in range(MAX_TRIES):
        row = [rng.randint(-2, 2) for _ in range(n)]
        if any(row):
            return cell, CellMap(target, [row], [[]], _fractions(rng, 1))
    raise GenerationError("no nonzero row in budget")


def fibre_instance(rng: Random, target: Target) -> tuple:
    """Two mapped cells whose fibre product is nonempty, transverse, and
    orientable."""
    for _ in range(MAX_TRIES):
        cell1, map1 = submersive_cell(rng, target)
        cell2, map2 = submersive_cell(rng, target)
        comps = fibre_product_cells(cell1, map1, cell2, map2)
        if comps and all(c.transverse and c.orientable for c in comps):
            return cell1, map1, cell2, map2
    raise GenerationError("no transverse overlap in budget")


def doubly_mapped_cell(rng: Random, target_a: Target,
                       target_b: Target) -> tuple:
    """One cell carrying two maps, each submersive over its own target.

    Torus targets get their own circle factor, line targets their own
    full-dimensional polytope direction, so the two maps stay independent.
    """
    torus_needs = [t.is_torus for t in (target_a, target_b)]
    s = sum(torus_needs)
    euclid_needs = [bool(t.dim) and not t.is_torus
                    for t in (target_a, target_b)]
    ne = sum(euclid_needs)
    n = ne + rng.randint(0, 1)
    p = random_polytope(rng, n, 5, min_dim=n)
    cell = Cell(p, s, None, rng.choice((1, -1)))
    maps = []
    si = 0
    ei = 0
    for t in (target_a, target_b):
        if t.dim == 0:
            maps.append(CellMap(POINT, (), (), ()))
        elif t.is_torus:
            a = [[rng.randint(-2, 2) for _ in range(n)]]
            m_t = [[rng.choice((1, -1)) if j == si else 0 for j in range(s)]]
            si += 1
            maps.append(CellMap(t, a, m_t, _fractions(rng, 1)))
        else:
            row = [0] * n
            row[ei] = rng.choice((1, -1))
            ei += 1
            maps.append(CellMap(t, [row], [[0] * s], _fractions(rng, 1)))
    return cell, maps[0], maps[1]


def associativity_instance(rng: Random, target1: Target,
                           target2: Target) -> tuple:
    cell1, map1 = submersive_cell(rng, target1)
    cell2, map2a, map2b = doubly_mapped_cell(rng, target1, target2)
    cell3, map3 = submersive_cell(rng, target2)
    return cell1, map1, cell2, map2a, map2b, cell3, map3


def interchange_instance(rng: Random, target1: Target,
                         target2: Target) -> tuple:
    cell1, map1a, map1b = doubly_mapped_cell(rng, target1, target2)
    cell2, map2 = submersive_cell(rng, target1)
    cell3, map3 = submersive_cell(rng, target2)
    return cell1, map1a, map1b, cell2, map2, cell3, map3


# ---------------------------------------------------------------------------
# Cochains and chains over a fixed torus target
# ---------------------------------------------------------------------------

def random_cover_cochain(rng: Random, y: Target, prefix,
                         max_terms: int = 2) -> Chain:
    """Grade-zero cochain: finite covers of the torus with invertible
    winding."""
    terms = []
    for i in range(rng.randint(1, max_terms)):
        m_t = _invertible_matrix(rng, y.dim)
        cmap = CellMap(y, [() for _ in range(y.dim)], m_t,
                       _fractions(rng, y.dim))
        cell = Cell(POINT_POLYTOPE, y.dim)
        gen = Generator(cell, cmap, Tag(POINT_POLYTOPE, {((),): ((prefix, i),)}),
                        coorientation=Coorientation((), rng.choice((1, -1))))
        terms.append((_coefficient(rng), gen))
    return Chain(terms)


def random_thick_cochain(rng: Random, y: Target, prefix, poly_dim: int = 1,
                         max_terms: int = 2) -> Chain:
    """Negative-grade cochain: a polytope crossed with the full torus."""
    terms = []
    for i in range(rng.randint(1, max_terms)):
        p = random_polytope(rng, poly_dim, 4, min_dim=poly_dim)
        cell = Cell(p, y.dim)
        a = [[rng.randint(-1, 1) for _ in range(poly_dim)]
             for _ in range(y.dim)]
        eye = [[1 if i2 == j else 0 for j in range(y.dim)]
               for i2 in range(y.dim)]
        cmap = CellMap(y, a, eye, _fractions(rng, y.dim))
        # cooriented by kernel_coorientation(cell, cmap), which the cell orients
        gen = Generator(cell, cmap, numbered_tag(p, (prefix, i)), is_cochain=True)
        terms.append((_coefficient(rng), gen))
    return Chain(terms)


def random_cochain(rng: Random, y: Target, prefix) -> Chain:
    """Homogeneous cochain over a torus target, grade zero or negative."""
    kind = rng.choice(("cover", "cover", "thick"))
    if kind == "cover":
        return random_cover_cochain(rng, y, prefix)
    return random_thick_cochain(rng, y, prefix,
                                poly_dim=rng.choice((1, 1, 2)))


def random_chain_over(rng: Random, y: Target, prefix,
                      max_terms: int = 2) -> Chain:
    """Homogeneous oriented chain over the torus target."""
    d = rng.choice((0, 0, 1))
    terms = []
    for i in range(rng.randint(1, max_terms)):
        p = random_polytope(rng, d, 4, min_dim=d)
        cell = Cell(p, y.dim, None, rng.choice((1, -1)))
        a = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(y.dim)]
        m_t = _invertible_matrix(rng, y.dim)
        cmap = CellMap(y, a, m_t, _fractions(rng, y.dim))
        terms.append((_coefficient(rng),
                      Generator(cell, cmap, numbered_tag(p, (prefix, i)))))
    return Chain(terms)


def random_target_map(rng: Random, source: Target,
                      target: Target) -> TargetMap:
    """Integer map of tori with full row rank, so pullbacks stay proper."""
    for _ in range(MAX_TRIES):
        mm = [[rng.randint(-2, 2) for _ in range(source.dim)]
              for _ in range(target.dim)]
        if target.dim == 0 or rank(mat(mm)) == target.dim:
            return TargetMap(source, target, mm, _fractions(rng, target.dim))
    raise GenerationError("no full-rank target map in budget")


# ---------------------------------------------------------------------------
# Singular chains
# ---------------------------------------------------------------------------

_SINGULAR_TARGETS = (euclid(1), euclid(2), torus(1))


def random_singular_terms(rng: Random, max_degree: int = 3,
                          max_terms: int = 3) -> list:
    """Affine simplices into a shared target, as coefficiented term lists."""
    target = rng.choice(_SINGULAR_TARGETS)
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, max_degree)
        matrix = [[rng.randint(-2, 2) for _ in range(k + 1)]
                  for _ in range(target.dim)]
        sx = SingularSimplex(k, target, matrix, _fractions(rng, target.dim))
        terms.append((_coefficient(rng), sx))
    return terms


# ---------------------------------------------------------------------------
# Closed bordism classes
# ---------------------------------------------------------------------------

def cycle_class(points: Sequence) -> BordismClass:
    """Closed loop of directed edges glued end to end over the point target.

    Each edge is its own chart carrying its direction as the frame; the shared
    endpoint identifications have opposite outward signs, so the loop is
    certified closed for any ordering of distinct points.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    k = len(pts)
    comps = []
    pairings = []
    for i in range(k):
        a, b = pts[i], pts[(i + 1) % k]
        poly = Polytope.from_points(len(a), [a, b])
        frame = (tuple(y - x for x, y in zip(a, b)),)
        comps.append((Cell(poly, 0, frame, 1), CellMap(POINT, (), (), ())))
        pairings.append(PairingWitness.shared(i, (i + 1) % k, [b]))
    return BordismClass(comps, tuple(pairings))


def random_cycle_class(rng: Random, max_edges: int = 6,
                       spread: int = 3) -> BordismClass:
    k = rng.randint(3, max_edges)
    grid = [(x, y) for x in range(-spread, spread + 1)
            for y in range(-spread, spread + 1)]
    return cycle_class(rng.sample(grid, k))
