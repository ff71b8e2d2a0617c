"""Compact convex polytopes with exact rational vertices and their face lattices.

A polytope is stored by its vertex set (the extreme points, verified at
construction). Faces are identified by their sorted vertex tuples, so face keys
are stable across sub-polytope constructions and canonicalization; each is a
VertexTuple, which hashes its Fractions once. Facets come
with outward vectors in the direction space of the affine hull; the
H-representation, minimal faces, corner types and the affine isomorphisms
between vertex sets are built on them. Orientations, boundaries and the corner
involution live on cells (see cells and chains); the per-polytope part of the
boundary, each facet's polytope and its sign with the outward normal first,
is kept with the face data.

One kernel, section_vertices, enumerates the vertices of {e . x = c, f . x <= d}
by the double description method on integer rows, each with the bitmask of
the inequalities tight at it.  Each vertex set keeps one vertex-facet
incidence: the vertices of every facet as an int bitmask, and one functional
f per facet with f . x largest on the facet.  Every face is an intersection of
facets, so the face lattice, minimal faces and the H-representation are read
off those masks; face keys are built only when a face is handed out.  The
layers above (tags, fibre-product face pairs, orbits) keep faces as vertex
bitmasks too, moved between vertex sets by compress_mask and move_mask.

The incidence is enumerated cold, as the vertices of the polar of the vertex
set about its barycenter, only for a root point set: one that no known
polytope produced.  Everything else inherits it from the incidence that
produced it: a section (a fibre-product slice in cells, a fixed-locus cut in
orbifold) has as facets the largest proper sets of its vertices tight on one
row, a face G the largest proper sets G & F over the facets F of its
polytope (and G's face lattice is its polytope's faces inside G), the
hull of a point set the point set's facets restricted to the extreme points,
and a product P1 x P2 (product_polytope) the facets F x P2 and P1 x G, its
faces being the F1 x F2.
A facet's outward vector is its functional read in the direction space,
scaled so that its last nonzero entry is +-1, so any functional tight on the
facet gives the same vector.

A point of the polytope has one tight-facet mask, a bitmask over the facets;
the minimal face holding some points is the meet of the facets tight on all
of them, so the face pairs of a cut fibre-product slice (cells) are read off
the kernel's tight rows at each slice vertex, and those of a product
F1 x F2 are (F1, F2).  No LP is solved.  A point is extreme when the
facets tight at it meet in that point alone.  Membership is the
H-representation, the affine hull's equations and the facet inequalities,
tested exactly.

The arithmetic inside is on integers.  Each vertex set keeps its vertices
over one common denominator and its direction space as an integer RREF
basis over one denominator, both built at construction, and its hull
equations and facets as primitive integer rows (a, b) with a . x <= b;
membership, tight facets, the facets' orientation signs and the check of
each facet's functional are integer dot products and determinants.  Every
Jordan reduction is _linalg._rref_over, and a direction is read in one
internal chart, its entries at dir_pivots: the orientation signs, the cold
facet enumeration and rows() read it, and the orthogonal chart (local_ints)
serves only the public Fraction views local_matrix and facet_inequalities.
section_vertices eliminates its equations once into an integer kernel
basis and an integer base point, and the double description runs on
integer rows and rays; it takes integer rows as they stand, and the slices
in cells and the fixed-locus cuts in orbifold pass it their polytopes'
rows().  Fractions are made at the API, each entry from an integer
numerator and denominator, and only when asked for: the vertices once, the
Fraction dir_basis and the facets' keys and outward vectors once on first
request (a boundary reads neither), and the Fraction H-representation and
the face keys each time they are asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._linalg import (
    Mat,
    Vec,
    _column,
    _eliminate,
    _fraction_row,
    _kernel_ints,
    _primitive,
    _rref_over,
    _scaled,
    _scaled_exact,
    det_sign,
    frac,
    independent_subset,
    mat,
    solve,
    solve_columns,
    vadd,
    vec,
    vsub,
)

FaceKey = tuple[Vec, ...]  # sorted tuple of vertex coordinate tuples


class GeometryError(ValueError):
    """Raised for malformed polytopes, frames, or face queries."""


class VertexTuple(tuple):
    """A tuple of vertices that hashes once and otherwise acts as the plain
    tuple: the _face_data cache and the normal-form keys of chains hash
    every vertex tuple that face data makes on each lookup."""

    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = tuple.__hash__(self)
        return h


def face_key(vertices: Iterable[Iterable]) -> FaceKey:
    return VertexTuple(sorted(vec(v) for v in vertices))


# A face is a bitmask over its polytope's sorted vertices.  A face G of a
# face F has its sorted vertices as a subsequence of F's, so packing G's
# bits at F's set bits gives G's mask over F's own vertices.

def mask_bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def compress_mask(mask: int, within: int) -> int:
    """The bits of mask at the set bits of within, packed in order."""
    return sum(1 << k for k, i in enumerate(mask_bits(within)) if mask >> i & 1)


def move_mask(mask: int, table: Sequence[int]) -> int:
    """Image of a vertex bitmask under the vertex map i -> table[i]."""
    return sum(1 << table[i] for i in mask_bits(mask))


def section_vertices(n: int, equations: Sequence[tuple[Vec, Fraction]],
                     inequalities: Sequence[tuple[Vec, Fraction]]) -> list[tuple[Vec, int]]:
    """Vertices of the set {x in R^n : e . x = c, f . x <= d}, each with the
    bitmask of the inequalities tight at it.

    Each row (e, c) or (f, d) is read as one integer row: integer entries
    as they stand, a row with rational ones times the lcm of its
    denominators (_scaled_exact), which changes no solution.  The equations
    are solved once: x = X0 / D0 + sum y_i K_i over a primitive integer
    kernel basis K, so each inequality becomes an integer row g . y <= h
    over the q coordinates y.  X0, D0 and K come from one reduction of the
    integer rows [E | c] over D0 (_rref_over), with no solution when a
    pivot lies in the c column: X0 / D0 is the solution with free
    coordinates 0 (_column), and K has one vector per free column
    (_kernel_ints).  With no equations there is no pivot: X0 = 0, D0 = 1
    and K = I.  The vertices are the extreme rays with t > 0 of the
    homogenised cone {(y, t) : g . y - h t <= 0, t >= 0} (_cone_vertices),
    and the ray (v, t) is the point with x_j = (X0_j t + D0 sum v_i K_ij) /
    (D0 t), one Fraction per coordinate.
    """
    r, pivots, d0 = _rref_over(_scaled_exact([*row, c])[0] for row, c in equations)
    if pivots and pivots[-1] == n:
        return []
    x0 = _column(r, pivots, n, n)
    basis = [_primitive(k) for k in _kernel_ints(r, pivots, d0, n)]
    rows = []
    for f, d in inequalities:
        *g, h = _scaled_exact([*f, d])[0]
        rows.append([d0 * _idot(g, k) for k in basis] + [_idot(g, x0) - h * d0])
    return [(tuple(Fraction(x * t + d0 * sum(a * k[j] for a, k in zip(v, basis)), d0 * t)
                   for j, x in enumerate(x0)), z)
            for v, t, z in _cone_vertices(len(basis), rows)]


def _cone_vertices(q: int, rows: Sequence[list[int]]) -> list[tuple[list[int], int, int]]:
    """The extreme rays (v, t) with t > 0 of {(y, t) in R^(q+1) : r . (y, t) <= 0
    for the integer rows r, t >= 0}, as (v, t, bitmask of the rows tight on it).

    The double description method on primitive integer rows and rays.  The
    cone of q + 1 independent rows is spanned by the columns of -A^{-1}.
    Each further row keeps the rays on its side and joins every adjacent
    pair of rays across it: two rays are adjacent when at least q - 1 rows
    are tight on both and no third ray is tight on all of those.  When the
    rows have rank < q + 1 the set {t = 1} of the cone has no vertex, and []
    is returned.  A ray's mask is exact: a row is tight on a positive
    combination of two rays that satisfy it only when it is tight on both.
    """
    cone = [_primitive(list(row)) for row in rows] + [[0] * q + [-1]]
    start = _eliminate([list(col) for col in zip(*cone)], jordan=False)
    if len(start) < q + 1:
        return []
    # the reduction of [A | I] over d is d (I | A^{-1})
    inv, _, _ = _rref_over(cone[i] + [int(j == k) for j in range(q + 1)]
                           for k, i in enumerate(start))
    initial = sum(1 << i for i in start)
    rays = [(_primitive([-row[q + 1 + j] for row in inv]), initial ^ (1 << i))
            for j, i in enumerate(start)]
    for i, row in enumerate(cone):
        bit = 1 << i
        if initial & bit:
            continue
        sides = [sum(a * b for a, b in zip(row, v)) for v, _ in rays]
        kept = [(v, z | bit if s == 0 else z) for (v, z), s in zip(rays, sides) if s <= 0]
        plus = [(r, s) for r, s in zip(rays, sides) if s > 0]
        minus = [(r, s) for r, s in zip(rays, sides) if s < 0]
        for ra, sa in plus:
            for rb, sb in minus:
                z = ra[1] & rb[1]
                if z.bit_count() >= q - 1 and not any(
                        r[1] & z == z for r in rays if r is not ra and r is not rb):
                    kept.append((_primitive([sa * x - sb * y for x, y in zip(rb[0], ra[0])]),
                                 z | bit))
        rays = kept
    rows_mask = (1 << len(rows)) - 1
    return [(v[:q], v[q], z & rows_mask) for v, z in rays if v[q] > 0]


def section_polytope(n: int, equations: Sequence[tuple[Vec, Fraction]],
                     inequalities: Sequence[tuple[Vec, Fraction]]
                     ) -> Optional[tuple["Polytope", list[int]]]:
    """The polytope {e . x = c, f . x <= d} and the inequalities tight at each
    of its vertices, in vertex order; None when the set is empty.

    Its facets are the largest proper sets of vertices tight on one row, and
    that row's f is the facet's functional: no polar enumeration runs.
    """
    found = sorted(section_vertices(n, equations, inequalities))
    if not found:
        return None
    # the vertices are exact and distinct, and now sorted
    poly = Polytope._of_sorted(n, VertexTuple(v for v, _ in found))
    tight = [z for _, z in found]
    fd = poly._fd
    if fd._facets is None:
        row_of = {}
        for i in range(len(inequalities)):
            row_of.setdefault(sum(1 << k for k, z in enumerate(tight) if z >> i & 1), i)
        cuts = set(row_of) - {0, (1 << len(tight)) - 1}
        fd.set_facets([(m, vec(inequalities[row_of[m]][0])) for m in _maximal(cuts)])
    return poly, tight


def product_polytope(p1: "Polytope", p2: "Polytope"
                     ) -> tuple["Polytope", dict[int, tuple[int, int]]]:
    """P1 x P2 and its face pairs, each face's vertex bitmask -> the masks
    (F1, F2) of its factor faces, in face_dims order: read off the factors'
    face data with no double description.

    Vertex i1 |V2| + i2 is v1 + v2, so the vertices are sorted.  The facets
    are F x P2 with row (f, 0) and P1 x G with row (0, g).  The faces are the
    F1 x F2, of dimension d1 + d2, with mask spread(F1) * F2, spread(F1) the
    sum of 1 << i |V2| over the set bits i of F1; the face pair of F1 x F2 is
    (F1, F2), the minimal factor faces holding its vertices.
    """
    fd1, fd2 = p1._fd, p2._fd
    size2 = len(fd2.vertices)
    poly = Polytope._of_sorted(p1.ambient_dim + p2.ambient_dim,
                               VertexTuple(v1 + v2 for v1 in fd1.vertices for v2 in fd2.vertices))

    def spread(mask):
        return sum(1 << i * size2 for i in mask_bits(mask))

    fd = poly._fd
    if fd._facets is None:
        (_, rows1), (_, rows2) = fd1.rows(), fd2.rows()
        all1, all2 = spread((1 << len(fd1.vertices)) - 1), (1 << size2) - 1
        zero1, zero2 = (0,) * p1.ambient_dim, (0,) * p2.ambient_dim
        fd.set_facets([(spread(mask) * all2, (*f, *zero2))
                       for mask, (f, _) in zip(fd1.facet_masks, rows1)]
                      + [(all1 * mask, (*zero1, *g))
                         for mask, (g, _) in zip(fd2.facet_masks, rows2)])
    dims1, dims2 = fd1.face_dims(), fd2.face_dims()
    lifts = [(spread(g1), g1) for g1 in dims1]
    pairs = {lift * g2: (g1, g2) for lift, g1 in lifts for g2 in dims2}
    if fd._face_dims is None:
        # each face with its dimension and its set bits, the order of face_dims
        faces = sorted((dims1[g1] + dims2[g2], mask_bits(g), g)
                       for g, (g1, g2) in pairs.items())
        fd._face_dims = {g: k for k, _, g in faces}
    return poly, {g: pairs[g] for g in fd.face_dims()}


def _vertex_facets(fd: "_FaceData") -> list[int]:
    """Per vertex, the bitmask of the facets holding it."""
    return [sum(1 << j for j, mask in enumerate(fd.facet_masks) if mask >> i & 1)
            for i in range(len(fd.vertices))]


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _maximal(masks: set) -> list[int]:
    """The masks not strictly contained in another of the set."""
    return [c for c in masks if not any(c != o and c & o == c for o in masks)]


@lru_cache(maxsize=4096)
def _face_data(ambient_dim: int, vertices: tuple[Vec, ...]):
    """Shared face computations keyed by the canonical vertex tuple."""
    return _FaceData(ambient_dim, vertices)


class _FaceData:
    """The vertex-facet incidence of one vertex set, and everything built on it.

    Facets are kept as int bitmasks over `vertices` (facets(), the one
    entry that enumerates them; `_facets` is None until it has run or
    set_facets has given them), each with a functional largest on it;
    faces, minimal faces and the H-representation are computed from them
    once.  The arithmetic runs on an integer view.  Construction builds the
    vertices over one common denominator (lattice) and the direction space's
    RREF basis as integer rows over one denominator (_dir_ints), by one
    Jordan reduction of the primitive difference rows; the local-coordinate
    matrix over one denominator (local_ints) and the hull's equations and
    the facets as primitive integer rows (rows) are built when first asked
    for.  The Fraction views are built from these when asked for: dir_basis
    and the facets' face keys and outward vectors (keyed_facets) once, on
    first request, and the others on each request.  Directions are read in
    one chart, their entries at dir_pivots (frame_coords, _from_chart): the
    orientation signs, the cold facets and rows() read it; local_ints
    serves only local_matrix and Polytope.facet_inequalities.

    A face handed out by face(mask) reuses what its parent computed: its
    vertices are the parent's at the set bits, already sorted; its facets
    are the parent's cut down to it (inherit_face); and its face lattice
    is the parent's faces inside it, masks compressed, in the parent's
    order (a face's dimension and vertex tuple do not depend on the
    polytope it is read in).  Only a vertex set that no known polytope
    produced walks its lattice from the facet masks (face_dims).

    Two slots keep what this face data has already built: the polytope of
    each face handed out, by vertex bitmask (_faces, filled by face), and,
    for a point set, the face data of its hull (_hull, filled by
    _hull_face_data).  A second request returns the same object.

    The boundary data is lazy too: each facet's polytope and the sign of
    its frame, outward vector first, read in the chart on integer rows
    (facet_cells), with no key or outward vector built, and
    the affine hull on its free coordinates (hull_chart): its directions
    and the point whose free coordinates are all 0, as integers over one
    denominator, from one integer reduction of dir_basis from the right.
    """

    def __init__(self, ambient_dim: int, vertices: tuple[Vec, ...]):
        self.ambient_dim = ambient_dim
        self.vertices = vertices
        s = lcm(*(x.denominator for v in vertices for x in v))
        xs = [tuple(x.numerator * (s // x.denominator) for x in v) for v in vertices]
        self._lattice = (xs, s)
        # B = RREF times den, by one reduction of the primitive rows X_k - X_0
        b, pivots, den = _rref_over(_primitive([a - b for a, b in zip(x, xs[0])])
                                    for x in xs[1:])
        self._dir = (b, den)
        self._dir_basis: Optional[Mat] = None
        # dir_basis is in RREF: coordinate i of a direction is its entry at
        # the i-th pivot column
        self.dir_pivots: tuple[int, ...] = tuple(pivots)
        self.dim = len(pivots)
        self._local_ints: Optional[tuple] = None
        self._facets: Optional[list[int]] = None
        self._keyed: Optional[list] = None
        self.functionals: list[Vec] = []
        self._rows: Optional[tuple] = None
        self._face_dims: Optional[dict] = None
        self._facet_cells: Optional[list] = None
        self._faces: dict[int, Polytope] = {}
        self._hull: Optional[_FaceData] = None
        self._hull_chart: Optional[tuple] = None

    def key(self, mask: int) -> FaceKey:
        """The face key of a bitmask over the vertices."""
        return VertexTuple(self.vertices[i] for i in mask_bits(mask))

    def meet(self, facet_bits: int) -> int:
        """Vertex bitmask of the intersection of the facets in facet_bits."""
        self.facets()
        face = (1 << len(self.vertices)) - 1
        for i, mask in enumerate(self.facet_masks):
            if facet_bits >> i & 1:
                face &= mask
        return face

    # -- the integer view ------------------------------------------------------

    def lattice(self) -> tuple[list[tuple[int, ...]], int]:
        """(X, den): the vertices are X[k] / den, X[k] integer tuples; built
        at construction."""
        return self._lattice

    def _dir_ints(self) -> tuple[list[list[int]], int]:
        """(B, den): dir_basis is B / den, B an integer matrix, den the lcm of
        dir_basis's denominators; built at construction."""
        return self._dir

    @property
    def dir_basis(self) -> Mat:
        """The RREF basis of the direction space, B / den as Fractions, built
        on first read and kept."""
        if self._dir_basis is None:
            b, den = self._dir_ints()
            self._dir_basis = tuple(_fraction_row(row, den) for row in b)
        return self._dir_basis

    @property
    def facet_masks(self) -> Optional[list[int]]:
        """The facets as vertex bitmasks, in facets() order: the list facets()
        returns, None before it runs."""
        return self._facets

    def _local_functionals(self) -> list[list[int]]:
        """Each facet's functional f read in local coordinates, u = B f with f
        scaled to integers, in facets() order."""
        b = self._dir_ints()[0]
        return [[_idot(row, f) for row in b] for f in (_scaled(f)[0] for f in self.functionals)]

    def local_ints(self) -> tuple[list[list[int]], int]:
        """(L, m): L / m takes w in the direction space to its coordinates in dir_basis.

        L / m = (D D^T)^{-1} D for D = dir_basis = B / den, that is den
        (B B^T)^{-1} B; the reduction of [B B^T | B] over m is
        m (I | (B B^T)^{-1} B).  This orthogonal chart serves the public
        Fraction views alone (local_matrix, Polytope.facet_inequalities).
        """
        if self._local_ints is None:
            b, den = self._dir_ints()
            r, _, m = _rref_over([_idot(r1, r2) for r2 in b] + r1 for r1 in b)
            self._local_ints = ([[x * den for x in row[len(b):]] for row in r], m)
        return self._local_ints

    def rows(self) -> tuple[list[tuple[list[int], int]], list[tuple[list[int], int]]]:
        """The hull's equations and the facets as primitive integer rows (a, b).

        a . x = b holds on the affine hull for each equation, and a . x <= b
        on the vertex set for each facet, with equality exactly on its
        vertices (GeometryError "facet functional mismatch" otherwise).  The
        equations are the kernel of the integer dir_basis (_kernel_ints), and
        a facet's row reads u = B f, its functional f in the chart
        (_local_functionals), at dir_pivots (_from_chart).
        """
        if self._rows is None:
            self.facets()
            (xs, s), (b, den) = self.lattice(), self._dir_ints()
            equations = [(a, c) for *a, c in
                         (_primitive([s * x for x in k] + [_idot(k, xs[0])])
                          for k in _kernel_ints(b, self.dir_pivots, den, self.ambient_dim))]
            facets = []
            for u, mask in zip(self._local_functionals(), self.facet_masks):
                w = self._from_chart(u)
                values = [_idot(w, x) for x in xs]
                top = max(values)
                if sum(1 << k for k, value in enumerate(values) if value == top) != mask:
                    raise GeometryError("facet functional mismatch")
                *a, c = _primitive([s * x for x in w] + [top])
                facets.append((a, c))
            self._rows = (equations, facets)
        return self._rows

    def hull_equations(self) -> list[tuple[Vec, Fraction]]:
        """Pairs (e, c) with e . x = c on the vertex set, spanning the hull's equations:
        the kernel of the RREF dir_basis (_kernel_ints), one e per non-pivot
        coordinate.  Built on each call."""
        b, den = self._dir_ints()
        return [(e, sum(map(mul, e, self.vertices[0])))
                for e in (_fraction_row(k, den) for k in
                          _kernel_ints(b, self.dir_pivots, den, self.ambient_dim))]

    def hull_chart(self) -> tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...],
                                  tuple[tuple[int, int], ...]]:
        """(den, directions, origin): the affine hull on its free coordinates, over den.

        One reduction over q (_rref_over) of the integer dir_basis rows read
        right to left leaves a row q w_c for each free coordinate c (a
        right-most pivot of the direction space), w_c the direction of the
        hull whose free coordinates are e_c.  The origin is the point p0 = v0
        - sum_c v0_c w_c, whose free coordinates are all 0.  Over den = s q, s
        the vertices' common denominator (lattice), both are integers, kept
        as sparse (index, integer) pairs: w_c with c first and then its other
        nonzero entries in increasing order, p0 by its nonzero entries.
        """
        if self._hull_chart is None:
            n = self.ambient_dim
            rows, pivots, q = _rref_over(row[::-1] for row in self._dir_ints()[0])
            xs, s = self.lattice()
            x0 = xs[0]
            origin = [q * x for x in x0]
            dirs = []
            for row, p in zip(reversed(rows), reversed(pivots)):
                c = n - 1 - p
                w = row[::-1]
                for j, x in enumerate(w):
                    origin[j] -= x0[c] * x
                dirs.append((c, ((c, q * s),) + tuple((j, x * s) for j, x in enumerate(w)
                                                      if x and j != c)))
            self._hull_chart = (q * s, tuple(dirs),
                                tuple((j, x) for j, x in enumerate(origin) if x))
        return self._hull_chart

    # -- affine-hull coordinates --------------------------------------------

    def local_matrix(self) -> Mat:
        """L with L(w) = coordinates of w in dir_basis, w in the span; built on each call."""
        lint, m = self.local_ints()
        return tuple(tuple(Fraction(x, m) for x in row) for row in lint)

    # -- the chart of tangent vectors -----------------------------------------

    def frame_coords(self, v: Sequence) -> list:
        """Coordinates of a vector of dir(P) + R^s in the default frame: its
        entries at dir_pivots, then its torus entries as they stand."""
        return [v[p] for p in self.dir_pivots] + list(v[self.ambient_dim:])

    def _from_chart(self, y: Sequence[int]) -> list[int]:
        """The functional y at dir_pivots, 0 elsewhere: y read in the chart."""
        f = [0] * self.ambient_dim
        for c, p in zip(y, self.dir_pivots):
            f[p] = c
        return f

    def is_tangent(self, v: Sequence) -> bool:
        """Whether a vector of R^(n+s) lies in dir(P) + R^s: the dir_basis
        rows weighted by its entries at dir_pivots give back its first n."""
        x = self.frame_coords(v)
        return all(sum(c * row[j] for c, row in zip(x, self.dir_basis) if c) == v[j]
                   for j in range(self.ambient_dim))

    # -- facets --------------------------------------------------------------

    def facets(self) -> list[int]:
        """The facets' vertex bitmasks, the one entry that enumerates them.

        Unless inherited (set_facets), the facets are enumerated cold: with
        r_i = N p_i - sum p over the N vertices read in the chart (their
        entries at dir_pivots), they are the vertices a of the polar
        {a : a . r_i <= 1}, each tight on its facet's vertices, and a read
        back from the chart (_from_chart) is the facet's functional.  The
        r_i are taken times a positive integer, which scales the polar and
        leaves the functionals' directions as they are.
        """
        if self._facets is None:
            entries = []
            if self.dim > 0:
                xs, _ = self.lattice()
                total = [sum(col) for col in zip(*xs)]
                n = len(xs)
                rows = [[n * v[p] - total[p] for p in self.dir_pivots] + [-1] for v in xs]
                entries = [(mask, tuple(self._from_chart(y)))
                           for y, _, mask in _cone_vertices(self.dim, rows)]
            self.set_facets(entries)
        return self._facets

    def set_facets(self, entries: Iterable[tuple[int, Vec]]) -> None:
        """Take the facets from (vertex bitmask, functional) pairs, ordered by
        their vertices; their keys and outward vectors wait for keyed_facets."""
        out = sorted(entries, key=lambda entry: mask_bits(entry[0]))
        self.functionals = [f for _, f in out]
        self._facets = [mask for mask, _ in out]

    def keyed_facets(self) -> list[tuple[FaceKey, Vec]]:
        """(face_key, outward vector in the direction space) for every facet,
        in facets() order, built on first request and kept.

        A functional f, largest on its facet, reads u = D f in the local
        coordinates over dir_basis D; the outward vector is u scaled so that
        its last nonzero entry is +-1, pulled back through D.  Every
        functional tight on the facet gives the same vector, and so does any
        positive multiple of D and f: both are taken as integers.
        """
        if self._keyed is None:
            masks = self.facets()
            d, den = self._dir_ints()
            keyed = []
            for mask, u in zip(masks, self._local_functionals()):
                scale = abs(next(x for x in reversed(u) if x)) * den
                keyed.append((self.key(mask),
                              tuple(Fraction(sum(x * row[j] for x, row in zip(u, d)), scale)
                                    for j in range(self.ambient_dim))))
            self._keyed = keyed
        return self._keyed

    def face(self, mask: int) -> "Polytope":
        """The face with this vertex bitmask, its facets and lattice inherited from ours.

        Its vertices are ours at the set bits, already sorted and distinct.
        Its faces are ours inside it, in our order: by dimension, then by
        vertex tuple, which is the same tuple read in the face.  The face is
        built once and kept (_faces).
        """
        face = self._faces.get(mask)
        if face is None:
            face = Polytope._of_sorted(self.ambient_dim, self.key(mask))
            sub = face._fd
            if sub._facets is None:
                sub.inherit_face(self, mask)
            if sub._face_dims is None:
                sub._face_dims = {compress_mask(g, mask): k
                                  for g, k in self.face_dims().items() if not g & ~mask}
            self._faces[mask] = face
        return face

    def facet_cells(self) -> list[tuple["Polytope", int]]:
        """(facet polytope, sign) for each facet, in facets() order.

        The sign is det_sign of (outward vector, facet's dir_basis) read in
        the chart, untested: the facet's orientation, outward normal first,
        against this vertex set's.  It is taken on integer rows, u = B f
        (_local_functionals) and the facet's B at our pivots, positive
        multiples of those two.
        """
        if self._facet_cells is None:
            cells = []
            for mask, u in zip(self.facets(), self._local_functionals()):
                face = self.face(mask)
                rows = [u] + [[row[p] for p in self.dir_pivots] for row in face._fd._dir_ints()[0]]
                cells.append((face, det_sign((), rows, self.dim)))
            self._facet_cells = cells
        return self._facet_cells

    def inherit_face(self, parent: "_FaceData", face: int) -> None:
        """Take the facets of this face of parent, its vertex bitmask `face`.

        They are the largest proper sets face & F over the parent's facets F,
        with F's functional, compressed to this face's vertices.
        """
        functional = {}
        for mask, f in zip(parent.facet_masks, parent.functionals):
            functional.setdefault(face & mask, f)
        cuts = set(functional) - {face, 0}
        self.set_facets([(compress_mask(c, face), functional[c]) for c in _maximal(cuts)])

    def faces_by_dim(self) -> dict[int, list[FaceKey]]:
        """All nonempty faces, the polytope itself included, grouped by dimension,
        each dimension's keys in increasing order; built from face_dims on each call."""
        by_dim: dict[int, list[FaceKey]] = {}
        for g, k in self.face_dims().items():
            by_dim.setdefault(k, []).append(self.key(g))
        return by_dim

    def face_dims(self) -> dict[int, int]:
        """Vertex bitmask -> dimension of every nonempty face, by dimension, then key.

        Unless inherited (face), the lattice is walked down from the vertex
        set: the facets of a face G are the inclusion-maximal nonempty sets
        G & F other than G, over the facets F.  Masks are ordered by their
        set bits, which orders them as their keys: the vertices are sorted.
        """
        if self._face_dims is None:
            self.facets()
            level = {(1 << len(self.vertices)) - 1}
            levels = {}
            for k in range(self.dim, -1, -1):
                levels[k] = sorted(level, key=mask_bits)
                below = set()
                for g in level:
                    below.update(_maximal({g & f for f in self.facet_masks} - {g, 0}))
                level = below
            self._face_dims = {g: k for k in sorted(levels) for g in levels[k]}
        return self._face_dims


@dataclass(frozen=True)
class Polytope:
    """Convex hull of finitely many exact rational points, stored by extreme points.

    The constructor insists that the given vertices are exactly the extreme
    points; use from_points to hull an arbitrary finite point set.  Both
    read extremality off the vertex-facet incidence of the given points, and
    contains tests the H-representation; no LP is used.
    """

    ambient_dim: int
    vertices: tuple[Vec, ...]

    def __init__(self, ambient_dim: int, vertices: Iterable[Iterable]):
        pts = _checked_points(ambient_dim, vertices, "vertex")
        # sorted, so a repeated vertex follows its first copy
        if any(a == b for a, b in zip(pts, pts[1:])):
            raise GeometryError("duplicate vertices")
        vs = VertexTuple(pts)
        fd = _hull_face_data(ambient_dim, vs)
        if len(fd.vertices) != len(vs):
            extreme = set(fd.vertices)
            v = next(v for v in vs if v not in extreme)
            raise GeometryError(f"vertex {v} is not an extreme point")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "_face", fd)

    @classmethod
    def _of_sorted(cls, ambient_dim: int, vertices: VertexTuple) -> "Polytope":
        """The polytope on vertices already sorted, distinct, extreme and exact."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "ambient_dim", ambient_dim)
        object.__setattr__(poly, "vertices", vertices)
        return poly

    @staticmethod
    def from_points(ambient_dim: int, points: Iterable[Iterable]) -> "Polytope":
        pts = _checked_points(ambient_dim, points, "point")
        # sorted, so a repeated point follows its first copy
        fd = _hull_face_data(ambient_dim, VertexTuple(
            p for k, p in enumerate(pts) if not k or p != pts[k - 1]))
        poly = Polytope._of_sorted(ambient_dim, fd.vertices)
        object.__setattr__(poly, "_face", fd)
        return poly

    # -- cached shared data --------------------------------------------------

    @property
    def _fd(self) -> _FaceData:
        fd = self.__dict__.get("_face")
        if fd is None:
            fd = _face_data(self.ambient_dim, self.vertices)
            object.__setattr__(self, "_face", fd)
        return fd

    @property
    def dim(self) -> int:
        return self._fd.dim

    @property
    def dir_basis(self) -> Mat:
        """Canonical (RREF) basis of the direction space of the affine hull."""
        return self._fd.dir_basis

    def barycenter(self) -> Vec:
        n = len(self.vertices)
        return tuple(sum(v[j] for v in self.vertices) / n for j in range(self.ambient_dim))

    # -- faces ---------------------------------------------------------------

    def facets(self) -> list[tuple[FaceKey, Vec]]:
        """(face_key, outward vector in the direction space) for every facet."""
        return self._fd.keyed_facets()

    def faces(self) -> dict[int, list[FaceKey]]:
        return self._fd.faces_by_dim()

    def all_face_keys(self) -> list[FaceKey]:
        return [k for _, keys in sorted(self.faces().items()) for k in keys]

    def face_polytope(self, key: FaceKey) -> "Polytope":
        """The face with these vertices; GeometryError if they are not a face."""
        index = {v: i for i, v in enumerate(self.vertices)}
        bits = [index.get(vec(v)) for v in key]
        if None in bits or len(set(bits)) != len(bits):
            raise GeometryError("not a face of the polytope")
        return self.face_from_mask(sum(1 << i for i in bits))

    def face_from_mask(self, mask: int) -> "Polytope":
        """The face with this vertex bitmask, its facets inherited from ours.

        A nonempty vertex set is a face exactly when it is the meet of the
        facets containing it (the polytope itself when there are none).
        """
        fd = self._fd
        fd.facets()
        holders = sum(1 << j for j, f in enumerate(fd.facet_masks) if f & mask == mask)
        if not mask or fd.meet(holders) != mask:
            raise GeometryError("not a face of the polytope")
        return fd.face(mask)

    def tight_facets(self, point: Sequence) -> int:
        """Bitmask over facets() of the facets tight at a point of the polytope."""
        p, scale = _scaled(self._point(point))
        equations, facets = self._fd.rows()
        if any(_idot(a, p) != b * scale for a, b in equations):
            raise GeometryError("points not contained in the polytope")
        bits = 0
        for i, (a, b) in enumerate(facets):
            value = _idot(a, p) - b * scale
            if value > 0:
                raise GeometryError("points not contained in the polytope")
            if value == 0:
                bits |= 1 << i
        return bits

    def minimal_face_containing(self, points: Sequence[Vec]) -> FaceKey:
        """Smallest face containing every given point of the polytope.

        Computed as the intersection of the facets tight on all the points;
        the points must lie in the polytope.
        """
        bits = -1
        for p in [self._point(p) for p in points]:
            bits &= self.tight_facets(p)
        return self._fd.key(self._fd.meet(bits))

    def contains(self, point: Sequence) -> bool:
        p, scale = _scaled(self._point(point))
        equations, facets = self._fd.rows()
        return (all(_idot(a, p) == b * scale for a, b in equations)
                and all(_idot(a, p) <= b * scale for a, b in facets))

    def _point(self, point: Sequence) -> Vec:
        p = vec(point)
        if len(p) != self.ambient_dim:
            raise GeometryError("point dimension does not match ambient_dim")
        return p

    # -- H-representation ----------------------------------------------------

    def affine_hull_equations(self) -> list[tuple[Vec, Fraction]]:
        """Pairs (e, c) with e . x = c on the polytope, spanning the hull's equations."""
        return self._fd.hull_equations()

    def facet_inequalities(self) -> list[tuple[Vec, Fraction, FaceKey]]:
        """Triples (f, c, key): f . x <= c on the polytope, equality exactly on the facet.

        f is the facet's outward vector read back through the local
        coordinates (local_ints), so it lies in the direction space: L^T u /
        (m |u_last|) for u = B f the facet's functional in the chart.  It
        is built on integers and made into Fractions on each call.
        """
        fd = self._fd
        masks = fd.facets()
        (xs, s), (lint, m) = fd.lattice(), fd.local_ints()
        out = []
        for u, mask in zip(fd._local_functionals(), masks):
            w = [sum(c * row[j] for c, row in zip(u, lint)) for j in range(self.ambient_dim)]
            h = m * abs(next(x for x in reversed(u) if x))
            out.append((tuple(Fraction(x, h) for x in w),
                        Fraction(max(_idot(w, x) for x in xs), s * h), fd.key(mask)))
        return out

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(keys) for d, keys in self.faces().items())


def _checked_points(ambient_dim: int, points: Iterable[Iterable], what: str) -> list[Vec]:
    """The points sorted, checked to be nonempty and of length ambient_dim."""
    pts = sorted(vec(v) for v in points)
    if not pts:
        raise GeometryError(f"polytope needs at least one {what}")
    if any(len(p) != ambient_dim for p in pts):
        raise GeometryError("vertex dimension does not match ambient_dim")
    return pts


def _hull_face_data(ambient_dim: int, points: tuple[Vec, ...]) -> _FaceData:
    """Face data of the hull of distinct sorted points; its vertices are the
    extreme points, in their order.

    The points' own face data gives every facet of their hull with the
    points on it, by one polar double description.  A point is extreme
    exactly when the meet of the facets tight at it is that point alone: a
    vertex's minimal face is itself, and any other point's minimal face has
    dimension at least one and holds at least two of the points.  The hull
    has the same affine hull and facets, with the masks restricted to the
    extreme points.  The hull is found once per point set's face data and
    kept there (_hull).
    """
    fd = _face_data(ambient_dim, points)
    if fd._hull is None:
        fd.facets()
        kept = 0
        for i, tight in enumerate(_vertex_facets(fd)):
            if fd.meet(tight) == 1 << i:
                kept |= 1 << i
        hull = fd
        if kept != (1 << len(points)) - 1:
            hull = _face_data(ambient_dim, fd.key(kept))
            if hull._facets is None:
                hull.set_facets([(compress_mask(mask, kept), f)
                                 for mask, f in zip(fd.facet_masks, fd.functionals)])
        fd._hull = hull
    return fd._hull


def corner_type(p: Polytope, key: FaceKey) -> str:
    """'corner' if the face lies in exactly codim many facets, else 'g-corner'."""
    fp = p.face_polytope(key)
    codim = p.dim - fp.dim
    holders = sum(1 for fkey, _ in p.facets() if set(key) <= set(fkey))
    if codim == 0:
        return "corner"
    return "corner" if holders == codim else "g-corner"


def affine_isomorphisms(p1: Polytope, p2: Polytope) -> Iterator[tuple[dict, Callable]]:
    """Affine bijections of the vertex set of p1 onto that of p2.

    An affine map is fixed by the images of an affine basis of p1 (its first
    vertex and the vertices extending the span greedily), so the images are
    drawn from the permutations of p2's vertices.  Each choice carrying the
    vertices bijectively onto p2's yields (vertex map, linear part); the
    linear part sends direction vectors of p1 to those of p2.
    """
    verts1, verts2 = p1.vertices, p2.vertices
    if len(verts1) != len(verts2) or p1.dim != p2.dim:
        return
    v0 = verts1[0]
    diffs = [vsub(w, v0) for w in verts1[1:]]
    basis = [diffs[i] for i in independent_subset(diffs)]
    cols = mat(tuple(tuple(bv[r] for bv in basis) for r in range(p1.ambient_dim)))
    lams = solve_columns(cols, [vsub(v, v0) for v in verts1])
    vset2 = set(verts2)
    for images in itertools.permutations(verts2, len(basis) + 1):
        image, linear = _affine_extension(cols, lams, images, p2.ambient_dim)
        if set(image) == vset2:
            yield dict(zip(verts1, image)), linear


def _affine_extension(cols: Mat, lams: Sequence[Vec], images: Sequence[Vec], n: int):
    """The affine map sending the basis behind cols to images, in R^n.

    Returns the images of the points with basis coefficients lams, and the
    linear part as a function of direction vectors.
    """
    u0 = images[0]
    spans = [vsub(u, u0) for u in images[1:]]

    def push(lam):
        return tuple(sum((l * s[r] for l, s in zip(lam, spans)), Fraction(0))
                     for r in range(n))

    return [vadd(u0, push(lam)) for lam in lams], lambda w: push(solve(cols, tuple(w)))


# ---------------------------------------------------------------------------
# Stock shapes
# ---------------------------------------------------------------------------

def interval(a=0, b=1) -> Polytope:
    return Polytope(1, [[a], [b]])


def box(bounds: Sequence[tuple]) -> Polytope:
    """Axis box with the given (lo, hi) bounds per coordinate."""
    pts = itertools.product(*[(frac(lo), frac(hi)) for lo, hi in bounds])
    return Polytope.from_points(len(bounds), [list(p) for p in pts])


@lru_cache
def standard_simplex(k: int) -> Polytope:
    """Delta_k in R^(k+1): convex hull of the standard basis vectors, built once per k."""
    verts = [[1 if j == i else 0 for j in range(k + 1)] for i in range(k + 1)]
    return Polytope(k + 1, verts)


POINT_POLYTOPE = Polytope.from_points(0, [[]])
