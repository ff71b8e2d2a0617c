"""Compact convex polytopes with exact rational vertices and their face lattices.

A polytope is stored by its vertex set (the extreme points, verified at
construction). Faces are identified by their sorted vertex tuples, so face keys
are stable across sub-polytope constructions and canonicalization. Facets come
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
polytope, and the hull of a point set the point set's facets restricted to
the extreme points.  A facet's outward vector is its functional read in the
direction space, scaled so that its last nonzero entry is +-1, so any
functional tight on the facet gives the same vector.

A point of the polytope has one tight-facet mask, a bitmask over the facets;
the minimal face holding some points is the meet of the facets tight on all
of them, so fibre-product face pairs (cells) are read off the kernel's tight
rows at each slice vertex.  No LP is solved.  A point is extreme when the
facets tight at it meet in that point alone.  Membership is the
H-representation, the affine hull's equations and the facet inequalities,
tested exactly.

The arithmetic inside is on integers.  Each vertex set keeps its vertices
over one common denominator, and its hull equations and facets as primitive
integer rows (a, b) with a . x <= b; membership, tight facets and the check
of each facet's functional are integer dot products with a point scaled to
integers.  section_vertices eliminates its equations once into an integer
kernel basis and an integer base point, and the double description runs on
integer rows and rays.  Fractions are made once, at the API: vertices,
facets' outward vectors, facet_inequalities, affine_hull_equations and
local_matrix, each entry built from an integer numerator and denominator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._linalg import (
    Mat,
    Vec,
    _eliminate,
    _primitive,
    _scaled,
    change_of_basis_det,
    frac,
    independent_subset,
    kernel_basis,
    mat,
    matvec,
    rref,
    solve,
    vadd,
    vec,
    vsub,
)

FaceKey = tuple[Vec, ...]  # sorted tuple of vertex coordinate tuples


class GeometryError(ValueError):
    """Raised for malformed polytopes, frames, or face queries."""


def face_key(vertices: Iterable[Iterable]) -> FaceKey:
    return tuple(sorted(vec(v) for v in vertices))


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

    Equations, when given, are solved once: x = X0 / D0 + sum y_i K_i over
    a primitive integer kernel basis K (without equations, X0 = 0, D0 = 1
    and K = I), so each inequality becomes an integer row g . y <= h over
    the q coordinates y.  The vertices are the extreme rays with t > 0 of
    the homogenised cone {(y, t) : g . y - h t <= 0, t >= 0}
    (_cone_vertices), and the ray (v, t) is the point with x_j = (X0_j t +
    D0 sum v_i K_ij) / (D0 t), one Fraction per coordinate.
    """
    if equations:
        e = mat(row for row, _ in equations)
        x0 = solve(e, vec(c for _, c in equations))
        if x0 is None:
            return []
        x0, d0 = _scaled(x0)
        basis = [_primitive(_scaled(k)[0]) for k in kernel_basis(e)]
    else:
        x0, d0 = [0] * n, 1
        basis = [[int(i == j) for j in range(n)] for i in range(n)]
    rows = []
    for f, d in inequalities:
        *g, h = _scaled(vec(f) + (frac(d),))[0]
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
    # Jordan reduction of [A | I] leaves row k as p_k (e_k | row k of A^{-1}).
    aug = [cone[i] + [int(j == k) for j in range(q + 1)] for k, i in enumerate(start)]
    _eliminate(aug)
    scale = lcm(*(row[k] for k, row in enumerate(aug)))
    initial = sum(1 << i for i in start)
    rays = [(_primitive([-row[q + 1 + j] * (scale // row[k]) for k, row in enumerate(aug)]),
             initial ^ (1 << i)) for j, i in enumerate(start)]
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
    poly = Polytope(n, [v for v, _ in found], _trusted=True)
    tight = [z for _, z in found]
    fd = poly._fd
    if fd._facets is None:
        row_of = {}
        for i in range(len(inequalities)):
            row_of.setdefault(sum(1 << k for k, z in enumerate(tight) if z >> i & 1), i)
        cuts = set(row_of) - {0, (1 << len(tight)) - 1}
        fd.set_facets([(m, vec(inequalities[row_of[m]][0])) for m in _maximal(cuts)])
    return poly, tight


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _maximal(masks: set) -> list[int]:
    """The masks not strictly contained in another of the set."""
    return [c for c in masks if not any(c != o and c & o == c for o in masks)]


@lru_cache(maxsize=4096)
def _face_data(ambient_dim: int, vertices: tuple[Vec, ...]):
    """Shared face computations keyed by the canonical vertex tuple."""
    return _FaceData(ambient_dim, vertices)


class _FaceData:
    """The vertex-facet incidence of one vertex set, and everything built on it.

    Facets are kept as int bitmasks over `vertices` beside `_facets`, each
    with a functional largest on it; faces, minimal faces and the
    H-representation are computed from them once.  The arithmetic runs on
    an integer view, built lazily: the vertices over one common denominator
    (lattice), the local-coordinate matrix over one denominator
    (local_ints), and the hull's equations and the facets as primitive
    integer rows (rows).  Fractions are made once, for what is handed out.
    The boundary data is lazy too: each facet's polytope and the sign of
    its frame, outward vector first, against dir_basis (facet_cells), the
    directions of the affine hull on its free coordinates
    (hull_directions), the point of the hull whose free coordinates are
    all 0 (hull_origin), and both over one common denominator (hull_chart).
    """

    def __init__(self, ambient_dim: int, vertices: tuple[Vec, ...]):
        self.ambient_dim = ambient_dim
        self.vertices = vertices
        v0 = vertices[0]
        diffs = [vsub(v, v0) for v in vertices[1:]]
        if diffs:
            red, pivots = rref(mat(diffs))
            self.dir_basis: Mat = tuple(red[i] for i in range(len(pivots)))
        else:
            self.dir_basis = ()
        self.dim = len(self.dir_basis)
        self._lattice: Optional[tuple] = None
        self._local_ints: Optional[tuple] = None
        self._local = None
        self._facets: Optional[list] = None
        self.facet_masks: list[int] = []
        self.functionals: list[Vec] = []
        self._local_functionals: list[list[int]] = []
        self._rows: Optional[tuple] = None
        self._row_scales: list[tuple[int, int]] = []
        self._faces_by_dim: Optional[dict] = None
        self._face_dims: Optional[dict] = None
        self.inequalities: Optional[list] = None
        self.equations: Optional[list] = None
        self._facet_cells: Optional[list] = None
        self._hull_directions: Optional[list] = None
        self._hull_origin: Optional[tuple] = None
        self._hull_chart: Optional[tuple] = None

    def key(self, mask: int) -> FaceKey:
        """The face key of a bitmask over the vertices."""
        return tuple(self.vertices[i] for i in mask_bits(mask))

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
        """(X, den): the vertices are X[k] / den, X[k] integer tuples."""
        if self._lattice is None:
            den = lcm(*(x.denominator for v in self.vertices for x in v))
            self._lattice = ([tuple(x.numerator * (den // x.denominator) for x in v)
                              for v in self.vertices], den)
        return self._lattice

    def _dir_ints(self) -> tuple[list[list[int]], int]:
        """(B, den): dir_basis is B / den, B an integer matrix."""
        den = lcm(*(x.denominator for row in self.dir_basis for x in row))
        return [[x.numerator * (den // x.denominator) for x in row]
                for row in self.dir_basis], den

    def local_ints(self) -> tuple[list[list[int]], int]:
        """(L, m): L / m takes w in the direction space to its coordinates in dir_basis.

        L / m = (D D^T)^{-1} D for D = dir_basis = B / den, that is den
        (B B^T)^{-1} B; a Jordan reduction of [B B^T | B] leaves row k as
        p_k (e_k | row k of (B B^T)^{-1} B).
        """
        if self._local_ints is None:
            b, den = self._dir_ints()
            q = len(b)
            aug = [[_idot(r1, r2) for r2 in b] + r1 for r1 in b]
            _eliminate(aug)
            m = lcm(*(row[k] for k, row in enumerate(aug)))
            self._local_ints = ([[x * den * (m // row[k]) for x in row[q:]]
                                 for k, row in enumerate(aug)], m)
        return self._local_ints

    def rows(self) -> tuple[list[tuple[list[int], int]], list[tuple[list[int], int]]]:
        """The hull's equations and the facets as primitive integer rows (a, b).

        a . x = b holds on the affine hull for each equation, and a . x <= b
        on the vertex set for each facet, with equality exactly on its
        vertices (GeometryError "facet functional mismatch" otherwise).  A
        facet's row is the positive multiple of its ambient functional
        L^T u / |u_last| (u its functional in local coordinates, set_facets);
        _row_scales keeps (g, h) with that functional a g / h and its bound
        b g / h.
        """
        if self._rows is None:
            self.facets()
            equations = [(a, b) for *a, b in
                         (_primitive(_scaled(e + (c,))[0]) for e, c in self.hull_equations())]
            xs, den = self.lattice()
            lint, m = self.local_ints()
            facets, scales = [], []
            for u, mask in zip(self._local_functionals, self.facet_masks):
                w = [sum(c * row[j] for c, row in zip(u, lint)) for j in range(self.ambient_dim)]
                values = [_idot(w, x) for x in xs]
                top = max(values)
                if sum(1 << k for k, value in enumerate(values) if value == top) != mask:
                    raise GeometryError("facet functional mismatch")
                g = gcd(*(x * den for x in w), top)
                facets.append(([x * den // g for x in w], top // g))
                scales.append((g, den * m * abs(next(x for x in reversed(u) if x))))
            self._row_scales = scales
            self._rows = (equations, facets)
        return self._rows

    def hull_equations(self) -> list[tuple[Vec, Fraction]]:
        """Pairs (e, c) with e . x = c on the vertex set, spanning the hull's equations."""
        if self.equations is None:
            d, n = self.dir_basis, self.ambient_dim
            if len(d) == n:
                eqs = []
            elif not d:
                eqs = [tuple(Fraction(1 if j == i else 0) for j in range(n)) for i in range(n)]
            else:
                eqs = list(kernel_basis(mat(d)))
            v0 = self.vertices[0]
            self.equations = [(e, sum(a * b for a, b in zip(e, v0))) for e in eqs]
        return self.equations

    def hull_directions(self) -> list[tuple[int, tuple[tuple[int, Fraction], ...]]]:
        """(c, w_c) for each free coordinate c of the rref of the hull's equations.

        w_c is the direction of the affine hull with free coordinates e_c,
        as sparse (index, coefficient) pairs: 1 at c, -red[k][c] at the
        k-th pivot.
        """
        if self._hull_directions is None:
            eqs = [e for e, _ in self.hull_equations()]
            red, piv = rref(mat(eqs)) if eqs else ((), ())
            self._hull_directions = [
                (c, ((c, Fraction(1)),) + tuple((p, -row[c]) for row, p in zip(red, piv)
                                                if row[c]))
                for c in range(self.ambient_dim) if c not in piv]
        return self._hull_directions

    def hull_origin(self) -> tuple[tuple[int, Fraction], ...]:
        """The point p0 = v0 - sum_c v0_c w_c of the affine hull, w_c from hull_directions.

        Its free coordinates are all 0, so it is kept sparse, as the
        (index, value) pairs of its nonzero coordinates, all pivots of the
        hull's equations: empty for a full-dimensional vertex set, the
        vertex itself for a point.
        """
        if self._hull_origin is None:
            v0 = self.vertices[0]
            p0 = list(v0)
            for c, w in self.hull_directions():
                if v0[c]:
                    for j, x in w:
                        p0[j] -= v0[c] * x
            self._hull_origin = tuple((j, x) for j, x in enumerate(p0) if x)
        return self._hull_origin

    def hull_chart(self) -> tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...],
                                  tuple[tuple[int, int], ...]]:
        """(den, directions, origin): hull_directions() and hull_origin() times
        their denominators' lcm den, as sparse (index, integer) pairs."""
        if self._hull_chart is None:
            dirs, origin = self.hull_directions(), self.hull_origin()
            den = lcm(*(x.denominator for _, w in dirs for _, x in w),
                      *(x.denominator for _, x in origin))
            self._hull_chart = (den, tuple((c, tuple((j, int(x * den)) for j, x in w))
                                           for c, w in dirs),
                                tuple((j, int(x * den)) for j, x in origin))
        return self._hull_chart

    # -- affine-hull coordinates --------------------------------------------

    def local_matrix(self) -> Mat:
        """Matrix L with L(w) = coordinates of w in dir_basis, for w in the span."""
        if self._local is None:
            lint, m = self.local_ints()
            self._local = tuple(tuple(Fraction(x, m) for x in row) for row in lint)
        return self._local

    def local_coords(self, point: Vec) -> Vec:
        return matvec(self.local_matrix(), vsub(point, self.vertices[0]))

    # -- facets --------------------------------------------------------------

    def facets(self) -> list[tuple[FaceKey, Vec]]:
        """(face_key, outward vector in the direction space) for every facet.

        Unless inherited (set_facets), the facets are enumerated cold: with
        r_i = N p_i - sum p over the N vertices in local coordinates, they
        are the vertices a of the polar {a : a . r_i <= 1}, each tight on its
        facet's vertices, and a read back through the local coordinates is
        the facet's functional.  The r_i are taken times a positive integer,
        which scales the polar and leaves the functionals' directions as
        they are.
        """
        if self._facets is None:
            entries = []
            if self.dim > 0:
                lint, _ = self.local_ints()
                xs, _ = self.lattice()
                total = [sum(col) for col in zip(*xs)]
                n = len(xs)
                rows = [[sum(l * (n * x - t) for l, x, t in zip(row, v, total))
                         for row in lint] + [-1] for v in xs]
                for y, _, mask in _cone_vertices(self.dim, rows):
                    entries.append((mask, tuple(sum(c * row[j] for c, row in zip(y, lint))
                                                for j in range(self.ambient_dim))))
            self.set_facets(entries)
        return self._facets

    def set_facets(self, entries: Iterable[tuple[int, Vec]]) -> None:
        """Take the facets from (vertex bitmask, functional) pairs.

        A functional f, largest on its facet, reads u = D f in the local
        coordinates over dir_basis D; the outward vector is u scaled so that
        its last nonzero entry is +-1, pulled back through D.  Every
        functional tight on the facet gives the same vector, and so does any
        positive multiple of D and f: both are taken as integers, and u is
        kept for rows().
        """
        d, den = self._dir_ints()
        out = []
        for mask, f in entries:
            f_int = _scaled(f)[0]
            u = [_idot(row, f_int) for row in d]
            scale = abs(next(x for x in reversed(u) if x)) * den
            amb = tuple(Fraction(sum(x * row[j] for x, row in zip(u, d)), scale)
                        for j in range(self.ambient_dim))
            out.append((self.key(mask), amb, mask, f, u))
        out.sort(key=lambda entry: entry[0])
        self.facet_masks = [entry[2] for entry in out]
        self.functionals = [entry[3] for entry in out]
        self._local_functionals = [entry[4] for entry in out]
        self._facets = [(key, amb) for key, amb, *_ in out]

    def face(self, mask: int) -> "Polytope":
        """The face with this vertex bitmask, its facets inherited from ours."""
        face = Polytope(self.ambient_dim, self.key(mask), _trusted=True)
        sub = face._fd
        if sub._facets is None:
            sub.inherit_face(self, mask)
        return face

    def facet_cells(self) -> list[tuple["Polytope", int]]:
        """(facet polytope, sign) for each facet, in facets() order.

        The sign is that of the change of basis from (outward vector,
        facet's dir_basis) to dir_basis: the facet's orientation, outward
        normal first, against this vertex set's.
        """
        if self._facet_cells is None:
            cells = []
            for (_, outward), mask in zip(self.facets(), self.facet_masks):
                face = self.face(mask)
                d = change_of_basis_det((outward,) + face.dir_basis, self.dir_basis)
                cells.append((face, 1 if d > 0 else -1))
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
        """All nonempty faces, the polytope itself included, grouped by dimension.

        The facets of a face G are the inclusion-maximal nonempty sets G & F
        other than G, over the facets F of the polytope.  Each face's vertex
        bitmask and dimension go to `face_dims`, in the same order as the keys.
        """
        if self._faces_by_dim is None:
            self.facets()
            level = {(1 << len(self.vertices)) - 1}
            levels = {}
            for k in range(self.dim, -1, -1):
                levels[k] = sorted((self.key(g), g) for g in level)
                below = set()
                for g in level:
                    below.update(_maximal({g & f for f in self.facet_masks} - {g, 0}))
                level = below
            self._face_dims = {g: k for k in sorted(levels) for _, g in levels[k]}
            self._faces_by_dim = {k: [key for key, _ in levels[k]] for k in sorted(levels)}
        return self._faces_by_dim

    def face_dims(self) -> dict[int, int]:
        """Vertex bitmask -> dimension of every nonempty face, in faces_by_dim's order."""
        self.faces_by_dim()
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

    def __init__(self, ambient_dim: int, vertices: Iterable[Iterable], _trusted: bool = False):
        vs = _checked_points(ambient_dim, vertices, "vertex")
        if len(set(vs)) != len(vs):
            raise GeometryError("duplicate vertices")
        if not _trusted:
            extreme = set(_hull_face_data(ambient_dim, vs).vertices)
            for v in vs:
                if v not in extreme:
                    raise GeometryError(f"vertex {v} is not an extreme point")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vertices", vs)

    @staticmethod
    def from_points(ambient_dim: int, points: Iterable[Iterable]) -> "Polytope":
        pts = _checked_points(ambient_dim, points, "point")
        fd = _hull_face_data(ambient_dim, tuple(dict.fromkeys(pts)))
        poly = Polytope(ambient_dim, fd.vertices, _trusted=True)
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

    def local_coords(self, point: Sequence) -> Vec:
        return self._fd.local_coords(vec(point))

    def barycenter(self) -> Vec:
        n = len(self.vertices)
        return tuple(sum(v[j] for v in self.vertices) / n for j in range(self.ambient_dim))

    # -- faces ---------------------------------------------------------------

    def facets(self) -> list[tuple[FaceKey, Vec]]:
        return self._fd.facets()

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
        coordinates, so it lies in the direction space; f and c are made
        from the facet's integer row, one Fraction per entry.
        """
        fd = self._fd
        if fd.inequalities is None:
            _, rows = fd.rows()
            fd.inequalities = [(tuple(Fraction(x * g, h) for x in a), Fraction(b * g, h), key)
                               for (a, b), (g, h), (key, _)
                               in zip(rows, fd._row_scales, fd.facets())]
        return fd.inequalities

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(keys) for d, keys in self.faces().items())


def _checked_points(ambient_dim: int, points: Iterable[Iterable], what: str) -> tuple[Vec, ...]:
    """The points sorted, checked to be nonempty and of length ambient_dim."""
    pts = face_key(points)
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
    extreme points.
    """
    fd = _face_data(ambient_dim, points)
    fd.facets()
    kept = 0
    for i in range(len(points)):
        tight = sum(1 << j for j, mask in enumerate(fd.facet_masks) if mask >> i & 1)
        if fd.meet(tight) == 1 << i:
            kept |= 1 << i
    if kept == (1 << len(points)) - 1:
        return fd
    hull = _face_data(ambient_dim, fd.key(kept))
    if hull._facets is None:
        hull.set_facets([(compress_mask(mask, kept), f)
                         for mask, f in zip(fd.facet_masks, fd.functionals)])
    return hull


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
    lams = [solve(cols, vsub(v, v0)) for v in verts1]
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


def standard_simplex(k: int) -> Polytope:
    """Delta_k in R^(k+1): convex hull of the standard basis vectors."""
    verts = [[1 if j == i else 0 for j in range(k + 1)] for i in range(k + 1)]
    return Polytope(k + 1, verts, _trusted=True)


def octahedron() -> Polytope:
    verts = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    return Polytope(3, verts, _trusted=True)


POINT_POLYTOPE = Polytope.from_points(0, [[]])
