"""Compact convex polytopes with exact rational vertices and their face lattices.

A polytope is stored by its vertex set (the extreme points, verified at
construction). Faces are identified by their sorted vertex tuples, so face keys
are stable across sub-polytope constructions and canonicalization. Facets come
with outward vectors in the direction space of the affine hull; the
H-representation, minimal faces, corner types and the affine isomorphisms
between vertex sets are built on them. Orientations, boundaries and the corner
involution live on cells (see cells and chains).

One kernel, section_vertices, enumerates the vertices of {e . x = c, f . x <= d}
by the double description method on integer rows.  Facets are the vertices of
the polar of the vertex set about its barycenter; fibre-product slices (cells)
and fixed-locus cuts (orbifold) are sections of a polytope's H-representation,
and the kernel's vertices are their extreme points.

Each vertex set keeps one vertex-facet incidence: the vertices of every facet
as an int bitmask.  Every face is an intersection of facets, so the face
lattice, minimal faces and the H-representation are read off those masks;
face keys are built only when a face is handed out.  A point of the polytope
has one tight-facet mask, a bitmask over the facets; the minimal face holding
some points is the meet of the facets tight on all of them, so fibre-product
face pairs (cells) are read off one tight-facet mask per slice vertex.

No LP is solved.  The extreme points of a point set are read off the
incidence of the point set itself: a point is extreme when the facets tight
at it meet in that point alone.  Membership is the H-representation, the
affine hull's equations and the facet inequalities, tested exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._linalg import (
    Mat,
    Vec,
    _eliminate,
    _primitive,
    _primitive_rows,
    dot,
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


def _sorted_vertices(vertices: Iterable[Iterable]) -> tuple[Vec, ...]:
    return tuple(sorted(vec(v) for v in vertices))


def face_key(vertices: Iterable[Iterable]) -> FaceKey:
    return _sorted_vertices(vertices)


def section_vertices(n: int, equations: Sequence[tuple[Vec, Fraction]],
                     inequalities: Sequence[tuple[Vec, Fraction]]) -> list[Vec]:
    """Vertices of the set {x in R^n : e . x = c, f . x <= d}.

    Equations, when given, are solved once: x = x0 + sum y_i k_i over a
    kernel basis k, so each inequality becomes a row g . y <= h over the q
    coordinates y.  The vertices are the extreme rays with t > 0 of the
    homogenised cone {(y, t) : g . y - h t <= 0, t >= 0}, scaled to t = 1,
    found by the double description method.  Rows and rays are primitive
    integer vectors; each ray carries the rows tight on it as an int
    bitmask.  The cone of q + 1 independent rows is spanned by the columns
    of -A^{-1}.  Each further row keeps the rays on its side and joins every
    adjacent pair of rays across it: two rays are adjacent when at least
    q - 1 rows are tight on both and no third ray is tight on all of those.
    When the rows have rank < q + 1 the set has no vertex, and [] is
    returned.
    """
    if equations:
        e = mat(row for row, _ in equations)
        x0 = solve(e, vec(c for _, c in equations))
        if x0 is None:
            return []
        basis = kernel_basis(e)
        rows = [(tuple(dot(f, k) for k in basis), frac(d) - dot(f, x0))
                for f, d in inequalities]
    else:
        basis = None
        rows = [(vec(f), frac(d)) for f, d in inequalities]
    q = n if basis is None else len(basis)
    cone = _primitive_rows([g + (-h,) for g, h in rows] + [(0,) * q + (-1,)])
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
    found = []
    for v, _ in rays:
        if v[q] > 0:
            y = [Fraction(a, v[q]) for a in v[:q]]
            found.append(tuple(y) if basis is None else tuple(
                x0[j] + sum(y[i] * basis[i][j] for i in range(q)) for j in range(n)))
    return found


@lru_cache(maxsize=4096)
def _face_data(ambient_dim: int, vertices: tuple[Vec, ...]):
    """Shared face computations keyed by the canonical vertex tuple."""
    return _FaceData(ambient_dim, vertices)


class _FaceData:
    """The vertex-facet incidence of one vertex set, and everything built on it.

    Facets are kept as int bitmasks over `vertices` beside `_facets`; faces,
    minimal faces and the H-representation are computed from them once.
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
        self._local = None
        self._facets: Optional[list] = None
        self.facet_masks: list[int] = []
        self._faces_by_dim: Optional[dict] = None
        self._face_dims: Optional[dict] = None
        self.inequalities: Optional[list] = None
        self.equations: Optional[list] = None

    def key(self, mask: int) -> FaceKey:
        """The face key of a bitmask over the vertices."""
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    def meet(self, facet_bits: int) -> int:
        """Vertex bitmask of the intersection of the facets in facet_bits."""
        self.facets()
        face = (1 << len(self.vertices)) - 1
        for i, mask in enumerate(self.facet_masks):
            if facet_bits >> i & 1:
                face &= mask
        return face

    # -- affine-hull coordinates --------------------------------------------

    def local_matrix(self) -> Mat:
        """Matrix L with L(w) = coordinates of w in dir_basis, for w in the span."""
        if self._local is None:
            d = self.dir_basis
            if not d:
                self._local = ()
            else:
                gram = mat([[sum(a * b for a, b in zip(r1, r2)) for r2 in d] for r1 in d])
                # L = Gram^{-1} D ; solve Gram * row_i = D_i for each row
                rows = []
                for i in range(len(d)):
                    e = vec([1 if j == i else 0 for j in range(len(d))])
                    rows.append(solve(gram, e))
                ginv = mat(rows)
                self._local = tuple(
                    tuple(sum(ginv[i][k] * d[k][j] for k in range(len(d)))
                          for j in range(self.ambient_dim))
                    for i in range(len(d)))
        return self._local

    def local_coords(self, point: Vec) -> Vec:
        return matvec(self.local_matrix(), vsub(point, self.vertices[0]))

    # -- facets --------------------------------------------------------------

    def facets(self) -> list[tuple[FaceKey, Vec]]:
        """(face_key, outward vector in the direction space) for every facet.

        With r_i = N p_i - sum p over the N vertices in local coordinates, the
        facets are the vertices a of the polar {a : a . r_i <= 1}, each tight
        on its facet's vertices.  The outward vector is a scaled so that its
        last nonzero entry is +-1, pulled back through dir_basis.  The
        facets' vertex bitmasks go to `facet_masks`, in the same order.
        """
        if self._facets is not None:
            return self._facets
        d = self.dim
        out = []
        if d > 0:
            pts = [self.local_coords(v) for v in self.vertices]
            n = len(pts)
            total = [sum(p[j] for p in pts) for j in range(d)]
            rs = [tuple(n * p[j] - total[j] for j in range(d)) for p in pts]
            for a in section_vertices(d, [], [(r, Fraction(1)) for r in rs]):
                mask = sum(1 << i for i, r in enumerate(rs) if dot(a, r) == 1)
                scale = abs(next(x for x in reversed(a) if x))
                outward = [x / scale for x in a]
                amb = tuple(sum(outward[i] * self.dir_basis[i][j] for i in range(d))
                            for j in range(self.ambient_dim))
                out.append((self.key(mask), amb, mask))
        out.sort()
        self.facet_masks = [mask for *_, mask in out]
        self._facets = [(key, amb) for key, amb, _ in out]
        return self._facets

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
                    cuts = {g & f for f in self.facet_masks} - {g, 0}
                    below.update(c for c in cuts
                                 if not any(c != o and c & o == c for o in cuts))
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
            extreme = set(_extreme_points(ambient_dim, vs))
            for v in vs:
                if v not in extreme:
                    raise GeometryError(f"vertex {v} is not an extreme point")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "vertices", vs)

    @staticmethod
    def from_points(ambient_dim: int, points: Iterable[Iterable]) -> "Polytope":
        pts = _checked_points(ambient_dim, points, "point")
        uniq = tuple(dict.fromkeys(pts))
        return Polytope(ambient_dim, _extreme_points(ambient_dim, uniq), _trusted=True)

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
        return Polytope(self.ambient_dim, key, _trusted=True)

    def tight_facets(self, point: Sequence) -> int:
        """Bitmask over facets() of the facets tight at a point of the polytope."""
        p = self._point(point)
        if any(dot(e, p) != c for e, c in self.affine_hull_equations()):
            raise GeometryError("points not contained in the polytope")
        bits = 0
        for i, (f, c, _) in enumerate(self.facet_inequalities()):
            value = dot(f, p)
            if value > c:
                raise GeometryError("points not contained in the polytope")
            if value == c:
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
        p = self._point(point)
        return (all(dot(e, p) == c for e, c in self.affine_hull_equations())
                and all(dot(f, p) <= c for f, c, _ in self.facet_inequalities()))

    def _point(self, point: Sequence) -> Vec:
        p = vec(point)
        if len(p) != self.ambient_dim:
            raise GeometryError("point dimension does not match ambient_dim")
        return p

    # -- H-representation ----------------------------------------------------

    def affine_hull_equations(self) -> list[tuple[Vec, Fraction]]:
        """Pairs (e, c) with e . x = c on the polytope, spanning the hull's equations."""
        fd = self._fd
        if fd.equations is None:
            d = self.dir_basis
            if len(d) == self.ambient_dim:
                eqs = []
            elif not d:
                eqs = [tuple(Fraction(1 if j == i else 0) for j in range(self.ambient_dim))
                       for i in range(self.ambient_dim)]
            else:
                eqs = list(kernel_basis(mat(d)))
            v0 = self.vertices[0]
            fd.equations = [(e, sum(a * b for a, b in zip(e, v0))) for e in eqs]
        return fd.equations

    def facet_inequalities(self) -> list[tuple[Vec, Fraction, FaceKey]]:
        """Triples (f, c, key): f . x <= c on the polytope, equality exactly on the facet."""
        fd = self._fd
        if fd.inequalities is None:
            out = []
            lm = fd.local_matrix()
            for key, outward in self.facets():
                # functional increasing in the outward direction
                local_out = matvec(lm, outward)
                f_amb = tuple(sum(local_out[i] * lm[i][j] for i in range(len(lm)))
                              for j in range(self.ambient_dim))
                c = max(sum(a * b for a, b in zip(f_amb, v)) for v in self.vertices)
                on_facet = [v for v in self.vertices
                            if sum(a * b for a, b in zip(f_amb, v)) == c]
                if tuple(sorted(on_facet)) != key:
                    raise GeometryError("facet functional mismatch")
                out.append((f_amb, c, key))
            fd.inequalities = out
        return fd.inequalities

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(keys) for d, keys in self.faces().items())


def _checked_points(ambient_dim: int, points: Iterable[Iterable], what: str) -> tuple[Vec, ...]:
    """The points sorted, checked to be nonempty and of length ambient_dim."""
    pts = _sorted_vertices(points)
    if not pts:
        raise GeometryError(f"polytope needs at least one {what}")
    if any(len(p) != ambient_dim for p in pts):
        raise GeometryError("vertex dimension does not match ambient_dim")
    return pts


def _extreme_points(ambient_dim: int, points: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """The extreme points among distinct sorted points, in their order.

    The points' own face data gives every facet of their hull with the
    points on it, by one polar double description.  A point is extreme
    exactly when the meet of the facets tight at it is that point alone: a
    vertex's minimal face is itself, and any other point's minimal face has
    dimension at least one and holds at least two of the points.
    """
    fd = _face_data(ambient_dim, points)
    fd.facets()
    extreme = []
    for i, p in enumerate(points):
        tight = sum(1 << j for j, mask in enumerate(fd.facet_masks) if mask >> i & 1)
        if fd.meet(tight) == 1 << i:
            extreme.append(p)
    return tuple(extreme)


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
