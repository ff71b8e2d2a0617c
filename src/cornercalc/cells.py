"""Cells: compact pieces of the form (convex polytope) x (flat torus), with maps.

A cell P x T^s is the geometric atom for chains and cochains. The polytope part
carries the faces and the boundary; the torus factor is closed, so a cell with a
point polytope part has empty boundary. Maps into a target send (p, t) to
A p + M t + b, with M integral so the map descends to the torus factor.  Over
a torus target values are read modulo Z^m by one reduction, Target.wrap
(CellMap.value, TargetMap.value, maps_agree); a map of targets composes with
a cell map by one product, TargetMap.after (chains), shared by push and pull.

s = 0 recovers plain oriented polytopes. The torus factor exists because no
compact polytope admits a submersion onto a positive-dimensional flat target
from every face: circle covers and identity cochains need a closed direction.

Fibre products are computed exactly: the torus part by Hermite normal form and
coset enumeration, the polytope part by slicing the product polytope with the
resulting affine equations.  No LP runs.  A slice with no equation is
P1 x P2 itself, its vertices, facets, faces and face pairs built from the
factors' (geometry.product_polytope); only when equations remain are the
slice's vertices found by double description, as the extreme rays of a
homogenised cone (geometry.section_polytope).

Orientation conventions.  A cell's tangent space dir(P) + R^s is fixed by the
cell, so its orientation is one sign against the default frame; a frame given
to the constructor is folded into that sign once.  A coorientation of a
submersion f is an oriented frame of Ker df, and over the oriented target it
is the same data as an orientation of the cell, by one dictionary:
TX = f*(TY) + Ker df, target first (kernel_coorientation one way,
orientation_from_coorientation the other).  So a cochain generator stores the
orientation, and the cell's sign is the one orientation carrier of chains and
cochains alike: isomorphisms commuting with the maps preserve the dictionary,
so one normal form and one boundary serve both (a cochain's facet terms carry
(-1)^dim Y, see chains).  A Coorientation is an input format, validated
against the map (the frame as given names the first vector at fault).

Orientation signs are one determinant on one chart.  dir_basis is in RREF,
so a tangent vector's frame coordinates are its entries at the pivot
columns, then its torus entries (frame_coords); a vector of R^(n+s) is
tangent when the dir_basis rows weighted by those entries give back its
first n entries (is_tangent).  That is tested only for frames from outside
(Cell's frame, a Coorientation, a bordism identification, a group action's
images); frames the library builds are read without it.  Let D be a
differential on default frames (m x d) and X a frame in frame coordinates
(d x k); [X^T; D] stacks the rows of X^T on those of D (det_sign).  For any
N with D N = I, [X^T; D] [X | N] = [[X^T X, X^T N], [0, I]], so
sign det[X^T; D] is the sign of det[X | N], X completed by lifts of TY; it
is 0 when k + m != d or D is not onto.

A fibre-product component is oriented by eps1 eps2 (-1)^(m d2)
sign det[X^T; D], with D = [df1 | -df2] on the factors' frames and X its
default frame, and is unoriented when that is 0.  When f2 is a submersion
this is factor 1's frame lifted through f2 followed by Ker df2 cooriented by
the dictionary; when f1 is, Ker df1 with its kernel in front followed by
factor 2's frame lifted through f1.  Both maps submersions give
T(Z) = Ker df1 + TY + Ker df2, and a first factor oriented by the dictionary
makes the component the dictionary orientation of the cup coorientation.
The dictionary is the same determinant with D = df: a coorientation frame K
with sign c orients the cell by c (-1)^(m k) sign det[K^T; df], as
[K^T; df] [L | K] = [[K^T L, K^T K], [I, 0]] for lifts L with df L = I.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from ._linalg import (
    IntMat,
    Mat,
    Vec,
    _primitive_rows,
    det,
    det_sign,
    frac,
    hermite_column,
    kernel_basis,
    mat,
    rank,
    vec,
)
from .geometry import (FaceKey, GeometryError, Polytope, VertexTuple, product_polytope,
                       section_polytope)


class MapError(ValueError):
    """Raised for malformed targets or affine maps."""


class FibreProductError(ValueError):
    """Raised when a fibre product's preconditions fail."""


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """A point, Euclidean space Euclid(m), or the flat torus Torus(m) = R^m/Z^m."""

    kind: str
    dim: int = 0

    def __post_init__(self):
        if self.kind not in ("point", "euclid", "torus"):
            raise MapError(f"unknown target kind {self.kind!r}")
        if type(self.dim) is not int:
            raise MapError(f"target dimension must be an int, not {self.dim!r}")
        if self.kind == "point" and self.dim != 0:
            raise MapError("point target has dimension 0")
        if self.kind != "point" and self.dim < 1:
            raise MapError("euclid/torus target needs positive dimension")

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    @property
    def compact(self) -> bool:
        return self.kind in ("point", "torus")

    def wrap(self, v: Vec) -> Vec:
        """v with each coordinate taken modulo 1 on a torus; v itself otherwise."""
        if self.kind != "torus":
            return v
        return tuple(x - x.numerator // x.denominator for x in v)

    def product(self, other: "Target") -> "Target":
        if self.kind == "point":
            return other
        if other.kind == "point":
            return self
        if self.kind != other.kind:
            raise MapError("product targets must have the same kind (or be a point)")
        return Target(self.kind, self.dim + other.dim)


POINT = Target("point", 0)


def euclid(m: int) -> Target:
    return Target("euclid", m)


def torus(m: int) -> Target:
    return Target("torus", m)


# ---------------------------------------------------------------------------
# Cells and cell maps
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def _unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def default_frame(polytope: Polytope, torus_rank: int) -> Mat:
    """Canonical frame of dir(P) + R^s inside R^(n+s)."""
    n = polytope.ambient_dim
    fr = [tuple(v) + (Fraction(0),) * torus_rank for v in polytope.dir_basis]
    fr += [(Fraction(0),) * n + _unit(torus_rank, i) for i in range(torus_rank)]
    return tuple(fr)


@dataclass(frozen=True)
class Cell:
    """Oriented cell P x T^s: the orientation is one sign against default_frame.

    The tangent space dir(P) + R^s lives in R^(n+s), polytope part first.  A
    frame passed in must be a basis of it; its sign in the chart is folded
    into the sign, and `frame` is the default frame.
    """

    polytope: Polytope
    torus_rank: int
    sign: int

    def __init__(self, polytope: Polytope, torus_rank: int = 0,
                 frame: Iterable[Iterable] = None, sign: int = 1):
        if type(torus_rank) is not int:
            raise GeometryError(f"torus rank must be an int, not {torus_rank!r}")
        if torus_rank < 0:
            raise GeometryError("negative torus rank")
        if type(sign) is not int or sign not in (1, -1):
            raise GeometryError("sign must be +1 or -1")
        if frame is not None:
            fr = mat(frame)
            fd = polytope._fd
            if len(fr) != fd.dim + torus_rank:
                raise GeometryError("frame length must equal cell dimension")
            if fr and len(fr[0]) != polytope.ambient_dim + torus_rank:
                raise GeometryError("frame vector has wrong length")
            if not all(fd.is_tangent(v) for v in fr):
                raise GeometryError("frame vector outside the cell's tangent space")
            d = det_sign([fd.frame_coords(v) for v in fr], (), len(fr))
            if not d:
                raise GeometryError("frame is linearly dependent")
            sign *= d
        object.__setattr__(self, "polytope", polytope)
        object.__setattr__(self, "torus_rank", torus_rank)
        object.__setattr__(self, "sign", sign)

    @property
    def frame(self) -> Mat:
        """The default frame, which the sign orients."""
        return default_frame(self.polytope, self.torus_rank)

    @property
    def dim(self) -> int:
        return self.polytope.dim + self.torus_rank

    @property
    def ambient(self) -> int:
        return self.polytope.ambient_dim + self.torus_rank

    def reversed(self) -> "Cell":
        return Cell(self.polytope, self.torus_rank, sign=-self.sign)


def cell_orientation_equal(a: Cell, b: Cell) -> int:
    if (a.polytope.vertices != b.polytope.vertices
            or a.polytope.ambient_dim != b.polytope.ambient_dim
            or a.torus_rank != b.torus_rank):
        raise GeometryError("orientation comparison requires identical cells")
    return a.sign * b.sign


def _integer(x) -> int:
    """A torus-column entry as an int: an integer rational, never a float (frac)."""
    x = frac(x)
    if x.denominator != 1:
        raise MapError("torus columns need integer entries")
    return x.numerator


_set_slot = object.__setattr__


def _fill(cmap: "CellMap", target: Target, m_t: IntMat, a, b, ints):
    _set_slot(cmap, "target", target)
    _set_slot(cmap, "m_t", m_t)
    _set_slot(cmap, "_a", a)
    _set_slot(cmap, "_b", b)
    _set_slot(cmap, "_ints", ints)


class CellMap:
    """Affine map (p, t) -> A p + M t + b into a target; M integral.

    A and b are exact in one of two forms, and each form is read from the
    other when first asked.  A map built from its entries keeps them as
    Fraction tuples, `a` and `b`.  A canonical map (canonical_cell_map)
    keeps them as integers over one denominator, `_ints` = (den, den A,
    den b) with den > 0 and the gcd of den and every entry 1; that form is
    unique, and the normal-form keys of chains hold it.  Its `a` and `b`
    are a view (_view), built on first read.  Equality, hashing and the
    repr are those of the values, whichever form a map was built with.  A
    map is immutable.
    """

    __slots__ = ("target", "m_t", "_a", "_b", "_ints")

    def __init__(self, target: Target, a: Iterable[Iterable], m_t: Iterable[Iterable], b: Iterable):
        self._set(target, mat(a), tuple(tuple(x if type(x) is int else _integer(x) for x in row)
                                        for row in m_t), vec(b))

    @classmethod
    def _exact(cls, target: Target, a: Mat, m_t: IntMat, b: Vec) -> "CellMap":
        """The map on entries already exact: tuples of Fractions and of ints."""
        cmap = object.__new__(cls)
        cmap._set(target, a, m_t, b)
        return cmap

    @classmethod
    def _canonical(cls, target: Target, den: int, a: IntMat, m_t: IntMat, b: tuple) -> "CellMap":
        """The map of integer form (den, a, b), reduced as `_ints` is and
        valid by construction (canonical_cell_map): nothing is checked."""
        cmap = object.__new__(cls)
        _fill(cmap, target, m_t, None, None, (den, a, b))
        return cmap

    def _set(self, target: Target, aa: Mat, mt: IntMat, bb: Vec):
        m = target.dim
        if len(aa) != m or len(bb) != m or len(mt) != m:
            raise MapError("map rows must equal the target dimension")
        if m == 0:
            aa, mt, bb = (), (), ()
        if target.kind in ("point", "euclid"):
            if any(any(x != 0 for x in row) for row in mt):
                raise MapError("maps to euclid/point must kill the torus factor")
        _fill(self, target, mt, aa, bb, None)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a CellMap is immutable")

    __delattr__ = __setattr__

    @property
    def a(self) -> Mat:
        """A over Q, m x n."""
        if self._a is None:
            self._view()
        return self._a

    @property
    def b(self) -> Vec:
        """b over Q, length m."""
        if self._b is None:
            self._view()
        return self._b

    def _view(self):
        """Build `a` and `b` from the integer form."""
        den, ia, ib = self._ints
        _set_slot(self, "_a", tuple(tuple(Fraction(x, den) for x in row) for row in ia))
        _set_slot(self, "_b", tuple(Fraction(x, den) for x in ib))

    def _int_form(self) -> tuple:
        """(den, den A, den b): A and b over their least common denominator."""
        if self._ints is None:
            rows = (*self._a, self._b)
            den = math.lcm(*(x.denominator for row in rows for x in row))
            ints = [tuple(x.numerator * (den // x.denominator) for x in row) for row in rows]
            _set_slot(self, "_ints", (den, tuple(ints[:-1]), ints[-1]))
        return self._ints

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.target != other.target or self.m_t != other.m_t:
            return False
        return self._int_form() == other._int_form()

    def __hash__(self):
        return hash((self.target, self.m_t, self._int_form()))

    def __repr__(self):
        return f"CellMap(target={self.target!r}, a={self.a!r}, m_t={self.m_t!r}, b={self.b!r})"

    def __reduce__(self):
        return CellMap, (self.target, self.a, self.m_t, self.b)

    @property
    def n_cols(self) -> int:
        rows = self._a if self._a is not None else self._ints[1]
        return len(rows[0]) if rows else 0

    @property
    def s_cols(self) -> int:
        return len(self.m_t[0]) if self.m_t else 0

    def fits(self, n: int, s: int) -> bool:
        """Whether the map is one on a cell of ambient dimension n and torus
        rank s: a map into the point fits any cell, and any other map needs n
        polytope columns and s torus columns."""
        return not self.target.dim or (self.n_cols == n and self.s_cols == s)

    def value(self, p: Vec, t: Vec = ()) -> Vec:
        return self.target.wrap(tuple(sum((a * x for a, x in zip(arow, p)), _ZERO)
                                      + sum(c * frac(x) for c, x in zip(trow, t)) + b
                                      for arow, trow, b in zip(self.a, self.m_t, self.b)))

    def differential_on(self, cell: Cell) -> Mat:
        """Matrix of the differential on cell.frame, shape m x (dim cell).

        The frame is dir_basis then the torus unit vectors, so row i is A's
        row i on each direction, then M's row i.  Zero products are skipped.
        """
        dirs = cell.polytope.dir_basis
        return tuple(tuple(sum((a * x for a, x in zip(arow, d) if a and x), _ZERO) for d in dirs)
                     + tuple(Fraction(t) for t in trow)
                     for arow, trow in zip(self.a, self.m_t))


def constant_map(target: Target, n: int, s: int, value: Iterable = None) -> CellMap:
    m = target.dim
    b = vec(value) if value is not None else vec([0] * m)
    return CellMap(target, [[0] * n for _ in range(m)], [[0] * s for _ in range(m)], b)


def identity_map(y: Target) -> CellMap:
    """The identity of a compact target y, on the point times T^(dim y)."""
    m = y.dim
    eye = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    return CellMap(y, [() for _ in range(m)], eye, [0] * m)


def maps_agree(f: CellMap, g: CellMap, point_pairs) -> bool:
    """Whether f(v) = g(w) for every matched pair (v, w), up to torus periods.

    The torus columns must coincide.  The difference of affine maps is affine,
    so agreement on a hull needs all matched differences equal and that
    constant to wrap to zero (Target.wrap).
    """
    if f.target != g.target or f.m_t != g.m_t:
        return False
    diffs = [tuple(sum(x * y for x, y in zip(fa, v)) + fb - sum(x * y for x, y in zip(ga, w))
                   - gb for fa, fb, ga, gb in zip(f.a, f.b, g.a, g.b))
             for v, w in point_pairs]
    return all(d == diffs[0] for d in diffs) and not any(f.target.wrap(diffs[0]))


# ---------------------------------------------------------------------------
# Submersion conditions
# ---------------------------------------------------------------------------

def is_interior_submersion(cell: Cell, cmap: CellMap) -> bool:
    """Differential surjective on the top-dimensional stratum."""
    m = cmap.target.dim
    return m == 0 or rank(cmap.differential_on(cell)) == m


def is_strong_submersion(cell: Cell, cmap: CellMap) -> bool:
    """Differential surjective on every face's direction space (plus torus factor).

    The columns of a face contain those of each of its vertices, and every
    face has a vertex, so the vertices decide it.  A vertex has no direction
    space: the condition is that the torus columns alone span the target,
    rank M = m, read as the number of pivots of M's Hermite form (_torus_form).
    """
    m = cmap.target.dim
    return m == 0 or len(_torus_form(cmap.m_t, cell.torus_rank, cmap.target.is_torus)[3]) == m


# ---------------------------------------------------------------------------
# Coorientations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Coorientation:
    """An oriented frame of Ker(df) inside the cell's tangent space, plus a sign."""

    frame: Mat
    sign: int

    def __init__(self, frame: Iterable[Iterable], sign: int = 1):
        fr = mat(frame)
        if type(sign) is not int or sign not in (1, -1):
            raise MapError("sign must be +1 or -1")
        if rank(fr) != len(fr):
            raise MapError("coorientation frame is linearly dependent")
        object.__setattr__(self, "frame", fr)
        object.__setattr__(self, "sign", sign)

    def reversed(self) -> "Coorientation":
        return Coorientation(self.frame, -self.sign)


def validate_coorientation(cell: Cell, cmap: CellMap, co: Coorientation) -> None:
    """Check the frame is an exact basis of Ker(df) within the tangent space."""
    expected = cell.dim - cmap.target.dim
    if len(co.frame) != expected:
        raise MapError(
            f"coorientation frame has {len(co.frame)} vectors, expected {expected}")
    if co.frame and len(co.frame[0]) != cell.ambient:
        raise MapError("coorientation vector has wrong length")

    # The first failing vector names the fault, tangent space before kernel;
    # df is applied to its coordinates in the chart.
    fd, dmat = cell.polytope._fd, cmap.differential_on(cell)
    for v in co.frame:
        if not fd.is_tangent(v):
            raise MapError("coorientation vector outside the tangent space")
        x = fd.frame_coords(v)
        if any(sum(a * c for a, c in zip(row, x) if a and c) for row in dmat):
            raise MapError("coorientation vector not in the kernel of the differential")


def kernel_coorientation(cell: Cell, cmap: CellMap) -> Coorientation:
    """The coorientation matching the cell's orientation: TX = f*(TY) + Ker df.

    The frame K is kernel_basis(df) on the cell's frame, carried into
    ambient coordinates.  (Lifts of TY, K) orients the cell when its sign is
    cell.sign (-1)^(m k) sign det[K^T; df] (module docstring), and df is
    onto, so that determinant is not 0.  The inverse of
    orientation_from_coorientation.
    """
    dmat = cmap.differential_on(cell)
    m = cmap.target.dim
    kb = kernel_basis(dmat) if dmat and dmat[0] else tuple(
        _unit(cell.dim, i) for i in range(cell.dim))
    if len(kb) != cell.dim - m:
        raise FibreProductError("map is not an interior submersion")
    eps = cell.sign * det_sign(kb, _primitive_rows(dmat), cell.dim) * (-1) ** (m * len(kb))
    cols = tuple(zip(*cell.frame))
    return Coorientation([[sum((c * x for c, x in zip(k, col) if c and x), _ZERO) for col in cols]
                          for k in kb], eps)


def orientation_from_coorientation(cell: Cell, cmap: CellMap, co: Coorientation) -> Cell:
    """Orient the cell by TX = f*(TY) + Ker df, using the target's standard frame.

    The coorientation is validated first (validate_coorientation).  With K
    its frame in the chart, the cell's sign is co.sign (-1)^(m k) sign
    det[K^T; df] (module docstring); the determinant is 0 exactly when df is
    not onto.
    """
    validate_coorientation(cell, cmap, co)
    fd = cell.polytope._fd
    sign = det_sign([fd.frame_coords(v) for v in co.frame],
                    _primitive_rows(cmap.differential_on(cell)), cell.dim)
    if not sign:
        raise FibreProductError("map is not an interior submersion")
    return Cell(cell.polytope, cell.torus_rank,
                sign=co.sign * sign * (-1) ** (cmap.target.dim * len(co.frame)))


# ---------------------------------------------------------------------------
# Cell boundary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellBoundaryComponent:
    face: FaceKey
    cell: Cell                       # induced orientation, outward normal first
    outward: Vec                     # in R^(n+s), torus part zero


def cell_boundary(cell: Cell) -> list[CellBoundaryComponent]:
    """One component per facet of the polytope part; torus factors are closed.

    The components are boundary_cells(cell) with each facet's key and
    outward vector.
    """
    zero = (Fraction(0),) * cell.torus_rank
    return [CellBoundaryComponent(face=key, cell=bc, outward=tuple(outward) + zero)
            for (key, outward), bc in zip(cell.polytope.facets(), boundary_cells(cell))]


def boundary_cells(cell: Cell) -> list[Cell]:
    """The cell over each facet of the polytope part, induced orientation, in
    facets() order.

    A facet's sign, outward normal first, is read from the polytope's face
    data.  It does not depend on the torus rank: both frames end in the same
    identity block on R^s, so the change of basis between them is block
    diagonal with an identity block.
    """
    s = cell.torus_rank
    return [Cell(fp, s, sign=sign * cell.sign) for fp, sign in cell.polytope._fd.facet_cells()]


# ---------------------------------------------------------------------------
# Fibre products
# ---------------------------------------------------------------------------

def _pivots_of(h: Mat) -> list[tuple[int, int, int]]:
    """(row, value, column) of each nonzero column's first entry; checks echelon."""
    if not h or not h[0]:
        return []
    rows, cols = len(h), len(h[0])
    out = []
    for j in range(cols):
        r = next((i for i in range(rows) if h[i][j] != 0), None)
        if r is None:
            break
        if out and r <= out[-1][0]:
            raise AssertionError("matrix is not column-echelon")
        if h[r][j] <= 0:
            raise AssertionError("pivot entries must be positive")
        out.append((r, int(h[r][j]), j))
    return out


def _slice_polytope(p1: Polytope, p2: Polytope,
                    equations: Sequence[tuple[Vec, Fraction]]
                    ) -> Optional[tuple[Polytope, dict[int, tuple[int, int]]]]:
    """(P1 x P2) cut by affine equations row.p = rhs, and its face pairs;
    None when empty.

    The face pairs map each face of the slice, a vertex bitmask, to the
    masks of the minimal faces of P1 and of P2 holding its vertices, in
    face_dims order.  Each kind of slice has one rule.  With no equation the
    slice is P1 x P2, built from the factors' face data, and the pair of a
    face F1 x F2 is (F1, F2), read off the product's lattice
    (geometry.product_polytope).  When equations remain, the double
    description runs (geometry.section_polytope) and gives, per vertex, the
    bitmask of the factor facets tight there, P1's facets in its facets()
    order, then P2's; a face's pair is the meets of the facets tight at all
    of its vertices.
    """
    if not equations:
        return product_polytope(p1, p2)
    (hull1, facets1), (hull2, facets2) = p1._fd.rows(), p2._fd.rows()
    zero1, zero2 = [0] * p1.ambient_dim, [0] * p2.ambient_dim
    eqs = [(row + zero2, rhs) for row, rhs in hull1]
    eqs += [(zero1 + row, rhs) for row, rhs in hull2]
    eqs += equations
    ineqs = [(f + zero2, c) for f, c in facets1]
    ineqs += [(zero1 + f, c) for f, c in facets2]
    section = section_polytope(p1.ambient_dim + p2.ambient_dim, eqs, ineqs)
    if section is None:
        return None
    poly, tight = section
    fd1, fd2 = p1._fd, p2._fd
    k1 = len(facets1)
    pairs = {}
    for g in poly._fd.face_dims():
        t = -1
        rest = g
        while rest:
            low = rest & -rest
            t &= tight[low.bit_length() - 1]
            rest ^= low
        pairs[g] = (fd1.meet(t & (1 << k1) - 1), fd2.meet(t >> k1))
    return poly, pairs


def _combine(base, terms) -> tuple:
    """base plus coef * form for each (coef, form) of terms, skipping zeros:
    the one step of every affine combination in a fibre product."""
    out = list(base)
    for coef, form in terms:
        if coef:
            out = [x + coef * y if y else x for x, y in zip(out, form)]
    return tuple(out)


def _compose(g: CellMap, offset_n: int, t_lo: int, n: int, s_z: int, t_affine) -> CellMap:
    """g on a factor, composed with the inclusion of a fibre component.

    The factor's polytope coordinates start at offset_n among the n of the
    product, its torus coordinates at t_lo; t_affine holds the affine forms
    of the factors' torus coordinates (FibreComponent), s_z the component's
    free torus coordinates.
    """
    forms = []
    for arow, mrow, b in zip(g.a, g.m_t, g.b):
        base = [_ZERO] * n + [0] * s_z + [b]
        base[offset_n:offset_n + len(arow)] = arow
        forms.append(_combine(base, zip(mrow, t_affine[t_lo:])))
    return CellMap(g.target, [f[:n] for f in forms], [f[n:-1] for f in forms],
                   [f[-1] for f in forms])


@dataclass(frozen=True)
class FibreComponent:
    """One connected piece of a fibre product, with its projection to the target.

    Its own coordinates are p = (p1, p2) and its free torus coordinates phi.
    t_affine[k] is the factors' torus coordinate k of t = (t1, t2) as one
    affine form: coefficients on p, then integer ones on phi, then the
    constant.  With it maps on either factor compose with the inclusion,
    which is how iterated fibre products are built.

    A component is a frozen value: one is shared by every product generator
    built from its pair of operands (products), so its fields cannot be
    rebound and face_pairs is a read-only copy of the mapping given.
    """

    cell: Cell
    pmap: CellMap
    translate: tuple[int, ...]
    transverse: bool
    orientable: bool
    face_pairs: Mapping[int, tuple[int, int]]   # face mask -> (mask in factor 1, in factor 2)
    split: tuple[int, int, int, int] = (0, 0, 0, 0)       # n1, s1, n2, s2
    t_affine: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "face_pairs", MappingProxyType(dict(self.face_pairs)))

    def compose_on_first(self, g: CellMap) -> CellMap:
        """g on the first factor, composed with the inclusion of the component."""
        n1, s1, n2, _ = self.split
        if not g.fits(n1, s1):
            raise MapError("map shape does not match the first factor")
        return _compose(g, 0, 0, n1 + n2, self.cell.torus_rank, self.t_affine)

    def compose_on_second(self, g: CellMap) -> CellMap:
        n1, s1, n2, s2 = self.split
        if not g.fits(n2, s2):
            raise MapError("map shape does not match the second factor")
        return _compose(g, n1, s1, n1 + n2, self.cell.torus_rank, self.t_affine)


def fibre_product_cells(cell1: Cell, map1: CellMap, cell2: Cell, map2: CellMap
                        ) -> list[FibreComponent]:
    """All components of the fibre product of two cells over a shared target,
    each oriented by one rule, or flagged not orientable.

    D = [df1 | -df2] on the factors' frames, m x (d1 + d2), is built once,
    as rows scaled to integers by positive factors.  A component's sign is
    eps1 eps2 (-1)^(m d2) sign det[X^T; D], X its default frame in the
    factors' frame coordinates, one Bareiss determinant per component
    (_build_component).  As [X^T; D] [X | N] = [[X^T X, X^T N], [0, I]] for
    D N = I, that is the sign of det[X | N], the kernel frame completed by
    lifts of TY.  When D is not onto, or the component's dimension is not
    d1 + d2 - m, the determinant is 0: the component is not orientable.

    A component is transverse when it has the expected dimension and each
    of its faces has the codimension of its factor faces; then D spans the
    target on every face pair (see _build_component), so it is orientable.

    The torus part: with H = M U the column Hermite form of M = [M1 | -M2]
    and t = U (tau, phi), the pivot rows of H solve for tau and the others
    are equations on p.  Over a torus each row r holds up to an integer, the
    translate lambda_r, in [0, pivot) or in the row's range on P1 x P2.
    """
    if map1.target != map2.target:
        raise FibreProductError("fibre product needs a common target")
    target = map1.target
    m = target.dim
    n1, s1 = cell1.polytope.ambient_dim, cell1.torus_rank
    n2, s2 = cell2.polytope.ambient_dim, cell2.torus_rank
    if not (map1.fits(n1, s1) and map2.fits(n2, s2)):
        raise MapError("map shapes do not match the cells")
    eps = cell1.sign * cell2.sign * (-1) ** (m * cell2.dim)
    d_rows = _primitive_rows([r1 + tuple(-x for x in r2) for r1, r2 in
                              zip(map1.differential_on(cell1), map2.differential_on(cell2))])

    n = n1 + n2
    s = s1 + s2
    a_rows = tuple(tuple(map1.a[i]) + tuple(-x for x in map2.a[i]) for i in range(m))
    m_rows = tuple(tuple(map1.m_t[i]) + tuple(-x for x in map2.m_t[i]) for i in range(m))
    c_vec = tuple(map2.b[i] - map1.b[i] for i in range(m))

    # the reduced lattice is not read here
    h, u, _, pivots, _ = _torus_form(m_rows, s, False)
    s_z = s - len(pivots)
    pivot_rows = [pr for pr, _, _ in pivots]
    nonpivot_rows = [r for r in range(m) if r not in pivot_rows]

    # off a torus the maps kill the torus factor, so there are no pivots
    components: list[FibreComponent] = []
    for piv_choice in itertools.product(*[range(d) for _, d, _ in pivots]):
        # tau_j from pivot row pr with translate lambda: d tau_j = c_pr + lambda
        # - a_pr.p - sum over j2 < j of h[pr][j2] tau_j2, solved row by row
        tau = []
        for (pr, d, _), lam in zip(pivots, piv_choice):
            form = _combine([-x for x in a_rows[pr]] + [_ZERO] * s_z + [c_vec[pr] + lam],
                            ((-c, f) for c, f in zip(h[pr], tau)))
            tau.append(tuple(x / d for x in form))

        # residual equations on p from the non-pivot rows: the form
        # a_r.p + sum_j h[r][j] tau_j - c_r equals lambda_r
        residuals = [_combine(a_rows[r] + (_ZERO,) * s_z + (-c_vec[r],), zip(h[r], tau))
                     for r in nonpivot_rows]

        if target.is_torus:
            # a form's range over P1 x P2: its p1 part's over V1 plus its p2 part's over V2
            ranges = []
            for form in residuals:
                lo = hi = form[-1]
                for part, poly in ((form[:n1], cell1.polytope), (form[n1:n], cell2.polytope)):
                    vals = [sum(x * y for x, y in zip(part, v)) for v in poly.vertices]
                    lo, hi = lo + min(vals), hi + max(vals)
                ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
            residual_choices = itertools.product(*ranges)
        else:
            residual_choices = [tuple(0 for _ in residuals)]

        for res_choice in residual_choices:
            equations = [(form[:n], lam - form[-1]) for form, lam in zip(residuals, res_choice)]
            section = _slice_polytope(cell1.polytope, cell2.polytope, equations)
            if section is None:
                continue
            translate = [0] * m
            for r, lam in zip(pivot_rows + nonpivot_rows, piv_choice + res_choice):
                translate[r] = lam
            components.append(_build_component(
                cell1, map1, cell2, map2, *section, u, tau, tuple(translate), eps, d_rows))

    components.sort(key=lambda fc: (fc.cell.polytope.vertices, fc.translate))
    return components


def _build_component(cell1, map1, cell2, map2, poly, face_pairs, u, tau, translate,
                     eps, d_rows) -> FibreComponent:
    """The component poly x T^(s_z), with the face pairs of its slice
    (_slice_polytope): its projection, flags, and the sign eps sign
    det[X^T; D], D the call's integer rows d_rows and X its default frame in
    the factors' frame coordinates (p1, t1, p2, t2).  tau holds the affine
    forms of the pivot coordinates of t = U (tau, phi).
    """
    n1, s1 = cell1.polytope.ambient_dim, cell1.torus_rank
    n2, s2 = cell2.polytope.ambient_dim, cell2.torus_rank
    n = n1 + n2
    s_z = len(u) - len(tau)

    # t = U (tau, phi): the free columns of U are the integer coefficients on phi
    t_affine = tuple(_combine((_ZERO,) * n + row[len(tau):] + (_ZERO,), zip(row, tau))
                     for row in u)

    # projection to the target through the first factor
    pmap = _compose(map1, 0, 0, n, s_z, t_affine)

    # transversality: each face has the codimension of its factor faces
    p1, p2 = cell1.polytope, cell2.polytope
    fd, fd1, fd2 = poly._fd, p1._fd, p2._fd
    dims, dims1, dims2 = fd.face_dims(), fd1.face_dims(), fd2.face_dims()
    dim, dim1, dim2 = poly.dim, p1.dim, p2.dim
    transverse = (dim + s_z == cell1.dim + cell2.dim - map1.target.dim
                  and all(dim - dims[g] == dim1 - dims1[f1] + dim2 - dims2[f2]
                          for g, (f1, f2) in face_pairs.items()))
    # These checks decide the span condition too.  The face pair (F1, F2) of
    # a face G is minimal, so G is the slice of F1 x F2 through its relative
    # interior, and dim G + s_z = dim F1 + dim F2 + s1 + s2 - rank D_F, D_F
    # the columns of D on dir F1, dir F2 and the torus: the pivot rows of
    # the torus elimination carry rank M = rho, the residual rows the rest,
    # and s_z = s1 + s2 - rho.  The two checks give dim G + s_z =
    # dim F1 + dim F2 + s1 + s2 - m, so D_F spans the target on every face.

    # X, the default frame in the factors' frame coordinates: a direction d
    # moves t by the p part of t_affine against d, phi_i by its phi_i column.
    def coords(d, dt):
        return (fd1.frame_coords([*d[:n1], *dt[:s1]])
                + fd2.frame_coords([*d[n1:], *dt[s1:]]))

    x_rows = [coords(d, [sum((x * y for x, y in zip(form, d) if x), _ZERO) for form in t_affine])
              for d in poly.dir_basis]
    x_rows += [coords((0,) * n, [form[n + i] for form in t_affine]) for i in range(s_z)]
    sign = det_sign(x_rows, d_rows, cell1.dim + cell2.dim)
    cell = Cell(poly, s_z, sign=eps * sign) if sign else Cell(poly, s_z)

    return FibreComponent(
        cell=cell, pmap=pmap, translate=translate,
        transverse=transverse, orientable=sign != 0, face_pairs=face_pairs,
        split=(n1, s1, n2, s2), t_affine=t_affine)


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def has_free_circle(cell: Cell, cmap: CellMap) -> bool:
    """True when some torus direction is killed by the map's differential:
    rank M < s, the rank read as the number of pivots of M's Hermite form
    (_torus_form), none when the target has no rows.

    Such a direction admits an orientation-reversing self-map fixing the map,
    so over a field of characteristic zero the generator cancels to zero.
    """
    s = cell.torus_rank
    return len(_torus_form(cmap.m_t, s, cmap.target.is_torus)[3]) < s


@lru_cache(maxsize=4096)
def _torus_form(m_t: IntMat, s: int, is_torus: bool):
    """(H, U, det U, pivots, lattice): the torus part M_t of a map from a cell
    with torus rank s, the one place that reads it.  canonical_cell_map and
    the fibre product's torus elimination use H and U; the number of pivots
    is rank M_t (is_strong_submersion, has_free_circle).

    H = M_t U is the column Hermite form, U in GL_s(Z) with det U = +-1 (M_t
    itself and U = I_s when it has no rows or no columns).  pivots are
    (row, value, column of H) for each nonzero column of H.  lattice is None
    unless the target is a torus with rows outside the pivot rows; then it is
    (npiv, denom, hb): those rows, and the Hermite form hb of denom times the
    reduced unit vectors read on them, square and lower triangular, which
    spans the reduced image of Z^m there; denom is the least common
    denominator of those entries.  The unimodularity and echelon checks run
    here, once per matrix.
    """
    m = len(m_t)
    if m and m_t[0]:
        h, uc = hermite_column(m_t)
        det_u = det(uc)
        if det_u not in (1, -1):
            raise AssertionError("hermite transform must be unimodular")
        det_u = int(det_u)
    else:
        h, uc, det_u = m_t, tuple(tuple(int(i == j) for j in range(s)) for i in range(s)), 1
    pivots = tuple((p, d, tuple(row[t] for row in h)) for p, d, t in _pivots_of(h))
    lattice = None
    pivot_rows = {p for p, _, _ in pivots}
    npiv = tuple(k for k in range(m) if k not in pivot_rows)
    if is_torus and npiv:
        # the reduced translates Z^m hold the unit vectors of the
        # non-pivot rows, so their Hermite form is square on those rows
        gens, scale = _reduce(pivots, [[int(i == k) for i in range(m)] for k in range(m)], 1)
        g = math.gcd(scale, *(x[j] for x in gens for j in npiv))
        hb, _ = hermite_column([[x[j] // g for x in gens] for j in npiv])
        lattice = (npiv, scale // g, hb)
    return h, uc, det_u, pivots, lattice


def _reduce(pivots, vecs: list, scale: int) -> tuple[list, int]:
    """Integer vectors over a common positive scale, reduced modulo the torus
    columns (zero at their pivot rows), and their new scale: a pivot of
    value d takes x to d x - x_p col, and the scale to d times the scale."""
    for p, d, col in pivots:
        vecs = [[d * xi - x[p] * ci for xi, ci in zip(x, col)] if x[p]
                else x if d == 1 else [d * xi for xi in x] for x in vecs]
        scale *= d
    return vecs, scale


def canonical_cell_map(cell: Cell, cmap: CellMap):
    """Canonical representative of (cell, map) under cell isomorphism.

    Torus coordinates are reparametrized so the integral part of the map is in
    column Hermite form, t' = U^-1 t, which multiplies the cell's sign by
    det U = +-1.  The linear part is read on the free coordinates of the
    polytope's affine hull and reduced, like the offset, modulo the rational
    column space of that form: for rational L the shear
    (x, t) -> (x, t + L(x - v0)) fixes every face and has determinant 1, so
    the sign does not move.  Over a torus the offset is further reduced
    modulo the image of the integer lattice.  Both moves commute with the
    map, so they preserve the orientation dictionary and serve cochains too.

    The hull's chart (hull_chart, one integer reduction of its directions)
    gives the direction w_c of aff(P) at each free coordinate c and the
    hull origin p0, the point of aff(P) whose free coordinates are 0, all as
    integers over one denominator den.  The offset is reduce(b + A p0).  It
    equals reduce(A v0 + b) less the new linear part at v0: v0 - p0 =
    sum_c v0_c w_c, reduce is a linear projection along the torus columns,
    and it fixes each reduced column.

    All of it is integer arithmetic over one common scale.  A and b are
    read in their integer form over their denominator (CellMap._int_form),
    so each A w_c and b + A p0 is an integer vector over that times den;
    the reduction modulo the torus columns is an integer elimination that
    multiplies the scale by each pivot (_reduce); the lattice step is floor
    division, and its denominator multiplies the scale once more.  The
    gcd of the scale and every entry is divided out at the end, which gives
    the map's unique integer form, kept by CellMap._canonical: its Fraction
    entries are a view built only when read.  The Hermite form, its sign,
    the pivots and the reduced lattice depend on M alone (and on whether the
    target is a torus): they are computed once per integral matrix
    (_torus_form).
    """
    n = cell.polytope.ambient_dim
    m = cmap.target.dim
    new_mt, _, det_u, pivots, lattice = _torus_form(cmap.m_t, cell.torus_rank,
                                                    cmap.target.is_torus)
    ccell = Cell(cell.polytope, cell.torus_rank, sign=cell.sign * det_u)
    if not m:
        return ccell, CellMap._canonical(cmap.target, 1, (), (), ())
    den, dirs, origin = cell.polytope._fd.hull_chart()
    scale, ia, ib = cmap._int_form()
    # column c of the new linear part is A w_c, reduced; the offset b + A p0
    vecs = [[sum(row[j] * x for j, x in w) for row in ia] for _, w in dirs]
    vecs.append([bi * den + sum(row[j] * x for j, x in origin) for row, bi in zip(ia, ib)])
    vecs, scale = _reduce(pivots, vecs, scale * den)
    off = vecs.pop()
    if lattice is not None:
        # the offset's rows off the pivots, times denom, into the lattice's box
        npiv, denom, hb = lattice
        x = [off[j] * denom for j in npiv]
        for i in range(len(npiv)):
            q = x[i] // (scale * hb[i][i])
            if q:
                for k in range(i, len(npiv)):
                    x[k] -= q * hb[k][i] * scale
        if denom != 1:
            off = [xi * denom for xi in off]
            vecs = [[xi * denom for xi in v] for v in vecs]
            scale *= denom
        for j, xj in zip(npiv, x):
            off[j] = xj
    g = math.gcd(scale, *off, *(x for v in vecs for x in v))
    if g != 1:
        scale, off, vecs = scale // g, [x // g for x in off], [[x // g for x in v] for v in vecs]
    cols = [(0,) * m] * n
    for (c, _), v in zip(dirs, vecs):
        cols[c] = v
    return ccell, CellMap._canonical(cmap.target, scale, tuple(zip(*cols)) if n else ((),) * m,
                                     new_mt, tuple(off))


def _canonical_form(cell: Cell, cmap: CellMap):
    """(key, sign, cell, map) of canonical_form with the map's slots as its
    integer form: (den, den A) and den b (CellMap._int_form).  The form is
    unique, so two pairs share this key exactly when they share
    canonical_form's.  The normal-form keys of chains and the comparisons
    of fibre-product families read it."""
    ccell, cmap2 = canonical_cell_map(cell, cmap)
    den, ia, ib = cmap2._ints
    key = ((cmap2.target.kind, cmap2.target.dim), ccell.polytope.ambient_dim,
           ccell.polytope.vertices, ccell.torus_rank, (den, ia), cmap2.m_t, ib)
    return key, ccell.sign, ccell, cmap2


def canonical_form(cell: Cell, cmap: CellMap):
    """(key, sign, cell, map) of the canonical representative.

    The key is the hashable identity of (cell, map) up to cell isomorphism,
    orientation aside; the sign is the canonical cell's.  Its map slots are
    the Fraction entries A, M and b.
    """
    key, sign, ccell, cmap2 = _canonical_form(cell, cmap)
    return key[:4] + (cmap2.a, key[5], cmap2.b), sign, ccell, cmap2


def permute_cell_coords(cell: Cell, cmap: CellMap, perm: Sequence[int]):
    """Relabel polytope coordinates: new coordinate i reads old coordinate perm[i].

    The sign moves by the old dir_basis, permuted, read in the new chart.  A
    coordinate permutation keeps the vertices exact, distinct and extreme."""
    n = cell.polytope.ambient_dim
    if sorted(perm) != list(range(n)):
        raise GeometryError("perm must be a permutation of the coordinates")
    verts = [tuple(v[j] for j in perm) for v in cell.polytope.vertices]
    poly = Polytope._of_sorted(n, VertexTuple(sorted(verts)))
    fd = poly._fd
    moved = [fd.frame_coords([v[j] for j in perm]) for v in cell.polytope.dir_basis]
    new_cell = Cell(poly, cell.torus_rank, sign=cell.sign * det_sign(moved, (), fd.dim))
    if cmap.target.dim:
        new_a = tuple(tuple(row[j] for j in perm) for row in cmap.a)
    else:
        new_a = cmap.a
    return new_cell, CellMap(cmap.target, new_a, cmap.m_t, cmap.b)
