"""Cells: compact pieces of the form (convex polytope) x (flat torus), with maps.

A cell P x T^s is the geometric atom for chains and cochains. The polytope part
carries the faces and the boundary; the torus factor is closed, so a cell with a
point polytope part has empty boundary. Maps into a target send (p, t) to
A p + M t + b, with M integral so the map descends to the torus factor; over a
torus target values are read modulo Z^m.

s = 0 recovers plain oriented polytopes. The torus factor exists because no
compact polytope admits a submersion onto a positive-dimensional flat target
from every face: circle covers and identity cochains need a closed direction.

Fibre products are computed exactly: the torus part by Hermite normal form and
coset enumeration, the polytope part by slicing the product polytope with the
resulting affine equations and enumerating basic feasible solutions.

Orientation conventions.  A cell's tangent space dir(P) + R^s is fixed by the
cell, so its orientation is one sign against the default frame; a frame given
to the constructor is folded into that sign once.  A coorientation of a
submersion f is an oriented frame of Ker df, and over the oriented target it
is the same data as an orientation of the cell, by one dictionary:
TX = f*(TY) + Ker df, target first (kernel_coorientation one way,
orientation_from_coorientation the other).  So a cochain generator stores the
orientation, and the cell's sign is the one orientation carrier of chains and
cochains alike: isomorphisms commuting with the maps preserve the dictionary,
so one normal form and one boundary serve both.  A Coorientation is an input
format, validated against the map (the frame as given names the first vector
at fault), and the frame a fibre product reads.  A fibre product has one
frame rule and one output, an oriented component: a cooriented factor
contributes its kernel frame, an oriented factor its own frame lifted
through the other map, factor 1 first, with the product of the factors'
signs.  The frame lives in T1 x T2, and the component's sign is that
product times the sign of one determinant: the frame against J applied to
the component's default frame, J the inclusion of its tangent space into
T1 x T2.  A frame vector that does not lift or is not tangent, or a zero
determinant, leaves the component unoriented.  Oriented operands first
coorient the second map by the dictionary, or, if only the first map is a
submersion, the first map with its kernel in front.  This agrees with
T(Z) = Ker df1 + TY + Ker df2 when both maps are submersions, and a first
factor oriented by the dictionary makes the component the dictionary
orientation of the cup coorientation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from ._linalg import (
    IntMat,
    Mat,
    SpanError,
    Vec,
    change_of_basis_det,
    det,
    frac,
    hermite_column,
    kernel_basis,
    mat,
    rank,
    solve_columns,
    transpose,
    vec,
)
from .geometry import FaceKey, GeometryError, Polytope, section_polytope


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


def _in_ambient(basis: Mat, coords: Vec, ambient: int) -> Vec:
    """The vector with these coordinates on the basis, in ambient coordinates."""
    return tuple(sum(c * basis[i][j] for i, c in enumerate(coords))
                 for j in range(ambient))


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
    frame passed in must be a basis of it; its change of basis to the
    default frame is folded into the sign, and `frame` is the default frame.
    """

    polytope: Polytope
    torus_rank: int
    sign: int

    def __init__(self, polytope: Polytope, torus_rank: int = 0,
                 frame: Iterable[Iterable] = None, sign: int = 1):
        if torus_rank < 0:
            raise GeometryError("negative torus rank")
        if sign not in (1, -1):
            raise GeometryError("sign must be +1 or -1")
        if frame is not None:
            fr = mat(frame)
            span = default_frame(polytope, torus_rank)
            if len(fr) != len(span):
                raise GeometryError("frame length must equal cell dimension")
            if fr and len(fr[0]) != polytope.ambient_dim + torus_rank:
                raise GeometryError("frame vector has wrong length")
            if fr != span:
                try:
                    d = change_of_basis_det(fr, span)
                except SpanError:
                    raise GeometryError(
                        "frame vector outside the cell's tangent space") from None
                if d == 0:
                    raise GeometryError("frame is linearly dependent")
                if d < 0:
                    sign = -sign
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


@dataclass(frozen=True)
class CellMap:
    """Affine map (p, t) -> A p + M t + b into a target; M integral."""

    target: Target
    a: Mat           # m x n over Q
    m_t: IntMat      # m x s over Z
    b: Vec           # length m

    def __init__(self, target: Target, a: Iterable[Iterable], m_t: Iterable[Iterable], b: Iterable):
        m = target.dim
        aa = mat(a)
        bb = vec(b)
        mt = tuple(tuple(int(x) for x in row) for row in m_t)
        if len(aa) != m or len(bb) != m or len(mt) != m:
            raise MapError("map rows must equal the target dimension")
        if m == 0:
            aa, mt, bb = (), (), ()
        if target.kind in ("point", "euclid"):
            if any(any(x != 0 for x in row) for row in mt):
                raise MapError("maps to euclid/point must kill the torus factor")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "a", aa)
        object.__setattr__(self, "m_t", mt)
        object.__setattr__(self, "b", bb)

    @property
    def n_cols(self) -> int:
        return len(self.a[0]) if self.a else 0

    @property
    def s_cols(self) -> int:
        return len(self.m_t[0]) if self.m_t else 0

    def value(self, p: Vec, t: Vec = ()) -> Vec:
        out = []
        for i in range(self.target.dim):
            v = sum((self.a[i][j] * p[j] for j in range(len(p))), Fraction(0))
            v += sum(self.m_t[i][j] * frac(t[j]) for j in range(len(t)))
            v += self.b[i]
            if self.target.is_torus:
                v = v - (v.numerator // v.denominator)
            out.append(v)
        return tuple(out)

    def differential_on(self, cell: Cell) -> Mat:
        """Matrix of the differential on cell.frame, shape m x (dim cell)."""
        n = cell.polytope.ambient_dim
        cols = [_differential_vec(self, n, v) for v in cell.frame]
        return transpose(mat(cols)) if cols else tuple(() for _ in range(self.target.dim))


def _differential_vec(cmap: CellMap, n: int, v: Vec) -> Vec:
    """d(cmap) applied to v in R^(n+s), polytope part first.

    Zero entries of A, M and v are skipped and M's integers multiply v's
    Fractions directly.
    """
    p_part, t_part = v[:n], v[n:]
    out = []
    for arow, trow in zip(cmap.a, cmap.m_t):
        x = _ZERO
        for a, y in zip(arow, p_part):
            if a and y:
                x += a * y
        for t, y in zip(trow, t_part):
            if t and y:
                x += t * y
        out.append(x)
    return tuple(out)


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
    constant zero, or integral when the target is a torus.
    """
    if f.target != g.target or f.m_t != g.m_t:
        return False
    m = f.target.dim
    if m == 0:
        return True
    diffs = [tuple(sum(f.a[r][c] * v[c] for c in range(len(v))) + f.b[r]
                   - sum(g.a[r][c] * w[c] for c in range(len(w))) - g.b[r]
                   for r in range(m))
             for v, w in point_pairs]
    if any(d != diffs[0] for d in diffs):
        return False
    if f.target.is_torus:
        return all(x.denominator == 1 for x in diffs[0])
    return all(x == 0 for x in diffs[0])


# ---------------------------------------------------------------------------
# Submersion conditions
# ---------------------------------------------------------------------------

def _span_is_full(differential_cols: Sequence[Vec], m: int) -> bool:
    if m == 0:
        return True
    if not differential_cols:
        return False
    return rank(mat(differential_cols)) == m


def _face_differential_cols(cmap: CellMap, cell: Cell, dir_basis: Mat) -> list[Vec]:
    """Columns of the differential on a face with this direction basis, plus the torus."""
    n = cell.polytope.ambient_dim
    cols = []
    for d in dir_basis:
        cols.append(tuple(sum(cmap.a[i][j] * d[j] for j in range(n))
                          for i in range(cmap.target.dim)))
    for j in range(cell.torus_rank):
        cols.append(tuple(frac(cmap.m_t[i][j]) for i in range(cmap.target.dim)))
    return cols


def is_interior_submersion(cell: Cell, cmap: CellMap) -> bool:
    """Differential surjective on the top-dimensional stratum."""
    cols = _face_differential_cols(cmap, cell, cell.polytope.dir_basis)
    return _span_is_full(cols, cmap.target.dim)


def is_strong_submersion(cell: Cell, cmap: CellMap) -> bool:
    """Differential surjective on every face's direction space (plus torus factor).

    The columns of a face contain those of each of its vertices, and every
    face has a vertex, so the vertices decide it.  A vertex has no direction
    space: the condition is that the torus columns alone span the target.
    """
    return _span_is_full(_face_differential_cols(cmap, cell, ()), cmap.target.dim)


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
        if sign not in (1, -1):
            raise MapError("sign must be +1 or -1")
        if rank(fr) != len(fr):
            raise MapError("coorientation frame is linearly dependent")
        object.__setattr__(self, "frame", fr)
        object.__setattr__(self, "sign", sign)

    def reversed(self) -> "Coorientation":
        return Coorientation(self.frame, -self.sign)


def validate_coorientation(cell: Cell, cmap: CellMap, co: Coorientation) -> None:
    """Check the frame is an exact basis of Ker(df) within the tangent space."""
    n = cell.polytope.ambient_dim
    expected = cell.dim - cmap.target.dim
    if len(co.frame) != expected:
        raise MapError(
            f"coorientation frame has {len(co.frame)} vectors, expected {expected}")
    if co.frame and len(co.frame[0]) != cell.ambient:
        raise MapError("coorientation vector has wrong length")

    def in_kernel(v):
        return not any(_differential_vec(cmap, n, v))

    # The first failing vector names the fault, tangent space before kernel.
    bad = next((k for k, v in enumerate(co.frame) if not in_kernel(v)), len(co.frame))
    span = cell.frame
    if rank(span + co.frame[:bad + 1]) != len(span):
        raise MapError("coorientation vector outside the tangent space")
    if bad < len(co.frame):
        raise MapError("coorientation vector not in the kernel of the differential")


def _target_lifts(tb: Mat, dmat: Mat, ambient: int) -> list[Vec]:
    """Ambient vectors w_i with df(w_i) = e_i, solved on the tangent basis tb."""
    m = len(dmat)
    ws = solve_columns(dmat, [_unit(m, i) for i in range(m)])
    if ws is None:
        raise FibreProductError("map is not an interior submersion")
    return [_in_ambient(tb, w, ambient) for w in ws]


def kernel_coorientation(cell: Cell, cmap: CellMap) -> Coorientation:
    """The coorientation matching the cell's orientation: TX = f*(TY) + Ker df.

    The kernel frame is oriented so that (lifts of the target frame, kernel
    frame) matches the cell; the inverse of orientation_from_coorientation.
    """
    tb = cell.frame
    dmat = cmap.differential_on(cell)
    m = cmap.target.dim
    kb = kernel_basis(dmat) if dmat and dmat[0] else tuple(
        _unit(cell.dim, i) for i in range(cell.dim))
    if len(kb) != cell.dim - m:
        raise FibreProductError("map is not an interior submersion")
    lifts = _target_lifts(tb, dmat, cell.ambient)
    kframe = tuple(_in_ambient(tb, k, cell.ambient) for k in kb)
    frame_vs = lifts + list(kframe)
    if frame_vs:
        d = change_of_basis_det(frame_vs, tb)
        eps = (1 if d > 0 else -1) * cell.sign
    else:
        eps = cell.sign
    return Coorientation(kframe, eps)


def first_factor_kernel(cell: Cell, cmap: CellMap) -> Coorientation:
    """Kernel frame oriented by the first-factor rule TX = Ker + (lifts of TY)."""
    co = kernel_coorientation(cell, cmap)
    m = cmap.target.dim
    q = len(co.frame)
    flip = -1 if (m * q) % 2 else 1
    return Coorientation(co.frame, co.sign * flip)


def orientation_from_coorientation(cell: Cell, cmap: CellMap, co: Coorientation) -> Cell:
    """Orient the cell by TX = f*(TY) + Ker df, using the target's standard frame."""
    lifts = _target_lifts(cell.frame, cmap.differential_on(cell), cell.ambient)
    frame_vs = tuple(lifts) + tuple(co.frame)
    return Cell(cell.polytope, cell.torus_rank, frame_vs, co.sign)


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

    A facet's sign, outward normal first, is read from the polytope's face
    data.  It does not depend on the torus rank: both frames end in the same
    identity block on R^s, so the change of basis between them is block
    diagonal with an identity block.
    """
    p = cell.polytope
    s = cell.torus_rank
    zero = (Fraction(0),) * s
    return [CellBoundaryComponent(face=key, cell=Cell(fp, s, sign=sign * cell.sign),
                                  outward=tuple(outward) + zero)
            for (key, outward), (fp, sign) in zip(p.facets(), p._fd.facet_cells())]


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
                    ) -> Optional[tuple[Polytope, list[int]]]:
    """(P1 x P2) cut by affine equations row.p = rhs; None when empty.

    With the slice comes, per vertex, the bitmask of the factor facets tight
    at it: P1's facets in its facets() order, then P2's.
    """
    n1, n2 = p1.ambient_dim, p2.ambient_dim
    zero1, zero2 = (Fraction(0),) * n1, (Fraction(0),) * n2
    eqs = [(tuple(row) + zero2, rhs) for row, rhs in p1.affine_hull_equations()]
    eqs += [(zero1 + tuple(row), rhs) for row, rhs in p2.affine_hull_equations()]
    eqs += equations
    ineqs = [(tuple(f) + zero2, c) for f, c, _ in p1.facet_inequalities()]
    ineqs += [(zero1 + tuple(f), c) for f, c, _ in p2.facet_inequalities()]
    return section_polytope(n1 + n2, eqs, ineqs)


def _compose(g: CellMap, offset_n: int, t_lo: int, n: int, s_z: int,
             t_rows, t_fcoefs, t_consts) -> CellMap:
    """g on a factor, composed with the inclusion of a fibre component.

    The factor's polytope coordinates start at offset_n among the n of the
    product, its torus coordinates at t_lo; torus coordinate k is
    t_rows[k].p + t_fcoefs[k].phi + t_consts[k] on the component, with phi
    its s_z free torus coordinates.
    """
    a_out, m_out, b_out = [], [], []
    for i in range(g.target.dim):
        row = [Fraction(0)] * n
        for j in range(g.n_cols):
            row[offset_n + j] = frac(g.a[i][j])
        fc = [0] * s_z
        const = g.b[i]
        for k, coef in enumerate(g.m_t[i], t_lo):
            if coef:
                row = [row[j] + coef * t_rows[k][j] for j in range(n)]
                for l in range(s_z):
                    fc[l] += coef * t_fcoefs[k][l]
                const += coef * t_consts[k]
        a_out.append(tuple(row))
        m_out.append(tuple(fc))
        b_out.append(const)
    return CellMap(g.target, a_out, m_out, b_out)


@dataclass
class FibreComponent:
    """One connected piece of a fibre product, with its projection to the target.

    The torus coordinates of the factors are affine in the component's own
    coordinates; the stored section data lets maps on either factor be composed
    with the inclusion, which is how iterated fibre products are built.
    """

    cell: Cell
    pmap: CellMap
    translate: tuple[int, ...]
    transverse: bool
    orientable: bool
    face_pairs: dict    # face mask -> (face mask in factor 1, in factor 2)
    split: tuple[int, int, int, int] = (0, 0, 0, 0)       # n1, s1, n2, s2
    t_rows: tuple = ()
    t_fcoefs: tuple = ()
    t_consts: tuple = ()

    def compose_on_first(self, g: CellMap) -> CellMap:
        """g on the first factor, composed with the inclusion of the component."""
        n1, s1, n2, _ = self.split
        if g.target.dim and (g.n_cols != n1 or g.s_cols != s1):
            raise MapError("map shape does not match the first factor")
        return _compose(g, 0, 0, n1 + n2, self.cell.torus_rank,
                        self.t_rows, self.t_fcoefs, self.t_consts)

    def compose_on_second(self, g: CellMap) -> CellMap:
        n1, s1, n2, s2 = self.split
        if g.target.dim and (g.n_cols != n2 or g.s_cols != s2):
            raise MapError("map shape does not match the second factor")
        return _compose(g, n1, s1, n1 + n2, self.cell.torus_rank,
                        self.t_rows, self.t_fcoefs, self.t_consts)


def fibre_product_cells(cell1: Cell, map1: CellMap, cell2: Cell, map2: CellMap, *,
                        coorient2: Optional[Coorientation] = None,
                        ) -> list[FibreComponent]:
    """All components of the fibre product of two cells over a shared target,
    each oriented by one frame rule, or flagged not orientable.

    Factor 1 is oriented; it contributes its frame lifted through map2.
    Factor 2 contributes the kernel frame of coorient2, by default
    kernel_coorientation(cell2, map2), with the product of the signs.  When
    map2 is not an interior submersion, factor 1 contributes the kernel frame
    of first_factor_kernel(cell1, map1) instead and factor 2 its frame lifted
    through map1.  With cell1 oriented by the dictionary, the component is
    oriented by the cup coorientation (Ker df1, Ker df2).

    The frame, in T1 x T2, orients a component by one determinant against
    J applied to the component's default frame, with the product of the
    factors' signs; a component whose frame is not a basis of its tangent
    space is flagged not orientable.
    """
    if map1.target != map2.target:
        raise FibreProductError("fibre product needs a common target")
    target = map1.target
    m = target.dim
    n1, s1 = cell1.polytope.ambient_dim, cell1.torus_rank
    n2, s2 = cell2.polytope.ambient_dim, cell2.torus_rank
    if m > 0 and (map1.n_cols != n1 or map1.s_cols != s1
                  or map2.n_cols != n2 or map2.s_cols != s2):
        raise MapError("map shapes do not match the cells")
    coorient1 = None
    if coorient2 is not None:
        validate_coorientation(cell2, map2, coorient2)
    elif is_interior_submersion(cell2, map2):
        coorient2 = kernel_coorientation(cell2, map2)
    elif is_interior_submersion(cell1, map1):
        coorient1 = first_factor_kernel(cell1, map1)
    else:
        raise FibreProductError("neither map is an interior submersion")

    n = n1 + n2
    s = s1 + s2
    a_rows = tuple(tuple(map1.a[i]) + tuple(-x for x in map2.a[i]) for i in range(m))
    m_rows = tuple(tuple(map1.m_t[i]) + tuple(-x for x in map2.m_t[i]) for i in range(m))
    c_vec = tuple(map2.b[i] - map1.b[i] for i in range(m))

    if s > 0 and m > 0:
        h, u = hermite_column(m_rows)
    else:
        h = m_rows
        u = tuple(tuple(1 if i == j else 0 for j in range(s)) for i in range(s))
    pivots = _pivots_of(h)
    rho = len(pivots)
    s_z = s - rho
    pivot_rows = [pr for pr, _, _ in pivots]
    nonpivot_rows = [r for r in range(m) if r not in pivot_rows]
    expected_dim = cell1.dim + cell2.dim - m

    pairs = [(v1, v2) for v1 in cell1.polytope.vertices for v2 in cell2.polytope.vertices]

    if target.is_torus:
        pivot_choices = itertools.product(*[range(d) for _, d, _ in pivots])
    else:
        pivot_choices = [tuple(0 for _ in pivots)]

    components: list[FibreComponent] = []
    for piv_choice in pivot_choices:
        # tau_j as affine functions of p, solved row by row from the pivot rows
        tau_rows: list[Vec] = []
        tau_consts: list[Fraction] = []
        lam = [Fraction(0)] * m
        for (pr, _, _), val in zip(pivots, piv_choice):
            lam[pr] = Fraction(val)
        for jj, (pr, d, _) in enumerate(pivots):
            row = [-frac(a_rows[pr][k]) for k in range(n)]
            const = c_vec[pr] + lam[pr]
            for j2 in range(jj):
                coef = frac(h[pr][j2])
                if coef:
                    row = [row[k] - coef * tau_rows[j2][k] for k in range(n)]
                    const -= coef * tau_consts[j2]
            tau_rows.append(tuple(x / d for x in row))
            tau_consts.append(const / d)

        # residual constraints on p from the non-pivot rows
        residuals = []
        for r in nonpivot_rows:
            row = [frac(a_rows[r][k]) for k in range(n)]
            const = Fraction(0)
            for j2 in range(rho):
                coef = frac(h[r][j2])
                if coef:
                    row = [row[k] + coef * tau_rows[j2][k] for k in range(n)]
                    const += coef * tau_consts[j2]
            # row.p + const = c_r + lambda_r
            residuals.append((r, tuple(row), const - c_vec[r]))

        if target.is_torus and residuals:
            ranges = []
            for _, row, shift in residuals:
                vals = [sum(row[k] * (v1 + v2)[k] for k in range(n)) + shift
                        for v1, v2 in pairs]
                lo, hi = min(vals), max(vals)
                ranges.append(range(math.ceil(lo), math.floor(hi) + 1))
            residual_choices = itertools.product(*ranges)
        else:
            residual_choices = [tuple(0 for _ in residuals)]

        for res_choice in residual_choices:
            lam_full = list(lam)
            equations = []
            for (r, row, shift), val in zip(residuals, res_choice):
                lam_full[r] = Fraction(val)
                equations.append((row, Fraction(val) - shift))
            section = _slice_polytope(cell1.polytope, cell2.polytope, equations)
            if section is None:
                continue
            comp = _build_component(
                cell1, map1, cell2, map2, *section, s_z, u, rho,
                tau_rows, tau_consts, tuple(int(x) for x in lam_full),
                expected_dim, coorient1, coorient2)
            components.append(comp)

    components.sort(key=lambda fc: (fc.cell.polytope.vertices, fc.translate))
    return components


def _build_component(cell1, map1, cell2, map2, poly, tight, s_z, u, rho,
                     tau_rows, tau_consts, translate, expected_dim,
                     coorient1, coorient2) -> FibreComponent:
    n1, s1 = cell1.polytope.ambient_dim, cell1.torus_rank
    n2, s2 = cell2.polytope.ambient_dim, cell2.torus_rank
    n = n1 + n2
    s = s1 + s2
    m = map1.target.dim

    # t = U tau: affine data for each t coordinate
    t_rows = []
    t_fcoefs = []
    t_consts = []
    for k in range(s):
        row = [Fraction(0)] * n
        const = Fraction(0)
        for j in range(rho):
            coef = frac(u[k][j])
            if coef:
                row = [row[i] + coef * tau_rows[j][i] for i in range(n)]
                const += coef * tau_consts[j]
        t_rows.append(tuple(row))
        t_fcoefs.append(tuple(int(u[k][rho + i]) for i in range(s_z)))
        t_consts.append(const)

    # projection to the target through the first factor
    pmap = _compose(map1, 0, 0, n, s_z, t_rows, t_fcoefs, t_consts)

    # face pairs and transversality, from the slice's tight factor facets at
    # each vertex: a face's factor faces are the meets of the facets tight at
    # all of its vertices
    p1, p2 = cell1.polytope, cell2.polytope
    fd, fd1, fd2 = poly._fd, p1._fd, p2._fd
    dims1, dims2 = fd1.face_dims(), fd2.face_dims()
    k1 = len(fd1.facet_masks)
    tight = [(z & (1 << k1) - 1, z >> k1) for z in tight]
    face_pairs = {}
    transverse = (poly.dim + s_z == expected_dim)
    for g, dim in fd.face_dims().items():
        t1 = t2 = -1
        for i, (b1, b2) in enumerate(tight):
            if g >> i & 1:
                t1 &= b1
                t2 &= b2
        f1, f2 = fd1.meet(t1), fd2.meet(t2)
        face_pairs[g] = (f1, f2)
        if poly.dim - dim != p1.dim - dims1[f1] + p2.dim - dims2[f2]:
            transverse = False
    # The span check runs at the vertices only.  If G' lies in G, the factor
    # faces of G' lie in those of G, so the columns at G span at least what
    # they span at G'; every face has a vertex, so a face fails only if one
    # of its vertices does.
    for f1, f2 in {(fd1.meet(b1), fd2.meet(b2)) for b1, b2 in tight}:
        cols = _face_differential_cols(map1, cell1, p1.face_from_mask(f1).dir_basis)
        cols += _face_differential_cols(map2, cell2, p2.face_from_mask(f2).dir_basis)
        if not _span_is_full(cols, m):
            transverse = False
            break

    # J, the embedding of the component's tangent space into T1 x T2 with
    # coordinates ordered (p1, t1, p2, t2): a direction u of the slice moves
    # t by t_rows . u, and the free torus coordinate phi_i moves it by
    # column i of t_fcoefs.  j_cols is J applied to the component's default
    # frame, so the frame rule's vectors orient the component by their
    # determinant against it.
    def j_column(u_dir, dt):
        return (tuple(u_dir[:n1]) + tuple(dt[:s1])
                + tuple(u_dir[n1:]) + tuple(dt[s1:]))

    j_cols = [j_column(d, [sum((x * y for x, y in zip(row, d) if x), Fraction(0))
                           for row in t_rows])
              for d in poly.dir_basis]
    j_cols += [j_column((Fraction(0),) * n, [Fraction(fc[i]) for fc in t_fcoefs])
               for i in range(s_z)]

    def lift_through(cellk, mapk, other_map, other_n, frame):
        """For each v in frame, w in T(cellk) with dmapk(w) = d(other_map)(v)."""
        ws = solve_columns(mapk.differential_on(cellk),
                           [_differential_vec(other_map, other_n, v) for v in frame])
        if ws is None:
            raise FibreProductError("frame vector does not lift through the map")
        return [_in_ambient(cellk.frame, w, cellk.ambient) for w in ws]

    zero1 = (Fraction(0),) * (n1 + s1)
    zero2 = (Fraction(0),) * (n2 + s2)
    try:
        if coorient1 is not None:
            vecs = [tuple(k) + zero2 for k in coorient1.frame]
        else:
            lifts = lift_through(cell2, map2, map1, n1, cell1.frame)
            vecs = [tuple(v) + w for v, w in zip(cell1.frame, lifts)]
        if coorient2 is not None:
            vecs += [zero1 + tuple(k) for k in coorient2.frame]
        else:
            lifts = lift_through(cell1, map1, map2, n2, cell2.frame)
            vecs += [w + tuple(v) for v, w in zip(cell2.frame, lifts)]
        d = change_of_basis_det(vecs, j_cols) if len(vecs) == len(j_cols) else 0
    except (FibreProductError, SpanError):
        # a frame vector that does not lift or is not tangent leaves the
        # component unoriented, as does a frame of the wrong length or one
        # that is not a basis (d = 0)
        d = 0
    sign = ((cell1 if coorient1 is None else coorient1).sign
            * (cell2 if coorient2 is None else coorient2).sign)
    cell = Cell(poly, s_z, sign=sign if d > 0 else -sign) if d else Cell(poly, s_z)

    return FibreComponent(
        cell=cell, pmap=pmap, translate=translate,
        transverse=transverse, orientable=d != 0, face_pairs=face_pairs,
        split=(n1, s1, n2, s2),
        t_rows=tuple(t_rows), t_fcoefs=tuple(t_fcoefs), t_consts=tuple(t_consts))


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def has_free_circle(cell: Cell, cmap: CellMap) -> bool:
    """True when some torus direction is killed by the map's differential.

    Such a direction admits an orientation-reversing self-map fixing the map,
    so over a field of characteristic zero the generator cancels to zero.
    """
    s = cell.torus_rank
    if s == 0:
        return False
    if cmap.target.dim == 0:
        return True
    cols = [tuple(frac(cmap.m_t[i][j]) for i in range(cmap.target.dim))
            for j in range(s)]
    return rank(mat(cols)) < s


@lru_cache(maxsize=4096)
def _torus_form(m_t: IntMat, is_torus: bool):
    """(H, det U, pivots, lattice): the torus part of canonical_cell_map for M_t.

    H = M_t U is the column Hermite form, U in GL_s(Z) with det U = +-1 (M_t
    itself, det 1, when it has no rows or no columns).  pivots are
    (row, value, column of H) for each nonzero column of H.  lattice is None
    unless the target is a torus with rows outside the pivot rows; then it is
    (npiv, denom, hb): those rows, and the Hermite form hb of denom times the
    reduced unit vectors read on them, square and lower triangular, which
    spans the reduced image of Z^m there.  The unimodularity and echelon
    checks run here, once per matrix.
    """
    m = len(m_t)
    if m and m_t[0]:
        h, uc = hermite_column(m_t)
        det_u = det(uc)
        if det_u not in (1, -1):
            raise AssertionError("hermite transform must be unimodular")
        det_u = int(det_u)
    else:
        h, det_u = m_t, 1
    pivots = tuple((p, d, tuple(row[t] for row in h)) for p, d, t in _pivots_of(h))
    lattice = None
    pivot_rows = {p for p, _, _ in pivots}
    npiv = tuple(k for k in range(m) if k not in pivot_rows)
    if is_torus and npiv:
        # the reduced translates Z^m hold the unit vectors of the
        # non-pivot rows, so their Hermite form is square on those rows
        gens = [_reduce(pivots, _unit(m, k)) for k in range(m)]
        denom = math.lcm(*(g[j].denominator for g in gens for j in npiv))
        hb, _ = hermite_column([[int(g[j] * denom) for g in gens] for j in npiv])
        lattice = (npiv, denom, hb)
    return h, det_u, pivots, lattice


def _reduce(pivots, x) -> list:
    """x modulo the torus columns, zero at their pivot rows."""
    x = list(x)
    for p, d, col in pivots:
        q = x[p] / d
        if q:
            x = [xi - q * ci for xi, ci in zip(x, col)]
    return x


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

    The offset is reduce(b + A p0), p0 the hull origin (the point of aff(P)
    whose free coordinates are 0).  It equals reduce(A v0 + b) less the new
    linear part at v0: v0 - p0 = sum_c v0_c w_c over the hull directions,
    reduce is a linear projection along the torus columns, and it fixes
    each reduced column.  The arithmetic is exact, so the identity holds
    entry for entry.  Each row of A is read as integers over its
    denominators' lcm against the hull's integer chart (hull_chart), so an
    entry of the new A or b is made as one Fraction.  The Hermite form, its
    sign, the pivots and the reduced lattice depend on M alone (and on
    whether the target is a torus): they are computed once per integral
    matrix (_torus_form).
    """
    n = cell.polytope.ambient_dim
    m = cmap.target.dim
    new_mt, det_u, pivots, lattice = _torus_form(cmap.m_t, cmap.target.is_torus)
    new_a = cmap.a
    new_b = cmap.b
    if m > 0:
        den, dirs, origin = cell.polytope._fd.hull_chart()
        rows = []
        for row in cmap.a:
            scale = math.lcm(*(x.denominator for x in row))
            rows.append(([x.numerator * (scale // x.denominator) for x in row], scale * den))
        if n > 0:
            # The direction w_c of aff(P) with free coordinates e_c: its value
            # under the map, reduced, is column c of the new linear part.
            cols = {c: _reduce(pivots, [Fraction(sum(r[j] * x for j, x in w), d)
                                        for r, d in rows])
                    for c, w in dirs}
            new_a = [tuple(cols[c][i] if c in cols else _ZERO for c in range(n))
                     for i in range(m)]
        new_b = _reduce(pivots, [
            Fraction(bi.numerator * d + bi.denominator * sum(r[j] * x for j, x in origin),
                     bi.denominator * d)
            for (r, d), bi in zip(rows, cmap.b)])
        if lattice is not None:
            npiv, denom, hb = lattice
            x = [new_b[j] * denom for j in npiv]
            for i in range(len(npiv)):
                q = math.floor(x[i] / hb[i][i])
                if q:
                    for k in range(i, len(npiv)):
                        x[k] -= q * hb[k][i]
            for idx, j in enumerate(npiv):
                new_b[j] = x[idx] / denom

    return (Cell(cell.polytope, cell.torus_rank, sign=cell.sign * det_u),
            CellMap(cmap.target, new_a, new_mt, tuple(new_b)))


def canonical_form(cell: Cell, cmap: CellMap):
    """(key, sign, cell, map) of the canonical representative.

    The key is the hashable identity of (cell, map) up to cell isomorphism,
    orientation aside; the sign is the canonical cell's.
    """
    ccell, cmap2 = canonical_cell_map(cell, cmap)
    key = ((cmap2.target.kind, cmap2.target.dim), ccell.polytope.ambient_dim,
           ccell.polytope.vertices, ccell.torus_rank, cmap2.a, cmap2.m_t, cmap2.b)
    return key, ccell.sign, ccell, cmap2


def canonical_key(cell: Cell, cmap: CellMap):
    """Hashable identity of (cell, map) up to cell isomorphism, orientation aside."""
    return canonical_form(cell, cmap)[0]


def permute_cell_coords(cell: Cell, cmap: CellMap, perm: Sequence[int]):
    """Relabel polytope coordinates: new coordinate i reads old coordinate perm[i]."""
    n = cell.polytope.ambient_dim
    if sorted(perm) != list(range(n)):
        raise GeometryError("perm must be a permutation of the coordinates")
    verts = [tuple(v[j] for j in perm) for v in cell.polytope.vertices]
    poly = Polytope(n, verts, _trusted=True)
    frame = tuple(tuple(v[j] for j in perm) + v[n:] for v in cell.frame)
    new_cell = Cell(poly, cell.torus_rank, frame, cell.sign)
    if cmap.target.dim:
        new_a = tuple(tuple(row[j] for j in perm) for row in cmap.a)
    else:
        new_a = cmap.a
    return new_cell, CellMap(cmap.target, new_a, cmap.m_t, cmap.b)
