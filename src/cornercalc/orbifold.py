"""Finite group actions on polytopes, fixed-point strata, and quotient data.

Groups are given by multiplication tables and act by affine maps that permute
vertex sets.  Representations split into a fixed part and an invariant
complement by the averaged projector; strata collect fixed loci whose
nontrivial tangent character matches a prescribed class, and the forgetful map
to the space is checked to have finite fibers.  Invariant generator data
pushes down to a chain: each component orbit's quotient enters it as
1/|stabilizer| times its cover.

The arithmetic runs on integers.  A group keeps its table as index rows
too, for the associativity check and the injective morphisms.  Each affine
map of an action is kept as its integer view (A, a, m), the map
x -> (A x + a) / m: the vertex tables, the stabilizer of a point and the
fixed-locus equations read it, and the fixed loci are cut by those
equations and the polytope's integer rows.  A direction representation
reads each element's matrix in the component's chart (its direction basis
over one denominator, the images read at its pivots) and hands it over as
integers; a representation keeps its matrices over one common denominator,
and its law and character are read on them.  A virtual class keeps integer
characters as integers.  Fractions are made once, for what is handed out.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from ._linalg import (Vec, _scaled, _scaled_exact, frac, identity, kernel_basis, mat, matvec,
                      solve, vec)
from .cells import Cell, CellMap, maps_agree
from .chains import Chain, QuotientMarker, Tag
from .geometry import Polytope, _idot, move_mask, section_polytope


class OrbifoldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A finite group presented by its full multiplication table."""

    __slots__ = ("elements", "table", "identity", "_inv", "_rows")

    def __init__(self, elements: Sequence, table: Mapping):
        elems = tuple(elements)
        if len(set(elems)) != len(elems) or not elems:
            raise OrbifoldError("group elements must be distinct and nonempty")
        pos = {x: i for i, x in enumerate(elems)}
        tbl = {}
        rows = []  # rows[i][j]: the position of elems[i] * elems[j]
        for a in elems:
            row = []
            for b in elems:
                if (a, b) not in table:
                    raise OrbifoldError("multiplication table is incomplete")
                c = table[(a, b)]
                if c not in pos:
                    raise OrbifoldError("product leaves the element set")
                tbl[(a, b)] = c
                row.append(pos[c])
            rows.append(row)
        cols = [list(col) for col in zip(*rows)]
        same = list(range(len(elems)))
        e = next((i for i, (row, col) in enumerate(zip(rows, cols)) if row == same == col), None)
        if e is None:
            raise OrbifoldError("no identity element")
        # (ab)c = a(bc): row ab is row a read at the entries of row b
        if any(rows[ra[b]] != [ra[x] for x in rows[b]] for ra in rows for b in same):
            raise OrbifoldError("multiplication is not associative")
        inv = {}
        for a, row, col in zip(elems, rows, cols):
            b = next((j for j, (x, y) in enumerate(zip(row, col)) if x == y == e), None)
            if b is None:
                raise OrbifoldError(f"element {a!r} has no inverse")
            inv[a] = elems[b]
        self.elements = elems
        self.table = tbl
        self.identity = elems[e]
        self._inv = inv
        self._rows = rows

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, a, b):
        return self.table[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def conjugate(self, a, sigma):
        """sigma^-1 a sigma."""
        return self.mul(self.mul(self._inv[sigma], a), sigma)

    def generating_set(self) -> tuple:
        gens: list = []
        closed = {self.identity}
        for x in self.elements:
            if x not in closed:
                gens.append(x)
                closed = self._closure(gens)
        return tuple(gens)

    def _closure(self, gens: Sequence) -> set:
        out = {self.identity, *gens}
        frontier = list(out)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(out):
                    for c in (self.mul(a, b), self.mul(b, a)):
                        if c not in out:
                            out.add(c)
                            nxt.append(c)
            frontier = nxt
        return out

    def conjugacy_classes(self) -> tuple:
        seen: set = set()
        classes = []
        for a in self.elements:
            if a in seen:
                continue
            cls = {self.conjugate(a, s) for s in self.elements}
            seen |= cls
            classes.append(tuple(x for x in self.elements if x in cls))
        return tuple(classes)


def same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    """One group: the same elements and the same multiplication table."""
    return g is h or (g.elements == h.elements and g.table == h.table)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise OrbifoldError("cyclic group order must be positive")
    elems = [f"r{i}" for i in range(n)]
    table = {(f"r{i}", f"r{j}"): f"r{(i + j) % n}"
             for i in range(n) for j in range(n)}
    return FiniteGroup(elems, table)


TRIVIAL_GROUP = cyclic_group(1)


def product_group(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    elems = [f"{a}|{b}" for a in g.elements for b in h.elements]
    table = {}
    for a1 in g.elements:
        for b1 in h.elements:
            for a2 in g.elements:
                for b2 in h.elements:
                    table[(f"{a1}|{b1}", f"{a2}|{b2}")] = (
                        f"{g.mul(a1, a2)}|{h.mul(b1, b2)}")
    return FiniteGroup(elems, table)


def symmetric_group(n: int) -> FiniteGroup:
    if not 1 <= n <= 4:
        raise OrbifoldError("symmetric groups supported up to degree 4")
    perms = list(itertools.permutations(range(n)))
    label = {p: "".join(str(i) for i in p) for p in perms}
    table = {}
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(n))
            table[(label[p], label[q])] = label[comp]
    return FiniteGroup([label[p] for p in perms], table)


def injective_morphisms(sub: FiniteGroup, big: FiniteGroup) -> tuple:
    """All injective homomorphisms, each as a sorted tuple of (x, image).

    The images of sub's generators fix a candidate lam, walked out from the
    identity on the index rows as lam(x g) = lam(x) lam(g); it is kept when
    it is injective and lam(a b) = lam(a) lam(b) for all a, b.
    """
    pos = {x: i for i, x in enumerate(sub.elements)}
    gens = [pos[g] for g in sub.generating_set()]
    start, image_of_start = pos[sub.identity], big.elements.index(big.identity)
    out = []
    for images in itertools.product(range(len(big)), repeat=len(gens)):
        lam = [None] * len(sub)
        lam[start] = image_of_start
        walk = [start]
        for x in walk:
            for g, img in zip(gens, images):
                y = sub._rows[x][g]
                if lam[y] is None:
                    lam[y] = big._rows[lam[x]][img]
                    walk.append(y)
        if len(set(lam)) == len(sub) and all(
                big._rows[lam[a]][lam[b]] == lam[c]
                for a, row in enumerate(sub._rows) for b, c in enumerate(row)):
            out.append(tuple(sorted(zip(sub.elements, (big.elements[j] for j in lam)))))
    return tuple(out)


def conjugate_morphism(lam: tuple, sigma, big: FiniteGroup) -> tuple:
    return tuple(sorted((x, big.conjugate(img, sigma)) for x, img in lam))


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

class ActionComponentMap:
    """x -> matrix x + offset, onto component `target`.

    The map is kept as its integer view ints = (A, a, m), the map
    x -> (A x + a) / m over one denominator m, made once from the entries
    given: integer entries stand as they are, and rational ones are scaled
    by the lcm of all denominators, so equal maps have equal views.  Only
    ints is read (vertex tables, stabilizers, direction representations,
    fixed-locus cuts), and elements compose on the vertex tables.  G acting
    on a torus target T^m would act by TargetMaps: composed by
    TargetMap.compose, their values wrapped by Target.wrap.
    """

    def __init__(self, target: int, matrix: Sequence, offset: Sequence):
        rows = [list(row) for row in matrix]
        flat, m = _scaled_exact(itertools.chain(*rows, offset))
        it = iter(flat)
        self.target = target
        self.ints = (tuple(tuple(itertools.islice(it, len(row))) for row in rows), tuple(it), m)

    def __eq__(self, other):
        return isinstance(other, ActionComponentMap) and \
            (self.target, self.ints) == (other.target, other.ints)

    def __hash__(self):
        return hash((self.target, self.ints))


class GroupAction:
    """A finite group acting affinely on a disjoint union of polytopes.

    Every element must send each component onto a component, carrying the
    vertex set bijectively.  Each element's maps are applied to each
    component's vertices once, giving a table of vertex permutations; the
    homomorphism law a.(b.v) = (ab).v is checked on those tables, which are
    kept: tables[g][i][k] is the index of g.v in component maps[g][i].target
    for vertex k of component i, so faces move as vertex bitmasks.  The
    tables are built on integers: each component's vertices over one common
    denominator, each map's matrix and offset over another (the map's
    integer view ActionComponentMap.ints, read again by stabilizer,
    direction_rep and orbifold_stratum), and an image that falls off the
    target's vertex lattice is no vertex (_vertex_images).
    """

    __slots__ = ("group", "spaces", "maps", "tables")

    def __init__(self, group: FiniteGroup, space, rep: Mapping):
        if isinstance(space, Polytope):
            spaces = (space,)
            rep = {g: (self._entry(v),) for g, v in rep.items()}
        else:
            spaces = tuple(space)
            rep = {g: tuple(self._entry(e) for e in entries)
                   for g, entries in rep.items()}
        maps = {}
        for g in group.elements:
            if g not in rep:
                raise OrbifoldError(f"no affine data for element {g!r}")
            entries = rep[g]
            if len(entries) != len(spaces):
                raise OrbifoldError("one affine map per component is required")
            maps[g] = entries
        self.group = group
        self.spaces = spaces
        self.maps = maps
        self._validate()

    @staticmethod
    def _entry(v) -> ActionComponentMap:
        if isinstance(v, ActionComponentMap):
            return v
        if len(v) == 3:
            j, m, c = v
        else:
            m, c = v
            j = 0
        return ActionComponentMap(int(j), m, c)

    def _validate(self) -> None:
        grp = self.group
        lattices = [sp._fd.lattice() for sp in self.spaces]
        index = [{x: k for k, x in enumerate(xs)} for xs, _ in lattices]
        perms = {}
        for g, entries in self.maps.items():
            targets = [e.target for e in entries]
            if sorted(targets) != list(range(len(self.spaces))):
                raise OrbifoldError("components must be permuted")
            perms[g] = []
            for i, e in enumerate(entries):
                src, dst = self.spaces[i], self.spaces[e.target]
                if len(e.ints[0]) != dst.ambient_dim or any(
                        len(row) != src.ambient_dim for row in e.ints[0]):
                    raise OrbifoldError("affine map shape mismatch")
                image = _vertex_images(e, lattices[i], lattices[e.target][1],
                                       index[e.target])
                if set(image) != set(range(len(dst.vertices))):
                    raise OrbifoldError(
                        f"element {g!r} does not permute the vertex set")
                perms[g].append(image)
        # numbered across the components, each element's tables are one
        # permutation, and a.(b.v) = (ab).v is their composition
        starts = list(itertools.accumulate((len(sp.vertices) for sp in self.spaces), initial=0))
        whole = {g: [starts[e.target] + k for e, image in zip(self.maps[g], perms[g])
                     for k in image] for g in grp.elements}
        for a in grp.elements:
            pa = whole[a]
            for b in grp.elements:
                if [pa[k] for k in whole[b]] != whole[grp.table[(a, b)]]:
                    raise OrbifoldError("action is not a homomorphism")
        self.tables = perms

    @property
    def single(self) -> Polytope:
        if len(self.spaces) != 1:
            raise OrbifoldError("action has several components")
        return self.spaces[0]

    def component_orbit(self, i: int) -> tuple:
        return tuple(sorted({self.maps[g][i].target
                             for g in self.group.elements}))

    def component_stabilizer(self, i: int) -> tuple:
        return tuple(g for g in self.group.elements
                     if self.maps[g][i].target == i)


def _vertex_images(e: ActionComponentMap, src: tuple, dst_den: int, index: dict) -> tuple:
    """Index of e.v among the target's vertices for each source vertex v,
    None where e.v is not one of them.

    With the source vertices X / s, the target's X' / t and e = (M x + c)
    = (A x + a) / m over one denominator m, the image of X / s is
    (A X + a s) / (m s): the target vertex X' exactly when t (A X + a s) is
    m s X'.  An image with t (A X + a s) off the lattice m s Z^n is a miss.
    """
    xs, s = src
    mat_int, offset, m = e.ints
    q = m * s
    # the rows of t A, each with its entry of t a s
    rows = [([dst_den * x for x in row], dst_den * s * c) for row, c in zip(mat_int, offset)]
    out = []
    for x in xs:
        y = [sum(map(mul, row, x), c) for row, c in rows]
        if q != 1:
            if any(v % q for v in y):
                out.append(None)
                continue
            y = [v // q for v in y]
        out.append(index.get(tuple(y)))
    return tuple(out)


def stabilizer(action: GroupAction, point: Sequence, component: int = 0) -> tuple:
    """Elements fixing the point; the point must lie in the component.

    With the point P / s over one denominator and an element's map
    (A x + a) / m, the element fixes it when A P + a s = m P.
    """
    p = vec(point)
    if not action.spaces[component].contains(p):
        raise OrbifoldError("point lies outside the component")
    pt, s = _scaled(p)
    out = []
    for g in action.group.elements:
        e = action.maps[g][component]
        if e.target != component:
            continue
        mat_int, offset, m = e.ints
        if all(_idot(row, pt) + c * s == m * x
               for row, c, x in zip(mat_int, offset, pt)):
            out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

class RealRep:
    """A rational matrix representation checked to be a homomorphism.

    Element g acts by matrices[g] / den.  The matrices are kept over one
    common denominator D, ints[g] / D, integer entries as they stand and
    rational ones scaled once; the law is checked on them, A_a A_b = D A_ab
    for all a, b, and `matrices`, in Fractions, is built on first use.
    """

    __slots__ = ("group", "dim", "ints", "den", "_matrices")

    def __init__(self, group: FiniteGroup, dim: int, matrices: Mapping, den: int = 1):
        rows = []
        for g in group.elements:
            if g not in matrices:
                raise OrbifoldError(f"no matrix for element {g!r}")
            m = [list(row) for row in matrices[g]]
            if len(m) != dim or any(len(row) != dim for row in m):
                raise OrbifoldError("representation matrices must be square")
            rows += m
        flat, scale = _scaled_exact(itertools.chain(*rows))
        den *= scale
        it = iter(flat)
        ints = {g: [list(itertools.islice(it, dim)) for _ in range(dim)] for g in group.elements}
        if ints[group.identity] != [[den * (i == j) for j in range(dim)] for i in range(dim)]:
            raise OrbifoldError("identity must act as the identity matrix")
        cols = {g: list(zip(*m)) for g, m in ints.items()}
        times_den = {g: [[den * x for x in row] for row in m] for g, m in ints.items()}
        for a in group.elements:
            for b in group.elements:
                if [[_idot(row, col) for col in cols[b]] for row in ints[a]] \
                        != times_den[group.table[(a, b)]]:
                    raise OrbifoldError("matrices do not form a homomorphism")
        self.group = group
        self.dim = dim
        self.ints = ints
        self.den = den
        self._matrices = None

    @property
    def matrices(self) -> dict:
        """Each element's matrix in Fractions."""
        if self._matrices is None:
            self._matrices = {g: tuple(tuple(Fraction(x, self.den) for x in row) for row in m)
                              for g, m in self.ints.items()}
        return self._matrices

    def character(self) -> tuple:
        return tuple(Fraction(sum(m[i][i] for i in range(self.dim)), self.den)
                     for m in self.ints.values())

    def trivial_multiplicity(self) -> Fraction:
        return sum(self.character(), Fraction(0)) / len(self.group)


def identity_rep(group: FiniteGroup, dim: int) -> RealRep:
    return RealRep(group, dim, {g: identity(dim) for g in group.elements})


def fixed_subspace(rep: RealRep) -> tuple:
    """Basis of the subspace fixed by every element."""
    rows = []
    for g in rep.group.elements:
        for i in range(rep.dim):
            rows.append(tuple(rep.matrices[g][i][j]
                              - (1 if i == j else 0)
                              for j in range(rep.dim)))
    if not rows:
        return ()
    return kernel_basis(mat(rows))


def split_rep(rep: RealRep) -> tuple:
    """Fixed part and an invariant complement, as representations.

    The averaged projector has the fixed subspace as image and an invariant
    complement as kernel; the complement inherits the action in the kernel
    basis and has no fixed vectors.
    """
    n = rep.dim
    order = len(rep.group)
    proj = tuple(tuple(sum(rep.matrices[g][i][j]
                           for g in rep.group.elements) / order
                       for j in range(n))
                 for i in range(n))
    fix = fixed_subspace(rep)
    comp = kernel_basis(proj)
    if len(fix) + len(comp) != n:
        raise OrbifoldError("projector does not split the space")
    trivial = identity_rep(rep.group, len(fix))
    if not comp:
        return trivial, RealRep(rep.group, 0, {g: ()
                                               for g in rep.group.elements})
    basis_cols = mat(tuple(tuple(v[r] for v in comp) for r in range(n)))
    mats = {}
    for g in rep.group.elements:
        cols = []
        for v in comp:
            image = matvec(rep.matrices[g], v)
            coords = solve(basis_cols, image)
            if coords is None:
                raise OrbifoldError("complement is not invariant")
            cols.append(coords)
        mats[g] = tuple(tuple(cols[j][i] for j in range(len(comp)))
                        for i in range(len(comp)))
    nontriv = RealRep(rep.group, len(comp), mats)
    if nontriv.trivial_multiplicity() != 0:
        raise OrbifoldError("complement still contains fixed vectors")
    return trivial, nontriv


class VirtualRep:
    """A formal difference of fixed-point-free classes, kept as characters."""

    __slots__ = ("group", "positive", "negative")

    def __init__(self, group: FiniteGroup, positive: Iterable = (),
                 negative: Iterable = ()):
        pos, neg = (tuple(tuple(x if type(x) is int else frac(x) for x in chi) for chi in part)
                    for part in (positive, negative))
        for chi in pos + neg:
            if len(chi) != len(group.elements):
                raise OrbifoldError("character length must match the group")
            if sum(chi) != 0:
                raise OrbifoldError("summands must have no fixed part")
        self.group = group
        self.positive = pos
        self.negative = neg

    @classmethod
    def from_nontrivial(cls, rep: RealRep) -> "VirtualRep":
        if rep.dim == 0:
            return cls(rep.group)
        return cls(rep.group, (rep.character(),))

    @property
    def dim(self) -> int:
        idx = self.group.elements.index(self.group.identity)
        total = sum(chi[idx] for chi in self.positive) - sum(chi[idx] for chi in self.negative)
        if total != int(total):
            raise OrbifoldError("virtual dimension must be an integer")
        return int(total)

    def net_character(self) -> tuple:
        n = len(self.group.elements)
        out = [0] * n
        for chi in self.positive:
            out = [a + b for a, b in zip(out, chi)]
        for chi in self.negative:
            out = [a - b for a, b in zip(out, chi)]
        return tuple(out)

    @property
    def is_virtual(self) -> bool:
        return bool(self.negative)


def zero_rep(group: FiniteGroup) -> VirtualRep:
    return VirtualRep(group)


# ---------------------------------------------------------------------------
# Strata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StratumPiece:
    component: int
    polytope: Polytope
    morphism: tuple
    character: tuple


@dataclass(frozen=True)
class Stratum:
    action: GroupAction
    subgroup: FiniteGroup
    rho: VirtualRep
    dim: int
    pieces: tuple
    orientation_convention: Optional[str]


def _cut_by_equations(poly: Polytope, equations: Sequence) -> Optional[Polytope]:
    """The polytope cut by affine equations row.x = rhs; None when empty."""
    hull, facets = poly._fd.rows()
    section = section_polytope(poly.ambient_dim, [*equations, *hull], facets)
    return section[0] if section else None


def direction_rep(action: GroupAction, component: int = 0,
                  elements: Optional[Mapping] = None,
                  group: Optional[FiniteGroup] = None) -> RealRep:
    """The linear action on the direction space of a component.

    With a morphism given as the elements mapping, the representation is of
    the smaller group through its images.  It is read in the component's
    chart, on integers: with dir_basis B / den and an element's matrix
    A / m, the element acts by R / (m den) for R the rows of A B^T at the
    dir_basis pivots, the coordinates of the images.  The images lie in the
    direction space exactly when B^T R = den A B^T.  The matrices R are
    handed to RealRep as integers over one denominator, den times the lcm
    of the m.
    """
    fd = action.spaces[component]._fd
    d = fd.dim
    b, den = fd._dir_ints()
    b_cols = list(zip(*b))
    grp = group or action.group
    lam = elements or {g: g for g in grp.elements}
    cols, scales = {}, {}
    for g in grp.elements:
        entry = action.maps[lam[g]][component]
        if entry.target != component:
            raise OrbifoldError("element moves the component")
        mat_int, _, m = entry.ints
        # image_cols[j] = A B^T e_j, r_cols[j] = R e_j
        image_cols = [[_idot(row, v) for row in mat_int] for v in b]
        r_cols = [fd.frame_coords(w) for w in image_cols]
        if any(_idot(bc, r) != den * w_k
               for r, w in zip(r_cols, image_cols) for bc, w_k in zip(b_cols, w)):
            raise OrbifoldError("direction space is not preserved")
        cols[g], scales[g] = r_cols, m
    q = lcm(*scales.values())
    return RealRep(grp, d, {g: [[r[i] * (q // scales[g]) for r in c] for i in range(d)]
                            for g, c in cols.items()}, q * den)


def nontrivial_character(rep: RealRep) -> tuple:
    """Character of the complement of the fixed part."""
    chi = rep.character()
    m = rep.trivial_multiplicity()
    return tuple(x - m for x in chi)


def orbifold_stratum(action: GroupAction, sub: FiniteGroup,
                     rho: VirtualRep) -> Stratum:
    """Fixed loci labelled by embeddings of the subgroup, filtered by the
    nontrivial tangent character; the stratum dimension is the space
    dimension minus the class dimension."""
    if not same_group(rho.group, sub):
        raise OrbifoldError("class is over the wrong group")
    if rho.is_virtual:
        raise OrbifoldError(
            "classes with a negative part do not label honest strata")
    dims = {p.dim for p in action.spaces}
    if len(dims) != 1:
        raise OrbifoldError("components must share a dimension")
    space_dim = dims.pop()
    target_chi = rho.net_character()
    pieces = []
    for lam in injective_morphisms(sub, action.group):
        lam_map = dict(lam)
        for ci, poly in enumerate(action.spaces):
            if any(action.maps[img][ci].target != ci
                   for _, img in lam):
                continue
            # (A x + a) / m = x, row by row as (A - m I) x = -a
            eqs = []
            for _, img in lam:
                mat_int, offset, m = action.maps[img][ci].ints
                for r, (row, c) in enumerate(zip(mat_int, offset)):
                    eqs.append((tuple(x - m if j == r else x for j, x in enumerate(row)), -c))
            locus = _cut_by_equations(poly, eqs)
            if locus is None:
                continue
            tang = direction_rep(action, ci, elements=lam_map, group=sub)
            chi = nontrivial_character(tang)
            if chi == target_chi:
                pieces.append(StratumPiece(ci, locus, lam, chi))
    convention = "rotation-order" if len(sub) % 2 == 1 else None
    return Stratum(action, sub, rho, space_dim - rho.dim, tuple(pieces),
                   convention)


@dataclass(frozen=True)
class FiberCount:
    component: int
    point: Vec
    count: int


@dataclass(frozen=True)
class IotaReport:
    ok: bool
    fibers: tuple
    details: tuple = ()


def iota_check(stratum: Stratum, probes: Optional[Sequence] = None) -> IotaReport:
    """Fibers of the forgetful map from pairs (point, embedding) to points.

    Classes over a point identify embeddings conjugate under the point's
    stabilizer; every fiber must be finite with cardinality at most the
    number of injective embeddings.
    """
    action = stratum.action
    big = action.group
    if probes is None:
        seen = set()
        probes = []
        for piece in stratum.pieces:
            pts = [piece.polytope.barycenter()] + list(piece.polytope.vertices)
            for p in pts:
                key = (piece.component, p)
                if key not in seen:
                    seen.add(key)
                    probes.append(key)
    else:
        probes = [(c, vec(p)) for c, p in probes]
    bound = len(injective_morphisms(stratum.subgroup, big))
    fibers = []
    details = []
    for ci, p in probes:
        lams = [piece.morphism for piece in stratum.pieces
                if piece.component == ci and piece.polytope.contains(p)]
        stab = stabilizer(action, p, ci)
        classes = set()
        for lam in lams:
            rep = min(conjugate_morphism(lam, s, big) for s in stab)
            classes.add(rep)
        count = len(classes)
        fibers.append(FiberCount(ci, p, count))
        if count > bound:
            details.append(f"fiber at {p} exceeds the embedding count")
    return IotaReport(not details, tuple(fibers), tuple(details))


# ---------------------------------------------------------------------------
# Quotient pushdown
# ---------------------------------------------------------------------------

def map_is_invariant(action: GroupAction, cmaps: Sequence[CellMap]) -> bool:
    """Whether maps, one per component, descend to the quotient.

    Every group element must carry component i's map onto the map of the
    component it moves i to, probed on each vertex and its image read from
    the vertex tables.
    """
    return all(maps_agree(cmaps[i], cmaps[action.maps[g][i].target], _vertex_pairs(action, g, i))
               for g in action.group.elements for i in range(len(action.spaces)))


def _vertex_pairs(action: GroupAction, g, i: int) -> list:
    """(v, g.v) for each vertex v of component i, g.v from action.tables."""
    image = action.spaces[action.maps[g][i].target].vertices
    return [(v, image[k]) for v, k in zip(action.spaces[i].vertices, action.tables[g][i])]


def quotient_pushdown(action: GroupAction, cmaps, tags) -> Chain:
    """The quotient of invariant generator data, as a chain.

    One term per component orbit: the orbit representative's cell, map and
    tag, quotiented by its component stabilizer acting on the faces, which
    enters as 1/|stabilizer| times its cover (QuotientMarker.cover).  A free
    permutation of components therefore collapses the orbit to a single
    plain generator.
    """
    if isinstance(cmaps, CellMap):
        cmaps = [cmaps]
    if isinstance(tags, Tag):
        tags = [tags]
    cmaps = list(cmaps)
    tags = list(tags)
    if len(cmaps) != len(action.spaces) or len(tags) != len(action.spaces):
        raise OrbifoldError("one map and one tag per component are required")
    if not map_is_invariant(action, cmaps):
        raise OrbifoldError("map is not invariant under the action")
    for g in action.group.elements:
        for i in range(len(action.spaces)):
            j = action.maps[g][i].target
            table = action.tables[g][i]
            for f, label in tags[i].labels:
                if label != tags[j].label_at(move_mask(f, table)):
                    raise OrbifoldError("tag is not invariant under the action")
    seen: set = set()
    terms = []
    for i in range(len(action.spaces)):
        orbit = action.component_orbit(i)
        if orbit[0] in seen:
            continue
        seen.update(orbit)
        rep_i = orbit[0]
        stab = action.component_stabilizer(rep_i)
        poly = action.spaces[rep_i]
        orbits = _face_orbits(action, rep_i, stab, [f for f, _ in tags[rep_i].labels])
        terms.append(QuotientMarker(len(stab), orbits).cover(
            Cell(poly, cmaps[rep_i].s_cols), cmaps[rep_i], tags[rep_i]))
    return Chain(terms)


def _face_orbits(action: GroupAction, component: int, stab: Sequence,
                 faces: Sequence[int]) -> tuple:
    """The stabilizer's orbits on a component's faces, as vertex bitmasks."""
    return tuple(sorted({tuple(sorted({move_mask(f, action.tables[g][component])
                                       for g in stab})) for f in faces}))
