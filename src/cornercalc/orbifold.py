"""Finite group actions on polytopes, fixed-point strata, and quotient data.

Groups are given by multiplication tables and act by affine maps that permute
vertex sets.  Representations split into a fixed part and an invariant
complement by the averaged projector; strata collect fixed loci whose
nontrivial tangent character matches a prescribed class, and the forgetful map
to the space is checked to have finite fibers.  Invariant generator data
pushes down to quotient-marked generators consumed by the chain layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from ._linalg import Mat, Vec, _scaled, frac, identity, kernel_basis, mat, matvec, solve, vec
from .cells import Cell, CellMap, maps_agree
from .chains import Chain, Generator, QuotientMarker, Tag
from .geometry import Polytope, move_mask, section_polytope


class OrbifoldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------

class FiniteGroup:
    """A finite group presented by its full multiplication table."""

    __slots__ = ("elements", "table", "identity", "_inv")

    def __init__(self, elements: Sequence, table: Mapping):
        elems = tuple(elements)
        if len(set(elems)) != len(elems) or not elems:
            raise OrbifoldError("group elements must be distinct and nonempty")
        tbl = {}
        for a in elems:
            for b in elems:
                if (a, b) not in table:
                    raise OrbifoldError("multiplication table is incomplete")
                c = table[(a, b)]
                if c not in set(elems):
                    raise OrbifoldError("product leaves the element set")
                tbl[(a, b)] = c
        ident = None
        for e in elems:
            if all(tbl[(e, x)] == x and tbl[(x, e)] == x for x in elems):
                ident = e
                break
        if ident is None:
            raise OrbifoldError("no identity element")
        for a in elems:
            for b in elems:
                for c in elems:
                    if tbl[(tbl[(a, b)], c)] != tbl[(a, tbl[(b, c)])]:
                        raise OrbifoldError("multiplication is not associative")
        inv = {}
        for a in elems:
            for b in elems:
                if tbl[(a, b)] == ident and tbl[(b, a)] == ident:
                    inv[a] = b
                    break
            else:
                raise OrbifoldError(f"element {a!r} has no inverse")
        self.elements = elems
        self.table = tbl
        self.identity = ident
        self._inv = inv

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
    """All injective homomorphisms, each as a sorted tuple of (x, image)."""
    gens = sub.generating_set()
    out = []
    for images in itertools.product(big.elements, repeat=len(gens)):
        lam = {sub.identity: big.identity}
        for gen, img in zip(gens, images):
            lam[gen] = img
        ok = True
        changed = True
        while changed and ok:
            changed = False
            for a in list(lam):
                for b in list(lam):
                    c = sub.mul(a, b)
                    img = big.mul(lam[a], lam[b])
                    if c in lam:
                        if lam[c] != img:
                            ok = False
                            break
                    else:
                        lam[c] = img
                        changed = True
                if not ok:
                    break
        if not ok or len(lam) != len(sub):
            continue
        if len(set(lam.values())) != len(sub):
            continue
        if all(big.mul(lam[a], lam[b]) == lam[sub.mul(a, b)]
               for a in sub.elements for b in sub.elements):
            out.append(tuple(sorted(lam.items())))
    return tuple(out)


def conjugate_morphism(lam: tuple, sigma, big: FiniteGroup) -> tuple:
    return tuple(sorted((x, big.conjugate(img, sigma)) for x, img in lam))


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionComponentMap:
    target: int
    matrix: Mat
    offset: Vec

    def apply(self, point: Sequence) -> Vec:
        return tuple(x + y for x, y in
                     zip(matvec(self.matrix, vec(point)), self.offset))


class GroupAction:
    """A finite group acting affinely on a disjoint union of polytopes.

    Every element must send each component onto a component, carrying the
    vertex set bijectively.  Each element's maps are applied to each
    component's vertices once, giving a table of vertex permutations; the
    homomorphism law a.(b.v) = (ab).v is checked on those tables, which are
    kept: tables[g][i][k] is the index of g.v in component maps[g][i].target
    for vertex k of component i, so faces move as vertex bitmasks.  The
    tables are built on integers: each component's vertices over one common
    denominator, each map's matrix and offset over another, and an image
    that falls off the target's vertex lattice is no vertex
    (_vertex_images).
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
        return ActionComponentMap(int(j), mat(m), vec(c))

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
                if len(e.matrix) != dst.ambient_dim or any(
                        len(row) != src.ambient_dim for row in e.matrix):
                    raise OrbifoldError("affine map shape mismatch")
                image = _vertex_images(e, lattices[i], lattices[e.target][1],
                                       index[e.target])
                if set(image) != set(range(len(dst.vertices))):
                    raise OrbifoldError(
                        f"element {g!r} does not permute the vertex set")
                perms[g].append(image)
        # b.v is vertex k of component eb.target, so a.(b.v) is entry k of
        # a's table there; both sides are vertices of component ea.target.
        for a in grp.elements:
            for b in grp.elements:
                ab = grp.mul(a, b)
                for i in range(len(self.spaces)):
                    eb = self.maps[b][i]
                    ea = self.maps[a][eb.target]
                    eab = self.maps[ab][i]
                    if ea.target != eab.target:
                        raise OrbifoldError("action is not a homomorphism")
                    pa = perms[a][eb.target]
                    if tuple(pa[k] for k in perms[b][i]) != perms[ab][i]:
                        raise OrbifoldError("action is not a homomorphism")
        self.tables = perms

    @property
    def single(self) -> Polytope:
        if len(self.spaces) != 1:
            raise OrbifoldError("action has several components")
        return self.spaces[0]

    def apply(self, g, point: Sequence, component: int = 0):
        e = self.maps[g][component]
        return e.target, e.apply(point)

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
    cols = len(e.matrix[0]) if e.matrix else 0
    flat, m = _scaled([x for row in e.matrix for x in row] + list(e.offset))
    mat_int = [flat[r * cols:(r + 1) * cols] for r in range(len(e.matrix))]
    shift = [x * s for x in flat[len(e.matrix) * cols:]]
    q = m * s
    out = []
    for x in xs:
        y = [dst_den * (sum(a * b for a, b in zip(row, x)) + c)
             for row, c in zip(mat_int, shift)]
        out.append(None if any(v % q for v in y) else index.get(tuple(v // q for v in y)))
    return tuple(out)


def stabilizer(action: GroupAction, point: Sequence, component: int = 0) -> tuple:
    """Elements fixing the point; the point must lie in the component."""
    p = vec(point)
    if not action.spaces[component].contains(p):
        raise OrbifoldError("point lies outside the component")
    out = []
    for g in action.group.elements:
        tgt, q = action.apply(g, p, component)
        if tgt == component and q == p:
            out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

class RealRep:
    """A rational matrix representation checked to be a homomorphism."""

    __slots__ = ("group", "dim", "matrices")

    def __init__(self, group: FiniteGroup, dim: int, matrices: Mapping):
        mats = {}
        for g in group.elements:
            if g not in matrices:
                raise OrbifoldError(f"no matrix for element {g!r}")
            m = mat(matrices[g])
            if len(m) != dim or any(len(row) != dim for row in m):
                raise OrbifoldError("representation matrices must be square")
            mats[g] = m
        if mats[group.identity] != identity(dim):
            raise OrbifoldError("identity must act as the identity matrix")
        for a in group.elements:
            for b in group.elements:
                prod = tuple(tuple(sum(mats[a][i][k] * mats[b][k][j]
                                       for k in range(dim))
                                   for j in range(dim))
                             for i in range(dim))
                if prod != mats[group.mul(a, b)]:
                    raise OrbifoldError("matrices do not form a homomorphism")
        self.group = group
        self.dim = dim
        self.matrices = mats

    def character(self) -> tuple:
        return tuple(sum(self.matrices[g][i][i] for i in range(self.dim))
                     for g in self.group.elements)

    def trivial_multiplicity(self) -> Fraction:
        chi = self.character()
        return sum(chi, Fraction(0)) / len(self.group)


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
        pos = tuple(tuple(frac(x) for x in chi) for chi in positive)
        neg = tuple(tuple(frac(x) for x in chi) for chi in negative)
        for chi in pos + neg:
            if len(chi) != len(group.elements):
                raise OrbifoldError("character length must match the group")
            if sum(chi, Fraction(0)) != 0:
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
        total = sum((chi[idx] for chi in self.positive), Fraction(0)) \
            - sum((chi[idx] for chi in self.negative), Fraction(0))
        if total.denominator != 1:
            raise OrbifoldError("virtual dimension must be an integer")
        return int(total)

    def net_character(self) -> tuple:
        n = len(self.group.elements)
        out = [Fraction(0)] * n
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
    eqs = [*equations, *poly.affine_hull_equations()]
    ineqs = [(nrm, rhs) for nrm, rhs, _ in poly.facet_inequalities()]
    section = section_polytope(poly.ambient_dim, eqs, ineqs)
    return section[0] if section else None


def direction_rep(action: GroupAction, component: int = 0,
                  elements: Optional[Mapping] = None,
                  group: Optional[FiniteGroup] = None) -> RealRep:
    """The linear action on the direction space of a component.

    With a morphism given as the elements mapping, the representation is of
    the smaller group through its images.
    """
    poly = action.spaces[component]
    dirs = poly.dir_basis
    d = len(dirs)
    n = poly.ambient_dim
    if d:
        cols = mat(tuple(tuple(v[r] for v in dirs) for r in range(n)))
    grp = group or action.group
    lam = elements or {g: g for g in grp.elements}
    mats = {}
    for g in grp.elements:
        entry = action.maps[lam[g]][component]
        if entry.target != component:
            raise OrbifoldError("element moves the component")
        out = []
        for v in dirs:
            image = matvec(entry.matrix, v)
            coords = solve(cols, image)
            if coords is None:
                raise OrbifoldError("direction space is not preserved")
            out.append(coords)
        mats[g] = tuple(tuple(out[j][i] for j in range(d)) for i in range(d))
    return RealRep(grp, d, mats)


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
    if rho.group is not sub and rho.group.elements != sub.elements:
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
            eqs = []
            n = poly.ambient_dim
            for _, img in lam:
                entry = action.maps[img][ci]
                for r in range(n):
                    row = tuple(entry.matrix[r][c] - (1 if r == c else 0)
                                for c in range(n))
                    eqs.append((row, -entry.offset[r]))
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

def map_is_invariant(action: GroupAction, cmap: CellMap, component: int = 0) -> bool:
    """Whether one map descends to the quotient of its component orbit.

    Every group element carrying the component somewhere must transport the
    map back to itself, so the whole orbit is probed with the same map.
    """
    for g in action.group.elements:
        for i in action.component_orbit(component):
            entry = action.maps[g][i]
            pairs = [(v, entry.apply(v)) for v in action.spaces[i].vertices]
            if not maps_agree(cmap, cmap, pairs):
                return False
    return True


def quotient_pushdown(action: GroupAction, cmaps, tags, ring: str = "Q") -> Chain:
    """Quotient-marked generator data for an invariant map and tag.

    One generator per component orbit: the orbit representative keeps its
    map and tag and carries the marker of its component stabilizer acting on
    the faces.  A free permutation of components therefore collapses the
    orbit to a single unmarked generator.
    """
    if isinstance(cmaps, CellMap):
        cmaps = [cmaps]
    if isinstance(tags, Tag):
        tags = [tags]
    cmaps = list(cmaps)
    tags = list(tags)
    if len(cmaps) != len(action.spaces) or len(tags) != len(action.spaces):
        raise OrbifoldError("one map and one tag per component are required")
    for g in action.group.elements:
        for i, poly in enumerate(action.spaces):
            entry = action.maps[g][i]
            j = entry.target
            pairs = [(v, entry.apply(v)) for v in poly.vertices]
            if not maps_agree(cmaps[i], cmaps[j], pairs):
                raise OrbifoldError("map is not invariant under the action")
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
        cell = Cell(poly, cmaps[rep_i].s_cols)
        marker = None
        if len(stab) > 1:
            orbits = _face_orbits(action, rep_i, stab, [f for f, _ in tags[rep_i].labels])
            marker = QuotientMarker(len(stab), orbits)
        terms.append((Fraction(1),
                      Generator(cell, cmaps[rep_i], tags[rep_i],
                                quotient=marker)))
    return Chain(terms, ring=ring)


def _face_orbits(action: GroupAction, component: int, stab: Sequence,
                 faces: Sequence[int]) -> tuple:
    """The stabilizer's orbits on a component's faces, as vertex bitmasks."""
    return tuple(sorted({tuple(sorted({move_mask(f, action.tables[g][component])
                                       for g in stab})) for f in faces}))
