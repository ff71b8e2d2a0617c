"""Bordism classes of mapped polytopes with certified closure.

A class is a finite list of compact mapped cells, all oriented or all
cooriented, together with a gluing certificate: a pairing of the boundary
facets by orientation-reversing affine identifications that commute with the
maps.  Closure is certified by the caller and audited here, never inferred.

On top of the classes the module presents bordism groups from relation
witnesses, emits chain representatives with gluing-class tags, builds the
prism witness showing the emission does not depend on the labelling atom,
multiplies classes by fibre products, and projects onto fixed-point strata
of odd-order symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._linalg import (Mat, Vec, change_of_basis_det, identity, invariant_factors,
                      mat, matvec, rank, vec)
from .cells import (Cell, CellMap, Coorientation, canonical_cell_map,
                    canonical_form, cell_boundary, fibre_product_cells,
                    identity_map, is_interior_submersion, maps_agree,
                    orientation_from_coorientation, validate_coorientation)
from .chains import (Chain, Generator, Tag, boundary, cylinder,
                     transport_generator)
from .geometry import (POINT_POLYTOPE, Polytope, affine_isomorphisms, compress_mask,
                       face_key)
from .maps import CheckReport
from .orbifold import (FiniteGroup, GroupAction, VirtualRep, map_is_invariant,
                       orbifold_stratum)


class BordismError(ValueError):
    """Problem with bordism-class data or certificates."""


def _facet_mask(p: Polytope, key) -> Optional[int]:
    """Vertex bitmask of the facet of p with the given key, or None."""
    for (fkey, _), mask in zip(p.facets(), p._fd.facet_masks):
        if fkey == key:
            return mask
    return None


# ---------------------------------------------------------------------------
# Class data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairingWitness:
    """Affine identification of two boundary facets.

    ``matrix`` and ``offset`` send ambient points of the left component to
    ambient points of the right one; the identification must carry the left
    face onto the right face, reverse the induced orientations, and commute
    with the maps to the target.
    """

    left: tuple
    right: tuple
    matrix: Mat
    offset: Vec

    def __post_init__(self):
        li, lf = self.left
        ri, rf = self.right
        object.__setattr__(self, "left", (int(li), face_key(lf)))
        object.__setattr__(self, "right", (int(ri), face_key(rf)))
        object.__setattr__(self, "matrix", mat(self.matrix))
        object.__setattr__(self, "offset", vec(self.offset))

    @classmethod
    def shared(cls, i: int, j: int, face) -> "PairingWitness":
        """Identity identification of one face lying in two components."""
        key = face_key(face)
        n = len(key[0])
        return cls((i, key), (j, key), identity(n), (Fraction(0),) * n)

    def is_shared(self) -> bool:
        if self.left[1] != self.right[1] or any(x != 0 for x in self.offset):
            return False
        return self.matrix == identity(len(self.offset))

    def apply(self, point) -> Vec:
        moved = matvec(self.matrix, vec(point))
        return tuple(x + y for x, y in zip(moved, self.offset))

    def linear(self, direction) -> Vec:
        return matvec(self.matrix, vec(direction))


@dataclass(frozen=True, init=False)
class BordismComponent:
    """One mapped cell of a class, optionally with a symmetry model.

    A cooriented component stores, as chains.Generator does, the orientation
    that the dictionary TX = f*(TY) + Ker df (see cells) gives a coorientation
    passed in; cooriented=True takes a cell already oriented that way.
    """

    cell: Cell
    cmap: CellMap
    cooriented: bool
    model: Optional[GroupAction]

    def __init__(self, cell: Cell, cmap: CellMap,
                 coorientation: Optional[Coorientation] = None,
                 model: Optional[GroupAction] = None, *, cooriented: bool = False):
        if cmap.target.dim:
            if cmap.n_cols != cell.polytope.ambient_dim:
                raise BordismError("map columns do not match the ambient space")
            if cmap.s_cols != cell.torus_rank:
                raise BordismError("map torus columns do not match the cell")
        if coorientation is not None:
            validate_coorientation(cell, cmap, coorientation)
            cell = orientation_from_coorientation(cell, cmap, coorientation)
            cooriented = True
        elif cooriented and not is_interior_submersion(cell, cmap):
            raise BordismError("a cooriented component needs an interior "
                               "submersion")
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "cmap", cmap)
        object.__setattr__(self, "cooriented", cooriented)
        object.__setattr__(self, "model", model)

    @property
    def grade(self) -> int:
        if self.cooriented:
            return self.cmap.target.dim - self.cell.dim
        return self.cell.dim

    def canonical_term(self) -> tuple:
        """(key, sign); the key ends in the cooriented flag."""
        key, sign, _, _ = canonical_form(self.cell, self.cmap)
        return key + (self.cooriented,), sign


class BordismClass:
    """Union of mapped cells with a boundary-gluing certificate."""

    __slots__ = ("components", "pairings", "kind")

    def __init__(self, components, pairings=(), kind: str = "kuranishi"):
        if kind not in ("classical", "kuranishi"):
            raise BordismError("kind must be 'classical' or 'kuranishi'")
        comps = tuple(c if isinstance(c, BordismComponent)
                      else BordismComponent(*c) for c in components)
        pws = tuple(pairings)
        for pw in pws:
            if not isinstance(pw, PairingWitness):
                raise BordismError("pairings must be PairingWitness values")
            for idx, _ in (pw.left, pw.right):
                if not 0 <= idx < len(comps):
                    raise BordismError("pairing names a missing component")
        flavours = {c.cooriented for c in comps}
        if len(flavours) > 1:
            raise BordismError("mixing oriented and cooriented components")
        if kind == "classical" and flavours == {True}:
            raise BordismError("classical classes are oriented")
        if len({c.cmap.target for c in comps}) > 1:
            raise BordismError("components map to different targets")
        if len({c.grade for c in comps}) > 1:
            raise BordismError("components have different grades")
        self.components = comps
        self.pairings = pws
        self.kind = kind

    @property
    def cooriented(self) -> bool:
        return bool(self.components) and self.components[0].cooriented

    @property
    def target(self):
        return self.components[0].cmap.target if self.components else None

    @property
    def grade(self) -> Optional[int]:
        return self.components[0].grade if self.components else None

    def canonical_terms(self) -> tuple:
        return tuple(sorted(c.canonical_term() for c in self.components))

    def __eq__(self, other):
        return (isinstance(other, BordismClass) and self.kind == other.kind
                and self.canonical_terms() == other.canonical_terms())

    def __hash__(self):
        return hash((self.kind, self.canonical_terms()))

    def __repr__(self):
        flavour = "cooriented" if self.cooriented else "oriented"
        return (f"BordismClass({len(self.components)} {flavour} components, "
                f"{len(self.pairings)} pairings, kind={self.kind!r})")


# ---------------------------------------------------------------------------
# Certificate audit
# ---------------------------------------------------------------------------

def _boundary_atlas(b: BordismClass) -> dict:
    atlas = {}
    for i, comp in enumerate(b.components):
        for bc in cell_boundary(comp.cell):
            atlas[(i, bc.face)] = bc
    return atlas


def _witness_fault(b: BordismClass, pw: PairingWitness,
                   atlas: dict) -> Optional[str]:
    (i, fkey), (j, gkey) = pw.left, pw.right
    bi, bj = atlas.get((i, fkey)), atlas.get((j, gkey))
    if bi is None or bj is None:
        return "pairing names a missing boundary face"
    ci, cj = b.components[i], b.components[j]
    if ci.cell.torus_rank != cj.cell.torus_rank:
        return "paired components have different torus ranks"
    n_i = ci.cell.polytope.ambient_dim
    n_j = cj.cell.polytope.ambient_dim
    if len(pw.matrix) != n_j or len(pw.offset) != n_j \
            or any(len(row) != n_i for row in pw.matrix):
        return "identification has the wrong shape"
    image = [pw.apply(v) for v in fkey]
    if len(set(image)) != len(image):
        return "identification is not injective on the face"
    if sorted(image) != list(gkey):
        return "identification does not carry the face onto its partner"
    if not maps_agree(ci.cmap, cj.cmap, list(zip(fkey, image))):
        return "identification does not commute with the maps"
    carried = tuple(tuple(pw.linear(v[:n_i])) + tuple(v[n_i:])
                    for v in bi.cell.frame)
    try:
        d = change_of_basis_det(carried, bj.cell.frame)
    except ValueError:
        return "identification does not carry the face plane onto its partner"
    eps = (1 if d > 0 else -1) * bi.cell.sign * bj.cell.sign
    if eps != -1:
        return "identification does not reverse the induced orientation"
    return None


def closed_certificate_check(b: BordismClass) -> CheckReport:
    """Audit of the gluing certificate.

    Every boundary facet must appear in exactly one pairing, no pairing may
    fix a face, and every identification must be an orientation-reversing
    affine bijection of its two faces commuting with the maps.  Cooriented
    classes are supported only without boundary.
    """
    details = []
    atlas = _boundary_atlas(b)
    counts: dict = {}
    for k, pw in enumerate(b.pairings):
        if pw.left == pw.right:
            details.append(f"pairing {k} fixes face {pw.left}")
        for side in (pw.left, pw.right):
            counts[side] = counts.get(side, 0) + 1
    for side in sorted(counts):
        if counts[side] > 1:
            details.append(f"face {side} is paired more than once")
        if side not in atlas:
            details.append(f"pairing names a missing face {side}")
    for side in sorted(atlas):
        if side not in counts:
            details.append(f"boundary face {side} is unpaired")
    if b.cooriented and atlas:
        details.append("cooriented classes must be boundary-free")
    checked = len(atlas)
    for k, pw in enumerate(b.pairings):
        if pw.left in atlas and pw.right in atlas:
            checked += 1
            fault = _witness_fault(b, pw, atlas)
            if fault:
                details.append(f"pairing {k}: {fault}")
    return CheckReport(ok=not details, checked=checked,
                       details=tuple(details))


def _corner_fault(b: BordismClass) -> Optional[str]:
    """Free boundaries must be corner-free: any face two levels down sits in
    two facets, and both must be paired or the glued boundary has a corner."""
    paired = set()
    for pw in b.pairings:
        paired.add(pw.left)
        paired.add(pw.right)
    for i, comp in enumerate(b.components):
        p = comp.cell.polytope
        if p.dim < 2:
            continue
        free = [m for (key, _), m in zip(p.facets(), p._fd.facet_masks)
                if (i, key) not in paired]
        for g, dim in p._fd.face_dims().items():
            if dim == p.dim - 2 and any(g & ~m == 0 for m in free):
                return (f"component {i} has corner faces on its free "
                        "boundary; witnesses must have corner-free boundary")
    return None


# ---------------------------------------------------------------------------
# Oriented identification search
# ---------------------------------------------------------------------------

def oriented_match(cell1: Cell, cmap1: CellMap,
                   cell2: Cell, cmap2: CellMap) -> Optional[int]:
    """Orientation factor of an affine identification of two mapped cells.

    Searches over affine bijections of the polytope parts, identical on the
    torus factor, that carry the first map to the second.  Returns +1 when
    some identification preserves the orientations, else -1 when one exists
    reversing them, else None.
    """
    c1, m1 = canonical_cell_map(cell1, cmap1)
    c2, m2 = canonical_cell_map(cell2, cmap2)
    if (m1.target != m2.target or c1.torus_rank != c2.torus_rank
            or c1.dim != c2.dim or m1.m_t != m2.m_t):
        return None
    n1 = c1.polytope.ambient_dim
    best = None
    for vmap, linear in affine_isomorphisms(c1.polytope, c2.polytope):
        if not maps_agree(m1, m2, list(vmap.items())):
            continue
        carried = tuple(linear(f[:n1]) + tuple(f[n1:]) for f in c1.frame)
        try:
            det_sign = change_of_basis_det(carried, c2.frame)
        except ValueError:
            continue
        eps = (1 if det_sign > 0 else -1) * c1.sign * c2.sign
        if eps == 1:
            return 1
        best = -1
    return best


def class_match(a: BordismClass, b: BordismClass) -> bool:
    """One-to-one correspondence of components by orientation-preserving
    identifications commuting with the maps."""
    if a.cooriented != b.cooriented \
            or len(a.components) != len(b.components):
        return False
    if a.cooriented:
        return a.canonical_terms() == b.canonical_terms()
    used = [False] * len(b.components)

    def place(k):
        if k == len(a.components):
            return True
        ca = a.components[k]
        for t, cb in enumerate(b.components):
            if used[t]:
                continue
            if oriented_match(ca.cell, ca.cmap, cb.cell, cb.cmap) == 1:
                used[t] = True
                if place(k + 1):
                    return True
                used[t] = False
        return False

    return place(0)


# ---------------------------------------------------------------------------
# Group presentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulePresentation:
    """Generators and relation rows for a bordism group."""

    generators: tuple
    relations: tuple
    ring: str = "Z"

    def __post_init__(self):
        if self.ring not in ("Z", "Q"):
            raise BordismError("ring must be 'Z' or 'Q'")
        for row in self.relations:
            if len(row) != len(self.generators):
                raise BordismError("relation row length must match the "
                                   "generator count")

    def relation_rank(self) -> int:
        if not self.relations:
            return 0
        return rank(mat(self.relations))

    def invariant_factors(self) -> tuple:
        if not self.relations:
            return ()
        if self.ring == "Q":
            return (1,) * self.relation_rank()
        return invariant_factors(mat(self.relations))

    def torsion(self) -> tuple:
        return tuple(int(d) for d in self.invariant_factors() if d > 1)

    @property
    def free_rank(self) -> int:
        return len(self.generators) - self.relation_rank()

    def describe(self) -> str:
        base = self.ring
        parts = []
        if self.free_rank:
            parts.append(base if self.free_rank == 1
                         else f"{base}^{self.free_rank}")
        if self.ring == "Z":
            parts.extend(f"Z/{d}" for d in self.torsion())
        return " + ".join(parts) if parts else "0"


def _relation_row(gens, w: BordismClass) -> tuple:
    if not isinstance(w, BordismClass) or w.cooriented:
        raise BordismError("witnesses must be oriented bordism classes")
    fault = _corner_fault(w)
    if fault:
        raise BordismError(fault)
    atlas = _boundary_atlas(w)
    paired = set()
    for k, pw in enumerate(w.pairings):
        if pw.left == pw.right:
            raise BordismError(f"witness pairing {k} fixes a face")
        for side in (pw.left, pw.right):
            if side in paired:
                raise BordismError(f"witness face {side} is paired twice")
            paired.add(side)
        fault = _witness_fault(w, pw, atlas)
        if fault:
            raise BordismError(f"witness pairing {k}: {fault}")
    row = [0] * len(gens)
    for key in sorted(atlas):
        if key in paired:
            continue
        bc = atlas[key]
        cmap = w.components[key[0]].cmap
        hit = None
        for k, g in enumerate(gens):
            gc = g.components[0]
            eps = oriented_match(bc.cell, cmap, gc.cell, gc.cmap)
            if eps == 1:
                hit = (k, 1)
                break
            if eps == -1 and hit is None:
                hit = (k, -1)
        if hit is None:
            raise BordismError("a free boundary facet matches no generator")
        row[hit[0]] += hit[1]
    return tuple(row)


def present_group(gens, witnesses=(), ring: str = "Z") -> ModulePresentation:
    """Present a bordism group from closed generators and relation witnesses.

    Each witness contributes one row: its free boundary is cut into facets
    and every facet is matched, up to oriented affine identification
    commuting with the maps, against one generator.  A match preserving the
    orientation counts +1 and a reversing one -1.  The presented group does
    not depend on the listing order of generators or witnesses.
    """
    gens = tuple(gens)
    for k, g in enumerate(gens):
        if not isinstance(g, BordismClass):
            raise BordismError("generators must be bordism classes")
        if g.cooriented:
            raise BordismError("generators must be oriented classes")
        report = closed_certificate_check(g)
        if not report:
            raise BordismError(f"generator {k} is not certified closed: "
                               + report.details[0])
        if len(g.components) != 1:
            raise BordismError("generators must have a single component; "
                               "list the pieces separately")
    rows = tuple(_relation_row(gens, w) for w in witnesses)
    return ModulePresentation(gens, rows, ring)


# ---------------------------------------------------------------------------
# Comparison maps into the chain theory
# ---------------------------------------------------------------------------

def Pi_bo_Kb(b: BordismClass) -> BordismClass:
    """Classical classes reread as corner-calculus classes, data unchanged."""
    if b.kind != "classical":
        raise BordismError("expected a classical class")
    return BordismClass(b.components, b.pairings, kind="kuranishi")


def _emission_generators(b: BordismClass, atom) -> list:
    report = closed_certificate_check(b)
    if not report:
        raise BordismError("class is not certified closed: "
                           + report.details[0])
    for pw in b.pairings:
        if not pw.is_shared():
            raise BordismError("tag emission needs shared-face pairings; "
                               "transport the components to a common chart "
                               "first")
    comp_faces = []
    parent = {}
    for i, comp in enumerate(b.components):
        faces = list(comp.cell.polytope._fd.face_dims())
        comp_faces.append(faces)
        for g in faces:
            parent[(i, g)] = (i, g)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # a shared face has the same sorted vertices in both components, so its
    # faces match by their masks packed at the face's vertices
    for pw in b.pairings:
        (i, fkey), (j, _) = pw.left, pw.right
        fi = _facet_mask(b.components[i].cell.polytope, fkey)
        fj = _facet_mask(b.components[j].cell.polytope, fkey)
        if fj is None:
            raise BordismError("shared face is not a face of both components")
        inner = {compress_mask(h, fj): h for h in comp_faces[j] if h & ~fj == 0}
        for g in comp_faces[i]:
            if g & ~fi == 0:
                h = inner.get(compress_mask(g, fi))
                if h is None:
                    raise BordismError("shared face is not a face of both "
                                       "components")
                ra, rb = find((i, g)), find((j, h))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    roots = sorted({find(nd) for nd in parent})
    label_index = {r: k for k, r in enumerate(roots)}
    gens = []
    for i, comp in enumerate(b.components):
        tag = Tag.of_masks(comp.cell.polytope.vertices,
                           [(g, ((str(atom), label_index[find((i, g))]),))
                            for g in comp_faces[i]])
        if not tag.is_injective():
            raise BordismError("pairings identify two faces of one "
                               "component; split the component first")
        gens.append(Generator(comp.cell, comp.cmap, tag,
                              is_cochain=comp.cooriented))
    return gens


def Pi_Kb_Kh(b: BordismClass, atom="g", ring: str = "Q") -> Chain:
    """Chain representative of a certified-closed class.

    One generator per component with coefficient one; faces are labelled by
    their gluing classes, so glued faces share labels and cancel in the
    boundary while free labels stay distinct within each component.
    """
    return Chain([(Fraction(1), g) for g in _emission_generators(b, atom)],
                 ring=ring)


def tag_independence_witness(b: BordismClass, atom1="g", atom2="h"):
    """Prism chain connecting the emissions for two labelling atoms.

    The witness is the union of prisms over the components.  Its boundary
    is the second emission at height one minus the first at height zero,
    both pushed up along the height embedding, while the prism sides cancel
    in pairs along the gluing.  The report also records that both emissions
    are cycles.
    """
    if str(atom1) == str(atom2):
        raise BordismError("the two labelling atoms must differ")
    if b.cooriented:
        raise BordismError("prism witnesses exist for oriented classes")
    gens1 = _emission_generators(b, atom1)
    gens2 = _emission_generators(b, atom2)
    w_terms = []
    end_terms = []
    for g1, g2 in zip(gens1, gens2):
        w_terms.append((Fraction(1), cylinder(g1, g2.tag)))
        n = g1.cell.polytope.ambient_dim
        lift = ((Fraction(0),) * n,) + identity(n)
        top = transport_generator(g2, lift,
                                  (Fraction(1),) + (Fraction(0),) * n)
        bottom = transport_generator(g1, lift, (Fraction(0),) * (n + 1))
        end_terms.append((Fraction(1), top))
        end_terms.append((Fraction(-1), bottom))
    witness = Chain(w_terms, ring="Q")
    wanted = Chain(end_terms, ring="Q")
    details = []
    if boundary(witness) != wanted:
        details.append("prism boundary does not reduce to the two emissions")
    for name, gens in (("first", gens1), ("second", gens2)):
        cyc = Chain([(Fraction(1), g) for g in gens], ring="Q")
        if not boundary(cyc).is_zero:
            details.append(f"{name} emission is not a cycle")
    return witness, CheckReport(ok=not details, checked=3,
                                details=tuple(details))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def identity_cobordism(y) -> BordismClass:
    """The unit for the cooriented product: the identity on a compact target."""
    if not y.compact:
        raise BordismError("no compact identity class over a euclidean "
                           "target")
    comp = BordismComponent(Cell(POINT_POLYTOPE, y.dim), identity_map(y),
                            cooriented=True)
    return BordismClass((comp,), ())


def _derive_product_pairings(first, second, pieces, index):
    out = []

    def lone_piece(i1, i2):
        ks = [k for (a, b, k) in pieces if a == i1 and b == i2]
        if len(ks) != 1:
            raise BordismError("certificate derivation needs a single "
                               "product piece per component pair; supply "
                               "the pairings explicitly")
        return ks[0]

    def located(fc, pair):
        fd = fc.cell.polytope._fd
        return [fd.key(g) for g, got in fc.face_pairs.items() if got == pair]

    def extend(pairing_list, on_first):
        outer = first if on_first else second
        inner = second if on_first else first

        def order(a, b):
            return (a, b) if on_first else (b, a)

        for pw in pairing_list:
            (i, fkey), (j, gkey) = pw.left, pw.right
            n_i = outer.components[i].cell.polytope.ambient_dim
            fmask = _facet_mask(outer.components[i].cell.polytope, fkey)
            gmask = _facet_mask(outer.components[j].cell.polytope, gkey)
            for i2, comp2 in enumerate(inner.components):
                n2 = comp2.cell.polytope.ambient_dim
                top2 = (1 << len(comp2.cell.polytope.vertices)) - 1
                kl = order(i, i2) + (lone_piece(*order(i, i2)),)
                kr = order(j, i2) + (lone_piece(*order(j, i2)),)
                hits_l = located(pieces[kl], order(fmask, top2))
                hits_r = located(pieces[kr], order(gmask, top2))
                il, ir = index[kl], index[kr]
                if not hits_l and not hits_r:
                    continue
                if len(hits_l) != 1 or len(hits_r) != 1:
                    raise BordismError("certificate derivation could not "
                                       "locate a product face; supply the "
                                       "pairings explicitly")
                if on_first:
                    rows = [tuple(row) + (Fraction(0),) * n2
                            for row in pw.matrix]
                    rows += [(Fraction(0),) * n_i + e for e in identity(n2)]
                    off = tuple(pw.offset) + (Fraction(0),) * n2
                else:
                    rows = [e + (Fraction(0),) * n_i for e in identity(n2)]
                    rows += [(Fraction(0),) * n2 + tuple(row)
                             for row in pw.matrix]
                    off = (Fraction(0),) * n2 + tuple(pw.offset)
                out.append(PairingWitness((il, hits_l[0]), (ir, hits_r[0]),
                                          tuple(rows), off))
    extend(first.pairings, True)
    extend(second.pairings, False)
    return tuple(out)


def bordism_cup_cap(a: BordismClass, b: BordismClass,
                    pairings=None) -> BordismClass:
    """Fibre-product pairing of two classes over one target.

    Two cooriented factors multiply to a cooriented class; one oriented and
    one cooriented factor to an oriented class, with the oriented factor
    placed first.  Each pair of components is one fibre product, the first
    entering with its orientation, so a cooriented product is oriented by the
    cup coorientation.  Certificates are derived from the factors' certificates
    when every component pair meets in a single piece; otherwise supply the
    pairings explicitly.  Derived certificates are re-audited whenever both
    factors are certified closed.
    """
    if not isinstance(a, BordismClass) or not isinstance(b, BordismClass):
        raise BordismError("both factors must be bordism classes")
    if not a.components or not b.components:
        return BordismClass((), ())
    if a.target != b.target:
        raise BordismError("factors live over different targets")
    if not a.cooriented and not b.cooriented:
        raise BordismError("at least one factor must be cooriented")
    if a.cooriented and not b.cooriented:
        first, second = b, a
    else:
        first, second = a, b
    pieces = {}
    index = {}
    comps = []
    for i1, f in enumerate(first.components):
        for i2, s in enumerate(second.components):
            got = fibre_product_cells(f.cell, f.cmap, s.cell, s.cmap)
            for k, fc in enumerate(got):
                if not fc.transverse:
                    raise BordismError("a pair of components is not "
                                       "transverse; the product is "
                                       "undefined here")
                if not fc.orientable:
                    raise BordismError("a product component is not "
                                       "orientable over the cooriented "
                                       "factor")
                index[(i1, i2, k)] = len(comps)
                comps.append(BordismComponent(fc.cell, fc.pmap,
                                              cooriented=first.cooriented))
                pieces[(i1, i2, k)] = fc
    if pairings is None:
        pairings = _derive_product_pairings(first, second, pieces, index)
    result = BordismClass(tuple(comps), tuple(pairings))
    if closed_certificate_check(first) and closed_certificate_check(second):
        report = closed_certificate_check(result)
        if not report:
            raise BordismError("derived certificate failed; supply the "
                               "pairings explicitly: " + report.details[0])
    return result


# ---------------------------------------------------------------------------
# Strata projection
# ---------------------------------------------------------------------------

def _same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    return g is h or (g.elements == h.elements and g.table == h.table)


def strata_projection(b: BordismClass, sub: FiniteGroup,
                      rho: VirtualRep) -> BordismClass:
    """Project a class onto the fixed-point stratum of an odd-order symmetry.

    Every component must carry a symmetry model acting on its own polytope
    with the map invariant under it.  The stratum pieces, which must be
    points here, become the components of the projected class, keeping the
    component's orientation sign and map; the grade drops by the dimension
    of the label.
    """
    if b.cooriented:
        raise BordismError("strata projection acts on oriented classes")
    if len(sub) % 2 == 0:
        raise BordismError("even-order symmetry obstructs the orientation "
                           "transfer to the stratum; only odd orders are "
                           "supported")
    if not _same_group(rho.group, sub):
        raise BordismError("label lives over a different group")
    if rho.is_virtual:
        raise BordismError("labels with a negative part do not name honest "
                           "strata")
    if len(sub) == 1 and rho.dim == 0:
        return b
    comps = []
    for i, comp in enumerate(b.components):
        action = comp.model
        if action is None:
            raise BordismError(f"component {i} carries no symmetry model")
        if comp.cell.torus_rank:
            raise BordismError("symmetry models on torus factors are not "
                               "supported")
        if len(action.spaces) != 1 \
                or action.spaces[0].vertices != comp.cell.polytope.vertices:
            raise BordismError(f"component {i}'s model does not act on its "
                               "own polytope")
        if not _same_group(action.group, sub):
            raise BordismError(f"component {i}'s model uses a different "
                               "group")
        if not map_is_invariant(action, comp.cmap):
            raise BordismError(f"component {i}'s map is not invariant under "
                               "the model")
        stratum = orbifold_stratum(action, sub, rho)
        for piece in stratum.pieces:
            if piece.polytope.dim != 0:
                raise BordismError("only point strata are projected here; "
                                   "higher-dimensional pieces need their "
                                   "own orientation transport")
            comps.append(BordismComponent(
                Cell(piece.polytope, 0, None, comp.cell.sign), comp.cmap))
    return BordismClass(tuple(comps), (), kind=b.kind)
