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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._linalg import Mat, Vec, det_sign, identity, invariant_factors, mat, matvec, rank, vec
from .cells import (Cell, CellMap, Coorientation, _canonical_form, boundary_cells,
                    canonical_cell_map, canonical_form, fibre_product_cells,
                    identity_map, is_interior_submersion, maps_agree,
                    orientation_from_coorientation)
from .chains import Chain, Generator, Tag, _prism_ends, boundary, cylinder
from .geometry import POINT_POLYTOPE, affine_isomorphisms, compress_mask, face_key
from .maps import CheckReport
from .orbifold import (FiniteGroup, GroupAction, VirtualRep, map_is_invariant,
                       orbifold_stratum, same_group)


class BordismError(ValueError):
    """Problem with bordism-class data or certificates."""


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
        for side in ("left", "right"):
            i, face = getattr(self, side)
            if type(i) is not int:
                raise BordismError(f"component index must be an int, not {i!r}")
            object.__setattr__(self, side, (i, face_key(face)))
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
        if not cmap.fits(cell.polytope.ambient_dim, cell.torus_rank):
            raise BordismError("map shape does not match the cell")
        if coorientation is not None:
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

    def _term(self) -> tuple:
        """canonical_term with the map slots in their integer form
        (cells._canonical_form): equal exactly when canonical_term is, and
        built with no Fraction view of the map."""
        key, sign, _, _ = _canonical_form(self.cell, self.cmap)
        return key + (self.cooriented,), sign


@dataclass(frozen=True, init=False, eq=False)
class BordismClass:
    """Union of mapped cells with a boundary-gluing certificate; a frozen value."""

    components: tuple
    pairings: tuple
    kind: str

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
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "pairings", pws)
        object.__setattr__(self, "kind", kind)

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

    def _terms(self) -> tuple:
        """The components' integer terms, sorted: equal exactly when
        canonical_terms are, which is what equality, hashing and
        class_match read."""
        return tuple(sorted(c._term() for c in self.components))

    def __eq__(self, other):
        return (isinstance(other, BordismClass) and self.kind == other.kind
                and self._terms() == other._terms())

    def __hash__(self):
        return hash((self.kind, self._terms()))

    def __repr__(self):
        flavour = "cooriented" if self.cooriented else "oriented"
        return (f"BordismClass({len(self.components)} {flavour} components, "
                f"{len(self.pairings)} pairings, kind={self.kind!r})")


# ---------------------------------------------------------------------------
# Certificate audit
# ---------------------------------------------------------------------------

def _orientation_factor(linear, cell1: Cell, cell2: Cell) -> Optional[int]:
    """+1 or -1 as the identification with polytope part `linear`, identical
    on the torus factor, preserves or reverses the orientations; None when it
    does not carry cell1's tangent space onto cell2's.  cell1's dir_basis
    is carried over, tested for membership and signed in cell2's chart."""
    fd = cell2.polytope._fd
    carried = [tuple(linear(v)) for v in cell1.polytope.dir_basis]
    if (cell1.torus_rank != cell2.torus_rank or len(carried) != fd.dim
            or not all(fd.is_tangent(v) for v in carried)):
        return None
    d = det_sign([fd.frame_coords(v) for v in carried], (), fd.dim)
    return d * cell1.sign * cell2.sign if d else None


def _witness_fault(b: BordismClass, pw: PairingWitness,
                   atlas: dict) -> Optional[str]:
    (i, fkey), (j, gkey) = pw.left, pw.right
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
    # +-1: equal ranks, equal facet dimensions, vertices onto the partner's
    eps = _orientation_factor(pw.linear, atlas[pw.left][0], atlas[pw.right][0])
    if eps != -1:
        return "identification does not reverse the induced orientation"
    return None


def _audit(b: BordismClass) -> tuple:
    """One pass over a class's pairings.

    Returns the atlas, (component, facet key) -> (induced boundary cell,
    facet mask); the set of paired sides; the pairing faults (a pairing that
    fixes a face, a side paired more than once, a side naming no facet); the
    identification faults (_witness_fault) of the pairings of two facets;
    and the number of those pairings.
    """
    atlas = {}
    for i, comp in enumerate(b.components):
        cells = boundary_cells(comp.cell)
        fd = comp.cell.polytope._fd
        for cell, mask in zip(cells, fd.facet_masks):
            atlas[(i, fd.key(mask))] = (cell, mask)
    faults = []
    counts: Counter = Counter()
    for k, pw in enumerate(b.pairings):
        if pw.left == pw.right:
            faults.append(f"pairing {k} fixes face {pw.left}")
        counts.update((pw.left, pw.right))
    for side in sorted(counts):
        if counts[side] > 1:
            faults.append(f"face {side} is paired more than once")
        if side not in atlas:
            faults.append(f"pairing names a missing face {side}")
    glued = [(k, pw) for k, pw in enumerate(b.pairings)
             if pw.left in atlas and pw.right in atlas]
    identification = [f"pairing {k}: {fault}" for k, pw in glued
                      if (fault := _witness_fault(b, pw, atlas))]
    return atlas, set(counts), faults, identification, len(glued)


def _certificate(b: BordismClass) -> tuple:
    """closed_certificate_check's report, and the audit's atlas."""
    atlas, paired, faults, identification, glued = _audit(b)
    details = faults + [f"boundary face {side} is unpaired"
                        for side in sorted(atlas) if side not in paired]
    if b.cooriented and atlas:
        details.append("cooriented classes must be boundary-free")
    details += identification
    return CheckReport(ok=not details, checked=len(atlas) + glued,
                       details=tuple(details)), atlas


def closed_certificate_check(b: BordismClass) -> CheckReport:
    """Audit of the gluing certificate.

    Every boundary facet must appear in exactly one pairing, no pairing may
    fix a face, and every identification must be an orientation-reversing
    affine bijection of its two faces commuting with the maps.  Cooriented
    classes are supported only without boundary.
    """
    return _certificate(b)[0]


def _corner_fault(b: BordismClass, atlas: dict, paired: set) -> Optional[str]:
    """Free boundaries must be corner-free: any face two levels down sits in
    two facets, and both must be paired or the glued boundary has a corner."""
    for side, (_, mask) in atlas.items():
        fd = b.components[side[0]].cell.polytope._fd
        if side not in paired and any(dim == fd.dim - 2 and g & ~mask == 0
                                      for g, dim in fd.face_dims().items()):
            return (f"component {side[0]} has corner faces on its free "
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
    best = None
    for vmap, linear in affine_isomorphisms(c1.polytope, c2.polytope):
        if not maps_agree(m1, m2, list(vmap.items())):
            continue
        eps = _orientation_factor(linear, c1, c2)
        if eps == 1:
            return 1
        if eps is not None:
            best = -1
    return best


def class_match(a: BordismClass, b: BordismClass) -> bool:
    """One-to-one correspondence of components by orientation-preserving
    identifications commuting with the maps."""
    if a.cooriented != b.cooriented \
            or len(a.components) != len(b.components):
        return False
    if a.cooriented:
        return a._terms() == b._terms()
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
    atlas, paired, faults, identification, _ = _audit(w)
    fault = _corner_fault(w, atlas, paired)
    if fault:
        raise BordismError(fault)
    if faults or identification:
        raise BordismError("witness " + (faults + identification)[0])
    row = [0] * len(gens)
    for key in sorted(atlas):
        if key in paired:
            continue
        cell = atlas[key][0]
        cmap = w.components[key[0]].cmap
        hit = None
        for k, g in enumerate(gens):
            gc = g.components[0]
            eps = oriented_match(cell, cmap, gc.cell, gc.cmap)
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


def _emission_generators(b: BordismClass, *atoms) -> list:
    """One generator list per labelling atom, the components in order."""
    report, atlas = _certificate(b)
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

    # both sides of a shared pairing are facets with the same sorted
    # vertices, so their faces match by their masks packed at those vertices
    for pw in b.pairings:
        (i, _), (j, _) = pw.left, pw.right
        fi, fj = atlas[pw.left][1], atlas[pw.right][1]
        inner = {compress_mask(h, fj): h for h in comp_faces[j] if h & ~fj == 0}
        for g in comp_faces[i]:
            if g & ~fi == 0:
                ra, rb = find((i, g)), find((j, inner[compress_mask(g, fi)]))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    roots = sorted({find(nd) for nd in parent})
    label_index = {r: k for k, r in enumerate(roots)}
    # shared pairings join only faces with equal vertex tuples, which two
    # faces of one component never have, so each tag is injective
    emissions = []
    for atom in atoms:
        gens = []
        for i, comp in enumerate(b.components):
            tag = Tag.of_masks(comp.cell.polytope.vertices,
                               [(g, ((str(atom), label_index[find((i, g))]),))
                                for g in comp_faces[i]])
            gens.append(Generator(comp.cell, comp.cmap, tag,
                                  is_cochain=comp.cooriented))
        emissions.append(gens)
    return emissions


def Pi_Kb_Kh(b: BordismClass, atom="g") -> Chain:
    """Chain representative of a certified-closed class.

    One generator per component with coefficient one; faces are labelled by
    their gluing classes, so glued faces share labels and cancel in the
    boundary while free labels stay distinct within each component.
    """
    return Chain([(Fraction(1), g) for g in _emission_generators(b, atom)[0]])


def tag_independence_witness(b: BordismClass, atom1="g", atom2="h"):
    """Prism chain connecting the emissions for two labelling atoms.

    The witness is the union of prisms over the components.  Its boundary
    is the second emission at height one minus the first at height zero
    (_prism_ends), while the prism sides cancel in pairs along the gluing.
    The report also records that both emissions are cycles.
    """
    if str(atom1) == str(atom2):
        raise BordismError("the two labelling atoms must differ")
    if b.cooriented:
        raise BordismError("prism witnesses exist for oriented classes")
    gens1, gens2 = _emission_generators(b, atom1, atom2)
    witness = Chain([(Fraction(1), cylinder(g1, g2.tag)) for g1, g2 in zip(gens1, gens2)])
    details = []
    if boundary(witness) != _prism_ends([(g1, g2.tag) for g1, g2 in zip(gens1, gens2)]):
        details.append("prism boundary does not reduce to the two emissions")
    for name, gens in (("first", gens1), ("second", gens2)):
        cyc = Chain([(Fraction(1), g) for g in gens])
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


def _derive_product_pairings(first, atlas, second, pieces, index):
    """The first factor's pairings carried onto the product pieces; atlas is
    the first factor's."""
    out = []
    masks = {side: mask for side, (_, mask) in atlas.items()}

    def lone_piece(i1, i2):
        ks = [k for (a, b, k) in pieces if a == i1 and b == i2]
        if len(ks) != 1:
            raise BordismError("certificate derivation needs a single "
                               "product piece per component pair")
        return ks[0]

    def located(fc, pair):
        fd = fc.cell.polytope._fd
        return [fd.key(g) for g, got in fc.face_pairs.items() if got == pair]

    for k, pw in enumerate(first.pairings):
        (i, _), (j, _) = pw.left, pw.right
        n_i = first.components[i].cell.polytope.ambient_dim
        for i2, comp2 in enumerate(second.components):
            n2 = comp2.cell.polytope.ambient_dim
            top2 = (1 << len(comp2.cell.polytope.vertices)) - 1
            kl = (i, i2, lone_piece(i, i2))
            kr = (j, i2, lone_piece(j, i2))
            # a product face paired with (F, the whole of P2) is the piece's
            # cut by F x P2, so a side has at most one, and the identification
            # carries one side's fibre onto the other's: both hit or neither,
            # unless the pairing names one facet and one face that is no facet
            hits_l = located(pieces[kl], (masks.get(pw.left), top2))
            hits_r = located(pieces[kr], (masks.get(pw.right), top2))
            if not hits_l and not hits_r:
                continue
            if not hits_l or not hits_r:
                raise BordismError(f"pairing {k} pairs a facet with a face that is no "
                                   "facet; no certificate can be derived from it")
            rows = [tuple(row) + (Fraction(0),) * n2 for row in pw.matrix]
            rows += [(Fraction(0),) * n_i + e for e in identity(n2)]
            off = tuple(pw.offset) + (Fraction(0),) * n2
            out.append(PairingWitness((index[kl], hits_l[0]), (index[kr], hits_r[0]),
                                      tuple(rows), off))
    return tuple(out)


def bordism_cup_cap(a: BordismClass, b: BordismClass) -> BordismClass:
    """Fibre-product pairing of two classes over one target.

    Two cooriented factors multiply to a cooriented class; one oriented and
    one cooriented factor to an oriented class, with the oriented factor
    placed first.  Each pair of components is one fibre product, the first
    entering with its orientation, so a cooriented product is oriented by the
    cup coorientation.  The certificate is derived from the first factor's,
    which needs every component pair to meet in a single piece; the second
    factor is cooriented, and a certified cooriented class has no facets to
    pair.  A derived certificate is re-audited whenever both factors are
    certified closed.
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
                index[(i1, i2, k)] = len(comps)
                comps.append(BordismComponent(fc.cell, fc.pmap,
                                              cooriented=first.cooriented))
                pieces[(i1, i2, k)] = fc
    certified, atlas = _certificate(first)
    result = BordismClass(tuple(comps), _derive_product_pairings(first, atlas, second,
                                                                 pieces, index))
    if certified and closed_certificate_check(second):
        report = closed_certificate_check(result)
        if not report:
            raise BordismError("derived certificate failed: " + report.details[0])
    return result


# ---------------------------------------------------------------------------
# Strata projection
# ---------------------------------------------------------------------------

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
    if not same_group(rho.group, sub):
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
        if not same_group(action.group, sub):
            raise BordismError(f"component {i}'s model uses a different "
                               "group")
        if not map_is_invariant(action, [comp.cmap]):
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
