"""Chain groups over a fixed target: labelled generators, relations, homology.

A generator is an oriented cell with an affine map to the target and an
injective labelling of its face lattice.  Chains are finite rational
combinations of generator classes, kept in a normal form where orientation
reversal folds into the coefficient, quotient markers expand to 1/|group|
times their cover, and cells carrying a circle direction that neither the
map nor the polytope constrains are dropped (such a cell has an
orientation-reversing self-map fixing all data, so its class is 2-torsion
and dies over the rationals).

A face of a cell is a bitmask over its polytope's sorted vertices, from the
face lattice (geometry) up to tags, quotient orbits and fibre-product face
pairs; face keys (sorted vertex tuples) appear only at the public edge.  A
face's sorted vertices are a subsequence of its polytope's, so restricting a
tag to a face keeps the masks inside it and packs their bits at its vertices.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from ._linalg import (
    Vec,
    frac,
    identity,
    invariant_factors,
    mat,
    rank,
    solve,
)
from .cells import (
    POINT,
    Cell,
    CellMap,
    Coorientation,
    Target,
    canonical_form,
    cell_boundary,
    cell_orientation_equal,
    constant_map,
    has_free_circle,
    is_strong_submersion,
    kernel_coorientation,
    orientation_from_coorientation,
    validate_coorientation,
)
from .geometry import (FaceKey, Polytope, affine_isomorphisms, compress_mask, mask_bits,
                       move_mask, standard_simplex)
from .maps import CheckReport


class TagError(ValueError):
    pass


class ChainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Labels and tags
# ---------------------------------------------------------------------------
# A label is a sorted tuple of atoms; an atom is an int, a string, or a tuple
# of atoms.  Tags built from single atoms use one-element labels; label
# pairing (products) concatenates and re-sorts, so the empty label is a unit.

def _term_key(x):
    """Total order on ints, Fractions, strings, None and nested tuples."""
    if x is None:
        return (0,)
    if isinstance(x, bool):
        return (1, int(x))
    if isinstance(x, (int, Fraction)):
        return (1, x)
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, tuple):
        return (3, tuple(_term_key(e) for e in x))
    raise TypeError(f"unorderable label component: {x!r}")


def atom_label(atom) -> tuple:
    """The one-atom label."""
    _term_key(atom)
    return (atom,)


EMPTY_LABEL: tuple = ()


def merge_labels(*labels: tuple) -> tuple:
    """Combine labels as a sorted multiset of atoms; the empty label is a unit."""
    combined = tuple(itertools.chain.from_iterable(labels))
    return tuple(sorted(combined, key=_term_key))


def _vertex_index(vertices) -> dict:
    return {v: i for i, v in enumerate(vertices)}


def _face_mask(index: dict, key) -> int:
    """Vertex bitmask of a face key, through a vertex -> index dict."""
    mask = 0
    for v in key:
        i = index.get(tuple(v))
        if i is None:
            raise TagError(f"face {tuple(key)} is not on the polytope's vertices")
        mask |= 1 << i
    return mask


def _checked_label(label) -> tuple:
    if not isinstance(label, tuple):
        raise TagError("labels must be tuples of atoms")
    for a in label:
        _term_key(a)
    return label


class Tag:
    """Labelling of a cell's face lattice, one label per face.

    A face is a bitmask over the sorted vertices of the cell's polytope;
    `labels` holds one (mask, label) pair per face, sorted by mask, and
    `vertices` is the polytope's vertex tuple, read only to convert face
    keys at the public edge; `order`, the labels' `_term_key`, is built at
    most once per tag.  Restricting to a face F keeps the faces inside
    F and packs their bits at F's vertices (geometry.compress_mask), which is
    exact: a face's sorted vertices are a subsequence of its polytope's.
    """

    __slots__ = ("vertices", "labels", "_order")

    def __init__(self, polytope: Polytope, labels: Mapping[FaceKey, tuple]):
        index = _vertex_index(polytope.vertices)
        self._set(polytope.vertices, [(_face_mask(index, key), _checked_label(label))
                                      for key, label in labels.items()])

    @classmethod
    def from_atoms(cls, polytope: Polytope, atoms: Mapping[FaceKey, object]) -> "Tag":
        return cls(polytope, {k: atom_label(v) for k, v in atoms.items()})

    @classmethod
    def of_masks(cls, vertices: tuple, pairs: Iterable) -> "Tag":
        """A tag from (face mask, label) pairs over the given vertex tuple."""
        tag = cls.__new__(cls)
        tag._set(vertices, pairs)
        return tag

    def _set(self, vertices: tuple, pairs: Iterable):
        pairs = sorted(pairs, key=lambda p: p[0])
        if any(a[0] == b[0] for a, b in zip(pairs, pairs[1:])):
            raise TagError("duplicate face key in tag")
        self.vertices = vertices
        self.labels = tuple(pairs)
        self._order = None

    @property
    def face_keys(self) -> tuple:
        return tuple(self._key(m) for m, _ in self.labels)

    def _key(self, mask: int) -> FaceKey:
        return tuple(self.vertices[i] for i in mask_bits(mask))

    def label_at(self, mask: int) -> tuple:
        i = bisect_left(self.labels, mask, key=lambda p: p[0])
        if i == len(self.labels) or self.labels[i][0] != mask:
            raise TagError(f"face {self._key(mask)} not labelled")
        return self.labels[i][1]

    def label_of(self, face_key: FaceKey) -> tuple:
        return self.label_at(_face_mask(_vertex_index(self.vertices), face_key))

    @property
    def order(self) -> tuple:
        """The labels' place in the term order, `_term_key(labels)`."""
        if self._order is None:
            self._order = _term_key(self.labels)
        return self._order

    def mapping(self) -> dict:
        return {self._key(m): label for m, label in self.labels}

    def is_injective(self) -> bool:
        vals = [label for _, label in self.labels]
        return len(set(vals)) == len(vals)

    def restrict(self, face_mask: int) -> "Tag":
        """The induced labelling on the faces of one face (a facet, say).

        Packing is monotone on the subsets of face_mask: the pairs stay sorted.
        """
        at = mask_bits(face_mask)
        tag = Tag.__new__(Tag)
        tag.vertices = tuple(self.vertices[i] for i in at)
        tag.labels = tuple((sum(1 << k for k, i in enumerate(at) if m >> i & 1), label)
                           for m, label in self.labels if not m & ~face_mask)
        tag._order = None
        return tag

    def moved(self, vertices: tuple, table: Sequence[int]) -> "Tag":
        """The tag carried along the vertex bijection i -> table[i] onto vertices."""
        return Tag.of_masks(vertices, [(move_mask(m, table), label)
                                       for m, label in self.labels])

    def relabel(self, dictionary: Mapping[tuple, tuple]) -> "Tag":
        return Tag.of_masks(self.vertices, [(m, _checked_label(dictionary[label]))
                                            for m, label in self.labels])

    def __eq__(self, other):
        return (isinstance(other, Tag) and self.labels == other.labels
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Tag({len(self.labels)} faces)"


def numbered_tag(polytope: Polytope, *prefix) -> Tag:
    """Labels ((*prefix, i),), numbering the faces by dimension, then key."""
    return Tag.of_masks(polytope.vertices,
                        [(g, ((*prefix, i),))
                         for i, g in enumerate(polytope._fd.face_dims())])


def pair_tags(tag1: Tag, tag2: Tag, comp) -> Tag:
    """Tag a fibre product: each face inherits the merged labels of its pair.

    comp is a cells.FibreComponent: its face_pairs maps a face mask of the
    product cell to the matched pair of operand face masks.  Merging is a
    sorted concatenation, so the pairing is symmetric and associative after
    canonicalization, with the empty label acting as a unit.
    """
    tag = Tag.of_masks(comp.cell.polytope.vertices,
                       [(g, merge_labels(tag1.label_at(f1), tag2.label_at(f2)))
                        for g, (f1, f2) in comp.face_pairs.items()])
    if not tag.is_injective():
        raise TagError("label collision while pairing tags; use disjoint atom pools")
    return tag


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientMarker:
    """A finite-group quotient presented by its cover.

    The generator holding the marker is the class of cover/group; its tag is
    constant on each orbit and injective across orbits.  orbits is a partition
    of the cover's faces, as vertex bitmasks (see Tag); from_faces takes face
    keys.
    """

    order: int
    orbits: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ChainError("group order must be positive")
        if not all(isinstance(f, int) for orbit in self.orbits for f in orbit):
            raise ChainError("orbits hold face masks; from_faces takes face keys")
        object.__setattr__(self, "orbits",
                           tuple(tuple(sorted(orbit)) for orbit in self.orbits))

    @classmethod
    def from_faces(cls, polytope: Polytope, order: int, orbits) -> "QuotientMarker":
        index = _vertex_index(polytope.vertices)
        return cls(order, tuple(tuple(_face_mask(index, f) for f in orbit)
                                for orbit in orbits))

    def positions(self) -> dict:
        """Face mask -> its position atom within a shared orbit (empty if alone)."""
        return {f: (("q", j),) if len(orbit) > 1 else EMPTY_LABEL
                for orbit in self.orbits for j, f in enumerate(orbit)}


class Generator:
    """One labelled, oriented cell with a map to the target.

    A cochain generator (is_cochain) stands for a coorientation of the map,
    which must restrict to a submersion on every face.  It stores the
    orientation the dictionary TX = f*(TY) + Ker df gives that coorientation
    (see cells), so chains and cochains share one normal form, one boundary
    and one fibre product.  A coorientation passed in is validated and
    converted once; `coorientation` reads one back and keeps it.
    """

    __slots__ = ("cell", "cmap", "tag", "is_cochain", "quotient", "_coorientation")

    def __init__(self, cell: Cell, cmap: CellMap, tag: Tag,
                 coorientation: Optional[Coorientation] = None,
                 quotient: Optional[QuotientMarker] = None, *,
                 is_cochain: bool = False):
        m = cmap.target.dim
        if m > 0 and (cmap.n_cols != cell.polytope.ambient_dim
                      or cmap.s_cols != cell.torus_rank):
            raise ChainError("map shape does not match the cell")
        faces = cell.polytope._fd.face_dims()
        if (len(tag.labels) != len(faces) or any(g not in faces for g, _ in tag.labels)
                or tag.vertices != cell.polytope.vertices):
            raise TagError("tag must label exactly the faces of the cell")
        is_cochain = is_cochain or coorientation is not None
        if is_cochain:
            if quotient is not None:
                raise ChainError("cochain generators cannot carry quotient markers")
            if not is_strong_submersion(cell, cmap):
                raise ChainError("cochain generators need a submersion on every face")
            if coorientation is not None:
                validate_coorientation(cell, cmap, coorientation)
                cell = orientation_from_coorientation(cell, cmap, coorientation)
        if quotient is not None:
            self._validate_marker(faces, tag, quotient)
        elif not tag.is_injective():
            raise TagError("tag labels must be injective")
        self.cell = cell
        self.cmap = cmap
        self.tag = tag
        self.is_cochain = is_cochain
        self.quotient = quotient
        self._coorientation = None

    @staticmethod
    def _validate_marker(faces: Mapping[int, int], tag: Tag, marker: QuotientMarker):
        seen = set()
        orbit_labels = []
        for orbit in marker.orbits:
            if marker.order % len(orbit) != 0:
                raise ChainError("orbit size must divide the group order")
            labels = {tag.label_at(f) for f in orbit}
            if len(labels) != 1:
                raise TagError("marker tag must be constant on each orbit")
            orbit_labels.append(labels.pop())
            for f in orbit:
                if f in seen:
                    raise ChainError("orbits must be disjoint")
                seen.add(f)
        if seen != faces.keys():
            raise ChainError("orbits must cover every face of the cell")
        if len(set(orbit_labels)) != len(orbit_labels):
            raise TagError("marker tag must separate orbits")

    @property
    def coorientation(self) -> Optional[Coorientation]:
        """The coorientation a cochain generator stands for; None on chains."""
        if self.is_cochain and self._coorientation is None:
            self._coorientation = kernel_coorientation(self.cell, self.cmap)
        return self._coorientation

    @property
    def grade(self) -> int:
        if self.is_cochain:
            return self.cmap.target.dim - self.cell.dim
        return self.cell.dim

    def reversed(self) -> "Generator":
        return Generator(self.cell.reversed(), self.cmap, self.tag,
                         quotient=self.quotient, is_cochain=self.is_cochain)

    def __repr__(self):
        kind = "cochain" if self.is_cochain else "chain"
        return (f"Generator({kind}, dim {self.cell.dim}, "
                f"{len(self.cell.polytope.vertices)} vertices, "
                f"-> {self.cmap.target.kind}({self.cmap.target.dim}))")


def expand_quotient(gen: Generator) -> tuple[Fraction, Generator]:
    """Replace a marked generator by 1/order times its cover.

    Faces in a shared orbit get the orbit label extended by a position atom,
    keeping the cover tag injective; the position depends only on the face and
    its orbit, so expansion commutes with boundary restriction.
    """
    marker = gen.quotient
    if marker is None:
        return Fraction(1), gen
    pos = marker.positions()
    cover = Generator(gen.cell, gen.cmap, Tag.of_masks(
        gen.tag.vertices, [(m, merge_labels(label, pos[m]) if pos[m] else label)
                           for m, label in gen.tag.labels]))
    return Fraction(1, marker.order), cover


# ---------------------------------------------------------------------------
# Normal form and chains
# ---------------------------------------------------------------------------

def _normal_form(gen: Generator):
    """(key, sign, normalized generator), or None when the class is zero.

    The key ends in the tag and in True for a cochain, None for a chain.
    """
    key, sign, cell, cmapc = canonical_form(gen.cell, gen.cmap)
    # cmapc.m_t is in column Hermite form, its zero columns last, so a free
    # circle (has_free_circle) is a zero last column, or no target rows
    s = cell.torus_rank
    if s and not any(row[s - 1] for row in cmapc.m_t):
        return None
    key += (gen.tag.labels, gen.is_cochain or None)
    return key, sign, Generator(Cell(cell.polytope, cell.torus_rank), cmapc, gen.tag,
                                is_cochain=gen.is_cochain)


def _term_order(key: tuple, gen: Generator) -> tuple:
    """The place of a normal-form term in the term order, that of _term_key(key).

    The key is ((kind, dim), ambient, vertices, torus_rank, a, m_t, b,
    labels, flag).  Its first seven slots hold only str, int and Fraction,
    one type per position, which compare natively as _term_key does; the
    labels' part is the generator's tag order, and a chain's flag (None)
    comes before a cochain's (True).
    """
    return key[:7] + (gen.tag.order, key[8] is not None)


class Chain:
    """Finite rational combination of generator classes, kept canonical."""

    __slots__ = ("ring", "_terms")

    def __init__(self, terms: Iterable = (), ring: str = "Q"):
        if ring not in ("Q", "Z"):
            raise ChainError("ring must be 'Q' or 'Z'")
        self.ring = ring
        self._terms: dict = {}
        for coeff, gen in terms:
            self._accumulate(frac(coeff), gen)
        self._prune()

    def _accumulate(self, coeff: Fraction, gen: Generator):
        if coeff == 0:
            return
        if gen.quotient is not None:
            if self.ring != "Q":
                raise ChainError("quotient markers require a Q-algebra")
            factor, gen = expand_quotient(gen)
            coeff *= factor
        nf = _normal_form(gen)
        if nf is None:
            return
        key, sign, norm = nf
        new = [sign * coeff, norm]
        entry = self._terms.setdefault(key, new)
        if entry is not new:
            entry[0] += new[0]

    def _prune(self):
        for key in [k for k, (c, _) in self._terms.items() if c == 0]:
            del self._terms[key]

    def terms(self) -> list:
        """Deterministically ordered list of (coefficient, generator)."""
        items = sorted(self._terms.items(), key=lambda kv: _term_order(kv[0], kv[1][1]))
        return [(c, g) for _, (c, g) in items]

    def coefficient(self, gen: Generator) -> Fraction:
        """Coefficient of the generator's class; 1/|group| folds back out."""
        factor, gen = expand_quotient(gen)
        nf = _normal_form(gen)
        if nf is None:
            return Fraction(0)
        key, sign, _ = nf
        return sign * self._terms.get(key, (Fraction(0), None))[0] / factor

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def grades(self) -> set:
        return {g.grade for _, g in self._terms.values()}

    def scale(self, r) -> "Chain":
        out = Chain(ring=self.ring)
        for key, (c, g) in self._terms.items():
            if frac(r) * c != 0:
                out._terms[key] = [frac(r) * c, g]
        return out

    def __add__(self, other: "Chain") -> "Chain":
        if self.ring != other.ring:
            raise ChainError("cannot mix coefficient rings")
        out = Chain(ring=self.ring)
        out._terms = {k: [c, g] for k, (c, g) in self._terms.items()}
        for key, (c, g) in other._terms.items():
            new = [c, g]
            entry = out._terms.setdefault(key, new)
            if entry is not new:
                entry[0] += c
        out._prune()
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        return self + other.scale(-1)

    def __neg__(self) -> "Chain":
        return self.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, Chain) and self.ring == other.ring
                and {k: c for k, (c, _) in self._terms.items()}
                == {k: c for k, (c, _) in other._terms.items()})

    def __hash__(self):
        raise TypeError("chains are mutable-by-construction; not hashable")

    def __repr__(self):
        return f"Chain({len(self._terms)} terms over {self.ring})"


def chain(*terms, ring: str = "Q") -> Chain:
    """Build a chain from (coefficient, generator) pairs or bare generators."""
    prepared = []
    for t in terms:
        if isinstance(t, Generator):
            prepared.append((Fraction(1), t))
        else:
            prepared.append(t)
    return Chain(prepared, ring=ring)


def disjoint_union(gens: Sequence[Generator]) -> Chain:
    """The class of a disjoint union is the sum of its component classes."""
    labels = [label for g in gens for _, label in g.tag.labels]
    if len(set(labels)) != len(labels):
        raise TagError("components of a disjoint union need disjoint labels")
    return Chain([(Fraction(1), g) for g in gens])


# ---------------------------------------------------------------------------
# Boundary
# ---------------------------------------------------------------------------

def generator_boundary(gen: Generator) -> list:
    """Signed facet generators of one generator; marked generators expand."""
    out = []
    marker = gen.quotient
    tag = gen.tag
    if marker is not None:
        pos = marker.positions()
        tag = Tag.of_masks(tag.vertices, [(m, merge_labels(label, pos[m]))
                                          for m, label in tag.labels])
    coeff = Fraction(1, marker.order) if marker is not None else Fraction(1)
    # cell_boundary follows facets(), and facet_masks is in the same order
    bcs = cell_boundary(gen.cell)
    for bc, facet in zip(bcs, gen.cell.polytope._fd.facet_masks):
        out.append((coeff, Generator(bc.cell, gen.cmap, tag.restrict(facet),
                                     is_cochain=gen.is_cochain)))
    return out


def boundary(c: Chain) -> Chain:
    """The boundary operator: restrict each generator to its facets."""
    out = Chain(ring=c.ring)
    for coeff, gen in c.terms():
        for factor, sub in generator_boundary(gen):
            out._accumulate(coeff * factor, sub)
    out._prune()
    return out


# ---------------------------------------------------------------------------
# Second boundary and the corner pairing
# ---------------------------------------------------------------------------

@dataclass
class CornerTerm:
    """One flag of the second boundary: a corner reached through two facets."""

    corner: FaceKey
    first_facet: FaceKey
    second_facet: FaceKey
    cell: Cell
    tag: Tag


def corner_terms(gen: Generator) -> list[CornerTerm]:
    """All ordered flags (corner, facet entered first, other facet)."""
    if gen.quotient is not None:
        _, gen = expand_quotient(gen)
    out = []
    p = gen.cell.polytope
    bcs1 = cell_boundary(gen.cell)
    facet_masks = p._fd.facet_masks
    for i1, (bc1, m1) in enumerate(zip(bcs1, facet_masks)):
        tag1 = gen.tag.restrict(m1)
        # every facet of P cut down to the facet entered first, over its vertices
        cuts = [compress_mask(m & m1, m1) for m in facet_masks]
        bcs2 = cell_boundary(bc1.cell)
        for bc2, m2 in zip(bcs2, bc1.cell.polytope._fd.facet_masks):
            holders = [i for i, cut in enumerate(cuts) if m2 & ~cut == 0]
            if len(holders) != 2:
                raise ChainError("corner contained in other than two facets")
            other = holders[0] if holders[1] == i1 else holders[1]
            out.append(CornerTerm(
                corner=bc2.face,
                first_facet=bc1.face,
                second_facet=bcs1[other].face,
                cell=bc2.cell,
                tag=tag1.restrict(m2)))
    return out


@dataclass
class PairingReport:
    ok: bool
    corners_checked: int
    details: tuple = ()

    def __bool__(self):
        return self.ok


def check_sigma_pairing(terms: Sequence[CornerTerm]) -> PairingReport:
    """Each flag must have a swapped partner carrying the opposite orientation."""
    index = {}
    for i, t in enumerate(terms):
        key = (t.corner, t.first_facet, t.second_facet)
        if key in index:
            return PairingReport(False, 0, ("duplicate flag",))
        index[key] = i
    seen = set()
    pairs = 0
    for i, t in enumerate(terms):
        if i in seen:
            continue
        partner_key = (t.corner, t.second_facet, t.first_facet)
        j = index.get(partner_key)
        if j is None or j in seen:
            return PairingReport(False, pairs,
                                 (f"unpaired flag at corner {t.corner}",))
        partner = terms[j]
        if t.tag != partner.tag:
            return PairingReport(False, pairs,
                                 (f"tag mismatch at corner {t.corner}",))
        if cell_orientation_equal(t.cell, partner.cell) != -1:
            return PairingReport(False, pairs,
                                 (f"orientations at corner {t.corner} do not cancel",))
        seen.add(i)
        seen.add(j)
        pairs += 1
    return PairingReport(True, pairs)


def verify_dd_zero(c: Chain) -> PairingReport:
    """Check that the double boundary vanishes and why: corners cancel in pairs."""
    total = 0
    for _, gen in c.terms():
        report = check_sigma_pairing(corner_terms(gen))
        if not report.ok:
            return report
        total += report.corners_checked
    if not boundary(boundary(c)).is_zero:
        return PairingReport(False, total, ("double boundary is nonzero",))
    return PairingReport(True, total)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

@dataclass
class AutReport:
    vertex_maps: list
    torus_translations: int
    verdict: str

    @property
    def order(self) -> Optional[int]:
        if self.verdict != "finite":
            return None
        return len(self.vertex_maps) * self.torus_translations


def aut_finite(cell: Cell, cmap: CellMap, tag: Tag, *, cap: int = 12) -> AutReport:
    """Affine self-isomorphisms preserving the map and the labels.

    Returns the vertex permutations realized by affine self-maps of the
    polytope part, together with the count of torus translations commuting
    with the map.  Injective labels force the polytope part to be trivial.
    """
    if has_free_circle(cell, cmap):
        return AutReport([], 0, "infinite")
    p = cell.polytope
    if len(p.vertices) > cap:
        return AutReport([], 0, "undecided")

    # translations c with M c integral, counted modulo the lattice; the free
    # circle check above guarantees M has full column rank, so this is finite
    torus_part = 1
    if cell.torus_rank:
        for f in invariant_factors(cmap.m_t):
            torus_part *= int(f)

    # the map must fix the affine map's values and every face label
    t0 = (0,) * cell.torus_rank
    index = _vertex_index(p.vertices)
    labels = dict(tag.labels)
    found = []
    for perm, _ in affine_isomorphisms(p, p):
        if any(cmap.value(v, t0) != cmap.value(w, t0) for v, w in perm.items()):
            continue
        table = [index[perm[v]] for v in p.vertices]
        if all(labels.get(move_mask(m, table)) == label for m, label in tag.labels):
            found.append(perm)
    return AutReport(found, torus_part, "finite")


# ---------------------------------------------------------------------------
# Pushforward along target maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetMap:
    """Affine map between targets; torus sources need an integer matrix."""

    source: Target
    target: Target
    matrix: tuple
    offset: tuple

    def __init__(self, source: Target, target: Target, matrix, offset):
        mm = tuple(tuple(frac(x) for x in row) for row in matrix)
        bb = tuple(frac(x) for x in offset)
        if len(mm) != target.dim or len(bb) != target.dim:
            raise ChainError("target map rows must match the target dimension")
        for row in mm:
            if len(row) != source.dim:
                raise ChainError("target map columns must match the source dimension")
        if source.is_torus:
            if target.is_torus:
                if any(x.denominator != 1 for row in mm for x in row):
                    raise ChainError("torus-to-torus maps need integer matrices")
            elif any(x != 0 for row in mm for x in row):
                raise ChainError("a torus only maps to a euclidean space by a constant")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", mm)
        object.__setattr__(self, "offset", bb)

    def value(self, y: Sequence) -> Vec:
        out = [self.offset[i] + sum(self.matrix[i][j] * frac(y[j])
                                    for j in range(self.source.dim))
               for i in range(self.target.dim)]
        if self.target.is_torus:
            out = [x - (x.numerator // x.denominator) for x in out]
        return tuple(out)

    def compose(self, other: "TargetMap") -> "TargetMap":
        """self after other."""
        if other.target != self.source:
            raise ChainError("composition needs matching targets")
        mm = [[sum(self.matrix[i][k] * other.matrix[k][j]
                   for k in range(self.source.dim))
               for j in range(other.source.dim)]
              for i in range(self.target.dim)]
        bb = [self.offset[i] + sum(self.matrix[i][k] * other.offset[k]
                                   for k in range(self.source.dim))
              for i in range(self.target.dim)]
        return TargetMap(other.source, self.target, mm, bb)


def identity_target_map(t: Target) -> TargetMap:
    return TargetMap(t, t, identity(t.dim), [0] * t.dim)


def push_generator(h: TargetMap, gen: Generator) -> Generator:
    if gen.is_cochain:
        raise ChainError("pushforward acts on chains; cochains pull back")
    if gen.cmap.target != h.source:
        raise ChainError("generator target does not match the map source")
    m_old = h.source.dim
    n = gen.cell.polytope.ambient_dim
    s = gen.cell.torus_rank
    a_new = [[sum(h.matrix[i][k] * gen.cmap.a[k][j] for k in range(m_old))
              for j in range(n)]
             for i in range(h.target.dim)]
    mt_new = [[sum(int(h.matrix[i][k]) * int(gen.cmap.m_t[k][j]) for k in range(m_old))
               for j in range(s)]
              for i in range(h.target.dim)]
    b_new = [h.offset[i] + sum(h.matrix[i][k] * gen.cmap.b[k] for k in range(m_old))
             for i in range(h.target.dim)]
    cmap = CellMap(h.target, a_new, mt_new, b_new)
    return Generator(gen.cell, cmap, gen.tag, quotient=gen.quotient)


def pushforward(h: TargetMap, c: Chain) -> Chain:
    return Chain([(coeff, push_generator(h, gen)) for coeff, gen in c.terms()],
                 ring=c.ring)


# ---------------------------------------------------------------------------
# Chart transport (explicit witnesses)
# ---------------------------------------------------------------------------

def transport_generator(gen: Generator, linear: Sequence[Sequence],
                        offset: Sequence) -> Generator:
    """Push a generator through an affine map injective on its polytope's hull.

    Vertices, the orientation and labels move along; the affine map to the
    target is re-solved in the new chart, which is possible and unique up to
    the hull exactly when the transport is injective on the hull.  The
    transport commutes with the maps, so a cochain's orientation still
    stands for the coorientation it did.
    """
    if gen.quotient is not None:
        raise ChainError("transport a marked generator after expanding it")
    lin = tuple(tuple(frac(x) for x in row) for row in linear)
    off = tuple(frac(x) for x in offset)
    n_old = gen.cell.polytope.ambient_dim
    n_new = len(lin)

    def phi(v):
        return tuple(off[i] + sum(lin[i][j] * frac(v[j]) for j in range(n_old))
                     for i in range(n_new))

    old_verts = gen.cell.polytope.vertices
    new_verts = [phi(v) for v in old_verts]
    if len(set(new_verts)) != len(new_verts):
        raise ChainError("transport map is not injective on the vertices")
    poly = Polytope.from_points(n_new, [list(v) for v in new_verts])
    index = _vertex_index(poly.vertices)
    table = [index.get(nv) for nv in new_verts]
    if len(poly.vertices) != len(new_verts) or None in table:
        raise ChainError("transport map does not preserve the vertex set")

    frame = tuple(tuple(sum(lin[i][j] * w[j] for j in range(n_old)) for i in range(n_new))
                  + w[n_old:] for w in gen.cell.frame)
    cell = Cell(poly, gen.cell.torus_rank, frame, gen.cell.sign)

    # re-solve the affine part on the new chart
    base = old_verts[0]
    dirs = [tuple(frac(a) - frac(b) for a, b in zip(v, base)) for v in old_verts[1:]]
    pushed = [tuple(sum(lin[i][j] * d[j] for j in range(n_old)) for i in range(n_new))
              for d in dirs]
    m = gen.cmap.target.dim
    a_new = []
    for i in range(m):
        if dirs:
            rhs = tuple(sum(gen.cmap.a[i][j] * d[j] for j in range(n_old))
                        for d in dirs)
            row = solve(mat(pushed), rhs)
            if row is None:
                raise ChainError("transport map is not injective on the hull")
        else:
            row = (Fraction(0),) * n_new
        a_new.append(tuple(row))
    b_new = [sum(gen.cmap.a[i][j] * frac(base[j]) for j in range(n_old))
             + gen.cmap.b[i]
             - sum(a_new[i][j] * phi(base)[j] for j in range(n_new))
             for i in range(m)]
    cmap = CellMap(gen.cmap.target, a_new, gen.cmap.m_t, b_new)

    tag = gen.tag.moved(poly.vertices, table)
    return Generator(cell, cmap, tag, is_cochain=gen.is_cochain)


# ---------------------------------------------------------------------------
# Simplices and the singular bridge
# ---------------------------------------------------------------------------

def simplex_cell(k: int) -> Cell:
    """The standard simplex with the edge frame out of its first vertex."""
    p = standard_simplex(k)
    e = [tuple(Fraction(1 if j == i else 0) for j in range(k + 1))
         for i in range(k + 1)]
    frame = tuple(tuple(e[i + 1][j] - e[0][j] for j in range(k + 1))
                  for i in range(k))
    return Cell(p, 0, frame, 1)


def face_inclusion(k: int, j: int) -> tuple:
    """Linear data (matrix, offset) of the j-th facet inclusion of the simplex.

    Inserts a zero at position j: the image is the facet where coordinate j
    vanishes.
    """
    if not 0 <= j <= k:
        raise ChainError("facet index out of range")
    rows = []
    for i in range(k + 1):
        if i == j:
            rows.append(tuple(Fraction(0) for _ in range(k)))
        else:
            src = i if i < j else i - 1
            rows.append(tuple(Fraction(1 if t == src else 0) for t in range(k)))
    return tuple(rows), tuple(Fraction(0) for _ in range(k + 1))


def standard_simplex_tag(k: int) -> Tag:
    """Deterministic labels for the faces of the standard simplex."""
    return numbered_tag(standard_simplex(k), "dx", k)


@dataclass(frozen=True)
class SingularSimplex:
    """An affine map from the standard simplex into the target."""

    degree: int
    target: Target
    matrix: tuple
    offset: tuple

    def __init__(self, degree: int, target: Target, matrix, offset):
        mm = tuple(tuple(frac(x) for x in row) for row in matrix)
        bb = tuple(frac(x) for x in offset)
        if len(mm) != target.dim or len(bb) != target.dim:
            raise ChainError("singular simplex rows must match the target dimension")
        for row in mm:
            if len(row) != degree + 1:
                raise ChainError("singular simplex columns must be degree + 1")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", mm)
        object.__setattr__(self, "offset", bb)

    def face(self, j: int) -> "SingularSimplex":
        lin, _ = face_inclusion(self.degree, j)
        mm = [[sum(self.matrix[i][r] * lin[r][t] for r in range(self.degree + 1))
               for t in range(self.degree)]
              for i in range(self.target.dim)]
        return SingularSimplex(self.degree - 1, self.target, mm, self.offset)


def singular_boundary(terms: Sequence) -> list:
    """Alternating-sum boundary of a formal sum of singular simplices."""
    out = []
    for coeff, sx in terms:
        if sx.degree == 0:
            continue
        for j in range(sx.degree + 1):
            out.append((frac(coeff) * (-1) ** j, sx.face(j)))
    return out


def singular_generator(sx: SingularSimplex) -> Generator:
    cell = simplex_cell(sx.degree)
    m = sx.target.dim
    cmap = CellMap(sx.target, sx.matrix, tuple(() for _ in range(m)), sx.offset)
    return Generator(cell, cmap, standard_simplex_tag(sx.degree))


def singular_to_kuranishi(terms: Sequence) -> Chain:
    """Formal sums of affine singular simplices become chains with fixed tags."""
    return Chain([(frac(coeff), singular_generator(sx)) for coeff, sx in terms])


def _facet_label_dictionary(k: int, j: int) -> dict:
    """Translate standard labels of the small simplex to facet-restricted ones."""
    lin, _ = face_inclusion(k, j)
    small = standard_simplex_tag(k - 1)
    big = standard_simplex_tag(k)
    index = _vertex_index(big.vertices)
    table = [index[tuple(sum(lin[i][t] * v[t] for t in range(k)) for i in range(k + 1))]
             for v in small.vertices]
    return {label: big.label_at(move_mask(m, table)) for m, label in small.labels}


def check_singular_chain_map(terms: Sequence):
    """Boundary commutes with the singular bridge, via facet re-charting.

    The geometric boundary of a bridged simplex lives on facets of the big
    simplex; the bridged simplicial boundary lives on small simplices.  Each
    small term is transported through its facet inclusion, with the fixed
    label dictionary, and the resulting chains must agree exactly.
    """
    lhs = boundary(singular_to_kuranishi(terms))
    rhs = Chain()
    for coeff, sx in terms:
        k = sx.degree
        if k == 0:
            continue
        for j in range(k + 1):
            small = singular_generator(sx.face(j))
            mu = _facet_label_dictionary(k, j)
            relabeled = Generator(small.cell, small.cmap, small.tag.relabel(mu))
            lin, off = face_inclusion(k, j)
            moved = transport_generator(relabeled, lin, off)
            rhs = rhs + Chain([(frac(coeff) * (-1) ** j, moved)])
    if lhs == rhs:
        return CheckReport(True, len(lhs.terms()), True, ())
    return CheckReport(False, 0, True, ("boundary does not match the bridged boundary",))


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

def cylinder(gen: Generator, alt_tag: Tag) -> Generator:
    """A prism witnessing that two labellings give the same class up to boundary.

    The boundary of the prism is the relabelled generator minus the original,
    plus prisms over the generator's own facets.
    """
    if gen.quotient is not None:
        raise ChainError("cylinders need unmarked generators")
    if gen.is_cochain:
        raise ChainError("cylinders are chain-level witnesses")
    if (alt_tag.vertices != gen.tag.vertices
            or [m for m, _ in alt_tag.labels] != [m for m, _ in gen.tag.labels]):
        raise TagError("alternative tag must label the same faces")
    if not alt_tag.is_injective():
        raise TagError("alternative tag must be injective")
    p = gen.cell.polytope
    n, s = p.ambient_dim, gen.cell.torus_rank
    pts = [[0] + list(v) for v in p.vertices] + [[1] + list(v) for v in p.vertices]
    prism = Polytope.from_points(n + 1, pts)
    frame = ((Fraction(1),) + (Fraction(0),) * (n + s),) + tuple(
        (Fraction(0),) + tuple(w) for w in gen.cell.frame)
    cell = Cell(prism, s, frame, gen.cell.sign)
    a_new = [(Fraction(0),) + tuple(row) for row in gen.cmap.a]
    cmap = CellMap(gen.cmap.target, a_new, gen.cmap.m_t, gen.cmap.b)

    # every point of pts is a vertex and they sort by height first, so the
    # prism's vertex k is vertex k of P at height 0 and vertex k - N at height 1
    low_bits = (1 << len(p.vertices)) - 1
    pairs = []
    for g in prism._fd.face_dims():
        low, high = g & low_bits, g >> len(p.vertices)
        if not high:
            label = gen.tag.label_at(low)
        elif not low:
            label = alt_tag.label_at(high)
        else:
            label = merge_labels(gen.tag.label_at(low | high),
                                 alt_tag.label_at(low | high), (("cyl",),))
        pairs.append((g, label))
    tag = Tag.of_masks(prism.vertices, pairs)
    if not tag.is_injective():
        raise TagError("cylinder labels collide; the two tags must use disjoint atoms")
    return Generator(cell, cmap, tag)


def check_cylinder_witness(gen: Generator, alt_tag: Tag):
    """The prism boundary equals new-minus-old plus terms over the facets."""
    wit = cylinder(gen, alt_tag)
    b = boundary(chain(wit))
    n = gen.cell.polytope.ambient_dim
    drop = tuple(tuple(Fraction(1 if j == i + 1 else 0) for j in range(n + 1))
                 for i in range(n))
    ends = Chain()
    sides = Chain()
    for coeff, term in b.terms():
        ts = {v[0] for v in term.cell.polytope.vertices}
        if ts == {Fraction(0)} or ts == {Fraction(1)}:
            moved = transport_generator(term, drop, (Fraction(0),) * n)
            ends = ends + Chain([(coeff, moved)])
        else:
            sides = sides + Chain([(coeff, term)])
    want = chain((1, Generator(gen.cell, gen.cmap, alt_tag)),
                 (-1, Generator(gen.cell, gen.cmap, gen.tag)))
    if ends == want:
        return CheckReport(True, len(b.terms()), True,
                           (f"{len(sides.terms())} side terms",))
    return CheckReport(False, 0, True, ("prism ends do not give the tag difference",))


# ---------------------------------------------------------------------------
# Complexes and homology
# ---------------------------------------------------------------------------

class ChainComplex:
    """A finite generator set closed under the boundary, graded by dimension."""

    def __init__(self, gens: Sequence[Generator]):
        self.basis: dict = {}
        reps: dict = {}
        for g in gens:
            _, gg = expand_quotient(g)
            nf = _normal_form(gg)
            if nf is None:
                continue
            key, _, norm = nf
            if key not in reps:
                reps[key] = norm
                self.basis.setdefault(norm.grade, []).append((key, norm))
        for grade in self.basis:
            self.basis[grade].sort(key=lambda kv: _term_order(*kv))
        self._key_index = {key: (grade, i)
                           for grade, items in self.basis.items()
                           for i, (key, _) in enumerate(items)}
        self.matrices: dict = {}
        for grade, items in sorted(self.basis.items()):
            rows = len(self.basis.get(grade - 1, []))
            cols = len(items)
            m = [[Fraction(0)] * cols for _ in range(rows)]
            for col, (_, gen) in enumerate(items):
                for coeff, sub in generator_boundary(gen):
                    nf = _normal_form(sub)
                    if nf is None:
                        continue
                    key, sign, _ = nf
                    if key not in self._key_index:
                        raise ChainError("generator set is not closed under boundary")
                    g2, row = self._key_index[key]
                    if g2 != grade - 1:
                        raise ChainError("boundary term lands in the wrong grade")
                    m[row][col] += coeff * sign
            self.matrices[grade] = tuple(tuple(r) for r in m)

    def betti(self) -> dict:
        out = {}
        for grade, items in sorted(self.basis.items()):
            r_out = rank(self.matrices.get(grade, ()))
            r_in = rank(self.matrices.get(grade + 1, ()))
            out[grade] = len(items) - r_out - r_in
        return out


def face_complex(p: Polytope, with_top: bool = True) -> list:
    """Every face of P as a point-target generator; P itself only with_top.

    One numbered tag over P's faces is restricted to each face, so a face
    and its facets agree on labels and the boundaries close up.  Its
    homology is that of a point with the top cell, else of the sphere
    bounding P.
    """
    fd = p._fd
    big = numbered_tag(p, "dx", p.dim)
    top = (1 << len(p.vertices)) - 1
    cmap = constant_map(POINT, p.ambient_dim, 0)
    return [Generator(Cell(p.face_from_mask(g), 0), cmap, big.restrict(g))
            for g in fd.face_dims() if with_top or g != top]


def simplex_face_complex(k: int) -> list:
    """Every face of the standard simplex as a point-target generator."""
    return face_complex(standard_simplex(k))
