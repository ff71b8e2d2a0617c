"""Chain groups over a fixed target: labelled generators, relations, homology.

A generator is an oriented cell with an affine map to the target and an
injective labelling of its face lattice.  Chains are finite rational
combinations of generator classes.  Q is the only coefficient field: a
quotient's weight 1/|G| needs it, and the paper defines KC_* and KH_* over
Q-algebras.  Chains are kept in a normal form where orientation reversal
folds into the coefficient and cells carrying a circle direction that
neither the map nor the polytope constrains are dropped (such a cell has an
orientation-reversing self-map fixing all data, so its class is 2-torsion
and dies over the rationals).  A finite-group quotient enters a
chain as 1/|group| times its cover (QuotientMarker.cover), so every
generator is a plain one.

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
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

from ._linalg import (
    Vec,
    frac,
    invariant_factors,
    rank,
    solve_columns,
)
from .cells import (
    POINT,
    Cell,
    CellMap,
    Coorientation,
    Target,
    _canonical_form,
    boundary_cells,
    cell_orientation_equal,
    constant_map,
    has_free_circle,
    is_strong_submersion,
    maps_agree,
    orientation_from_coorientation,
)
from .geometry import (FaceKey, Polytope, VertexTuple, affine_isomorphisms, mask_bits,
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
# A tag keys its labels' atoms once, on first pairing, and a product tag
# carries the keys of its merged labels, as do the restrictions of a tag
# that has them: an iterated product sorts by keys it already holds.

def _term_key(x):
    """Total order on ints, Fractions, strings, None and nested tuples."""
    t = type(x)
    if t is tuple:
        return (3, tuple(map(_term_key, x)))
    if t is str:
        return (2, x)
    if t is int:
        return (1, x)
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
    """The label as a sorted multiset; an unorderable atom raises TypeError."""
    if not isinstance(label, tuple):
        raise TagError("labels must be tuples of atoms")
    return merge_labels(label)


class Tag:
    """Labelling of a cell's face lattice, one label per face.

    A face is a bitmask over the sorted vertices of the cell's polytope;
    `labels` holds one (mask, label) pair per face, sorted by mask, and
    `vertices` is the polytope's vertex tuple, read only to convert face
    keys at the public edge; `order`, the labels' `_term_key`, is built at
    most once per tag, and so is `atom_keys`, each label's atoms'
    `_term_key` in `labels` order, which pair_tags reads and a product tag
    carries.  Restricting to a face F keeps the faces inside F and packs
    their bits at F's vertices (geometry.compress_mask), which is exact: a
    face's sorted vertices are a subsequence of its polytope's; it carries
    the kept faces' keys when the tag has them and builds none.
    """

    __slots__ = ("vertices", "labels", "_order", "_keys")

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
        self._keys = None

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

    @property
    def atom_keys(self) -> tuple:
        """Each label's atoms' `_term_key`, in `labels` order."""
        if self._keys is None:
            self._keys = tuple(tuple(map(_term_key, label)) for _, label in self.labels)
        return self._keys

    def mapping(self) -> dict:
        return {self._key(m): label for m, label in self.labels}

    def is_injective(self) -> bool:
        vals = [label for _, label in self.labels]
        return len(set(vals)) == len(vals)

    def restrict(self, face_mask: int) -> "Tag":
        """The induced labelling on the faces of one face (a facet, say).

        Each mask inside the face is packed by walking its own set bits
        through a table of the face's vertex positions.  Packing is monotone
        on the subsets of face_mask: the pairs stay sorted.
        """
        at = mask_bits(face_mask)
        place = {1 << i: 1 << k for k, i in enumerate(at)}
        outside = ~face_mask
        labels = []
        for m, label in self.labels:
            if not m & outside:
                packed = 0
                while m:
                    low = m & -m
                    packed |= place[low]
                    m ^= low
                labels.append((packed, label))
        keys = self._keys
        if keys is not None:
            keys = tuple([k for (m, _), k in zip(self.labels, keys) if not m & outside])
        return Tag._built(tuple(self.vertices[i] for i in at), tuple(labels), keys)

    @classmethod
    def _built(cls, vertices: tuple, labels: tuple, keys) -> "Tag":
        """A tag from labels sorted by mask and their atom keys or None, unchecked."""
        tag = cls.__new__(cls)
        tag.vertices = vertices
        tag.labels = labels
        tag._order = None
        tag._keys = keys
        return tag

    def moved(self, vertices: tuple, table: Sequence[int]) -> "Tag":
        """The tag carried along the vertex bijection i -> table[i] onto vertices."""
        return Tag.of_masks(vertices, [(move_mask(m, table), label)
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
    canonicalization, the empty label a unit; injectivity is the generator's check.
    Each merge is merge_labels(l1, l2), a stable sort of l1 + l2 by the
    operands' atom keys alone, and the product tag carries the merged keys.
    """
    side1, side2 = ({m: (label, keys) for (m, label), keys in zip(tag.labels, tag.atom_keys)}
                    for tag in (tag1, tag2))
    pairs = comp.face_pairs
    labels, carried = [], []
    for g in sorted(pairs):
        f1, f2 = pairs[g]
        try:
            (l1, k1), (l2, k2) = side1[f1], side2[f2]
        except KeyError:
            raise TagError(f"face pair {(f1, f2)} not labelled") from None
        label, keys = l1 + l2, k1 + k2
        # a concatenation already in order is its own stable sort
        if any(b < a for a, b in zip(keys, keys[1:])):
            order = sorted(range(len(keys)), key=keys.__getitem__)
            label = tuple([label[i] for i in order])
            keys = tuple([keys[i] for i in order])
        labels.append((g, label))
        carried.append(keys)
    return Tag._built(comp.cell.polytope.vertices, tuple(labels), tuple(carried))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientMarker:
    """A finite-group quotient presented by its cover.

    Over a Q-algebra the quotient of a cell by a group is 1/|group| times
    its cover; `cover` builds that term from the cell, the map and a tag
    constant on each orbit and injective across orbits.  orbits is a
    partition of the cover's faces, as vertex bitmasks (see Tag); from_faces
    takes face keys.
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

    def cover(self, cell: Cell, cmap: CellMap, tag: Tag) -> tuple[Fraction, "Generator"]:
        """(1/order, the cover): the quotient's term in a chain.

        The marker is checked against the cell's faces and the tag.  A face
        in a shared orbit gets the orbit label extended by its position atom,
        which keeps the cover's tag injective; the cover is validated as any
        generator is.
        """
        pos = {}
        orbit_labels = []
        for orbit in self.orbits:
            if self.order % len(orbit) != 0:
                raise ChainError("orbit size must divide the group order")
            labels = {tag.label_at(f) for f in orbit}
            if len(labels) != 1:
                raise TagError("marker tag must be constant on each orbit")
            orbit_labels.append(labels.pop())
            for j, f in enumerate(orbit):
                if f in pos:
                    raise ChainError("orbits must be disjoint")
                pos[f] = (("q", j),) if len(orbit) > 1 else EMPTY_LABEL
        if pos.keys() != cell.polytope._fd.face_dims().keys():
            raise ChainError("orbits must cover every face of the cell")
        if len(set(orbit_labels)) != len(orbit_labels):
            raise TagError("marker tag must separate orbits")
        cover_tag = Tag.of_masks(tag.vertices, [(m, merge_labels(label, pos.get(m, EMPTY_LABEL)))
                                                for m, label in tag.labels])
        return Fraction(1, self.order), Generator(cell, cmap, cover_tag)


class Generator:
    """One labelled, oriented cell with a map to the target.

    A cochain generator (is_cochain) stands for a coorientation of the map,
    which must restrict to a submersion on every face.  It stores the
    orientation the dictionary TX = f*(TY) + Ker df gives that coorientation
    (see cells), so chains and cochains share one normal form, one boundary
    and one fibre product.  A coorientation passed in is validated and
    converted once; kernel_coorientation(cell, cmap) reads it back.  A
    quotient enters a chain as its cover (QuotientMarker.cover).

    The constructor validates; `_derived` does not, and builds only what is
    valid by construction from a generator already validated: its normal
    form and its faces.  A face restriction of an injective tag is
    injective and labels exactly the face's faces, a strong submersion
    restricts to one on every face, and the canonical reparametrization
    moves A only by combinations of the torus columns.

    A normalized generator, the representative a Chain stores, keeps its
    normal-form key in `_key` (None for a raw generator) and is its own
    normal form.  It is either the root of its faces or a face that a root
    handed out (see Boundary).  A root keeps the form of each face reached
    so far, by vertex mask, in `_faces`; a face records (root, vertex mask
    over the root's polytope) in `_root`, None for a root.  Every
    generator keeps its facet forms in `_facets`, filled on first read by
    `_facet_forms`.
    """

    __slots__ = ("cell", "cmap", "tag", "is_cochain", "_key", "_root", "_faces", "_facets")

    def __init__(self, cell: Cell, cmap: CellMap, tag: Tag,
                 coorientation: Optional[Coorientation] = None, *,
                 is_cochain: bool = False):
        if not cmap.fits(cell.polytope.ambient_dim, cell.torus_rank):
            raise ChainError("map shape does not match the cell")
        faces = cell.polytope._fd.face_dims()
        if (len(tag.labels) != len(faces) or any(g not in faces for g, _ in tag.labels)
                or tag.vertices != cell.polytope.vertices):
            raise TagError("tag must label exactly the faces of the cell")
        is_cochain = is_cochain or coorientation is not None
        if is_cochain:
            if not is_strong_submersion(cell, cmap):
                raise ChainError("cochain generators need a submersion on every face")
            if coorientation is not None:
                cell = orientation_from_coorientation(cell, cmap, coorientation)
        if not tag.is_injective():
            raise TagError("tag labels must be injective")
        self.cell = cell
        self.cmap = cmap
        self.tag = tag
        self.is_cochain = is_cochain
        self._key = self._root = self._faces = self._facets = None

    @classmethod
    def _derived(cls, cell: Cell, cmap: CellMap, tag: Tag, *,
                 is_cochain: bool = False) -> "Generator":
        """A generator valid by construction, built unchecked."""
        gen = cls.__new__(cls)
        gen.cell = cell
        gen.cmap = cmap
        gen.tag = tag
        gen.is_cochain = is_cochain
        gen._key = gen._root = gen._faces = gen._facets = None
        return gen

    @property
    def grade(self) -> int:
        if self.is_cochain:
            return self.cmap.target.dim - self.cell.dim
        return self.cell.dim

    def reversed(self) -> "Generator":
        return Generator(self.cell.reversed(), self.cmap, self.tag,
                         is_cochain=self.is_cochain)

    def __repr__(self):
        kind = "cochain" if self.is_cochain else "chain"
        return (f"Generator({kind}, dim {self.cell.dim}, "
                f"{len(self.cell.polytope.vertices)} vertices, "
                f"-> {self.cmap.target.kind}({self.cmap.target.dim}))")


# ---------------------------------------------------------------------------
# Normal form and chains
# ---------------------------------------------------------------------------

def _normal_form(gen: Generator):
    """(key, sign, normalized generator), or None when the class is zero.

    The key ends in the tag and in True for a cochain, None for a chain.  A
    normalized generator is its own normal form, of the key it keeps.
    """
    if gen._key is not None:
        return gen._key, 1, gen
    if has_free_circle(gen.cell, gen.cmap):
        return None
    key, sign, cell, cmapc = _canonical_form(gen.cell, gen.cmap)
    key += (gen.tag.labels, gen.is_cochain or None)
    norm = Generator._derived(cell if cell.sign == 1 else Cell(cell.polytope, cell.torus_rank),
                              cmapc, gen.tag, is_cochain=gen.is_cochain)
    norm._key = key
    return key, sign, norm


def _in_term_order(items: Iterable) -> list:
    """Items (key, generator, ...) of normal-form terms, sorted in the term
    order: that of _term_key of the key with its map slots read as the
    Fractions they stand for.

    The key is ((kind, dim), ambient, vertices, torus_rank, (den, den A),
    m_t, den b, labels, flag).  With L the lcm of the items' den, the map
    slots times L/den are L A and L b, integers that compare as A and b
    do; the other slots of the first seven hold only str, int and
    Fraction, one type per position, which compare natively as _term_key
    does.  The
    labels' part is the generator's tag order, and a chain's flag (None)
    comes before a cochain's (True).  The order is lexicographic, so the
    items are sorted on that head first, and the tag order, built
    recursively, is read only within a run of equal heads: one cell and
    map under several tags, or a chain and a cochain.
    """
    items = list(items)
    common = lcm(*(item[0][4][0] for item in items))

    def head(key):
        (den, a), b = key[4], key[6]
        if den != common:
            f = common // den
            a, b = tuple(tuple(x * f for x in row) for row in a), tuple(x * f for x in b)
        return key[:4] + (a, key[5], b)

    out = []
    heads = sorted(((head(item[0]), item) for item in items), key=lambda hi: hi[0])
    for _, run in itertools.groupby(heads, key=lambda hi: hi[0]):
        run = [item for _, item in run]
        if len(run) > 1:
            run.sort(key=lambda item: (item[1].tag.order, item[0][8] is not None))
        out += run
    return out


class Chain:
    """Finite rational combination of generator classes, kept canonical.

    Coefficients are Fractions: a quotient enters with weight 1/|G|, and the
    paper takes KC_* and KH_* over Q-algebras.  ring accepts "Q" alone.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = (), ring: str = "Q"):
        if ring != "Q":
            raise ChainError(f"chains are over Q; ring must be 'Q', not {ring!r}")
        self._terms: dict = {}
        for coeff, gen in terms:
            self._accumulate(frac(coeff), gen)
        self._prune()

    def _accumulate(self, coeff: Fraction, gen: Generator):
        if coeff == 0:
            return
        nf = _normal_form(gen)
        if nf is None:
            return
        key, sign, norm = nf
        self._add(key, sign * coeff, norm)

    def _add(self, key: tuple, coeff: Fraction, norm: Generator):
        """Add coeff times the normalized generator norm, of the given key."""
        new = [coeff, norm]
        entry = self._terms.setdefault(key, new)
        if entry is not new:
            entry[0] += coeff

    def _prune(self):
        for key in [k for k, (c, _) in self._terms.items() if c == 0]:
            del self._terms[key]

    def terms(self) -> list:
        """(coefficient, generator) pairs in the term order (_in_term_order): by
        the canonical cell and map, and by tag only among terms that share them."""
        items = _in_term_order((key, g, c) for key, (c, g) in self._terms.items())
        return [(c, g) for _, g, c in items]

    def coefficient(self, gen: Generator) -> Fraction:
        """Coefficient of the generator's class."""
        nf = _normal_form(gen)
        if nf is None:
            return Fraction(0)
        key, sign, _ = nf
        return sign * self._terms.get(key, (Fraction(0), None))[0]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def grades(self) -> set:
        return {g.grade for _, g in self._terms.values()}

    def scale(self, r) -> "Chain":
        out = Chain()
        r = frac(r)
        if r:
            out._terms = {key: [r * c, g] for key, (c, g) in self._terms.items()}
        return out

    def __add__(self, other: "Chain") -> "Chain":
        out = Chain()
        out._terms = {k: [c, g] for k, (c, g) in self._terms.items()}
        for key, (c, g) in other._terms.items():
            out._add(key, c, g)
        out._prune()
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        return self + other.scale(-1)

    def __neg__(self) -> "Chain":
        return self.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, Chain)
                and {k: c for k, (c, _) in self._terms.items()}
                == {k: c for k, (c, _) in other._terms.items()})

    def __hash__(self):
        raise TypeError("chains are mutable-by-construction; not hashable")

    def __repr__(self):
        return f"Chain({len(self._terms)} terms over Q)"


def _law(lhs: Chain, rhs: Chain, failure: str) -> CheckReport:
    """An identity lhs == rhs of chains, checked over lhs's terms: how the
    singular bridge and the laws of products are decided."""
    if lhs == rhs:
        return CheckReport(True, len(lhs._terms), True)
    return CheckReport(False, 0, True, (failure,))


def chain(*terms) -> Chain:
    """Build a chain from (coefficient, generator) pairs or bare generators."""
    prepared = []
    for t in terms:
        if isinstance(t, Generator):
            prepared.append((Fraction(1), t))
        else:
            prepared.append(t)
    return Chain(prepared)


def disjoint_union(gens: Sequence[Generator]) -> Chain:
    """The class of a disjoint union is the sum of its component classes."""
    labels = [label for g in gens for _, label in g.tag.labels]
    if len(set(labels)) != len(labels):
        raise TagError("components of a disjoint union need disjoint labels")
    return Chain([(Fraction(1), g) for g in gens])


# ---------------------------------------------------------------------------
# Boundary
# ---------------------------------------------------------------------------
# The boundary of [X, f, G] is [dX, f|dX, G|dX]: generator_boundary is its
# one definition, and the reference the rest of this section agrees with.
# It reads each facet's cell and sign off the polytope's face data
# (facet_cells, through boundary_cells) and its mask (facet_masks), so no
# facet key or outward vector is built.  A cochain restricts in the
# kernel, Ker df = R n + Ker d(f|dX) with the outward normal n first, while
# the orientation it stores puts the target frame first (cells), so its
# facet terms carry (-1)^dim Y against the orientations boundary_cells
# gives.
# A chain stores normalized generators, and a normalized generator is the
# root of its faces: _face_form keeps, by vertex mask, the form (key, sign,
# normalized generator) of each face cell with sign +1 under the root's map
# and the root's tag restricted to it, built by Generator._derived,
# unchecked, since restriction keeps a validated generator valid.  Every
# face a root hands out records (root, mask) and reads its own facets at
# the root, so a face is restricted, canonicalized and keyed once per root,
# however many facets reach it; its canonical map does not depend on the
# face it was reached through, since the reparametrizations fix every
# face.  A face F handed out stands for s_F times the root's face, so a
# facet G of F, of sign e in F, enters with e s_F s_G; at a normalized root,
# whose torus part is already in Hermite form, every s is 1.  A raw
# generator reads its facets at its normal form, times that form's sign.
# Each generator keeps its facet forms in its _facets slot (_facet_forms):
# boundary and corner_terms read them there, and the corner pairing of
# verify_dd_zero walks the facets' own forms, as the double boundary does.
# A form's coefficient is a unit, so ChainComplex reads each generator's
# forms once as one sparse integer column of its boundary matrix (see
# Complexes and homology).  The forms live and die with their root.

def generator_boundary(gen: Generator) -> list:
    """Signed facet generators of one generator."""
    coeff = Fraction(-1 if gen.is_cochain and gen.cmap.target.dim % 2 else 1)
    # boundary_cells follows facets(), and facet_masks is in the same order
    cells = boundary_cells(gen.cell)
    return [(coeff, Generator._derived(cell, gen.cmap, gen.tag.restrict(facet),
                                       is_cochain=gen.is_cochain))
            for cell, facet in zip(cells, gen.cell.polytope._fd.facet_masks)]


_UNITS = {1: Fraction(1), -1: Fraction(-1)}


def _face_form(root: Generator, mask: int) -> tuple:
    """(key, sign, normalized face) of the face of a root with this vertex
    mask, built on first request and kept by the root."""
    faces = root._faces
    if faces is None:
        faces = root._faces = {}
    form = faces.get(mask)
    if form is None:
        # the root has no free circle, so no face of it has one
        cell = root.cell
        form = faces[mask] = _normal_form(Generator._derived(
            Cell(cell.polytope._fd.face(mask), cell.torus_rank), root.cmap,
            root.tag.restrict(mask), is_cochain=root.is_cochain))
        form[2]._root = (root, mask)
    return form


def _facet_forms(gen: Generator) -> tuple:
    """(key, sign * factor, normalized facet) of each facet term of
    generator_boundary(gen) whose class is not zero, built on first read
    from the faces of gen's root."""
    if gen._facets is None:
        if gen._key is None:
            nf = _normal_form(gen)
            forms = () if nf is None else [(key, nf[1] * c, sub)
                                           for key, c, sub in _facet_forms(nf[2])]
        else:
            root, mask = gen._root or (gen, None)
            at = None if mask is None else mask_bits(mask)
            factor = -1 if gen.is_cochain and gen.cmap.target.dim % 2 else 1
            factor *= gen.cell.sign * (1 if mask is None else _face_form(root, mask)[1])
            fd = gen.cell.polytope._fd
            forms = []
            # facet_cells enumerates the facets before facet_masks is read
            for (_, sign), m in zip(fd.facet_cells(), fd.facet_masks):
                key, s, sub = _face_form(root, m if at is None else move_mask(m, at))
                forms.append((key, _UNITS[factor * sign * s], sub))
        gen._facets = tuple(forms)
    return gen._facets


def boundary(c: Chain) -> Chain:
    """The boundary operator: restrict each generator to its facets.

    The terms are read unsorted: the sum is exact, and every term under one
    key is the same normalized generator."""
    out = Chain()
    for coeff, gen in c._terms.values():
        for key, factor, sub in _facet_forms(gen):
            out._add(key, coeff * factor, sub)
    out._prune()
    return out


# ---------------------------------------------------------------------------
# Second boundary and the corner pairing
# ---------------------------------------------------------------------------

@dataclass
class CornerTerm:
    """One flag of the second boundary: a corner reached through two facets.

    The three faces are vertex bitmasks over the generator's polytope; the
    corner is the intersection of the two facets, and its face key is the
    vertex tuple of the corner cell's polytope.
    """

    corner: int
    first_facet: int
    second_facet: int
    cell: Cell
    tag: Tag


def corner_terms(gen: Generator) -> list[CornerTerm]:
    """All ordered flags (corner, facet entered first, other facet), read off
    _facet_forms(gen) and _facet_forms of each facet (see Boundary).  A
    flag's cell is the normalized corner, oriented by the product of the two
    form coefficients; a zero class has no forms, so no flags.
    """
    out = []
    # each facet_masks is read after _facet_forms has enumerated its facets
    forms = _facet_forms(gen)
    facet_masks = gen.cell.polytope._fd.facet_masks
    # a facet keeps gen's torus part, so every facet has a form or none does
    for m1, (_, c1, sub) in zip(facet_masks, forms):
        at = mask_bits(m1)
        sub_forms = _facet_forms(sub)
        for m2, (_, c2, corner) in zip(sub.cell.polytope._fd.facet_masks, sub_forms):
            # the corner's mask over P, and the two facets of P holding it
            g = move_mask(m2, at)
            holders = [m for m in facet_masks if g & ~m == 0]
            if len(holders) != 2:
                raise ChainError("corner contained in other than two facets")
            other = holders[0] if holders[1] == m1 else holders[1]
            out.append(CornerTerm(
                corner=g,
                first_facet=m1,
                second_facet=other,
                cell=corner.cell if c1 * c2 > 0 else corner.cell.reversed(),
                tag=corner.tag))
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
        corner = t.cell.polytope.vertices
        if j is None or j in seen:
            return PairingReport(False, pairs,
                                 (f"unpaired flag at corner {corner}",))
        partner = terms[j]
        if t.tag != partner.tag:
            return PairingReport(False, pairs,
                                 (f"tag mismatch at corner {corner}",))
        if (t.cell.polytope != partner.cell.polytope
                or t.cell.torus_rank != partner.cell.torus_rank):
            return PairingReport(False, pairs, (f"corner cells differ at corner {corner}",))
        if cell_orientation_equal(t.cell, partner.cell) != -1:
            return PairingReport(False, pairs,
                                 (f"orientations at corner {corner} do not cancel",))
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

    # the self-map must commute with the map and fix every face label
    index = _vertex_index(p.vertices)
    labels = dict(tag.labels)
    found = []
    for perm, _ in affine_isomorphisms(p, p):
        if not maps_agree(cmap, cmap, list(perm.items())):
            continue
        table = [index[perm[v]] for v in p.vertices]
        if all(labels.get(move_mask(m, table)) == label for m, label in tag.labels):
            found.append(perm)
    return AutReport(found, torus_part, "finite")


# ---------------------------------------------------------------------------
# Pushforward along target maps
# ---------------------------------------------------------------------------

def _affine_entries(target: Target, matrix, offset, cols: int) -> tuple:
    """An affine map's matrix and offset in Fractions: target.dim rows, cols columns."""
    mm = tuple(tuple(frac(x) for x in row) for row in matrix)
    bb = tuple(frac(x) for x in offset)
    if len(mm) != target.dim or len(bb) != target.dim:
        raise ChainError("affine map rows must match the target dimension")
    if any(len(row) != cols for row in mm):
        raise ChainError(f"affine map rows need {cols} columns")
    return mm, bb


def _after(matrix, offset, a, b, cols: int) -> tuple:
    """(H A, H b + c): y -> H y + c (matrix, offset) after x -> A x + b, A of cols columns."""
    inner = range(len(b))
    return ([[sum(row[k] * a[k][j] for k in inner) for j in range(cols)] for row in matrix],
            [c + sum(row[k] * b[k] for k in inner) for row, c in zip(matrix, offset)])


@dataclass(frozen=True)
class TargetMap:
    """Affine map y -> H y + c between targets.

    On a torus source H is the torus part of a cell map on the point times
    T^k, so CellMap's torus-column rules hold: H is integral, and zero into
    a euclidean target.  Values are wrapped by Target.wrap.  Push, pull and
    compose share one composition (_after): push and pull compose cell maps
    with it (after)."""

    source: Target
    target: Target
    matrix: tuple
    offset: tuple

    def __init__(self, source: Target, target: Target, matrix, offset):
        mm, bb = _affine_entries(target, matrix, offset, source.dim)
        if source.is_torus:
            CellMap(target, [()] * target.dim, mm, bb)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", mm)
        object.__setattr__(self, "offset", bb)

    def value(self, y: Sequence) -> Vec:
        return self.target.wrap(tuple(c + sum(x * frac(z) for x, z in zip(row, y))
                                      for row, c in zip(self.matrix, self.offset)))

    def after(self, f: CellMap, n: int, s: int) -> CellMap:
        """self after f, for f on a cell of ambient dimension n and torus rank
        s: (H A, H M, H b + c).  CellMap checks that H M is integral."""
        am, bb = _after(self.matrix, self.offset,
                        [arow + trow for arow, trow in zip(f.a, f.m_t)], f.b, n + s)
        return CellMap(self.target, [row[:n] for row in am], [row[n:] for row in am], bb)

    def compose(self, other: "TargetMap") -> "TargetMap":
        """self after other."""
        if other.target != self.source:
            raise ChainError("composition needs matching targets")
        return TargetMap(other.source, self.target, *_after(
            self.matrix, self.offset, other.matrix, other.offset, other.source.dim))


def push_generator(h: TargetMap, gen: Generator) -> Generator:
    if gen.is_cochain:
        raise ChainError("pushforward acts on chains; cochains pull back")
    if gen.cmap.target != h.source:
        raise ChainError("generator target does not match the map source")
    return Generator(gen.cell, h.after(gen.cmap, gen.cell.polytope.ambient_dim,
                                       gen.cell.torus_rank), gen.tag)


def pushforward(h: TargetMap, c: Chain) -> Chain:
    return Chain([(coeff, push_generator(h, gen)) for coeff, gen in c.terms()])


# ---------------------------------------------------------------------------
# Chart transport (explicit witnesses)
# ---------------------------------------------------------------------------
# The witnesses below (the singular bridge, the ends of a prism) re-chart a
# generator only by putting it on a hyperplane x_j = value of R^(n+1), which
# _insert_coordinate does exactly, solving nothing again.  Inserting one
# constant keeps the vertices' lexicographic order, so the face masks of
# the lattice and the tag stay as they are; dir_basis gains a zero column
# at j and stays in RREF, so the default frames correspond and the sign
# carries over; and A with a zero column at j, b and M unchanged, is the
# same map.  transport_generator, the general affine re-chart (a hull
# rebuild, a frame change of basis, a solve per map row), is the reference
# it agrees with.

def _insert_coordinate(gen: Generator, j: int, value, labels=None) -> Generator:
    """gen on the hyperplane x_j = value of R^(n+1), labelled by labels (face
    mask, label) pairs when given, else by gen's own."""
    c = frac(value)
    verts = VertexTuple(v[:j] + (c,) + v[j:] for v in gen.cell.polytope.vertices)
    poly = Polytope._of_sorted(gen.cell.polytope.ambient_dim + 1, verts)
    cmap = CellMap._exact(gen.cmap.target,
                          tuple(row[:j] + (Fraction(0),) + row[j:] for row in gen.cmap.a),
                          gen.cmap.m_t, gen.cmap.b)
    return Generator(Cell(poly, gen.cell.torus_rank, sign=gen.cell.sign), cmap,
                     Tag.of_masks(verts, labels or gen.tag.labels), is_cochain=gen.is_cochain)


def transport_generator(gen: Generator, linear: Sequence[Sequence],
                        offset: Sequence) -> Generator:
    """Push a generator through an affine map injective on its polytope's hull.

    Injectivity is decided once, before anything is built: the pushed
    directions of the hull must keep its dimension.  An injective affine
    map keeps the vertices distinct and extreme, so vertices, the
    orientation and labels move along, and the affine map to the target is
    re-solved in the new chart, one solve for all its rows, consistent and
    unique up to the hull.  The transport commutes with the maps, so a
    cochain's orientation still stands for the coorientation it did.
    """
    lin = tuple(tuple(frac(x) for x in row) for row in linear)
    off = tuple(frac(x) for x in offset)
    n_old = gen.cell.polytope.ambient_dim
    n_new = len(lin)

    def push(d):
        return tuple(sum(lin[i][j] * d[j] for j in range(n_old)) for i in range(n_new))

    dirs = gen.cell.polytope.dir_basis
    pushed = [push(d) for d in dirs]
    if rank(pushed) != len(dirs):
        raise ChainError("transport map is not injective on the hull")
    old_verts = gen.cell.polytope.vertices
    new_verts = [tuple(o + x for o, x in zip(off, push(v))) for v in old_verts]
    poly = Polytope.from_points(n_new, [list(v) for v in new_verts])
    index = _vertex_index(poly.vertices)
    table = [index[nv] for nv in new_verts]

    frame = tuple(push(w) + w[n_old:] for w in gen.cell.frame)
    cell = Cell(poly, gen.cell.torus_rank, frame, gen.cell.sign)

    # re-solve the affine part on the new chart: row i of the new A agrees
    # with row i of A on each pushed direction
    m = gen.cmap.target.dim
    rhs = [tuple(sum(x * y for x, y in zip(row, d)) for d in dirs) for row in gen.cmap.a]
    a_new = solve_columns(pushed, rhs) if dirs else [(Fraction(0),) * n_new] * m
    base, new_base = old_verts[0], new_verts[0]
    b_new = [sum(gen.cmap.a[i][j] * frac(base[j]) for j in range(n_old))
             + gen.cmap.b[i]
             - sum(a_new[i][j] * new_base[j] for j in range(n_new))
             for i in range(m)]
    cmap = CellMap(gen.cmap.target, a_new, gen.cmap.m_t, b_new)

    tag = gen.tag.moved(poly.vertices, table)
    return Generator(cell, cmap, tag, is_cochain=gen.is_cochain)


# ---------------------------------------------------------------------------
# Simplices and the singular bridge
# ---------------------------------------------------------------------------

def simplex_cell(k: int) -> Cell:
    """The standard simplex with the edge frame -e0 + e_(i+1) out of e0.  Read
    at the pivots, the first k coordinates, that frame is the rows -e0 + e_(i+1)
    and, last, -e0, of determinant (-1)^k."""
    return Cell(standard_simplex(k), 0, sign=(-1) ** k)


@lru_cache
def standard_simplex_tag(k: int) -> Tag:
    """Deterministic labels for the faces of the standard simplex, built once
    per k: a Tag is never mutated."""
    return numbered_tag(standard_simplex(k), "dx", k)


@dataclass(frozen=True)
class SingularSimplex:
    """An affine map from the standard simplex into the target."""

    degree: int
    target: Target
    matrix: tuple
    offset: tuple

    def __init__(self, degree: int, target: Target, matrix, offset):
        mm, bb = _affine_entries(target, matrix, offset, degree + 1)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", mm)
        object.__setattr__(self, "offset", bb)

    def face(self, j: int) -> "SingularSimplex":
        """The simplex on the facet x_j = 0: the map with column j dropped."""
        if not 0 <= j <= self.degree:
            raise ChainError("facet index out of range")
        return SingularSimplex(self.degree - 1, self.target,
                               [row[:j] + row[j + 1:] for row in self.matrix], self.offset)


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


def check_singular_chain_map(terms: Sequence):
    """Boundary commutes with the singular bridge, each facet in the big chart.

    The boundary of a bridged k-simplex lives on the facets x_j = 0 of the
    big simplex.  Term j of singular_boundary (sx.face(j)) is put there by
    inserting x_j = 0 and labelled by the big tag restricted to facet j: the
    vertices sort as e_k < ... < e_0, so that facet drops vertex k - j and
    its masks are the small simplex's.  The two chains must agree exactly.
    """
    lhs = boundary(singular_to_kuranishi(terms))
    rhs_terms = []
    for coeff, sx in terms:
        k = sx.degree
        big, full = standard_simplex_tag(k), (1 << (k + 1)) - 1
        for j, (c, face) in enumerate(singular_boundary([(coeff, sx)])):
            facet = big.restrict(full & ~(1 << (k - j)))
            rhs_terms.append((c, _insert_coordinate(singular_generator(face), j, 0, facet.labels)))
    return _law(lhs, Chain(rhs_terms), "boundary does not match the bridged boundary")


# ---------------------------------------------------------------------------
# Cylinders
# ---------------------------------------------------------------------------

def cylinder(gen: Generator, alt_tag: Tag) -> Generator:
    """A prism witnessing that two labellings give the same class up to boundary.

    The boundary of the prism is the relabelled generator minus the original,
    plus prisms over the generator's own facets.  The prism's tag carries
    alt_tag's labels on its top faces, so Generator refuses a collision in
    alt_tag, or between the two tags' atoms, as any other.
    """
    if gen.is_cochain:
        raise ChainError("cylinders are chain-level witnesses")
    if (alt_tag.vertices != gen.tag.vertices
            or [m for m, _ in alt_tag.labels] != [m for m, _ in gen.tag.labels]):
        raise TagError("alternative tag must label the same faces")
    p = gen.cell.polytope
    # the lifted vertices are the prism's, sorted: vertex k is vertex k of P
    # at height 0 and vertex k - N at height 1; its dir_basis, e_0 over P's
    # with a zero in front, is in RREF, so the cell keeps gen's sign
    prism = Polytope._of_sorted(p.ambient_dim + 1, VertexTuple(
        (Fraction(h),) + v for h in (0, 1) for v in p.vertices))
    cell = Cell(prism, gen.cell.torus_rank, sign=gen.cell.sign)
    cmap = CellMap._exact(gen.cmap.target,
                          tuple((Fraction(0),) + row for row in gen.cmap.a),
                          gen.cmap.m_t, gen.cmap.b)

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
    return Generator(cell, cmap, Tag.of_masks(prism.vertices, pairs))


def _prism_ends(pairs: Sequence[tuple[Generator, Tag]]) -> Chain:
    """The ends of the prisms over (gen, alt_tag) pairs: each generator
    relabelled by alt_tag at height 1, minus itself at height 0, each lifted
    by _insert_coordinate."""
    return Chain([(Fraction(1), _insert_coordinate(gen, 0, 1, alt.labels)) for gen, alt in pairs]
                 + [(Fraction(-1), _insert_coordinate(gen, 0, 0)) for gen, _ in pairs])


def check_cylinder_witness(gen: Generator, alt_tag: Tag):
    """The prism boundary equals new-minus-old plus terms over the facets:
    its ends, the terms at one height, are _prism_ends."""
    b = boundary(chain(cylinder(gen, alt_tag)))
    ends = Chain([(coeff, term) for coeff, term in b.terms()
                  if len({v[0] for v in term.cell.polytope.vertices}) == 1])
    if ends == _prism_ends([(gen, alt_tag)]):
        sides = len(b.terms()) - len(ends.terms())
        return CheckReport(True, len(b.terms()), True, (f"{sides} side terms",))
    return CheckReport(False, 0, True, ("prism ends do not give the tag difference",))


# ---------------------------------------------------------------------------
# Complexes and homology
# ---------------------------------------------------------------------------

class ChainComplex:
    """A finite generator set closed under the boundary, graded by dimension,
    with one exact elimination per grade.

    The constructor indexes the generators' distinct classes per grade in
    the order first seen, and reads each class's boundary off its facet
    forms (_facet_forms) as a sparse integer column: a dict from row, the
    facet's place one grade down, to a nonzero int.  The generators of one
    face_complex share one root, so each face is normalized once.  A set
    not closed under the boundary, a facet term in another grade than the
    one below and a coefficient that is not an integer are refused.

    Each grade's columns are eliminated once, when first needed
    (_pivot_columns), and the pivots are kept: their number is the rank of
    the boundary matrix, which betti reads, and is_boundary reduces a
    chain's column against the pivots of the grade above.  Both answer over
    Q.  `basis` (each grade's classes in the term order) and `matrices`
    (the boundary matrices on that basis, tuples of Fraction rows) are
    views, built when first read; nothing in the complex reads them.
    """

    def __init__(self, gens: Sequence[Generator]):
        index: dict = {}
        classes: dict = {}
        for g in gens:
            nf = _normal_form(g)
            if nf is None:
                continue
            key, _, norm = nf
            if key not in index:
                items = classes.setdefault(norm.grade, [])
                index[key] = (norm.grade, len(items))
                items.append((key, norm))
        # a tag is injective, so the facets of one generator carry distinct
        # labels, are distinct classes and fill distinct rows
        columns: dict = {}
        for grade, items in classes.items():
            out = columns[grade] = []
            for _, gen in items:
                col: dict = {}
                for key, coeff, _ in _facet_forms(gen):
                    slot = index.get(key)
                    if slot is None:
                        raise ChainError("generator set is not closed under boundary")
                    g2, row = slot
                    if g2 != grade - 1:
                        raise ChainError("boundary term lands in the wrong grade")
                    if coeff.denominator != 1:
                        raise ChainError(f"boundary coefficient {coeff} is not an integer")
                    col[row] = coeff.numerator
                out.append(col)
        self._index = index
        self._classes = classes
        self._columns = columns
        self._pivots: dict = {}
        self._basis = self._matrices = None

    def _pivots_of(self, grade: int) -> dict:
        """The pivots of the grade's boundary columns, eliminated once."""
        pivots = self._pivots.get(grade)
        if pivots is None:
            pivots = self._pivots[grade] = _pivot_columns(self._columns.get(grade, ()))
        return pivots

    def betti(self) -> dict:
        ranks = {grade: len(self._pivots_of(grade)) for grade in self._columns}
        return {grade: len(cols) - ranks[grade] - ranks.get(grade + 1, 0)
                for grade, cols in sorted(self._columns.items())}

    def is_boundary(self, c: Chain) -> bool:
        """Whether the chain is the boundary of a chain of the complex, over Q.

        Its terms must be classes of the complex, all of one grade.  Its
        column, cleared of denominators, is reduced against the pivots of
        the grade above; it is a boundary exactly when nothing is left.
        The zero chain is a boundary."""
        col, grades = {}, set()
        for key, (coeff, _) in c._terms.items():
            slot = self._index.get(key)
            if slot is None:
                raise ChainError("chain has a term outside the complex")
            grades.add(slot[0])
            col[slot[1]] = coeff
        if len(grades) > 1:
            raise ChainError(f"chain mixes grades {sorted(grades)}")
        if not col:
            return True
        scale = lcm(*(x.denominator for x in col.values()))
        col = {r: x.numerator * (scale // x.denominator) for r, x in col.items()}
        return not _reduced(col, self._pivots_of(grades.pop() + 1))

    @property
    def basis(self) -> dict:
        """Each grade's (key, normalized generator) pairs in the term order."""
        if self._basis is None:
            self._basis = {grade: _in_term_order(items) for grade, items in self._classes.items()}
        return self._basis

    @property
    def matrices(self) -> dict:
        """Each grade's boundary matrix on `basis`, rows one grade down, as
        tuples of Fraction rows."""
        if self._matrices is None:
            basis, index = self.basis, self._index
            self._matrices = {}
            for grade, items in sorted(basis.items()):
                # a row's place first seen, to its place in the term order
                rows = {index[key][1]: i for i, (key, _) in enumerate(basis.get(grade - 1, ()))}
                m = [[Fraction(0)] * len(items) for _ in rows]
                for col, (key, _) in enumerate(items):
                    for row, x in self._columns[grade][index[key][1]].items():
                        m[rows[row]][col] = Fraction(x)
                self._matrices[grade] = tuple(tuple(r) for r in m)
        return self._matrices


def _reduced(col: dict, pivots: dict) -> dict:
    """A copy of the integer column reduced against the pivots until it is
    zero or its last row is no pivot's.

    The step is fraction-free: with w the pivot at v's last row p, v <- a v
    - b w for a = w[p] / g and b = v[p] / g, g their gcd, then v is divided
    by the gcd of its entries.  Each step clears row p and changes v by a
    multiple of w and a nonzero scale, so v stays in the span of the column
    and the pivots over Q."""
    v = dict(col)
    while v:
        p = max(v)
        w = pivots.get(p)
        if w is None:
            break
        a, b = w[p], v[p]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for r in v:
                v[r] *= a
        for r, y in w.items():
            x = v.get(r, 0) - b * y
            if x:
                v[r] = x
            else:
                del v[r]
        g = gcd(*v.values())
        if g > 1:
            for r in v:
                v[r] //= g
    return v


def _pivot_columns(columns: Iterable[dict]) -> dict:
    """{last row: reduced column} of a fraction-free elimination of integer
    columns: each column is reduced against the pivots before it (_reduced),
    and what is left, if anything, becomes the pivot at its last row.  The
    pivots have distinct last rows and span the columns over Q, so their
    number is the rank."""
    pivots: dict = {}
    for col in columns:
        v = _reduced(col, pivots)
        if v:
            pivots[max(v)] = v
    return pivots


def face_complex(p: Polytope, with_top: bool = True) -> list:
    """Every face of P as a point-target generator; P itself only with_top.

    One numbered tag over P's faces is restricted to each face, so a face
    and its facets agree on labels and the boundaries close up.  The
    generators are one root's face forms (see Boundary): P's normalized
    generator and the faces it hands out, each normalized once, and their
    facets are read there.  Its homology is that of a point with the top
    cell, else of the sphere bounding P.
    """
    top = (1 << len(p.vertices)) - 1
    _, _, root = _normal_form(Generator(Cell(p, 0), constant_map(POINT, p.ambient_dim, 0),
                                        numbered_tag(p, "dx", p.dim)))
    return [root if g == top else _face_form(root, g)[2]
            for g in p._fd.face_dims() if with_top or g != top]


def simplex_face_complex(k: int) -> list:
    """Every face of the standard simplex as a point-target generator."""
    return face_complex(standard_simplex(k))
