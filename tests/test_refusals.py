"""Every refusal of a malformed input names its fault: one parametrized test
per module, each case an input the refusal is the only answer to."""

import re
from fractions import Fraction as F

import pytest

from cornercalc import randgen
from cornercalc._linalg import det, integer_kernel_basis, mat
from cornercalc.bordism import (BordismClass, BordismComponent, BordismError,
                                ModulePresentation, PairingWitness, bordism_cup_cap,
                                identity_cobordism, present_group, strata_projection,
                                tag_independence_witness)
from cornercalc.cells import (POINT, Cell, CellMap, Coorientation, FibreProductError,
                              MapError, Target, cell_orientation_equal, euclid,
                              fibre_product_cells, orientation_from_coorientation,
                              permute_cell_coords, torus)
from cornercalc.chains import (Chain, ChainError, Generator, Tag, TagError, TargetMap,
                               chain, cylinder, numbered_tag, transport_generator)
from cornercalc.geometry import GeometryError, Polytope, interval
from cornercalc.orbifold import (GroupAction, OrbifoldError, RealRep, VirtualRep,
                                 cyclic_group, orbifold_stratum, quotient_pushdown,
                                 symmetric_group, zero_rep)
from cornercalc.products import ProductError, check_cup_identity, duality_KchToKh, pullback
from cornercalc.randgen import GenerationError
from cornercalc.suites import SUITES, SuiteError, run_suite
from test_bordism import circle_cover, hexagon_action, point_map, pt_class
from test_products import cover_cochain, thick_cochain


def _refused(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _ids(cases):
    return [message for _, _, message in cases]


P0 = Polytope.from_points(0, [[]])
SEGMENT = Cell(interval(0, 1))
LINE_MAP = CellMap(euclid(1), [[1]], [[]], [0])
Z2, Z3 = cyclic_group(2), cyclic_group(3)


def _segment_generator():
    return Generator(SEGMENT, CellMap(POINT, (), (), ()), numbered_tag(interval(0, 1), "f"))


def _line_component():
    (comp,) = fibre_product_cells(SEGMENT, LINE_MAP, SEGMENT, LINE_MAP)
    return comp


CELLS = [
    (lambda: Target("circle", 1), MapError, "unknown target kind 'circle'"),
    (lambda: Target("point", 1), MapError, "point target has dimension 0"),
    (lambda: Target("torus", 0), MapError, "euclid/torus target needs positive dimension"),
    (lambda: torus(1.5), MapError, "target dimension must be an int, not 1.5"),
    (lambda: Target("point", 0.0), MapError, "target dimension must be an int, not 0.0"),
    (lambda: euclid(True), MapError, "target dimension must be an int, not True"),
    (lambda: Target("torus", "2"), MapError, "target dimension must be an int, not '2'"),
    (lambda: Cell(interval(0, 1), -1), GeometryError, "negative torus rank"),
    (lambda: Cell(interval(0, 1), 0, sign=2), GeometryError, "sign must be +1 or -1"),
    (lambda: cell_orientation_equal(SEGMENT, Cell(interval(0, 2))), GeometryError,
     "orientation comparison requires identical cells"),
    (lambda: CellMap(euclid(1), [[1]], [[1]], [0]), MapError,
     "maps to euclid/point must kill the torus factor"),
    (lambda: Coorientation((), 2), MapError, "sign must be +1 or -1"),
    # a constant map has no kernel frame to orient by
    (lambda: orientation_from_coorientation(SEGMENT, CellMap(torus(1), [[0]], [[]], [0]),
                                            Coorientation((), 1)),
     FibreProductError, "map is not an interior submersion"),
    (lambda: _line_component().compose_on_first(CellMap(euclid(1), [[1, 0]], [[]], [0])),
     MapError, "map shape does not match the first factor"),
    (lambda: _line_component().compose_on_second(CellMap(euclid(1), [[1, 0]], [[]], [0])),
     MapError, "map shape does not match the second factor"),
    (lambda: fibre_product_cells(SEGMENT, CellMap(euclid(1), [[1, 0]], [[]], [0]),
                                 SEGMENT, LINE_MAP),
     MapError, "map shapes do not match the cells"),
    (lambda: permute_cell_coords(SEGMENT, LINE_MAP, [0, 0]), GeometryError,
     "perm must be a permutation of the coordinates"),
    # signs are the int +-1 and ranks are ints: no float or bool slips through
    (lambda: Cell(interval(0, 1), 0, sign=1.0), GeometryError, "sign must be +1 or -1"),
    (lambda: Cell(interval(0, 1), 1.5), GeometryError, "torus rank must be an int, not 1.5"),
    (lambda: Cell(interval(0, 1), True), GeometryError, "torus rank must be an int, not True"),
    (lambda: Coorientation((), 1.0), MapError, "sign must be +1 or -1"),
]


@pytest.mark.parametrize("call, error, message", CELLS, ids=_ids(CELLS))
def test_cells_refusals(call, error, message):
    _refused(call, error, message)


def _unlabelled_face():
    return Tag(interval(0, 1), {((0,),): ("a",)}).label_of(((1,),))


def _triangle_generator():
    poly = Polytope.from_points(2, [(0, 0), (1, 0), (0, 1)])
    return Generator(Cell(poly), CellMap(POINT, (), (), ()), numbered_tag(poly, "t"))


CHAINS = [
    (lambda: Tag(interval(0, 1), {((0,),): "a"}), TagError, "labels must be tuples of atoms"),
    (lambda: Tag(interval(0, 1), {((0,), (1,)): ("a",), ((1,), (0,)): ("b",)}), TagError,
     "duplicate face key in tag"),
    (_unlabelled_face, TagError, f"face {((F(1),),)} not labelled"),
    (lambda: Generator(SEGMENT, CellMap(euclid(1), [[1, 0]], [[]], [0]),
                       numbered_tag(interval(0, 1), "f")),
     ChainError, "map shape does not match the cell"),
    (lambda: Chain(ring="Z"), ChainError, "chains are over Q; ring must be 'Q', not 'Z'"),
    (lambda: transport_generator(_segment_generator(), [[0]], [0]), ChainError,
     "transport map is not injective on the hull"),
    (lambda: transport_generator(_triangle_generator(), [[1, 2]], [0]), ChainError,
     "transport map is not injective on the hull"),
    (lambda: cylinder(thick_cochain(torus(1), "a"), numbered_tag(interval(0, 1), "g")),
     ChainError, "cylinders are chain-level witnesses"),
    (lambda: cylinder(_segment_generator(), numbered_tag(interval(0, 2), "g")), TagError,
     "alternative tag must label the same faces"),
    (lambda: cylinder(_segment_generator(), Tag(interval(0, 1), {
        k: ("g",) for d in interval(0, 1).faces().values() for k in d})),
     TagError, "tag labels must be injective"),
]


@pytest.mark.parametrize("call, error, message", CHAINS, ids=_ids(CHAINS))
def test_chains_refusals(call, error, message):
    _refused(call, error, message)


def _two_target_cochain():
    return chain(cover_cochain([[1]], "a"), thick_cochain(torus(2), "b"))


PRODUCTS = [
    (lambda: check_cup_identity(_two_target_cochain()), ProductError,
     "generators share no common target"),
    (lambda: pullback(TargetMap(torus(1), torus(2), [[1], [0]], [0, 0]),
                      chain(cover_cochain([[1]], "a"))),
     ProductError, "cochain does not live over the map's target"),
    (lambda: pullback(TargetMap(euclid(1), torus(1), [[1]], [0]),
                      chain(cover_cochain([[1]], "a"))),
     ProductError, "no compact identity model over a euclidean target"),
    (lambda: duality_KchToKh(Chain(), 1.0), ProductError, "orientation must be +1 or -1"),
]


@pytest.mark.parametrize("call, error, message", PRODUCTS, ids=_ids(PRODUCTS))
def test_products_refusals(call, error, message):
    _refused(call, error, message)


GEOMETRY = [
    (lambda: Polytope(1, []), GeometryError, "polytope needs at least one vertex"),
    (lambda: Polytope.from_points(1, []), GeometryError, "polytope needs at least one point"),
]


@pytest.mark.parametrize("call, error, message", GEOMETRY, ids=_ids(GEOMETRY))
def test_geometry_refusals(call, error, message):
    _refused(call, error, message)


LINALG = [
    (lambda: mat([[1, 2], [3]]), ValueError, "ragged matrix"),
    (lambda: det(mat([[1, 2]])), ValueError, "det of non-square matrix"),
    (lambda: integer_kernel_basis([[F(1, 2)]]), ValueError, "integer matrix expected"),
    (lambda: integer_kernel_basis([[0.5]]), TypeError, "integer matrix expected"),
]


@pytest.mark.parametrize("call, error, message", LINALG,
                         ids=["ragged", "det", "rational", "float"])
def test_linalg_refusals(call, error, message):
    _refused(call, error, message)


def test_suites_refusals():
    _refused(lambda: run_suite("cup"), SuiteError,
             f"unknown suite 'cup'; known suites: {', '.join(sorted(SUITES))}")


# ---------------------------------------------------------------------------
# orbifold
# ---------------------------------------------------------------------------

SEG = interval(-1, 1)
FLIP = {"r0": ([[1]], [0]), "r1": ([[-1]], [0])}


def _two_dimensions():
    one = cyclic_group(1)
    action = GroupAction(one, [SEG, Polytope.from_points(1, [[5]])],
                         {"r0": ((0, [[1]], [0]), (1, [[1]], [0]))})
    return orbifold_stratum(action, one, zero_rep(one))


ORBIFOLD = [
    (lambda: cyclic_group(0), OrbifoldError, "cyclic group order must be positive"),
    (lambda: symmetric_group(5), OrbifoldError, "symmetric groups supported up to degree 4"),
    (lambda: GroupAction(Z2, SEG, {"r0": FLIP["r0"]}), OrbifoldError,
     "no affine data for element 'r1'"),
    (lambda: GroupAction(Z2, [SEG, SEG], {g: ((0, m, c),) for g, (m, c) in FLIP.items()}),
     OrbifoldError, "one affine map per component is required"),
    (lambda: GroupAction(Z2, [SEG, SEG], {g: ((0, m, c), (0, m, c))
                                          for g, (m, c) in FLIP.items()}),
     OrbifoldError, "components must be permuted"),
    (lambda: GroupAction(Z2, SEG, {g: (m + m, c + c) for g, (m, c) in FLIP.items()}),
     OrbifoldError, "affine map shape mismatch"),
    (lambda: GroupAction(Z2, [SEG, SEG], {"r0": ((0, [[1]], [0]), (1, [[1]], [0])),
                                          "r1": ((1, [[1]], [0]), (0, [[1]], [0]))}).single,
     OrbifoldError, "action has several components"),
    (lambda: RealRep(Z2, 1, {"r0": [[1]]}), OrbifoldError, "no matrix for element 'r1'"),
    (lambda: RealRep(Z2, 1, {"r0": [[1]], "r1": [[1, 0]]}), OrbifoldError,
     "representation matrices must be square"),
    (lambda: VirtualRep(Z2, [(1, -1, 0)]), OrbifoldError,
     "character length must match the group"),
    (_two_dimensions, OrbifoldError, "components must share a dimension"),
    (lambda: quotient_pushdown(GroupAction(Z2, SEG, FLIP), [point_map()], []), OrbifoldError,
     "one map and one tag per component are required"),
    (lambda: GroupAction(Z2, [SEG, SEG], {g: ((0.9, m, c), (1, m, c)) for g, (m, c) in FLIP.items()}),
     OrbifoldError, "component index must be an int, not 0.9"),
]


@pytest.mark.parametrize("call, error, message", ORBIFOLD, ids=_ids(ORBIFOLD))
def test_orbifold_refusals(call, error, message):
    _refused(call, error, message)


# ---------------------------------------------------------------------------
# bordism
# ---------------------------------------------------------------------------

def _circle_class():
    """[0, 1] wound once round the circle, its ends glued by x -> x - 1."""
    cell = Cell(interval(0, 1), 0, ((F(1),),), 1)
    pw = PairingWitness((0, [(1,)]), (0, [(0,)]), [[1]], [-1])
    return BordismClass([(cell, CellMap(torus(1), [[1]], [[]], [0]))], (pw,))


def _touching_pair():
    """An oriented point at 0 against [0, 1] cooriented over the line: they
    meet at a vertex, so their fibre product is not transverse."""
    point = BordismClass([(Cell(P0), CellMap(euclid(1), [()], [()], [0]))])
    segment = BordismClass([BordismComponent(SEGMENT, LINE_MAP, cooriented=True)])
    return bordism_cup_cap(point, segment)


def _modelled(cell, model):
    return BordismClass([BordismComponent(cell, point_map(), model=model)])


HEXAGON = hexagon_action().spaces[0]
TRIVIAL_Z3 = GroupAction(Z3, interval(0, 1), {g: ([[1]], [0]) for g in Z3.elements})

BORDISM = [
    (lambda: BordismComponent(SEGMENT, CellMap(euclid(1), [[1, 0]], [[]], [0])),
     BordismError, "map shape does not match the cell"),
    (lambda: BordismComponent(SEGMENT, CellMap(torus(1), [[1]], [[1]], [0])),
     BordismError, "map shape does not match the cell"),
    (lambda: ModulePresentation((), (), ring="R"), BordismError, "ring must be 'Z' or 'Q'"),
    (lambda: present_group([pt_class(1), pt_class(-1)], [circle_cover(1)]), BordismError,
     "witnesses must be oriented bordism classes"),
    (lambda: present_group(["x"]), BordismError, "generators must be bordism classes"),
    (lambda: present_group([circle_cover(1)]), BordismError,
     "generators must be oriented classes"),
    (lambda: present_group([BordismClass([pt_class(1).components[0],
                                          pt_class(-1).components[0]])]),
     BordismError, "generators must have a single component; list the pieces separately"),
    (lambda: tag_independence_witness(circle_cover(1)), BordismError,
     "prism witnesses exist for oriented classes"),
    (lambda: identity_cobordism(euclid(1)), BordismError,
     "no compact identity class over a euclidean target"),
    (lambda: bordism_cup_cap(_circle_class(), circle_cover(2)), BordismError,
     "certificate derivation needs a single product piece per component pair"),
    (lambda: bordism_cup_cap("x", pt_class(1)), BordismError,
     "both factors must be bordism classes"),
    (_touching_pair, BordismError,
     "a pair of components is not transverse; the product is undefined here"),
    (lambda: strata_projection(circle_cover(1), Z3, zero_rep(Z3)), BordismError,
     "strata projection acts on oriented classes"),
    (lambda: strata_projection(pt_class(1), Z3, zero_rep(cyclic_group(5))), BordismError,
     "label lives over a different group"),
    (lambda: strata_projection(pt_class(1), Z3, VirtualRep(Z3, (), [(2, -1, -1)])),
     BordismError, "labels with a negative part do not name honest strata"),
    (lambda: strata_projection(_modelled(Cell(HEXAGON, 1), hexagon_action()), Z3,
                               zero_rep(Z3)),
     BordismError, "symmetry models on torus factors are not supported"),
    (lambda: strata_projection(_modelled(SEGMENT, hexagon_action()), Z3, zero_rep(Z3)),
     BordismError, "component 0's model does not act on its own polytope"),
    (lambda: strata_projection(_modelled(Cell(HEXAGON), hexagon_action()), cyclic_group(5),
                               zero_rep(cyclic_group(5))),
     BordismError, "component 0's model uses a different group"),
    (lambda: strata_projection(_modelled(SEGMENT, TRIVIAL_Z3), Z3, zero_rep(Z3)),
     BordismError, "only point strata are projected here; higher-dimensional pieces "
                   "need their own orientation transport"),
    (lambda: PairingWitness((1.7, [(0,)]), (0, [(0,)]), [[1]], [0]), BordismError,
     "component index must be an int, not 1.7"),
]


@pytest.mark.parametrize("call, error, message", BORDISM, ids=_ids(BORDISM))
def test_bordism_refusals(call, error, message):
    _refused(call, error, message)


# ---------------------------------------------------------------------------
# randgen: the retry budgets, driven by a stub Random
# ---------------------------------------------------------------------------

class _StubRandom:
    """randint returns the scripted values in turn, then 0, each clamped to
    its range; choice takes the first option."""

    def __init__(self, script=()):
        self.script = list(script)

    def randint(self, a, b):
        return min(max(self.script.pop(0) if self.script else 0, a), b)

    def choice(self, options):
        return options[0]


# per draw of a cell over the line: n = 1, two vertices, the row, the offset
_MEETING_AT_ZERO = [1, 2, -2, 0, 1, 0] + [1, 2, 0, 2, 1, 0]

RANDGEN = [
    (lambda: randgen.random_polytope(_StubRandom(), 2, min_dim=1),
     "no polytope of the requested dimension in budget"),
    (lambda: randgen.random_cover_cochain(_StubRandom(), torus(1), "p"),
     "no invertible matrix in budget"),
    (lambda: randgen.submersive_cell(_StubRandom([1, 2, -2, 2]), euclid(1)),
     "no nonzero row in budget"),
    (lambda: randgen.fibre_instance(_StubRandom(_MEETING_AT_ZERO * randgen.MAX_TRIES),
                                    euclid(1)),
     "no transverse overlap in budget"),
    (lambda: randgen.random_target_map(_StubRandom(), torus(1), torus(1)),
     "no full-rank target map in budget"),
]


@pytest.mark.parametrize("call, message", RANDGEN, ids=[m for _, m in RANDGEN])
def test_randgen_budget_refusals(call, message):
    _refused(call, GenerationError, message)
