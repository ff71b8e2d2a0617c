"""Negative controls: every chain-level law reports a failure when one of the
operations it is decided by is corrupted.

Each test rebinds one operation (cup, cap, boundary, pullback, ...) in the
module that decides the law, so that some of its results change, most by
losing their first term, and asserts ok=False with the law's own failure
string.  A chains._law that always passed would fail every control of a law
decided through it; the prism, emission, corner-pairing and d^2 checks
compare on their own.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

import cornercalc.bordism as bordism
import cornercalc.chains as chains
import cornercalc.products as products
from cornercalc.bordism import tag_independence_witness
from cornercalc.cells import Cell, euclid, torus
from cornercalc.chains import (
    Chain,
    SingularSimplex,
    TargetMap,
    chain,
    check_cylinder_witness,
    check_singular_chain_map,
    verify_dd_zero,
)
from cornercalc.products import (
    check_cap_identity,
    check_cap_leibniz,
    check_cap_module,
    check_cup_associative,
    check_cup_identity,
    check_cup_leibniz,
    check_cup_supercommutative,
    check_dga,
    check_duality_chain_map,
    check_pullback_cup,
    check_pullback_d,
    check_pullback_functorial,
    projection_formula,
)
from cornercalc.suites import run_suite
from test_bordism import hollow_triangle
from test_chains import identity_target_map, interval_generator, numbered_tag
from test_products import cover_cochain, square_chain, thick_cochain

T1, T2 = torus(1), torus(2)


def _dropped(out, *args):
    """A Chain or a list of terms without its first term."""
    if isinstance(out, Chain):
        assert not out.is_zero, "the corrupted result must have a term to drop"
        return Chain(out.terms()[1:], ring=out.ring)
    assert out, "the corrupted result must have a term to drop"
    return out[1:]


def _corrupt(monkeypatch, module, name, calls=None, when=None, change=_dropped):
    """Rebind module.name so that its result goes through change(result,
    *arguments) on the calls numbered in calls (from 1; every call when
    None) among those whose arguments satisfy when."""
    real = getattr(module, name)
    count = [0]

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        if when is not None and not when(*args):
            return out
        count[0] += 1
        if calls is None or count[0] in calls:
            return change(out, *args)
        return out

    monkeypatch.setattr(module, name, corrupted)


def _cochains():
    a = chain(thick_cochain(T2, "a"))
    b = chain(thick_cochain(T2, "b", [[1], [0]]))
    c = chain(thick_cochain(T2, "c", [[0], [1]]))
    return a, b, c


def _only(chain_):
    (_, g), = chain_.terms()
    return g


def _fail(report, detail):
    assert not report.ok
    assert report.precondition
    assert report.details == (detail,)


# ---------------------------------------------------------------------------
# check_dga and the cup laws
# ---------------------------------------------------------------------------

def _swap_pair(monkeypatch, a, b):
    """_pair(b, a), which only the supercommutativity side computes."""
    ga, gb = _only(a), _only(b)
    _corrupt(monkeypatch, products, "_pair", when=lambda g1, g2: g1 is gb and g2 is ga)


def _third_factor_cup(monkeypatch, a, b, c):
    """The first cup(x, c), the left side of associativity: only the
    associativity sides multiply by c."""
    _corrupt(monkeypatch, products, "cup", calls={1}, when=lambda x, y: y is c)


def _first_boundary(monkeypatch, a, b, c):
    _corrupt(monkeypatch, products, "boundary", calls={1})


def _unit(monkeypatch, a, b, c):
    _corrupt(monkeypatch, products, "identity_cochain")


@pytest.mark.parametrize("corrupt, law", [
    (lambda m, a, b, c: _swap_pair(m, a, b), "supercommutativity"),
    (_first_boundary, "leibniz"),
    (_third_factor_cup, "associativity"),
    (_unit, "identity"),
], ids=["supercommutativity", "leibniz", "associativity", "identity"])
def test_check_dga_names_the_law_that_fails(monkeypatch, corrupt, law):
    a, b, c = _cochains()
    corrupt(monkeypatch, a, b, c)
    report = check_dga(a, b, c)
    _fail(report, law)


def test_cup_supercommutativity_control(monkeypatch):
    a, b, _ = _cochains()
    _swap_pair(monkeypatch, a, b)
    _fail(check_cup_supercommutative(a, b), "swap comparison failed")


def test_cup_associativity_control(monkeypatch):
    a, b, c = _cochains()
    _third_factor_cup(monkeypatch, a, b, c)
    _fail(check_cup_associative(a, b, c), "associativity failed")


def test_cup_leibniz_control(monkeypatch):
    a, b, c = _cochains()
    _first_boundary(monkeypatch, a, b, c)
    _fail(check_cup_leibniz(a, b), "cochain Leibniz failed")


@pytest.mark.parametrize("side", [1, 2], ids=["left", "right"])
def test_cup_identity_control(monkeypatch, side):
    a, _, _ = _cochains()
    # cup(e, a) first, then cup(a, e)
    _corrupt(monkeypatch, products, "cup", calls={side})
    _fail(check_cup_identity(a), "identity law failed")


# ---------------------------------------------------------------------------
# Cap laws
# ---------------------------------------------------------------------------

def test_cap_module_control(monkeypatch):
    alpha = chain(square_chain(T1, "s"))
    d1 = chain(thick_cochain(T1, "a"))
    d2 = chain(cover_cochain([[2]], "b"))
    _corrupt(monkeypatch, products, "cup")
    _fail(check_cap_module(alpha, d1, d2), "cap module axiom failed")


def test_cap_leibniz_control(monkeypatch):
    square = chain(square_chain(T1, "s"))
    delta = chain(thick_cochain(T1, "d"))
    _corrupt(monkeypatch, products, "boundary", calls={1})
    _fail(check_cap_leibniz(square, delta), "cap Leibniz failed")


def test_cap_identity_control(monkeypatch):
    _corrupt(monkeypatch, products, "identity_cochain")
    _fail(check_cap_identity(chain(square_chain(T1, "s"))), "cap identity law failed")


# ---------------------------------------------------------------------------
# Pullback, projection and duality
# ---------------------------------------------------------------------------

DOUBLE = TargetMap(T1, T1, [[2]], [0])
TRIPLE = TargetMap(T1, T1, [[3]], [Fraction(1, 2)])


def test_pullback_functorial_control(monkeypatch):
    _corrupt(monkeypatch, products, "pullback", calls={1})
    _fail(check_pullback_functorial(DOUBLE, TRIPLE, chain(cover_cochain([[2]], "a"))),
          "pullback functoriality failed")


def test_pullback_cup_control(monkeypatch):
    cover, thick = chain(cover_cochain([[2]], "a")), chain(thick_cochain(T1, "t"))
    _corrupt(monkeypatch, products, "pullback", calls={1})
    _fail(check_pullback_cup(DOUBLE, cover, thick), "pullback of a cup failed")


def test_pullback_d_control(monkeypatch):
    _corrupt(monkeypatch, products, "pullback", calls={1})
    _fail(check_pullback_d(DOUBLE, chain(thick_cochain(T1, "t"))),
          "pullback does not commute with d")


def test_projection_formula_control(monkeypatch):
    _corrupt(monkeypatch, products, "pullback")
    _fail(projection_formula(chain(square_chain(T1, "s")), chain(cover_cochain([[2]], "b")),
                             identity_target_map(T1)),
          "projection formula failed")


def test_duality_chain_map_control(monkeypatch):
    _corrupt(monkeypatch, products, "duality_KchToKh", calls={1})
    _fail(check_duality_chain_map(chain(thick_cochain(T1, "a"))),
          "duality is not a chain map")


# ---------------------------------------------------------------------------
# The singular bridge and the prism witnesses
# ---------------------------------------------------------------------------

def test_singular_chain_map_control(monkeypatch):
    sx = SingularSimplex(2, euclid(2), [[1, 3, 0], [2, 5, 1]], [Fraction(1, 2), 0])
    _corrupt(monkeypatch, chains, "boundary")
    _fail(check_singular_chain_map([(1, sx)]),
          "boundary does not match the bridged boundary")


def test_cylinder_witness_control(monkeypatch):
    g = interval_generator(0, 1, "old")
    alt = numbered_tag(g.cell.polytope, "new")
    assert check_cylinder_witness(g, alt).ok
    # a reversed prism has both ends with the opposite sign
    real = chains.cylinder
    monkeypatch.setattr(chains, "cylinder", lambda gen, tag: real(gen, tag).reversed())
    _fail(check_cylinder_witness(g, alt), "prism ends do not give the tag difference")


@pytest.mark.parametrize("call, detail", [
    (1, "prism boundary does not reduce to the two emissions"),
    (2, "first emission is not a cycle"),
    (3, "second emission is not a cycle"),
], ids=["prism", "first-cycle", "second-cycle"])
def test_tag_independence_witness_controls(monkeypatch, call, detail):
    # boundary(witness), then the boundaries of the two emissions; a
    # corrupted emission boundary is the emission itself, which is nonzero
    change = _dropped if call == 1 else (lambda out, c: c)
    _corrupt(monkeypatch, bordism, "boundary", calls={call}, change=change)
    _, report = tag_independence_witness(hollow_triangle(), "g", "h")
    assert not report.ok
    assert report.details == (detail,)


# ---------------------------------------------------------------------------
# The corner pairing and d^2 = 0
# ---------------------------------------------------------------------------

def _square():
    return chain(square_chain(T1, "s"))


@pytest.mark.parametrize("change, detail", [
    (lambda out, gen: out + out[:1], "duplicate flag"),
    (lambda out, gen: out[1:], "unpaired flag at corner"),
    (lambda out, gen: [replace(out[0], tag=out[-1].tag)] + out[1:], "tag mismatch at corner"),
    (lambda out, gen: [replace(out[0], cell=Cell(out[0].cell.polytope, out[0].cell.torus_rank + 1))]
     + out[1:], "corner cells differ at corner"),
], ids=["duplicate", "unpaired", "tag-mismatch", "corner-cells"])
def test_sigma_pairing_controls(monkeypatch, change, detail):
    assert verify_dd_zero(_square()).ok
    _corrupt(monkeypatch, chains, "corner_terms", change=change)
    report = verify_dd_zero(_square())
    assert not report.ok
    (got,) = report.details
    assert got.startswith(detail)


def test_double_boundary_control(monkeypatch):
    _corrupt(monkeypatch, chains, "boundary", calls={1})
    report = verify_dd_zero(_square())
    assert not report.ok
    assert report.details == ("double boundary is nonzero",)


# ---------------------------------------------------------------------------
# A suite's record of failed instances
# ---------------------------------------------------------------------------

def test_seeded_record_reports_failed_instances(monkeypatch):
    """With the unit corrupted, every dga instance fails its identity law:
    the record names the first three and counts them all."""
    _corrupt(monkeypatch, products, "identity_cochain")
    result = run_suite("dga", seed=0, count=8)
    assert not result.ok
    for record in result.records:
        assert not record.ok
        assert record.details == ("instance 1 failed: identity",
                                  "instance 2 failed: identity",
                                  "instance 3 failed: identity",
                                  "4 of 4 instances failed")
