import random

import pytest

from algebroids.algebroid import (
    AlgebroidMorphism,
    SkewAlgebroid,
    bracket_sections,
    conjugate_frame,
    interior_product,
    is_lie,
    is_morphism,
    lie_derivative_form,
    pullback,
)
from algebroids.scalar import BaseChart, ScalarField, parse_scalar
from algebroids.superalg import SuperPoly, parse_super

from genlib import rand_lie, rand_poly, rand_skew, rand_super_homogeneous
from oracles import c_at

CH1 = BaseChart(("x1",))
CH2 = BaseChart(("x1", "x2"))

AFF1 = SkewAlgebroid(CH1, 2, {(1, 2, 2): 1})
SO3 = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})
NONLIE = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (1, 3, 1): 1})


def tangent(chart):
    return SkewAlgebroid(chart, chart.m, {}, {(i, i): 1 for i in range(1, chart.m + 1)})


def test_de_rham_field_aff1():
    d = AFF1.de_rham_field()
    t = AFF1.table()
    assert d.component("y2") == parse_super("-y1*y2", t)
    assert d.component("y1").is_zero
    assert d.component("x1").is_zero
    assert d.parity == 1


def test_de_rham_field_tangent_and_zero():
    TM = tangent(CH2)
    d = TM.de_rham_field()
    t = TM.table()
    assert d.component("x1") == SuperPoly.generator(t, "y1")
    assert d.component("x2") == SuperPoly.generator(t, "y2")
    assert d.component("y1").is_zero
    Z = SkewAlgebroid(CH2, 2)
    assert Z.de_rham_field().is_zero


def test_is_lie_catalog():
    ok, cert = is_lie(SO3)
    assert ok and cert is None
    ok, cert = is_lie(NONLIE)
    assert not ok and not cert.is_zero


def test_nonlie_witness_matches_section_jacobiator():
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = -e3 for this bracket
    e = [NONLIE.frame_section(i) for i in (1, 2, 3)]
    total = [ScalarField.zero(CH1)] * 3
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        term = bracket_sections(NONLIE, bracket_sections(NONLIE, e[i], e[j]), e[k])
        total = [a + b for a, b in zip(total, term)]
    assert total[0].is_zero and total[1].is_zero
    assert total[2] == ScalarField.const(CH1, -1)


def test_rank2_zero_anchor_always_lie():
    rng = random.Random(67)
    for _ in range(15):
        c = {(1, 2, 1): rand_poly(rng, CH2, deg=1), (1, 2, 2): rand_poly(rng, CH2, deg=1)}
        A = SkewAlgebroid(CH2, 2, c)
        assert A.is_lie()


def test_random_lie_generator_is_lie():
    rng = random.Random(71)
    for _ in range(10):
        assert rand_lie(rng, CH2).is_lie()


def test_bracket_sections_frame_and_leibniz():
    TM = tangent(CH2)
    x1 = ScalarField.coord(CH2, "x1")
    e1, e2 = TM.frame_section(1), TM.frame_section(2)
    fX = [x1 if i == 1 else ScalarField.zero(CH2) for i in range(2)]
    assert bracket_sections(TM, e1, fX) == (ScalarField.zero(CH2), ScalarField.one(CH2))
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            got = bracket_sections(SO3, SO3.frame_section(i), SO3.frame_section(j))
            want = tuple(c_at(SO3, i, j, k) for k in (1, 2, 3))
            assert got == want


def test_bracket_sections_antisymmetry_and_anchored_leibniz():
    rng = random.Random(73)
    for _ in range(12):
        A = rand_skew(rng, CH2, 3)
        X = tuple(rand_poly(rng, CH2, deg=1) for _ in range(3))
        Y = tuple(rand_poly(rng, CH2, deg=1) for _ in range(3))
        f = rand_poly(rng, CH2, deg=2)
        assert all(v.is_zero for v in bracket_sections(A, X, X))
        fwd = bracket_sections(A, X, Y)
        bwd = bracket_sections(A, Y, X)
        assert all((a + b).is_zero for a, b in zip(fwd, bwd))
        fY = tuple(f * y for y in Y)
        lhs = bracket_sections(A, X, fY)
        rf = A.anchor_action(X, f)
        rhs = tuple(rf * y + f * b for y, b in zip(Y, fwd))
        assert lhs == rhs


def test_interior_product():
    t = SO3.table()
    omega = parse_super("y1*y2", t)
    assert interior_product(SO3, SO3.frame_section(1), omega) == parse_super("y2", t)
    assert interior_product(SO3, SO3.frame_section(2), omega) == parse_super("-y1", t)
    rng = random.Random(79)
    for _ in range(10):
        X = tuple(rand_poly(rng, CH1, deg=1) for _ in range(3))
        w = rand_super_homogeneous(rng, t, rng.randint(0, 3))
        assert interior_product(SO3, X, interior_product(SO3, X, w)).is_zero


def test_lie_derivative_form():
    TM = tangent(CH2)
    t = TM.table()
    assert lie_derivative_form(TM, TM.frame_section(1), parse_super("x1*y2", t)) == parse_super("y2", t)
    zero = (ScalarField.zero(CH2), ScalarField.zero(CH2))
    assert lie_derivative_form(TM, zero, parse_super("x1*y2", t)).is_zero


def test_lie_derivative_on_functions_is_anchor():
    rng = random.Random(83)
    for _ in range(10):
        A = rand_skew(rng, CH2, 3)
        X = tuple(rand_poly(rng, CH2, deg=1) for _ in range(3))
        f = rand_poly(rng, CH2, deg=2)
        got = lie_derivative_form(A, X, SuperPoly.from_scalar(A.table(), f))
        assert got == SuperPoly.from_scalar(A.table(), A.anchor_action(X, f))


def test_d_squares_to_zero_on_lie_algebroids():
    rng = random.Random(89)
    for _ in range(8):
        A = rand_lie(rng, CH2)
        d = A.de_rham_field()
        w = rand_super_homogeneous(rng, A.table(), rng.randint(0, 2))
        assert d.apply(d.apply(w)).is_zero


def test_pullback_identity_zero_and_multiplicativity():
    rng = random.Random(97)
    ident = AlgebroidMorphism(SO3, SO3, {(i, i): 1 for i in (1, 2, 3)})
    zero = AlgebroidMorphism(SO3, SO3, {})
    t = SO3.table()
    for _ in range(10):
        w = rand_super_homogeneous(rng, t, rng.randint(0, 3))
        v = rand_super_homogeneous(rng, t, rng.randint(0, 3))
        assert pullback(ident, w) == w
        killed = pullback(zero, w)
        assert killed == w.degree_part(0)
        assert pullback(ident, w * v) == pullback(ident, w) * pullback(ident, v)
    rnd = AlgebroidMorphism(
        SO3, SO3, {(i, j): rand_poly(rng, CH1, deg=1) for i in (1, 2, 3) for j in (1, 2, 3)}
    )
    for _ in range(6):
        w = rand_super_homogeneous(rng, t, rng.randint(0, 2))
        v = rand_super_homogeneous(rng, t, rng.randint(0, 2))
        assert pullback(rnd, w * v) == pullback(rnd, w) * pullback(rnd, v)


def test_is_morphism_examples():
    ident = AlgebroidMorphism(SO3, SO3, {(i, i): 1 for i in (1, 2, 3)})
    ok, cert = is_morphism(ident)
    assert ok and cert is None

    scaled = AlgebroidMorphism(AFF1, AFF1, {(1, 1): 1, (2, 2): 3})
    ok, _ = is_morphism(scaled)
    assert ok

    TM = tangent(CH2)
    crushed = AlgebroidMorphism(TM, TM, {})
    ok, cert = is_morphism(crushed)
    assert not ok
    name, diff = cert
    assert name == "x1"
    assert diff == -SuperPoly.generator(TM.table(), "y1")


def test_morphism_requires_shared_chart():
    other = tangent(BaseChart(("u1", "u2")))
    with pytest.raises(ValueError):
        AlgebroidMorphism(tangent(CH2), other, {})


def test_conjugate_frame_keeps_brackets():
    # new frame e'_1 = e1, e'_2 = e2 + x1*e1 in aff(1)
    x1 = ScalarField.coord(CH1, "x1")
    one = ScalarField.one(CH1)
    zero = ScalarField.zero(CH1)
    B = conjugate_frame(AFF1, [[one, zero], [x1, one]])
    assert B.is_lie()
    # [e'_1, e'_2] = [e1, e2] = e2 = e'_2 - x1*e'_1
    assert c_at(B, 1, 2, 1) == -x1
    assert c_at(B, 1, 2, 2) == one
