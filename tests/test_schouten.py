"""Multivector bracket against an independent wedge-Leibniz oracle."""

import random

import pytest

from algebroids import courant
from algebroids.algebroid import SkewAlgebroid, bracket_sections, schouten
from algebroids.errors import InternalConsistencyError
from algebroids.scalar import BaseChart, ScalarField, parse_scalar
from algebroids.superalg import SuperPoly, parse_super, transport

from genlib import rand_lie, rand_poly, rand_skew, rand_super_homogeneous
from oracles import schouten_oracle

CH1 = BaseChart(("x1",))
CH2 = BaseChart(("x1", "x2"))
CH4 = BaseChart(("x1", "x2", "x3", "x4"))

SO3 = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}, {})


def tangent(chart):
    m = chart.m
    return SkewAlgebroid(chart, m, {}, {(a, a): 1 for a in range(1, m + 1)})


def mv(A, text):
    return parse_super(text, A.mv_table())


def lift(A, X):
    out = SuperPoly.zero(A.mv_table())
    for i, f in enumerate(X, start=1):
        out = out + f * SuperPoly.generator(A.mv_table(), A.mv_table().odd[i - 1])
    return out


def test_frame_and_function_brackets():
    assert schouten(SO3, mv(SO3, "xi1"), mv(SO3, "xi2")) == mv(SO3, "xi3")
    assert schouten(SO3, mv(SO3, "xi2"), mv(SO3, "xi3")) == mv(SO3, "xi1")
    assert schouten(SO3, mv(SO3, "xi1"), mv(SO3, "xi3")) == -mv(SO3, "xi2")
    tm = tangent(CH2)
    f = mv(tm, "x1^2*x2")
    assert schouten(tm, mv(tm, "xi1"), f) == mv(tm, "2*x1*x2")
    assert schouten(tm, f, mv(tm, "xi1")) == -mv(tm, "2*x1*x2")
    assert schouten(tm, f, f).is_zero


def test_vector_field_case_is_section_bracket():
    rng = random.Random(501)
    for _ in range(5):
        A = rand_skew(rng, CH2, 3)
        X = tuple(rand_poly(rng, CH2, deg=1) for _ in range(3))
        Y = tuple(rand_poly(rng, CH2, deg=1) for _ in range(3))
        assert schouten(A, lift(A, X), lift(A, Y)) == lift(A, bracket_sections(A, X, Y))


def test_wedge_rule_on_vector_fields():
    rng = random.Random(502)
    for _ in range(5):
        A = rand_lie(rng, CH2)
        n = A.rank
        X = lift(A, tuple(rand_poly(rng, CH2, deg=1) for _ in range(n)))
        Y = lift(A, tuple(rand_poly(rng, CH2, deg=1) for _ in range(n)))
        Z = lift(A, tuple(rand_poly(rng, CH2, deg=1) for _ in range(n)))
        lhs = schouten(A, X * Y, Z)
        rhs = schouten(A, X, Z) * Y + X * schouten(A, Y, Z)
        assert lhs == rhs


def test_frozen_bivector_square():
    tm = tangent(CH4)
    P = mv(tm, "xi1*xi2") + mv(tm, "(1+x1)*xi3*xi4")
    assert schouten(tm, P, P) == -mv(tm, "2*xi2*xi3*xi4")


def test_graded_antisymmetry():
    rng = random.Random(503)
    for _ in range(10):
        A = rand_skew(rng, CH2, 3)
        du = rng.randrange(0, 4)
        dv = rng.randrange(0, 4)
        U = rand_super_homogeneous(rng, A.mv_table(), du)
        V = rand_super_homogeneous(rng, A.mv_table(), dv)
        sign = -1 if ((du - 1) * (dv - 1)) % 2 == 0 else 1
        assert schouten(A, U, V) == schouten(A, V, U) * sign


def test_right_leibniz():
    rng = random.Random(504)
    for _ in range(8):
        A = rand_skew(rng, CH2, 3)
        du = rng.randrange(1, 3)
        dv = rng.randrange(0, 3)
        U = rand_super_homogeneous(rng, A.mv_table(), du)
        V = rand_super_homogeneous(rng, A.mv_table(), dv)
        W = rand_super_homogeneous(rng, A.mv_table(), rng.randrange(0, 3))
        sign = 1 if ((du - 1) * dv) % 2 == 0 else -1
        lhs = schouten(A, U, V * W)
        rhs = schouten(A, U, V) * W + (V * schouten(A, U, W)) * sign
        assert lhs == rhs


def test_degree_drop():
    rng = random.Random(505)
    for _ in range(8):
        A = rand_lie(rng, CH2)
        du = rng.randrange(0, 4)
        dv = rng.randrange(0, 4)
        U = rand_super_homogeneous(rng, A.mv_table(), du)
        V = rand_super_homogeneous(rng, A.mv_table(), dv)
        br = schouten(A, U, V)
        if not br.is_zero:
            assert br.degree() == du + dv - 1


def test_oracle_agreement():
    rng = random.Random(506)
    for trial in range(24):
        if trial % 3 == 0:
            A = rand_lie(rng, CH2)
        elif trial % 3 == 1:
            A = rand_skew(rng, CH2, rng.randrange(2, 5))
        else:
            A = SO3
        table = A.mv_table()
        U = rand_super_homogeneous(rng, table, rng.randrange(0, A.rank + 1))
        V = rand_super_homogeneous(rng, table, rng.randrange(0, A.rank + 1))
        assert schouten(A, U, V) == schouten_oracle(A, U, V)


def test_table_mismatch_rejected():
    tm = tangent(CH2)
    other = tangent(CH4)
    y1 = parse_super("y1", tm.table())
    for U, V in ((mv(other, "xi1"), mv(other, "xi2")), (y1, mv(tm, "xi1")), (y1, y1)):
        with pytest.raises(ValueError):
            schouten(tm, U, V)


def test_leaving_the_multivector_algebra_is_inconsistent(monkeypatch):
    """transport onto a table that lacks a generator raises ValueError, so a
    bracket that comes back holding y or p is an internal inconsistency."""
    A = tangent(CH1)
    space = courant.split_space(CH1, 1)
    stray = parse_super("y1*xi1", space.table)
    for value in (stray, parse_super("p1", space.table)):
        with pytest.raises(ValueError, match="not in the target table"):
            transport(value, A.mv_table())
    monkeypatch.setattr(courant, "poisson_bracket", lambda F, G, space: stray)
    with pytest.raises(InternalConsistencyError):
        schouten(A, mv(A, "xi1"), mv(A, "x1"))
