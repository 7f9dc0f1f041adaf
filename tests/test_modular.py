"""Modular cocycles: values, gauge behaviour, exactness, morphisms."""

import random

import pytest

from algebroids import modular
from algebroids.algebroid import AlgebroidMorphism, SkewAlgebroid
from algebroids.errors import InternalConsistencyError
from algebroids.modular import (
    Cocycle1,
    characteristic_form,
    d_of_function,
    is_exact,
    modular_cocycle,
    modular_class_of_morphism,
)
from algebroids.scalar import BaseChart, ScalarField, parse_scalar
from algebroids.superalg import SuperPoly, parse_super

from genlib import rand_fraction, rand_lie, rand_poly, rand_skew
from oracles import c_at

CH1 = BaseChart(("x1",))
CH2 = BaseChart(("x1", "x2"))

AFF1 = SkewAlgebroid(CH1, 2, {(1, 2, 2): 1}, {})
SO3 = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}, {})
NONLIE = SkewAlgebroid(CH1, 3, {(1, 2, 3): 1, (1, 3, 1): 1}, {})


def tangent(chart):
    m = chart.m
    return SkewAlgebroid(chart, m, {}, {(a, a): 1 for a in range(1, m + 1)})


def form(A, text):
    return parse_super(text, A.table())


def test_fixed_values():
    assert modular_cocycle(AFF1).value == form(AFF1, "y1")
    assert modular_cocycle(tangent(CH2)).is_zero
    assert modular_cocycle(SO3).is_zero
    assert modular_cocycle(NONLIE).value == -form(NONLIE, "y3")
    mod = modular_cocycle(AFF1)
    assert mod.component(1) == ScalarField.one(CH1)
    assert mod.component(2).is_zero


def test_paths_agree_randomized():
    rng = random.Random(601)
    pool = [AFF1, SO3, NONLIE, tangent(CH2)]
    pool.extend(rand_lie(rng, CH2) for _ in range(4))
    pool.extend(rand_skew(rng, CH2, rng.randrange(2, 4)) for _ in range(6))
    for A in pool:
        assert modular_cocycle(A) == characteristic_form(A)
    gauge = parse_scalar("1 + x1^2", CH2)
    for A in pool:
        if A.chart != CH2:
            continue
        assert modular_cocycle(A, gauge) == characteristic_form(A, gauge)


def test_adjoint_trace_oracle():
    rng = random.Random(602)
    for _ in range(8):
        n = rng.randrange(2, 5)
        c = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(1, n + 1):
                    if rng.random() < 0.5:
                        q = rand_fraction(rng)
                        if q:
                            c[(i, j, k)] = q
        A = SkewAlgebroid(CH1, n, c, {})
        mod = modular_cocycle(A)
        for i in range(1, n + 1):
            ad = [[c_at(A, i, k, m) for k in range(1, n + 1)] for m in range(1, n + 1)]
            trace = sum((ad[d][d] for d in range(n)), ScalarField.zero(CH1))
            assert mod.component(i) == trace


def test_gauge_shift_is_anchor_logarithm():
    rng = random.Random(603)
    pool = [tangent(CH2), rand_lie(rng, CH2), rand_skew(rng, CH2, 3)]
    gauge = parse_scalar("1 + x1^2", CH2)
    for A in pool:
        shift = modular_cocycle(A, gauge).value - modular_cocycle(A).value
        assert shift == d_of_function(A, gauge) / gauge
    with pytest.raises(ZeroDivisionError):
        modular_cocycle(tangent(CH2), 0)


def test_closedness():
    rng = random.Random(604)
    for _ in range(5):
        A = rand_lie(rng, CH2)
        mod = modular_cocycle(A)
        assert A.de_rham_field().apply(mod.value).is_zero
    mod = modular_cocycle(NONLIE)
    assert NONLIE.de_rham_field().apply(mod.value) == form(NONLIE, "y1*y2")


def test_cocycle_validation():
    with pytest.raises(ValueError):
        Cocycle1(SO3, form(SO3, "y1"))  # not closed on a Lie algebroid
    Cocycle1(NONLIE, form(NONLIE, "y3"))  # skew case skips the check
    with pytest.raises(ValueError):
        Cocycle1(AFF1, form(AFF1, "y1*y2"))
    with pytest.raises(ValueError):
        Cocycle1(AFF1, form(AFF1, "y1 + 1"))
    with pytest.raises(ValueError):
        Cocycle1(AFF1, form(SO3, "y1"))


def test_exactness_tangent():
    tm = tangent(CH2)
    ok, f = is_exact(tm, Cocycle1(tm, form(tm, "y1")))
    assert ok
    assert f == ScalarField.coord(CH2, "x1")
    ok, f = is_exact(tm, modular_cocycle(tm))
    assert ok and f.is_zero


def test_exactness_bound_behaviour():
    tm1 = tangent(CH1)
    alpha = Cocycle1(tm1, form(tm1, "3*x1^2*y1"))
    ok, f = is_exact(tm1, alpha, bound=2)
    assert not ok and f is None
    ok, f = is_exact(tm1, alpha)
    assert ok and f == parse_scalar("x1^3", CH1)


def test_zero_anchor_never_exact():
    mod = modular_cocycle(AFF1)
    for bound in (None, 4):
        ok, f = is_exact(AFF1, mod, bound=bound)
        assert not ok and f is None


def test_exactness_random_roundtrip():
    rng = random.Random(605)
    hits = attempts = 0
    while hits < 4 and attempts < 60:
        attempts += 1
        A = rand_lie(rng, CH2)
        f = rand_poly(rng, CH2, deg=2)
        alpha = d_of_function(A, f)
        if alpha.is_zero:
            continue
        hits += 1
        ok, witness = is_exact(A, Cocycle1(A, alpha))
        assert ok
        assert d_of_function(A, witness) == alpha
    assert hits == 4


def test_exactness_rejects_rational_data():
    tm = tangent(CH1)
    ratio = parse_scalar("x1", CH1) / parse_scalar("1 + x1^2", CH1)
    bad = SuperPoly.from_scalar(tm.table(), ratio) * SuperPoly.generator(tm.table(), "y1")
    with pytest.raises(ValueError):
        is_exact(tm, Cocycle1(tm, bad))
    rational_anchor = SkewAlgebroid(CH1, 1, {}, {(1, 1): ratio})
    with pytest.raises(ValueError):
        is_exact(rational_anchor, Cocycle1(rational_anchor, form(rational_anchor, "y1")))


def test_morphism_relative_class():
    ident = AlgebroidMorphism(AFF1, AFF1, {(1, 1): 1, (2, 2): 1})
    assert modular_class_of_morphism(ident).is_zero
    line = SkewAlgebroid(CH1, 1, {}, {})
    incl = AlgebroidMorphism(line, AFF1, {(1, 1): 1})
    rel = modular_class_of_morphism(incl)
    assert rel.value == -form(line, "y1")
    broken = AlgebroidMorphism(AFF1, AFF1, {(1, 2): 1, (2, 1): 1})
    with pytest.raises(ValueError):
        modular_class_of_morphism(broken)


def test_consistency_error_carries_both_forms(monkeypatch):
    """A planted error in the trace route: the error names the check and
    carries the divergence form and the trace form, in that order."""
    traces = modular._structure_traces

    def shifted(A):
        return [f + 1 for f in traces(A)]

    monkeypatch.setattr(modular, "_structure_traces", shifted)
    A = SkewAlgebroid(CH1, 2, {(1, 2, 2): 1}, {})  # fresh: AFF1 memoises its cocycle
    with pytest.raises(InternalConsistencyError, match="modular cocycle paths disagree") as err:
        modular_cocycle(A)
    assert err.value.check == "modular_cocycle"
    assert err.value.values == (form(A, "y1"), form(A, "2*y1 + y2"))
    assert str(err.value) == "modular cocycle paths disagree: y1 against 2*y1 + y2"
