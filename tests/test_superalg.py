import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.scalar import BaseChart, ParseError, ScalarField
from algebroids.superalg import (
    GeneratorTable,
    SuperPoly,
    SuperVectorField,
    commutator,
    divergence,
    gauge_divergence,
    parse_super,
    transport,
)

from genlib import rand_field, rand_poly, rand_poly_nonzero, rand_super_homogeneous

CH = BaseChart(("x1", "x2"))
T = GeneratorTable(CH, odd=("y1", "y2", "y3"), even2=("p1", "p2"))


def sp(text, table=T):
    return parse_super(text, table)


def gen(name, table=T):
    return SuperPoly.generator(table, name)


def test_product_koszul_signs():
    y1, y2 = gen("y1"), gen("y2")
    assert y1 * y2 == sp("y1*y2")
    assert y2 * y1 == -sp("y1*y2")
    assert (y1 * y1).is_zero
    assert sp("x1*y1") * gen("p1") == gen("p1") * sp("x1*y1")


def test_supercommutativity_randomized():
    rng = random.Random(23)
    for _ in range(30):
        df, dg = rng.randint(0, 3), rng.randint(0, 3)
        f = rand_super_homogeneous(rng, T, df)
        g = rand_super_homogeneous(rng, T, dg)
        sign = -1 if (df & 1) and (dg & 1) else 1
        assert f * g == sign * (g * f)


def test_associativity_randomized():
    rng = random.Random(29)
    for _ in range(20):
        f = rand_super_homogeneous(rng, T, rng.randint(0, 2))
        g = rand_super_homogeneous(rng, T, rng.randint(0, 2))
        h = rand_super_homogeneous(rng, T, rng.randint(0, 2))
        assert (f * g) * h == f * (g * h)


# Hypothesis versions of the seeded laws above, so that a failure shrinks to
# a minimal case. Coefficients may be drawn as zero, and every result is
# checked to store no zero coefficient: SuperPoly's constructor is the one
# place that prunes them.
LAWS = settings(max_examples=100, deadline=None, derandomize=True)
# the same generators as T, listed in another order
T_SHUFFLED = GeneratorTable(CH, odd=("y3", "y1", "y2"), even2=("p2", "p1"))
scalars = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1)]),
    st.fractions(-3, 3, max_denominator=3),
    max_size=3,
).map(lambda num: ScalarField(CH, num))


def _monomials(degree: int) -> list:
    """Every (odd, even) key of T of the given total degree."""
    keys = []
    for k in range(min(len(T.odd), degree) + 1):
        if (degree - k) % 2 == 0:
            e = (degree - k) // 2
            for odd in combinations(range(len(T.odd)), k):
                keys += [(odd, (e1, e - e1)) for e1 in range(e + 1)]
    return keys


# (degree, homogeneous value of that degree)
homogeneous = st.integers(0, 3).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.dictionaries(st.sampled_from(_monomials(d)), scalars, max_size=3).map(
            lambda terms: SuperPoly(T, terms)
        ),
    )
)


def assert_pruned(*values):
    for value in values:
        assert all(not c.is_zero for c in value.terms.values()), value.terms


@LAWS
@given(homogeneous, homogeneous)
def test_supercommutativity_laws(fd, gd):
    (df, f), (dg, g) = fd, gd
    fg, gf = f * g, g * f
    sign = -1 if df & dg & 1 else 1
    assert fg == sign * gf
    cancelled = fg - sign * gf
    assert cancelled.terms == {}
    assert_pruned(fg, gf, f + g, f - g, g - f, cancelled)


@LAWS
@given(homogeneous, homogeneous, homogeneous)
def test_associativity_laws(fd, gd, hd):
    f, g, h = fd[1], gd[1], hd[1]
    left, right = (f * g) * h, f * (g * h)
    assert left == right
    assert (left - right).terms == {}
    assert_pruned(left, right, f * g + g * h)


@LAWS
@given(homogeneous, homogeneous, st.sampled_from(("x1", "x2", "y1", "y2", "y3", "p1", "p2")))
def test_leibniz_laws(fd, gd, name):
    (df, f), (_, g) = fd, gd
    sign = -1 if T.degree_of(name) & df & 1 else 1
    lhs = (f * g).left_partial(name)
    rhs = f.left_partial(name) * g + sign * (f * g.left_partial(name))
    assert lhs == rhs
    moved = transport(lhs, T_SHUFFLED)
    assert transport(moved, T) == lhs
    assert_pruned(lhs, rhs, f.left_partial(name), g.left_partial(name), moved)


def test_left_partial_examples():
    assert sp("y1*y2").left_partial("y2") == -gen("y1")
    assert sp("y1*y2").left_partial("y1") == gen("y2")
    assert sp("p1^2*x1").left_partial("p1") == sp("2*p1*x1")


def test_left_partial_odd_square_and_anticommute():
    rng = random.Random(31)
    for _ in range(20):
        f = rand_super_homogeneous(rng, T, rng.randint(0, 3))
        assert f.left_partial("y1").left_partial("y1").is_zero
        ab = f.left_partial("y1").left_partial("y2")
        ba = f.left_partial("y2").left_partial("y1")
        assert ab == -ba


def test_left_partial_leibniz():
    rng = random.Random(37)
    for _ in range(20):
        df = rng.randint(0, 3)
        f = rand_super_homogeneous(rng, T, df)
        g = rand_super_homogeneous(rng, T, rng.randint(0, 3))
        sign = -1 if df & 1 else 1
        lhs = (f * g).left_partial("y2")
        rhs = f.left_partial("y2") * g + sign * (f * g.left_partial("y2"))
        assert lhs == rhs


def test_apply_field_examples():
    X = SuperVectorField(T, {"x1": SuperPoly.from_scalar(T, 1)})
    assert X.apply(sp("x1*y1")) == gen("y1")
    Y = SuperVectorField(T, {"y2": gen("y1")})
    assert Y.apply(gen("y2")) == gen("y1")
    assert Y.apply(sp("y1*y2")).is_zero


def test_field_is_graded_derivation():
    rng = random.Random(41)
    for _ in range(25):
        X = rand_field(rng, T, rng.randint(-1, 2))
        if X.is_zero:
            continue
        df = rng.randint(0, 3)
        f = rand_super_homogeneous(rng, T, df)
        g = rand_super_homogeneous(rng, T, rng.randint(0, 3))
        sign = -1 if X.parity and (df & 1) else 1
        assert X.apply(f * g) == X.apply(f) * g + sign * (f * X.apply(g))


def test_apply_respects_grading():
    rng = random.Random(43)
    for _ in range(25):
        d = rng.randint(-1, 2)
        X = rand_field(rng, T, d)
        f = rand_super_homogeneous(rng, T, rng.randint(0, 3))
        out = X.apply(f)
        if not out.is_zero and not f.is_zero:
            assert out.degree() == d + f.degree()


def test_commutator_examples():
    one = SuperPoly.from_scalar(T, 1)
    X = SuperVectorField(T, {"x1": one})
    Y = SuperVectorField(T, {"x1": sp("x1")})
    assert commutator(X, Y) == X
    Z = SuperVectorField(T, {"y1": gen("y1")})
    assert commutator(Z, Z).is_zero


def test_commutator_is_bracket_of_operators():
    rng = random.Random(47)
    for _ in range(20):
        X = rand_field(rng, T, rng.randint(-1, 2))
        Y = rand_field(rng, T, rng.randint(-1, 2))
        f = rand_super_homogeneous(rng, T, rng.randint(0, 3))
        sign = -1 if X.parity and Y.parity else 1
        lhs = commutator(X, Y).apply(f)
        rhs = X.apply(Y.apply(f)) - sign * Y.apply(X.apply(f))
        assert lhs == rhs


def test_divergence_examples():
    X = SuperVectorField(T, {"x1": sp("x1")})
    assert divergence(X) == SuperPoly.from_scalar(T, 1)
    # odd field -y1*y2 d/dy2 has divergence +y1 under the left convention
    Y = SuperVectorField(T, {"y2": sp("-y1*y2")})
    assert divergence(Y) == gen("y1")


def test_divergence_even2_block_sign():
    # p-block behaves like the base block for both parities
    X = SuperVectorField(T, {"p1": sp("p1")})
    assert divergence(X) == SuperPoly.from_scalar(T, 1)
    Y = SuperVectorField(T, {"p1": sp("y1*p1")})
    assert divergence(Y) == gen("y1")


def test_divergence_of_commutator():
    rng = random.Random(53)
    checked = 0
    while checked < 40:
        X = rand_field(rng, T, rng.randint(-2, 2))
        Y = rand_field(rng, T, rng.randint(-2, 2))
        if X.is_zero or Y.is_zero:
            continue
        checked += 1
        sign = -1 if X.parity and Y.parity else 1
        lhs = divergence(commutator(X, Y))
        rhs = X.apply(divergence(Y)) - sign * Y.apply(divergence(X))
        assert lhs == rhs


def test_divergence_rejects_mixed_parity():
    with pytest.raises(ValueError):
        SuperVectorField(T, {"x1": gen("y1") + SuperPoly.from_scalar(T, 1)})


def test_gauge_divergence():
    X = SuperVectorField(T, {"x1": SuperPoly.from_scalar(T, 1)})
    assert gauge_divergence(X, ScalarField.one(CH)) == divergence(X)
    g = ScalarField.coord(CH, "x1")
    assert gauge_divergence(X, g) == SuperPoly.from_scalar(T, 1 / g)
    with pytest.raises(ZeroDivisionError):
        gauge_divergence(X, ScalarField.zero(CH))


def test_gauge_divergence_commutator_law():
    rng = random.Random(59)
    g = rand_poly_nonzero(rng, CH, deg=1)
    for _ in range(15):
        X = rand_field(rng, T, rng.randint(-1, 1))
        Y = rand_field(rng, T, rng.randint(-1, 1))
        sign = -1 if X.parity and Y.parity else 1
        lhs = gauge_divergence(commutator(X, Y), g)
        rhs = X.apply(gauge_divergence(Y, g)) - sign * Y.apply(gauge_divergence(X, g))
        assert lhs == rhs


def test_parity_and_degree_extraction():
    f = sp("y1*y2 + p1")
    assert f.degree() == 2 and f.parity() == 0
    with pytest.raises(ValueError):
        sp("y1 + p1").degree()
    with pytest.raises(ValueError):
        sp("y1 + 1").parity()
    assert SuperPoly.zero(T).degree() == -1
    assert sp("y1 + y1*y2*y3").parity() == 1
    assert sp("y1*y2 + p2").degree_part(2) == sp("y1*y2 + p2")
    assert sp("y1*y2 + x1").degree_part(0) == sp("x1")


def test_transport_sign():
    A = GeneratorTable(CH, odd=("a", "b"))
    B = GeneratorTable(CH, odd=("b", "a"))
    f = SuperPoly.generator(A, "a") * SuperPoly.generator(A, "b")
    g = transport(f, B)
    assert g == SuperPoly.generator(B, "a") * SuperPoly.generator(B, "b")
    assert next(iter(g.terms.values())) == ScalarField.const(CH, -1)


def test_transport_round_trip_and_errors():
    A = GeneratorTable(CH, odd=("a", "b"))
    wider = GeneratorTable(CH, odd=("c", "b", "a"), even2=("q",))
    f = SuperPoly.generator(A, "a") * SuperPoly.generator(A, "b")
    assert transport(transport(f, wider), A) == f
    # "a" is even in the target table
    with pytest.raises(ValueError, match="non-odd"):
        transport(f, GeneratorTable(CH, odd=("b",), even2=("a",)))


def test_parse_super_round_trip():
    rng = random.Random(61)
    for _ in range(30):
        f = SuperPoly.zero(T)
        for _ in range(4):
            f = f + rand_poly(rng, CH, deg=1) * rand_super_homogeneous(
                rng, T, rng.randint(0, 3), terms=1, scalar_deg=0
            )
        assert parse_super(str(f), T) == f


def test_parse_super_unknown_name():
    with pytest.raises(ParseError):
        sp("y1*q7")


def test_printing():
    assert str(sp("y2*y1")) == "-y1*y2"
    assert str(sp("(1 + x1)*y1 - p1^2")) == "-p1^2 + (x1 + 1)*y1"
    assert str(SuperPoly.zero(T)) == "0"


def test_table_validation():
    with pytest.raises(ValueError):
        GeneratorTable(CH, odd=("x1",))
    with pytest.raises(ValueError):
        GeneratorTable(CH, odd=("y", "y"))
