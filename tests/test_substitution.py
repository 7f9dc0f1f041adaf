"""The odd-substitution kernel, SuperPoly.subst_odd, against an oracle that
multiplies out every substituted term with its own Koszul signs.

pullback lands on the source's form table, of another rank when source and
target ranks differ (2 -> 3 and 3 -> 2 among them); sharp_substitution stays
on a split space, where xi and the momenta stay put. Coefficients are
polynomial or rational and may be drawn as zero."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.algebroid import AlgebroidMorphism, SkewAlgebroid, pullback
from algebroids.courant import split_space
from algebroids.dirac import Bivector, sharp_substitution
from algebroids.scalar import BaseChart, ScalarField
from algebroids.superalg import GeneratorTable, SuperPoly, parse_super

from oracles import substitution_oracle

CH = BaseChart(("x1", "x2"))
ONE = ScalarField.one(CH)
ORACLE = settings(max_examples=150, deadline=None, derandomize=True)
scalars = st.tuples(
    st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1)]),
        st.fractions(-3, 3, max_denominator=3),
        max_size=2,
    ),
    st.sampled_from([None, None, {(0, 0): 1, (1, 0): 1}]),
).map(lambda nd: ScalarField(CH, *nd))


def elements(table: GeneratorTable):
    """Values of mixed parity and degree: up to three odd factors and
    momentum exponents up to 1."""
    odd = st.lists(st.integers(0, len(table.odd) - 1), max_size=3, unique=True)
    even = st.tuples(*[st.integers(0, 1)] * len(table.even2))
    keys = st.tuples(odd.map(lambda o: tuple(sorted(o))), even)
    return st.dictionaries(keys, scalars, max_size=4).map(lambda t: SuperPoly(table, t))


def assert_pruned(value):
    assert all(not c.is_zero for c in value.terms.values()), value.terms


@ORACLE
@given(st.data())
def test_pullback_matches_the_oracle(data):
    m, n = data.draw(st.sampled_from([(2, 3), (3, 2), (1, 3), (2, 2), (3, 3)]))
    source, target = SkewAlgebroid(CH, m), SkewAlgebroid(CH, n)
    cells = {(i, j): scalars for i in range(1, m + 1) for j in range(1, n + 1)}
    matrix = data.draw(st.fixed_dictionaries(cells))
    omega = data.draw(elements(target.table()))
    # y^j goes to sum_i Phi_i^j y^i
    images = [{((i - 1,), ()): f for (i, jj), f in matrix.items() if jj == j} for j in range(1, n + 1)]
    got = pullback(AlgebroidMorphism(source, target, matrix), omega)
    assert got == substitution_oracle(omega, images, source.table())
    assert_pruned(got)


@ORACLE
@given(st.data())
def test_sharp_substitution_matches_the_oracle(data):
    n = data.draw(st.sampled_from([2, 3]))
    space = split_space(CH, n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    entries = data.draw(st.dictionaries(st.sampled_from(pairs), scalars))
    F = data.draw(elements(space.table))
    zeros = (0,) * len(space.table.even2)
    # y^i goes to sum_j P^{ij} xi_j, with P^{ji} = -P^{ij}; xi_j stays put
    images = [{} for _ in range(n)] + [{((n + j,), zeros): ONE} for j in range(n)]
    for (i, j), f in entries.items():
        images[i - 1][((n + j - 1,), zeros)] = f
        images[j - 1][((n + i - 1,), zeros)] = -f
    got = sharp_substitution(Bivector(space, entries), F)
    assert got == substitution_oracle(F, images, space.table)
    assert_pruned(got)


def test_subst_odd_onto_another_table():
    wide = GeneratorTable(CH, odd=("a", "b", "c"))
    narrow = GeneratorTable(CH, odd=("u", "v"))
    f = parse_super("x1*a*c + b + 2", wide)
    images = {"a": parse_super("u + v", narrow), "b": parse_super("x2*v", narrow)}
    images["c"] = parse_super("u", narrow)
    assert f.subst_odd(images, narrow) == parse_super("x1*v*u + x2*v + 2", narrow)
    # an odd generator present with no image, and images on the wrong table
    del images["c"]
    with pytest.raises(ValueError, match="needs an image"):
        f.subst_odd(images, narrow)
    with pytest.raises(ValueError, match="image table"):
        f.subst_odd(images)
    with pytest.raises(ValueError, match="even generators"):
        f.subst_odd({}, GeneratorTable(CH, odd=("a", "b", "c"), even2=("p",)))
