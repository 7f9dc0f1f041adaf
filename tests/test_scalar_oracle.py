"""ScalarField arithmetic against sympy, which shares no code with it.

The expected values are elements of sympy's rational function field, which
sympy keeps in lowest terms with its own ``cancel`` and gcd.

Operands are drawn so that every gcd the kernel skips or shortens is met:
constant denominators, single-term denominators, equal denominators,
denominators that share a linear factor, sums in which that shared factor
cancels, and unrelated denominators. Every numerator and denominator is
also scaled by a drawn rational such as 3/7, so the rational content that
the kernel keeps beside its integer polynomials is not just an integer. The
gcd kernel, which works on integer polynomials, is checked on its own
against sympy's ``cofactors``, on bigger polynomials, and with the heuristic
switched off so that its PRS fallback answers. The factor base each value
keeps of its denominator is checked against sympy's factorization after
every operation on denominators built from shared linear factors.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from time import perf_counter

import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from algebroids import scalar
from algebroids.scalar import BaseChart, ScalarField, _pgcd

CHARTS = (BaseChart(("x1", "x2")), BaseChart(("x1", "x2", "x3")))
FIELDS = {m: sympy.field([f"x{i}" for i in range(1, m + 1)], sympy.QQ) for m in (2, 3, 4)}
DEN_KINDS = ("constant", "monomial", "equal", "shared", "cancelling", "general")

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero_coefficients = coefficients.filter(bool)
contents = st.builds(Fraction, st.sampled_from((3, -1, 1, -5, 12)), st.sampled_from((7, 1, 2, 9)))


def exponents(m):
    return st.tuples(*[st.integers(0, 1)] * m)


def polynomials(m, max_terms=3, nonzero=False):
    return st.dictionaries(exponents(m), nonzero_coefficients, min_size=int(nonzero), max_size=max_terms)


def pmul(a, b):
    r = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            r[m] = r.get(m, 0) + ca * cb
    return {m: c for m, c in r.items() if c}


def scale(k, p):
    return {m: k * c for m, c in p.items()}


def integer(p):
    """p times the lcm of its coefficient denominators."""
    den = lcm(*(c.denominator for c in p.values()))
    return {m: int(c * den) for m, c in p.items()}


def psub(a, b):
    r = dict(a)
    for m, c in b.items():
        r[m] = r.get(m, 0) - c
    return {m: c for m, c in r.items() if c}


@st.composite
def operand_pairs(draw):
    """(chart, (num, den), (num, den), kind); dens related as kind says."""
    chart = draw(st.sampled_from(CHARTS))
    m = chart.m
    zero = (0,) * m
    kind = draw(st.sampled_from(DEN_KINDS))
    axis = draw(st.integers(0, m - 1))
    linear = {tuple(int(i == axis) for i in range(m)): Fraction(1), zero: draw(nonzero_coefficients)}
    n1, n2 = draw(polynomials(m)), draw(polynomials(m))
    if kind == "constant":
        d1, d2 = ({zero: draw(nonzero_coefficients)} for _ in range(2))
    elif kind == "monomial":
        d1, d2 = ({draw(exponents(m)): draw(nonzero_coefficients)} for _ in range(2))
    elif kind == "equal":
        d1 = draw(polynomials(m, nonzero=True))
        d2 = dict(d1)
    elif kind == "shared":
        d1 = pmul(linear, draw(polynomials(m, 2, nonzero=True)))
        d2 = pmul(linear, draw(polynomials(m, 2, nonzero=True)))
    elif kind == "cancelling":
        # the numerator of the sum is linear * s, so the shared factor cancels
        p, q = draw(polynomials(m, 2, nonzero=True)), draw(polynomials(m, 2, nonzero=True))
        n1, s = draw(polynomials(m, nonzero=True)), draw(polynomials(m, 2, nonzero=True))
        if draw(st.booleans()):
            d1 = d2 = pmul(linear, p)
            n2 = psub(pmul(linear, s), n1)
        else:
            d1, d2 = pmul(linear, p), pmul(linear, q)
            n1, n2 = pmul(p, n1), psub(pmul(linear, s), pmul(q, n1))
    else:
        d1, d2 = (draw(polynomials(m, nonzero=True)) for _ in range(2))
    n1, d1, n2, d2 = (scale(draw(contents), p) for p in (n1, d1, n2, d2))
    return chart, (n1, d1), (n2, d2), kind


def to_ring(chart, p):
    ring = FIELDS[chart.m][0].ring
    return ring.from_dict({m: sympy.QQ(c.numerator, c.denominator) for m, c in p.items()})


def to_field(chart, num, den):
    return FIELDS[chart.m][0].new(to_ring(chart, num), to_ring(chart, den))


def lead(p):
    return p[max(p, key=lambda m: (sum(m), m))]


def assert_primitive(p):
    """p has int coefficients without a common factor and a positive
    leading coefficient."""
    assert all(type(c) is int for c in p.values())
    assert gcd(*p.values()) == 1 and lead(p) > 0


def assert_agrees(f, expected):
    """f equals sympy's expected value and is in canonical form itself."""
    num, den = to_ring(f.chart, f.num), to_ring(f.chart, f.den)
    assert num * expected.denom == den * expected.numer
    assert num.gcd(den).is_ground
    assert lead(f.den) == 1
    if not f.is_zero:
        assert_primitive(f._n)
    assert_primitive(f._d)
    assert _pgcd(f._n, f._d)[0] == {(0,) * f.chart.m: 1}
    assert ScalarField(f.chart, dict(f.num), dict(f.den)) == f


ORACLE = settings(
    max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


@ORACLE
@given(operand_pairs(), st.integers(-2, 3), st.integers(0, 2))
def test_arithmetic_matches_sympy(pair, k, axis):
    chart, (n1, d1), (n2, d2), _kind = pair
    f, g = ScalarField(chart, n1, d1), ScalarField(chart, n2, d2)
    F, G = to_field(chart, n1, d1), to_field(chart, n2, d2)
    assert_agrees(f, F)
    assert_agrees(f + g, F + G)
    assert_agrees(f - g, F - G)
    assert_agrees(g - f, G - F)
    assert_agrees(f * g, F * G)
    if not g.is_zero:
        assert_agrees(f / g, F / G)
    if k > 0 or not f.is_zero:
        assert_agrees(f**k, F**k)
    v = axis % chart.m
    assert_agrees(f.partial(v + 1), F.diff(FIELDS[chart.m][v + 1]))


def assert_triple(chart, a, b, triple):
    """(g, ca, cb) is sympy's gcd of the integer polynomials a and b, made
    primitive with a positive leading coefficient, with a = g*ca, b = g*cb."""
    g, ca, cb = triple
    assert_primitive(g)
    assert all(type(c) is int for p in (ca, cb) for c in p.values())
    assert pmul(g, ca) == a and pmul(g, cb) == b
    expected, _, _ = to_ring(chart, a).cofactors(to_ring(chart, b))
    assert to_ring(chart, g).monic() == expected.monic()


@ORACLE
@given(operand_pairs())
def test_gcd_matches_sympy(pair):
    chart, (_, a), (_, b), _kind = pair
    a, b = integer(a), integer(b)
    assert_triple(chart, a, b, _pgcd(a, b))


big_coefficients = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)).filter(bool)


@st.composite
def factored_pairs(draw):
    """(chart, a, b) = (chart, p*q, p*r) over two to four coordinates, with
    exponents up to 3 and coefficients up to about 10**6; p may be 1."""
    m = draw(st.integers(2, 4))
    chart = BaseChart(tuple(f"x{i}" for i in range(1, m + 1)))

    def poly(max_terms):
        monos = st.tuples(*[st.integers(0, 3)] * m)
        return draw(st.dictionaries(monos, big_coefficients, min_size=1, max_size=max_terms))

    p = poly(3) if draw(st.booleans()) else {(0,) * m: Fraction(1)}
    return chart, integer(pmul(p, poly(4))), integer(pmul(p, poly(4)))


@ORACLE
@given(factored_pairs())
def test_gcd_cofactors_match_sympy(pair):
    chart, a, b = pair
    assert_triple(chart, a, b, _pgcd(a, b))


def test_prs_fallback_gives_the_same_triple(monkeypatch):
    """With no evaluation points the heuristic gives up at once, and the PRS
    fallback must give the same gcd and cofactors."""
    rng = random.Random(5)

    def poly(m):
        terms = (tuple(rng.randint(0, 2) for _ in range(m)) for _ in range(rng.randint(1, 3)))
        return {mono: Fraction(rng.randint(1, 4), rng.randint(1, 3)) for mono in terms}

    cases = [(chart, poly(chart.m), poly(chart.m), poly(chart.m)) for chart in CHARTS for _ in range(20)]
    cases = [(chart, integer(pmul(p, q)), integer(pmul(p, r))) for chart, p, q, r in cases]
    expected = [_pgcd(a, b) for _, a, b in cases]
    calls = []
    prs = scalar._prs
    monkeypatch.setattr(scalar, "_HEU_POINTS", 0)
    monkeypatch.setattr(scalar, "_prs", lambda *args: calls.append(args) or prs(*args))
    for (chart, a, b), triple in zip(cases, expected):
        assert _pgcd(a, b) == triple
        assert_triple(chart, a, b, triple)
    assert calls


def test_sparse_high_degree_goes_to_the_prs(monkeypatch):
    """Images of (x1*x2*x3*x4)^d + x1 + 1 would grow to about 5*d^4 bits as
    the variables are set in turn; the heuristic sees that from the degrees
    before it evaluates anything and gives up, and the PRS answers at once."""
    calls = []
    prs = scalar._prs
    monkeypatch.setattr(scalar, "_prs", lambda *args: calls.append(args) or prs(*args))
    chart = BaseChart(("x1", "x2", "x3", "x4"))
    for d in (15, 20, 40):
        a = {(d,) * 4: 1, (1, 0, 0, 0): 1, (0,) * 4: 1}
        b = {(d,) * 4: 1, (0, 1, 0, 0): 1, (0,) * 4: 2}
        p = {(0, 0, 1, d): 1, (0,) * 4: 3}
        for x, y in ((a, b), (pmul(p, a), pmul(p, b))):
            calls.clear()
            start = perf_counter()
            triple = _pgcd(x, y)
            # the PRS takes milliseconds; the heuristic took 0.3 to 0.5 s
            assert perf_counter() - start < 0.1
            assert_triple(chart, x, y, triple)
            assert calls


def test_large_against_small_stays_with_the_heuristic(monkeypatch):
    """Quotients of random 14-term degree-6 polynomials in four coordinates:
    partial(1) of (f + g)*f - g takes gcds of about 10 000 terms of degree
    29 against 14 terms of degree 6. Each evaluation point follows the small
    operand, so the images stay small and the heuristic answers; the PRS
    used to get these pairs and gave no answer within 20 s."""

    def no_prs(*args):
        raise AssertionError(f"PRS reached on {len(args[0])} against {len(args[1])} terms")

    monkeypatch.setattr(scalar, "_prs", no_prs)
    chart = BaseChart(("x1", "x2", "x3", "x4"))
    rng = random.Random(1)

    def poly():
        terms = {}
        while len(terms) < 14:
            e = [0] * 4
            for _ in range(rng.randint(0, 6)):
                e[rng.randrange(4)] += 1
            terms[tuple(e)] = rng.choice((-1, 1)) * rng.randint(100, 999)
        return terms

    f = ScalarField(chart, poly(), poly())
    g = ScalarField(chart, poly(), poly())
    start = perf_counter()
    r = ((f + g) * f - g).partial(1)
    # about half a second; the limit leaves room for slow machines
    assert perf_counter() - start < 10
    assert len(r.num) > 10_000

    point = (Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(5, 7))

    def at(s):
        def value(p):
            total = Fraction(0)
            for m, c in p.items():
                for x, e in zip(point, m):
                    c *= x**e
                total += c
            return total

        return value(s.num) / value(s.den)

    # the product rule at a point, from the small operands' own derivatives
    f1, g1 = at(f.partial(1)), at(g.partial(1))
    assert at(r) == (f1 + g1) * at(f) + (at(f) + at(g)) * f1 - g1


# Denominators over a factor base: powers of three linear forms, each
# certified irreducible by a coordinate it holds in one term of the form
# c*x_v, and factors that no coordinate certifies, given expanded. Two of
# those share a linear factor with the pool, so they must split the base.
CH3 = BaseChart(("x1", "x2", "x3"))
LINEAR = (
    {(1, 0, 0): 1, (0, 0, 0): 5},
    {(0, 1, 0): 1, (0, 0, 0): 6},
    {(1, 0, 0): 1, (0, 0, 0): -1},
    {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): 2},
    {(0, 0, 1): 3, (1, 0, 0): 2, (0, 0, 0): -1},
)
UNCERTIFIED = (
    {(2, 0, 0): 1, (0, 0, 0): -1},
    pmul(LINEAR[0], LINEAR[1]),
    {(0, 2, 0): 2, (0, 0, 0): -3},
)
SHARING = ("equal", "overlapping", "disjoint", "cancelling")
ONE3 = {(0, 0, 0): 1}


def power_product(forms, exponents):
    out = ONE3
    for form, e in zip(forms, exponents):
        for _ in range(e):
            out = pmul(out, form)
    return out


@st.composite
def factored_operands(draw):
    """(forms, (num, (exponents, extra)), (num, (exponents, extra)),
    built): each denominator the product of the three drawn forms to the
    exponents, related to the other's as drawn, times an optional
    uncertified factor, extra; built says for each operand whether the
    library sees the denominator expanded, or builds the value by dividing
    by one factor at a time."""
    forms = draw(st.permutations(LINEAR))[:3]
    sharing = draw(st.sampled_from(SHARING))
    # squares of the first form only, to keep sympy's side small
    exponents = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1))
    e1 = draw(exponents)
    if sharing == "equal":
        e2 = e1
    elif sharing == "disjoint":
        e2 = tuple(0 if e else 1 for e in e1)
    else:
        e2 = draw(exponents)
    if sharing in ("overlapping", "cancelling"):
        # both hold the first form
        e1, e2 = (max(e1[0], 1), *e1[1:]), (max(e2[0], 1), *e2[1:])
    extra1, extra2 = (draw(st.sampled_from((None, *UNCERTIFIED))) for _ in range(2))
    n1, n2 = draw(polynomials(3, nonzero=True)), draw(polynomials(3))
    if sharing == "cancelling":
        # with denominators L*p*X and L*q*X for the first form L and one
        # extra factor X, the sum is s/(q*X): L cancels
        extra2 = extra1
        p = power_product(forms, (e1[0] - 1, *e1[1:]))
        q = power_product(forms, (e2[0] - 1, *e2[1:]))
        s = draw(polynomials(3, 2, nonzero=True))
        n1, n2 = pmul(p, n1), psub(pmul(forms[0], s), pmul(q, n1))
    n1, n2 = (scale(draw(contents), p) for p in (n1, n2))
    built = draw(st.tuples(st.booleans(), st.booleans()))
    return forms, (n1, (e1, extra1)), (n2, (e2, extra2)), built


def build(forms, num, den, factored):
    """ScalarField and sympy value of num over the product of the forms to
    the powers and the extra factor in den."""
    exponents, extra = den
    expanded = power_product(forms, exponents)
    if extra is not None:
        expanded = pmul(expanded, extra)
    expected = to_field(CH3, num, expanded)
    if not factored:
        return ScalarField(CH3, num, expanded), expected
    value = ScalarField(CH3, num)
    for form, e in zip(forms, exponents):
        value = value * ScalarField(CH3, ONE3, form) ** e
    if extra is not None:
        value = value / ScalarField(CH3, extra)
    return value, expected


def assert_base(f):
    """The factor base of f's denominator: factors with multiplicities that
    multiply out to it, the certified ones irreducible and pairwise
    distinct, the rest coprime to each of them and certified by none."""
    ring = FIELDS[3][0].ring
    fs, rest = f._f, f._u
    product = ONE3 if rest is None else rest
    for p, e in fs:
        assert e >= 1
        for _ in range(e):
            product = pmul(product, p)
    assert product == f._d
    for p, _ in fs:
        assert_primitive(p)
        _, irreducible = to_ring(CH3, p).factor_list()
        assert [m for _, m in irreducible] == [1]
    assert len({frozenset(p.items()) for p, _ in fs}) == len(fs)
    if rest is not None:
        assert_primitive(rest)
        assert not scalar._is_const(rest) and not scalar._certified(rest)
        assert all(to_ring(CH3, rest).gcd(to_ring(CH3, p)) == ring.one for p, _ in fs)


def check(f, expected):
    assert_agrees(f, expected)
    assert_base(f)


# each example checks a dozen values against sympy, so fewer examples
@settings(ORACLE, max_examples=100)
@given(factored_operands(), st.lists(st.sampled_from("+-*/d^"), min_size=1, max_size=2), st.integers(0, 2))
def test_factor_bases_match_sympy(operands, chain, axis):
    forms, (n1, den1), (n2, den2), (built1, built2) = operands
    f, F = build(forms, n1, den1, built1)
    g, G = build(forms, n2, den2, built2)
    for value, expected in ((f, F), (g, G), (f + g, F + G), (f - g, F - G), (f * g, F * G)):
        check(value, expected)
        check(value.partial(axis + 1), expected.diff(FIELDS[3][axis + 1]))
    if not g.is_zero:
        check(f / g, F / G)
    # a short chain, with g and f taking turns as the other operand
    value, expected = f + g, F + G
    for i, op in enumerate(chain):
        other, other_expected = (g, G) if i % 2 == 0 else (f, F)
        if op == "+":
            value, expected = value + other, expected + other_expected
        elif op == "-":
            value, expected = value - other, expected - other_expected
        elif op == "*":
            value, expected = value * other, expected * other_expected
        elif op == "/" and not other.is_zero:
            value, expected = value / other, expected / other_expected
        elif op == "d":
            v = (axis + i) % 3
            value, expected = value.partial(v + 1), expected.diff(FIELDS[3][v + 1])
        elif op == "^":
            value, expected = value**2, expected**2
        check(value, expected)


# Sums of products, reduced once by scalar.sum_products. The pool's
# denominators are powers of three certified shifts, constants, and rests
# that no coordinate certifies: 3*x2^2 - 2, and two products of it with
# other factors, which share it. A numerator may hold a shift or the rest,
# so factors cancel across products as well as within them.
SHIFTS = (LINEAR[0], LINEAR[1], LINEAR[3])
REST = {(0, 2, 0): 3, (0, 0, 0): -2}
RESTS = (REST, pmul(REST, {(0, 0, 2): 1, (0, 0, 0): 1}), pmul(REST, {(2, 0, 0): 1, (0, 0, 0): 2}))
weights = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.sampled_from((1, 2, 3)))


@st.composite
def product_sums(draw):
    """(products, expected): one to eight products (w, f[, g[, h]]) of
    values drawn from a pool, and their sum in sympy's field. Half the sums
    then cancel to zero, as the products are followed by their negations;
    some end in two values over one rest whose numerators add up to a
    multiple of it, so that the rest cancels from the sum."""
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        num = draw(polynomials(3, nonzero=True))
        if draw(st.booleans()):
            num = pmul(num, draw(st.sampled_from((*SHIFTS, REST))))
        exponents = draw(st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)))
        extra = draw(st.sampled_from((None, None, *RESTS)))
        pool.append(build(SHIFTS, scale(draw(contents), num), (exponents, extra), draw(st.booleans())))
    pick = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3)
    products = [(draw(weights), *draw(pick)) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        products += [(-w, *reversed(picks)) for w, *picks in reversed(products)]
    elif draw(st.booleans()):
        # n1/(R*X) + n2/(R*X) with n2 = R*s - n1 is s/X
        exponents = draw(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)))
        n1, s = draw(polynomials(3, nonzero=True)), draw(polynomials(3, 2, nonzero=True))
        for num in (n1, psub(pmul(REST, s), n1)):
            pool.append(build(SHIFTS, num, (exponents, REST), draw(st.booleans())))
            products.append((1, len(pool) - 1))
    expected = FIELDS[3][0].zero
    for w, *picks in products:
        term = FIELDS[3][0](sympy.QQ(w.numerator, w.denominator))
        for i in picks:
            term *= pool[i][1]
        expected += term
    return [(w, *(pool[i][0] for i in picks)) for w, *picks in products], expected


@settings(ORACLE, max_examples=80)
@given(product_sums())
def test_sums_of_products_match_the_fold_and_sympy(drawn):
    products, expected = drawn
    total = scalar.sum_products(CH3, products)
    check(total, expected)
    fold = ScalarField.zero(CH3)
    for w, *factors in products:
        term = ScalarField.const(CH3, w)
        for f in factors:
            term = term * f
        fold = fold + term
    assert total == fold
    assert all(scalar._certified(p) for p, _ in total._f)
    assert scalar._expand((0, 0, 0), total._f, total._u) == total._d
