"""Seeded random generators shared by the test modules."""

from fractions import Fraction

from algebroids.algebroid import SkewAlgebroid, conjugate_frame
from algebroids.scalar import BaseChart, ScalarField
from algebroids.superalg import GeneratorTable, SuperPoly, SuperVectorField


def rand_fraction(rng, lo=-4, hi=4):
    q = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
    return q


def rand_poly(rng, chart: BaseChart, deg=2, terms=3) -> ScalarField:
    """Random polynomial scalar, possibly zero."""
    f = ScalarField.zero(chart)
    for _ in range(terms):
        mono = ScalarField.const(chart, rand_fraction(rng))
        for _ in range(rng.randint(0, deg)):
            mono = mono * ScalarField.coord(chart, rng.choice(chart.names))
        f = f + mono
    return f


def rand_poly_nonzero(rng, chart: BaseChart, deg=2, terms=3) -> ScalarField:
    while True:
        f = rand_poly(rng, chart, deg, terms)
        if not f.is_zero:
            return f


def rand_scalar(rng, chart: BaseChart, deg=2) -> ScalarField:
    """Random rational function with a small denominator."""
    return rand_poly(rng, chart, deg) / rand_poly_nonzero(rng, chart, deg=1, terms=2)


def dense_rational_skew(rng, chart: BaseChart, n: int) -> SkewAlgebroid:
    """Every c_ij^k (i < j) and rho_i^a nonzero, each (a + b*x_v)/(d + x_w)
    with nonzero a, b, d in -3..3 and 5..7 and w != v, so that sums need
    gcds in several coordinates."""
    return _rational_skew(rng, chart, n, 1)


def sparse_rational_skew(rng, chart: BaseChart, n: int, every: int = 3) -> SkewAlgebroid:
    """Every ``every``-th c_ij^k (i < j) and rho_i^a nonzero, in the same
    order and of the same form as in dense_rational_skew: the shape of the
    benchmark's srat_r3 and srat_r4 jobs."""
    return _rational_skew(rng, chart, n, every)


def _rational_skew(rng, chart: BaseChart, n: int, every: int) -> SkewAlgebroid:
    m = chart.m
    x = [ScalarField.coord(chart, name) for name in chart.names]
    slot = 0

    def entry(v):
        w = (v + 1 + slot % (m - 1)) % m
        a, b = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
        return (a + b * x[v]) / (5 + slot % 3 + x[w])

    c, rho = {}, {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                slot += 1
                if slot % every == 0:
                    c[(i, j, k)] = entry((i + j + k) % m)
    for i in range(1, n + 1):
        for a in range(1, m + 1):
            slot += 1
            if slot % every == 0:
                rho[(i, a)] = entry((i + a) % m)
    return SkewAlgebroid(chart, n, c, rho)


def _rand_monomial(rng, table: GeneratorTable, degree: int) -> SuperPoly:
    """One random generator monomial of the exact total degree, or zero."""
    n_odd, n_even = len(table.odd), len(table.even2)
    options = [
        k
        for k in range(min(n_odd, degree) + 1)
        if (degree - k) % 2 == 0 and ((degree - k) == 0 or n_even > 0)
    ]
    if not options:
        return SuperPoly.zero(table)
    k = rng.choice(options)
    mono = SuperPoly.from_scalar(table, 1)
    for i in sorted(rng.sample(range(n_odd), k)):
        mono = mono * SuperPoly.generator(table, table.odd[i])
    for _ in range((degree - k) // 2):
        mono = mono * SuperPoly.generator(table, rng.choice(table.even2))
    return mono


def rand_super_homogeneous(rng, table: GeneratorTable, degree: int, terms=3, scalar_deg=1) -> SuperPoly:
    """Random homogeneous SuperPoly of the given total degree (may be zero)."""
    if degree < 0:
        return SuperPoly.zero(table)
    out = SuperPoly.zero(table)
    for _ in range(terms):
        c = rand_poly(rng, table.chart, deg=scalar_deg, terms=2)
        out = out + c * _rand_monomial(rng, table, degree)
    return out


def rand_field(rng, table: GeneratorTable, degree: int, density=0.6) -> SuperVectorField:
    """Random homogeneous vector field of the given integer degree."""
    comps = {}
    for name in (*table.chart.names, *table.odd, *table.even2):
        if rng.random() < density:
            d = degree + table.degree_of(name)
            comps[name] = rand_super_homogeneous(rng, table, d, terms=2)
    return SuperVectorField(table, comps)


def rand_skew(rng, chart: BaseChart, rank=None) -> SkewAlgebroid:
    """Random skew algebroid with sparse polynomial data (rarely Lie)."""
    n = rank or rng.randint(2, 4)
    c = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if rng.random() < 0.3:
                    c[(i, j, k)] = rand_poly(rng, chart, deg=1, terms=2)
    rho = {}
    for i in range(1, n + 1):
        for a in range(1, chart.m + 1):
            if rng.random() < 0.3:
                rho[(i, a)] = rand_poly(rng, chart, deg=1, terms=2)
    return SkewAlgebroid(chart, n, c, rho)


def _lie_catalog(rng, chart: BaseChart) -> SkewAlgebroid:
    m = chart.m
    kind = rng.randrange(6)
    if kind == 0:
        # compact form: [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
        return SkewAlgebroid(chart, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})
    if kind == 1:
        return SkewAlgebroid(chart, 2, {(1, 2, 2): 1})
    if kind == 2:
        return SkewAlgebroid(chart, 3, {(1, 2, 3): 1})
    if kind == 3:
        # solvable: [e1,e2] and [e1,e3] land in span(e2,e3); always Lie
        consts = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        data = {(1, 2, 2): consts[0], (1, 2, 3): consts[1], (1, 3, 2): consts[2], (1, 3, 3): consts[3]}
        return SkewAlgebroid(chart, 3, data)
    if kind == 4:
        return SkewAlgebroid(chart, m, {}, {(i, i): 1 for i in range(1, m + 1)})
    rho = {}
    n = rng.choice([2, 3])
    for i in range(1, n + 1):
        a = rng.randint(1, m)
        rho[(i, a)] = Fraction(rng.randint(-2, 2))
    return SkewAlgebroid(chart, n, {}, rho)


def rand_lie(rng, chart: BaseChart) -> SkewAlgebroid:
    """Random Lie algebroid: a catalog model in a random polynomial frame."""
    A = _lie_catalog(rng, chart)
    n = A.rank
    G = [
        [
            ScalarField.one(chart)
            if i == j
            else (rand_poly(rng, chart, deg=1, terms=2) if i < j else ScalarField.zero(chart))
            for j in range(n)
        ]
        for i in range(n)
    ]
    B = conjugate_frame(A, G)
    assert B.is_lie()
    return B


def rand_closed_threeform(rng, A: SkewAlgebroid) -> SuperPoly:
    """A closed 3-form on a Lie algebroid: the differential of a 2-form."""
    beta = rand_super_homogeneous(rng, A.table(), 2, terms=3, scalar_deg=1)
    return A.de_rham_field().apply(beta)


def rand_lie_algebra(rng, chart: BaseChart) -> SkewAlgebroid:
    """Constant structure constants, honestly Lie: a catalog algebra in a
    random constant unimodular-triangular frame, anchor dropped."""
    base = _lie_catalog(rng, chart)
    base = SkewAlgebroid(chart, base.rank, base.c)
    n = base.rank
    G = [
        [
            Fraction(1)
            if i == j
            else (Fraction(rng.randint(-2, 2)) if i < j else Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    B = conjugate_frame(base, G)
    assert B.is_lie()
    return B


def rand_bivector(rng, space, deg=1, density=0.6):
    """Random polynomial bivector on a split space."""
    from algebroids.dirac import Bivector

    n = space.split_rank
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < density:
                entries[(i, j)] = rand_poly(rng, space.chart, deg=deg, terms=2)
    return Bivector(space, entries)


def quasi_poisson_instances(rng):
    """Catalog of compatible (algebroid, bivector, Hamiltonian) triples.

    Mixes trivial, polynomial, and rational-coefficient instances; every
    returned Hamiltonian squares to zero and passes the compatibility check.
    """
    from algebroids.courant import Hamiltonian, algebroid_hamiltonian, hamiltonian_square, split_space
    from algebroids.dirac import Bivector, solve_twist

    out = []

    def add(A, entries):
        space = split_space(A.chart, A.rank)
        P = Bivector(space, entries)
        phi = solve_twist(P, A)
        assert phi is not None
        H = Hamiltonian(space, algebroid_hamiltonian(A, space).value + phi)
        assert hamiltonian_square(H).is_zero
        out.append((A, P, H))

    ch1 = BaseChart(("x1",))
    ch2 = BaseChart(("x1", "x2"))
    ch3 = BaseChart(("x1", "x2", "x3"))
    ch4 = BaseChart(("x1", "x2", "x3", "x4"))

    def tangent(chart):
        return SkewAlgebroid(chart, chart.m, {}, {(a, a): 1 for a in range(1, chart.m + 1)})


    # rank-2: the cubic obstruction lives in a zero module, any bivector works
    tm2 = tangent(ch2)
    add(tm2, {(1, 2): ScalarField.coord(ch2, "x1")})
    add(tm2, {(1, 2): 1})
    add(tm2, {(1, 2): rand_poly(rng, ch2, deg=2, terms=2)})
    aff1 = SkewAlgebroid(ch1, 2, {(1, 2, 2): 1}, {})
    add(aff1, {(1, 2): ScalarField.one(ch1) + ScalarField.coord(ch1, "x1")})
    two = None
    for _ in range(40):
        cand = rand_lie(rng, ch2)
        if cand.rank == 2:
            two = cand
            break
    if two is not None:
        add(two, {(1, 2): rand_poly(rng, ch2, deg=1, terms=2)})

    # rank-3: anchor-free Heisenberg keeps any xi1^xi3 bivector compatible
    heis = SkewAlgebroid(ch2, 3, {(1, 2, 3): 1}, {})
    add(heis, {(1, 3): ScalarField.coord(ch2, "x1")})
    add(tangent(ch3), {(1, 2): ScalarField.coord(ch3, "x3")})

    # rank-4 rational family: twist solved over the function field
    tm4 = tangent(ch4)
    one4 = ScalarField.one(ch4)
    add(tm4, {(1, 2): 1, (3, 4): one4 + ScalarField.coord(ch4, "x1")})
    add(tm4, {(1, 2): 1, (3, 4): 2 + ScalarField.coord(ch4, "x2")})
    x2 = ScalarField.coord(ch4, "x2")
    add(tm4, {(1, 2): 1, (3, 4): one4 + x2 * x2})

    so3 = SkewAlgebroid(ch1, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}, {})
    add(so3, {})
    return out
