"""Output checks made apart from the library.

``properties`` are cheap and run on every job of every pass. ``oracle``
recomputes expected values with sympy from the job's plain input data --
never from library objects -- and compares the library's printed results
with ``cancel``; it runs once per job, on the first pass, after timing has
ended. ``cross_checks`` relate jobs of one pass (frame against bivector,
``is_lie`` against ``{H,H}`` through the CLI). Each returns a list of
problems; an empty list means the output is right.

sympy is imported lazily, so it never adds to set-up time or memory of the
timed passes, and it is used by this benchmark only.
"""

from __future__ import annotations

from itertools import combinations


# cheap properties, every pass


def properties(job, s: dict) -> list:
    kind = job.spec["kind"]
    bad = []
    if kind in ("skew", "conjugated"):
        if s["square_zero"] != s["lie"]:
            bad.append(f"is_lie says {s['lie']} but {{H,H}} = 0 is {s['square_zero']}")
        if s["modular"] != s["characteristic"]:
            bad.append("modular_cocycle and characteristic_form disagree")
        if kind == "conjugated" and not s["lie"]:
            bad.append("Lie-by-construction input is reported not Lie")
    elif kind == "twisted":
        if s["phi"] == "None":
            bad.append("solve_twist found no twist")
        for key, label in (("square_zero", "COURANT"), ("quasi", "QUASI-POISSON"), ("cor53", "COR53")):
            if not s[key]:
                bad.append(f"{label} fails on a solved twist")
    elif "golden" in job.spec:
        want = job.spec["golden"]
        for key in ("code", "stdout", "stderr"):
            if s[key] != want[key]:
                bad.append(f"{key} {s[key]!r} != golden {want[key]!r}")
    elif "hostile" in job.spec:
        if s["code"] != 2 or s["stdout"] or not s["stderr"].startswith("ERROR: "):
            bad.append(f"hostile input gave exit {s['code']}, stdout {s['stdout']!r}")
    else:
        bad += _generated_properties(job.spec["generated"], s)
    return bad


def _generated_properties(gen: dict, s: dict) -> list:
    r, label = gen["rank"], gen["label"]
    out, code = s["stdout"], s["code"]
    exact = {
        "morphism-check": "MORPHISM: OK\n",
        "courant-check-twisted": "COURANT: OK\n",
        "projectable": "PROJECTABLE: YES\n",
        "quasi-poisson": "QUASI-POISSON: YES\n",
        "verify-cor53": "COR53: OK\n",
        "project": f"PROJECTED ALGEBROID: rank {r}\n"
        + "".join(f"rho {a} {a} = 1\n" for a in range(1, r + 1))
        + "HOMOLOGICAL: YES\n",
    }
    prefix = {
        "check-jacobi": "JACOBI: ",
        "modular": "MODULAR COCYCLE: ",
        "courant-check": "COURANT: ",
        "modular-gauge": "MODULAR COCYCLE: ",
        "exact": "EXACT: YES, f = ",
        "morphism-mod": "MORPHISM MODULAR CLASS: ",
        "dirac-check": f"DIRAC: OK, rank {r}\n",
        "relative-modular-frame": "RELATIVE MODULAR CLASS: ",
        "relative-modular": "RELATIVE MODULAR CLASS: ",
        "twisted-bracket": "TWISTED BRACKET: ",
        "dorfman": "DORFMAN: ",
    }
    bad = []
    if s["stderr"]:
        bad.append(f"unexpected stderr {s['stderr']!r}")
    if label in exact:
        if out != exact[label] or code != 0:
            bad.append(f"exit {code}, stdout {out!r}, expected {exact[label]!r}")
    elif not out.startswith(prefix[label]):
        bad.append(f"stdout {out!r} does not start with {prefix[label]!r}")
    elif label in ("check-jacobi", "courant-check"):
        if (code == 0) != out.endswith(": OK\n") or code not in (0, 1):
            bad.append(f"exit {code} does not match {out!r}")
    elif code != 0:
        bad.append(f"exit {code} for {out!r}")
    return bad


# relations between jobs of one pass


def cross_checks(jobs: list, summaries: list) -> list:
    by_name = {job.name: s for job, s in zip(jobs, summaries) if s is not None}
    bad = []
    for r in (2, 3, 4):
        frame = by_name.get(f"gen_r{r}_relative-modular-frame")
        bivector = by_name.get(f"gen_r{r}_relative-modular")
        if frame is not None and bivector is not None and frame != bivector:
            bad.append(f"rank {r}: relative-modular differs for the frame and its bivector")
        jacobi = by_name.get(f"gen_r{r}_check-jacobi")
        square = by_name.get(f"gen_r{r}_courant-check")
        if jacobi is not None and square is not None and jacobi["code"] != square["code"]:
            bad.append(f"rank {r}: check-jacobi exit {jacobi['code']} but courant-check exit {square['code']}")
    return bad


# sympy oracle, once per job


class Sympy:
    """Lazy sympy namespace, so the timed passes never import it."""

    def __init__(self):
        import sympy
        from sympy.parsing.sympy_parser import parse_expr, standard_transformations

        self.sp = sympy
        self.parse_expr = parse_expr
        self.transformations = standard_transformations

    def symbols(self, names):
        return [self.sp.Symbol(n) for n in names]

    def poly(self, data: dict, xs):
        """Plain data -> expression: {exponents: Fraction} or (num, den)."""
        if isinstance(data, tuple):
            return self.poly(data[0], xs) / self.poly(data[1], xs)
        out = self.sp.Integer(0)
        for mono, q in data.items():
            term = self.sp.Rational(q.numerator, q.denominator)
            for x, e in zip(xs, mono):
                term *= x**e
            out += term
        return out

    def parse(self, text: str, names):
        """A printed library value (``^`` powers, ``a/b`` literals)."""
        local = {n: self.sp.Symbol(n) for n in names}
        return self.parse_expr(text.replace("^", "**"), local_dict=local, transformations=self.transformations)

    def same(self, a, b) -> bool:
        return self.sp.cancel(a - b) == 0


def _structure(S, spec: dict, xs) -> tuple:
    """(c, rho) as full dicts of expressions from plain data."""
    n = spec["rank"]
    zero = S.sp.Integer(0)
    triples = [(i, j, k) for i in range(1, n + 1) for j in range(1, n + 1) for k in range(1, n + 1)]
    c = {t: S.poly(spec["c"][t], xs) if t in spec["c"] else zero for t in triples if t[0] < t[1]}
    for i, j, k in triples:
        if i >= j:
            c[(i, j, k)] = -c[(j, i, k)] if i > j else zero
    rho = {(i, a): S.poly(spec["rho"][(i, a)], xs) if (i, a) in spec["rho"] else zero
           for i in range(1, n + 1) for a in range(1, len(xs) + 1)}
    return c, rho


def _anchor(S, rho, xs, i, f):
    return sum((rho[(i, a)] * S.sp.diff(f, x) for a, x in enumerate(xs, start=1)), S.sp.Integer(0))


def _is_lie(S, n, c, rho, xs) -> bool:
    """Frame Jacobiator plus the anchor-homomorphism defect, both zero."""
    for i, j, k in combinations(range(1, n + 1), 3):
        for l in range(1, n + 1):
            jac = S.sp.Integer(0)
            for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                jac += sum((c[(a, b, m)] * c[(m, d, l)] for m in range(1, n + 1)), S.sp.Integer(0))
                jac -= _anchor(S, rho, xs, d, c[(a, b, l)])
            if S.sp.cancel(jac) != 0:
                return False
    for i, j in combinations(range(1, n + 1), 2):
        for s in range(1, len(xs) + 1):
            defect = sum((c[(i, j, m)] * rho[(m, s)] for m in range(1, n + 1)), S.sp.Integer(0))
            defect -= _anchor(S, rho, xs, i, rho[(j, s)]) - _anchor(S, rho, xs, j, rho[(i, s)])
            if S.sp.cancel(defect) != 0:
                return False
    return True


def _trace_form(S, n, c, rho, xs) -> list:
    """phi_i = sum_k c_ik^k + sum_a d(rho_i^a)/dx^a."""
    return [
        sum((c[(i, k, k)] for k in range(1, n + 1)), S.sp.Integer(0))
        + sum((S.sp.diff(rho[(i, a)], x) for a, x in enumerate(xs, start=1)), S.sp.Integer(0))
        for i in range(1, n + 1)
    ]


def _conjugate(S, n, c, rho, frame, xs) -> tuple:
    """Structure of the frame e'_i = sum_j G_i^j e_j, from section brackets."""
    G = S.sp.Matrix([[S.poly(e, xs) if e else S.sp.Integer(0) for e in row] for row in frame])
    inv = G.inv()
    m = len(xs)

    def bracket(X, Y):
        out = []
        for l in range(1, n + 1):
            v = sum((X[a - 1] * Y[b - 1] * c[(a, b, l)] for a in range(1, n + 1) for b in range(1, n + 1)), S.sp.Integer(0))
            v += sum((X[a - 1] * _anchor(S, rho, xs, a, Y[l - 1]) - Y[a - 1] * _anchor(S, rho, xs, a, X[l - 1]) for a in range(1, n + 1)), S.sp.Integer(0))
            out.append(v)
        return out

    rows = [list(G.row(i)) for i in range(n)]
    c2 = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                for k in range(1, n + 1):
                    c2[(i, j, k)] = S.sp.Integer(0)
                continue
            br = bracket(rows[i - 1], rows[j - 1])
            for k in range(1, n + 1):
                c2[(i, j, k)] = S.sp.cancel(sum((br[l] * inv[l, k - 1] for l in range(n)), S.sp.Integer(0)))
    rho2 = {(i, a): S.sp.cancel(sum((rows[i - 1][l - 1] * rho[(l, a)] for l in range(1, n + 1)), S.sp.Integer(0)))
            for i in range(1, n + 1) for a in range(1, m + 1)}
    return c2, rho2


def oracle(job, s: dict, S: "Sympy") -> list:
    kind = job.spec["kind"]
    if kind in ("skew", "conjugated"):
        return _oracle_algebroid(S, job.spec, s)
    if kind == "twisted":
        return _oracle_twist(S, job.spec, s)
    if "generated" in job.spec:
        return _oracle_generated(S, job.spec["generated"], s)
    return []


def _oracle_algebroid(S, spec: dict, s: dict) -> list:
    names = spec["names"]
    xs = S.symbols(names)
    n = spec["algebroid"]["rank"]
    c, rho = _structure(S, spec["algebroid"], xs)
    bad = []
    if spec["kind"] == "conjugated":
        c, rho = _conjugate(S, n, c, rho, spec["frame"], xs)
        for i, j, k in ((i, j, k) for i in range(1, n + 1) for j in range(i + 1, n + 1) for k in range(1, n + 1)):
            got = S.parse(s["c"].get(f"{i} {j} {k}", "0"), names)
            if not S.same(got, c[(i, j, k)]):
                bad.append(f"conjugate_frame c {i} {j} {k} = {got}, oracle {c[(i, j, k)]}")
        for (i, a), want in rho.items():
            got = S.parse(s["rho"].get(f"{i} {a}", "0"), names)
            if not S.same(got, want):
                bad.append(f"conjugate_frame rho {i} {a} = {got}, oracle {want}")
    lie = _is_lie(S, n, c, rho, xs)
    if lie != s["lie"]:
        bad.append(f"is_lie = {s['lie']}, oracle Jacobiator says {lie}")
    for i, want in enumerate(_trace_form(S, n, c, rho, xs), start=1):
        got = S.parse(s["modular"][i - 1], names)
        if not S.same(got, want):
            bad.append(f"modular component {i} = {got}, trace form {want}")
    return bad


def _oracle_twist(S, spec: dict, s: dict) -> list:
    """The solved twist is de Rham closed on 4-space, so {H,H} = 0 holds
    for an independent reason: d(phi) = sum of signed d_l phi_(ijk)."""
    names = spec["names"]
    xs = S.symbols(names)
    ys = S.symbols([f"y{i}" for i in range(1, 5)])
    phi = S.parse(s["phi"], [*names, *(str(y) for y in ys)])
    total = S.sp.Integer(0)
    for sign, l, (i, j, k) in ((1, 0, (1, 2, 3)), (-1, 1, (0, 2, 3)), (1, 2, (0, 1, 3)), (-1, 3, (0, 1, 2))):
        coeff = S.sp.diff(phi, ys[i], ys[j], ys[k])
        total += sign * S.sp.diff(coeff, xs[l])
    if S.sp.cancel(total) != 0:
        return [f"twist {s['phi']} is not closed: d(phi) = {S.sp.cancel(total)}"]
    return []


def _cocycle_components(S, text: str, names, rank: int) -> list:
    ys = [f"y{i}" for i in range(1, rank + 1)]
    value = S.parse(text, [*names, *ys])
    return [S.sp.diff(value, S.sp.Symbol(y)) for y in ys]


def _oracle_generated(S, gen: dict, s: dict) -> list:
    spec, label, r = gen["spec"], gen["label"], gen["rank"]
    names = spec["names"]
    xs = S.symbols(names)
    out = s["stdout"].rstrip("\n")
    bad = []
    if label in ("check-jacobi", "modular"):
        c, rho = _structure(S, spec["sk"], xs)
        if label == "check-jacobi":
            lie = _is_lie(S, r, c, rho, xs)
            if (s["code"] == 0) != lie:
                bad.append(f"check-jacobi exit {s['code']}, oracle Jacobiator says Lie = {lie}")
        else:
            got = _cocycle_components(S, out.split(": ", 1)[1], names, r)
            for i, (g, want) in enumerate(zip(got, _trace_form(S, r, c, rho, xs)), start=1):
                if not S.same(g, want):
                    bad.append(f"modular component {i} = {g}, trace form {want}")
    elif label == "modular-gauge":
        # tangent algebroid: trace form 0, plus rho_i(g)/g = (d_i g)/g
        g = S.poly(spec["gauge"], xs)
        got = _cocycle_components(S, out.split(": ", 1)[1], names, r)
        for i, x in enumerate(xs):
            if not S.same(got[i], S.sp.diff(g, x) / g):
                bad.append(f"gauged modular component {i + 1} = {got[i]}")
    elif label == "exact":
        witness = S.parse(out.split(" f = ", 1)[1], names)
        potential = S.poly(spec["potential"], xs)
        for x in xs:
            if not S.same(S.sp.diff(witness, x), S.sp.diff(potential, x)):
                bad.append(f"exact witness {witness} has the wrong differential along {x}")
    elif label == "morphism-mod":
        # both algebroids have constant anchors and no brackets
        if not S.same(S.parse(out.split(": ", 1)[1], [*names, "y1"]), S.sp.Integer(0)):
            bad.append(f"relative class of the inclusion is {out}, oracle 0")
    return bad
