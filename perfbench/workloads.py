"""Seeded job lists for the three workloads.

A job keeps its inputs as plain data (exponent tuples and Fractions, or
problem-file text) made once from the seed. ``build`` turns that data into
fresh library objects, so no memo on an input object survives from one pass
to the next; ``run`` makes only calls into the library's public entry points
and is the one timed region; ``summary`` turns the outputs into canonical
strings and flags outside the timed region. Checks on summaries live in
``checks.py``.

Every family keeps its shape fixed -- rank, which entries are nonzero,
which coordinate each entry uses -- and draws only coefficient values from
the seed, so the cost of a job hardly depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass
class Job:
    name: str
    build: Callable  # (lib) -> inputs
    run: Callable  # (lib, inputs) -> outputs; the timed region
    summary: Callable  # (outputs) -> dict of strings, flags and numbers
    spec: dict  # plain input data and expectations for the checks


# plain-data polynomials: {exponent tuple: Fraction}


def _unit(m: int, v: int) -> tuple:
    return tuple(1 if a == v else 0 for a in range(m))


def _coef(rng) -> Fraction:
    return Fraction(rng.choice(COEFFS))


def _affine(rng, m: int, v: int) -> dict:
    """a + b*x_v with a, b nonzero."""
    return {(0,) * m: _coef(rng), _unit(m, v): _coef(rng)}


def _shifted(m: int, w: int, d: int) -> dict:
    """d + x_w: a monic denominator in one coordinate. Denominators
    are fixed by the entry's position, never drawn from the seed, and d is
    5 to 7, never a root of a seeded numerator a + b*x (|a|, |b| <= 3). So
    which factors cancel -- and so the gcd work -- is the same for every
    seed; shifts of 1 to 3 let some seeds cancel and made a job's cost vary
    by up to a half between seeds."""
    return {(0,) * m: Fraction(d), _unit(m, w): Fraction(1)}


def _scalar(lib, chart, entry):
    """Fresh ScalarField from (num, den) or num plain data."""
    if isinstance(entry, tuple):
        num, den = entry
        return lib.ScalarField(chart, dict(num), dict(den))
    return lib.ScalarField(chart, dict(entry))


def _algebroid(lib, chart, spec):
    c = {k: _scalar(lib, chart, v) for k, v in spec["c"].items()}
    rho = {k: _scalar(lib, chart, v) for k, v in spec["rho"].items()}
    return lib.SkewAlgebroid(chart, spec["rank"], c, rho)


# poly and rational: the algebroid entry points


def _dense_skew(rng, m: int, n: int) -> dict:
    """Every c_ij^k (i<j) and rho_i^a nonzero, each a + b*x_v."""
    c = {
        (i, j, k): _affine(rng, m, (i + j + k) % m)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        for k in range(1, n + 1)
    }
    rho = {(i, a): _affine(rng, m, (i + a) % m) for i in range(1, n + 1) for a in range(1, m + 1)}
    return {"rank": n, "c": c, "rho": rho}


def _sparse_rational_skew(rng, m: int, n: int, every: int) -> dict:
    """Every ``every``-th entry nonzero, each (a + b*x_v)/(d + x_w) with
    w != v and w running over all coordinates, so sums need multivariate
    gcds."""
    c, rho = {}, {}
    slot = 0

    def entry(v):
        w = (v + 1 + slot % (m - 1)) % m
        return (_affine(rng, m, v), _shifted(m, w, 5 + slot % 3))

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
    return {"rank": n, "c": c, "rho": rho}


# catalog Lie algebroids over any chart; constants only
CATALOG = {
    "so3": {"rank": 3, "c": {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}, "rho": {}},
    "heis": {"rank": 3, "c": {(1, 2, 3): 1}, "rho": {}},
    "solv": {"rank": 3, "c": {(1, 2, 2): 1, (1, 2, 3): 2, (1, 3, 2): -1, (1, 3, 3): 1}, "rho": {}},
    "tan3": {"rank": 3, "c": {}, "rho": {(1, 1): 1, (2, 2): 1, (3, 3): 1}},
}


def _catalog_spec(name: str, m: int) -> dict:
    base = CATALOG[name]
    const = lambda q: {(0,) * m: Fraction(q)}  # noqa: E731
    return {
        "rank": base["rank"],
        "c": {k: const(v) for k, v in base["c"].items()},
        "rho": {k: const(v) for k, v in base["rho"].items()},
    }


def _frame(rng, m: int, n: int, rational: bool = False, mixed: bool = False, dense: bool = False) -> list:
    """Unit upper-triangular frame. Entry (i, j), i < j, is a + b*x_v, or
    a + b*x1 + c*x2 + d*x3 when ``dense``; over d + x_w when rational, with
    w the first coordinate or, when ``mixed``, a coordinate other than v
    that changes from entry to entry."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append({(0,) * m: Fraction(1)})
            elif i < j:
                v = (i + j) % m
                if dense:
                    num = {(0,) * m: _coef(rng), **{_unit(m, a): _coef(rng) for a in range(m)}}
                else:
                    num = _affine(rng, m, v)
                if rational:
                    w = (v + 1 + (i + j) % (m - 1)) % m if mixed else 0
                    row.append((num, _shifted(m, w, 5 + (i + j) % 3)))
                else:
                    row.append(num)
            else:
                row.append({})
        rows.append(row)
    return rows


def _entry_points(lib, A) -> dict:
    lie, certificate = lib.is_lie(A)
    modular = lib.modular_cocycle(A)
    characteristic = lib.characteristic_form(A)
    square = lib.hamiltonian_square(lib.algebroid_hamiltonian(A))
    return {
        "algebroid": A,
        "lie": lie,
        "certificate": certificate,
        "modular": modular,
        "characteristic": characteristic,
        "square": square,
    }


def _summary_algebroid(out: dict) -> dict:
    A = out["algebroid"]
    return {
        "lie": out["lie"],
        "certificate": str(out["certificate"]),
        "modular": [str(out["modular"].component(i)) for i in range(1, A.rank + 1)],
        "characteristic": [str(out["characteristic"].component(i)) for i in range(1, A.rank + 1)],
        "square_zero": out["square"].is_zero,
        "c": {f"{i} {j} {k}": str(v) for (i, j, k), v in sorted(A.c.items())},
        "rho": {f"{i} {a}": str(v) for (i, a), v in sorted(A.rho.items())},
    }


def skew_job(name: str, names: tuple, spec: dict) -> Job:
    def build(lib):
        return _algebroid(lib, lib.BaseChart(names), spec)

    return Job(
        name,
        build,
        lambda lib, A: _entry_points(lib, A),
        _summary_algebroid,
        {"kind": "skew", "names": names, "algebroid": spec},
    )


def conjugated_job(name: str, names: tuple, model: str, frame: list) -> Job:
    """A catalog model moved into a polynomial or rational frame by
    ``conjugate_frame`` inside the timed region: Lie by construction."""
    spec = _catalog_spec(model, len(names))

    def build(lib):
        chart = lib.BaseChart(names)
        G = [[_scalar(lib, chart, e) for e in row] for row in frame]
        return _algebroid(lib, chart, spec), G

    def run(lib, inputs):
        A, G = inputs
        return _entry_points(lib, lib.conjugate_frame(A, G))

    return Job(
        name,
        build,
        run,
        _summary_algebroid,
        {"kind": "conjugated", "names": names, "algebroid": spec, "frame": frame},
    )


def twisted_job(name: str, entries: dict) -> Job:
    """Rank-4 tangent algebroid, a bivector with a rational-function twist
    solved in the timed region, and the Dirac chain on the result."""
    names = ("x1", "x2", "x3", "x4")

    def build(lib):
        chart = lib.BaseChart(names)
        A = lib.SkewAlgebroid(chart, 4, {}, {(a, a): 1 for a in range(1, 5)})
        space = lib.split_space(chart, 4)
        P = lib.Bivector(space, {k: _scalar(lib, chart, v) for k, v in entries.items()})
        return A, space, P

    def run(lib, inputs):
        A, space, P = inputs
        phi = lib.solve_twist(P, A)
        H = lib.Hamiltonian(space, lib.algebroid_hamiltonian(A, space).value + phi)
        return {
            "phi": phi,
            "square": lib.hamiltonian_square(H),
            "quasi": lib.quasi_poisson_check(P, H),
            "relative": lib.relative_modular_class(lib.graph_frame(P), H),
            "cor53": lib.verify_morphism_cor53(P, H),
        }

    def summary(out):
        return {
            "phi": str(out["phi"]),
            "square_zero": out["square"].is_zero,
            "quasi": out["quasi"][0],
            "relative": str(out["relative"]),
            "cor53": out["cor53"][0],
        }

    return Job(name, build, run, summary, {"kind": "twisted", "names": names, "bivector": entries})


def poly_jobs(seed: int) -> list:
    """Dense polynomial skew algebroids at ranks 3-5 and catalog Lie
    algebroids in polynomial frames, all over three coordinates. Three jobs
    are cheaper than the three rank-3 algebroids and three are dearer, so
    the median job falls in the middle of the rank-3 cluster: many samples
    of jobs whose cost hardly moves with the seed."""
    rng = random.Random(seed)
    names = ("x1", "x2", "x3")
    jobs = [skew_job(f"skew_r3{tag}", names, _dense_skew(rng, 3, 3)) for tag in ("", "b", "c")]
    jobs += [skew_job(f"skew_r{n}", names, _dense_skew(rng, 3, n)) for n in (4, 5)]
    for model in ("so3", "tan3", "heis", "solv"):
        frame = _frame(rng, 3, CATALOG[model]["rank"], dense=model == "so3")
        jobs.append(conjugated_job(f"lie_{model}", names, model, frame))
    return jobs


def rational_jobs(seed: int) -> list:
    """Sparse rational skew algebroids, catalog Lie algebroids in rational
    frames, and the rank-4 rational twisted family."""
    rng = random.Random(seed)
    names = ("x1", "x2", "x3")
    jobs = [skew_job(f"srat_r{n}", names, _sparse_rational_skew(rng, 3, n, 3)) for n in (3, 4)]
    for model, mixed in (("so3", False), ("tan3", True), ("solv", True), ("heis", True)):
        frame = _frame(rng, 3, 3, rational=True, mixed=mixed)
        jobs.append(conjugated_job(f"ratlie_{model}", names, model, frame))
    m = 4
    for label, v, power in (("x1", 0, 1), ("x2", 1, 1), ("x2sq", 1, 2)):
        f = {(0,) * m: _coef(rng), tuple(power * e for e in _unit(m, v)): _coef(rng)}
        entries = {(1, 2): {(0,) * m: _coef(rng)}, (3, 4): f}
        jobs.append(twisted_job(f"twist_r4_{label}", entries))
    return jobs


# cli: problem files through algebroids.cli.main


def expr(poly: dict, names: tuple) -> str:
    """A plain-data polynomial in the problem-file expression language."""
    out = ""
    for mono in sorted(poly, key=lambda e: (-sum(e), [-x for x in e])):
        q = poly[mono]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        body = "*".join(([str(abs(q))] if abs(q) != 1 or not factors else []) + factors)
        if not out:
            out = "-" + body if q < 0 else body
        else:
            out += f" {'-' if q < 0 else '+'} {body}"
    return out or "0"


def _poly_in(rng, m: int, monos) -> dict:
    return {tuple(e): _coef(rng) for e in monos}


def _generated_problem(rng, r: int) -> tuple:
    """Problem text at rank r over r coordinates, and its plain data.

    tm is the tangent algebroid; sk a sparse polynomial skew algebroid; P a
    Poisson bivector g*d1^d2 with g free of x1, x2 (any g when r = 2), D its
    graph frame written out; Ht carries a closed twist phi_123 = f, with f
    free of x4, so (P, Ht) is compatible and every Dirac verb succeeds.
    """
    names = tuple(f"x{a}" for a in range(1, r + 1))
    m = r
    zero = (0,) * m
    sk = {"rank": r, "c": {}, "rho": {}}
    slot = 0
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            for k in range(1, r + 1):
                slot += 1
                if slot % 3:
                    sk["c"][(i, j, k)] = _affine(rng, m, (i + j + k) % m)
    for i in range(1, r + 1):
        for a in range(1, m + 1):
            slot += 1
            if slot % 3 == 0:
                sk["rho"][(i, a)] = _affine(rng, m, (i + a) % m)
    g_vars = range(m) if r == 2 else range(2, m)
    g = _poly_in(rng, m, [zero] + [_unit(m, v) for v in g_vars])
    gauge = {zero: Fraction(rng.randint(1, 3)), tuple(2 * e for e in _unit(m, 0)): Fraction(1)}
    potential = _poly_in(rng, m, [_unit(m, v) for v in range(m)] + [tuple(2 * e for e in _unit(m, m - 1))])
    lines = ["[chart]", "coords = " + " ".join(names), "", "[algebroid tm]", f"rank = {r}"]
    lines += [f"rho {a} {a} = 1" for a in range(1, r + 1)]
    lines += ["", "[algebroid sk]", f"rank = {r}"]
    lines += [f"c {i} {j} {k} = {expr(v, names)}" for (i, j, k), v in sorted(sk["c"].items())]
    lines += [f"rho {i} {a} = {expr(v, names)}" for (i, a), v in sorted(sk["rho"].items())]
    lines += ["", "[algebroid ln]", "rank = 1", "rho 1 1 = 1"]
    lines += ["", "[morphism incl: ln -> tm]", "phi 1 1 = 1"]
    lines += ["", "[hamiltonian H on tm]", "", "[hamiltonian Hs on sk]", "", "[hamiltonian Ht on tm]"]
    if r >= 3:
        f = _poly_in(rng, m, [zero, _unit(m, 0), tuple(1 if a in (1, 2) else 0 for a in range(m))])
        lines.append(f"phi 1 2 3 = {expr(f, names)}")
    lines += ["", "[bivector P on tm]", f"P 1 2 = {expr(g, names)}"]
    lines += ["", "[frame D on tm]", f"D 1 = y1 + ({expr(g, names)})*xi2", f"D 2 = y2 - ({expr(g, names)})*xi1"]
    lines += [f"D {a} = y{a}" for a in range(3, r + 1)]
    spec = {"names": names, "sk": sk, "gauge": gauge, "potential": potential}
    return "\n".join(lines) + "\n", spec


def _cocycle_arg(poly: dict, names: tuple) -> str:
    """d(potential) on the tangent algebroid, as a y-linear argument."""
    parts = []
    for a, name in enumerate(names):
        d = {}
        for mono, q in poly.items():
            if mono[a]:
                lower = mono[:a] + (mono[a] - 1,) + mono[a + 1 :]
                d[lower] = d.get(lower, 0) + q * mono[a]
        if d:
            parts.append(f"({expr(d, names)})*y{a + 1}")
    return " + ".join(parts)


# hostile inputs: each escapes main with a traceback today
HOSTILE = (
    (
        "deep_parens",
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 1\nrho 1 1 = " + "(" * 3000 + "x1" + ")" * 3000 + "\n",
    ),
    ("non_utf8", b"[chart]\ncoords = x1\n# \xff\xfe\n\n[algebroid a]\nrank = 1\n"),
    ("chart_y1", "[chart]\ncoords = y1 x2\n\n[algebroid a]\nrank = 2\nrho 1 1 = 1\n"),
)


def cli_job(name: str, argv: list, expect: dict) -> Job:
    """One in-process ``main`` call with stdout and stderr captured."""

    def run(lib, _inputs):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def summary(result):
        code, out, err = result
        return {"code": code, "stdout": out, "stderr": err}

    return Job(name, lambda lib: None, run, summary, {"kind": "cli", **expect})


def write_files(files: dict, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        path = workdir / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")


def cli_jobs(seed: int, golden: list, root: Path, workdir: Path) -> tuple:
    """The golden corpus, generated files at ranks 2-4 and the hostile
    inputs. Returns (jobs, files to write at set-up: name -> text or bytes)."""
    rng = random.Random(seed)
    files, specs = {}, {}
    for r in (2, 3, 4):
        files[f"gen_r{r}.alg"], specs[r] = _generated_problem(rng, r)
    for name, content in HOSTILE:
        files[f"{name}.alg"] = content
    jobs = []
    for index, case in enumerate(golden):
        argv = [str(root / a) if a.startswith("problems/") else a for a in case["argv"]]
        expect = {"golden": {k: case[k] for k in ("code", "stdout", "stderr")}}
        jobs.append(cli_job(f"golden_{index:02d}_{case['argv'][0]}", argv, expect))
    for r, spec in specs.items():
        path = str(workdir / f"gen_r{r}.alg")
        names = spec["names"]
        ht = "Ht" if r >= 3 else "H"
        verbs = (
            ("check-jacobi", ["sk"]),
            ("modular", ["sk"]),
            ("courant-check", ["Hs"]),
            ("modular-gauge", ["tm", "--gauge", expr(spec["gauge"], names)]),
            ("exact", ["tm", _cocycle_arg(spec["potential"], names)]),
            ("morphism-check", ["incl"]),
            ("morphism-mod", ["incl"]),
            ("courant-check-twisted", [ht]),
            ("projectable", [ht]),
            ("project", [ht]),
            ("quasi-poisson", ["P", ht]),
            ("dirac-check", ["D", ht]),
            ("relative-modular-frame", ["D", ht]),
            ("relative-modular", ["P", ht]),
            ("verify-cor53", ["P", ht]),
            ("twisted-bracket", ["P", ht, "y1", "y2"]),
            ("dorfman", [ht, "xi1", "x1*xi2"]),
        )
        for label, args in verbs:
            verb = label.split("-gauge")[0].split("-twisted")[0].split("-frame")[0]
            expect = {"generated": {"rank": r, "label": label, "spec": spec}}
            jobs.append(cli_job(f"gen_r{r}_{label}", [verb, path, *args], expect))
    for name, _content in HOSTILE:
        path = str(workdir / f"{name}.alg")
        jobs.append(cli_job(f"hostile_{name}", ["check-jacobi", path, "a"], {"hostile": True}))
    return jobs, files
