"""Command line runs pinned to exact output bytes and exit codes."""

import subprocess
import sys
from pathlib import Path

import pytest

from algebroids.cli import main, parse_problem

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

SL2 = str(PROBLEMS / "sl2.alg")
AFF1 = str(PROBLEMS / "aff1.alg")
TM2 = str(PROBLEMS / "tm2.alg")
R4 = str(PROBLEMS / "twisted_r4.alg")
NONLIE = str(PROBLEMS / "nonlie.alg")


def run(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = [
    (("check-jacobi", SL2, "sl2"), "JACOBI: OK\n", 0),
    (("modular", SL2, "sl2"), "MODULAR COCYCLE: 0\n", 0),
    (("check-jacobi", NONLIE, "nl"), "JACOBI: FAIL, [d,d] = (-2*y1*y2*y3) d/dy3\n", 1),
    (("modular", NONLIE, "nl"), "MODULAR COCYCLE: -y3\n", 0),
    (("modular", AFF1, "aff1"), "MODULAR COCYCLE: y1\n", 0),
    (("exact", AFF1, "aff1", "y1"), "EXACT: NO (degree bound 2)\n", 1),
    (("morphism-check", AFF1, "incl"), "MORPHISM: OK\n", 0),
    (("morphism-mod", AFF1, "incl"), "MORPHISM MODULAR CLASS: -y1\n", 0),
    (("check-jacobi", TM2, "tm2"), "JACOBI: OK\n", 0),
    (("modular", TM2, "tm2"), "MODULAR COCYCLE: 0\n", 0),
    (
        ("modular", TM2, "tm2", "--gauge", "1 + x1^2"),
        "MODULAR COCYCLE: ((2*x1)/(x1^2 + 1))*y1\n",
        0,
    ),
    (("exact", TM2, "tm2", "y1"), "EXACT: YES, f = x1\n", 0),
    (("exact", TM2, "tm2", "y1 + y2", "--bound", "3"), "EXACT: YES, f = x1 + x2\n", 0),
    (("dorfman", TM2, "H", "xi1", "x1*xi2"), "DORFMAN: xi2\n", 0),
    (("projectable", TM2, "H"), "PROJECTABLE: YES\n", 0),
    (
        ("project", TM2, "H"),
        "PROJECTED ALGEBROID: rank 2\nrho 1 1 = 1\nrho 2 2 = 1\nHOMOLOGICAL: YES\n",
        0,
    ),
    (
        ("projectable", TM2, "Hmixed"),
        "PROJECTABLE: NO, obstruction = y1*xi1*xi2\n",
        1,
    ),
    (("project", TM2, "Hmixed"), "PROJECTABLE: NO, obstruction = y1*xi1*xi2\n", 1),
    (("quasi-poisson", TM2, "P", "H"), "QUASI-POISSON: YES\n", 0),
    (("twisted-bracket", TM2, "P", "H", "y1", "y2"), "TWISTED BRACKET: y1\n", 0),
    (("relative-modular", TM2, "P", "H"), "RELATIVE MODULAR CLASS: -2*y2\n", 0),
    (("relative-modular", TM2, "D", "H"), "RELATIVE MODULAR CLASS: -2*y2\n", 0),
    (
        ("dirac-check", TM2, "D", "H"),
        "DIRAC: OK, rank 2\nc 1 2 1 = 1\nrho 1 2 = x1\nrho 2 1 = -x1\n",
        0,
    ),
    (("verify-cor53", TM2, "P", "H"), "COR53: OK\n", 0),
    (("courant-check", R4, "H"), "COURANT: OK\n", 0),
    (("courant-check", R4, "Hclosed"), "COURANT: OK\n", 0),
    (("courant-check", R4, "Hbad"), "COURANT: FAIL, {H,H} = 2*y1*y2*y3*y4\n", 1),
    (("projectable", R4, "Hclosed"), "PROJECTABLE: YES\n", 0),
    (("dorfman", R4, "Hclosed", "xi2", "xi3"), "DORFMAN: x1*y1\n", 0),
    (
        ("quasi-poisson", R4, "Pbook", "H"),
        "QUASI-POISSON: NO, obstruction = xi2*xi3*xi4\n",
        1,
    ),
    (
        ("relative-modular", R4, "Pbook", "H"),
        "DIRAC: FAIL, bracket (2,3) leaves the span, residual = -xi4\n",
        1,
    ),
]


@pytest.mark.parametrize("argv,expected,code", GOLDEN, ids=lambda v: None)
def test_golden_output(argv, expected, code, capsys):
    got_code, out, err = run(argv, capsys)
    assert out == expected
    assert got_code == code
    assert err == ""


def test_reports_are_reproducible(capsys):
    for argv, expected, code in GOLDEN:
        first = run(argv, capsys)
        second = run(argv, capsys)
        assert first == second == (code, expected, "")


def test_console_entry_point_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "algebroids.cli", "check-jacobi", SL2, "sl2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "JACOBI: OK\n"
    assert proc.stderr == ""


ERRORS = [
    (("frobnicate", SL2, "sl2"), "ERROR: unknown verb 'frobnicate' (run with --help for the list)\n"),
    (("check-jacobi", SL2, "nosuch"), "ERROR: undeclared algebroid 'nosuch'\n"),
    (("check-jacobi", TM2, "P"), "ERROR: 'P' is a bivector, not an algebroid\n"),
    (("check-jacobi", "nope.alg", "x"), "ERROR: cannot read 'nope.alg': No such file or directory\n"),
    (("modular", SL2), "ERROR: usage: algebroids modular FILE ALGEBROID [--gauge EXPR]\n"),
    (
        ("modular", SL2, "sl2", "--gauge", "x9 + 1"),
        "ERROR: gauge 'x9 + 1': unknown identifier 'x9' (line 1, column 1)\n",
    ),
    (("modular", SL2, "sl2", "--gauge", "0"), "ERROR: gauge must be a nonzero function\n"),
    (("exact", TM2, "tm2", "y1*y2"), "ERROR: cocycle must be a y-linear expression\n"),
    (("quasi-poisson", TM2, "P", "Hmixed"), "ERROR: Hamiltonian is not projectable\n"),
    (("dorfman", TM2, "H", "y1 + x1", "xi1"), "ERROR: section must be homogeneous of degree 1\n"),
    (("modular", SL2, "sl2", "--bound", "3"), "ERROR: unknown option --bound\n"),
    (("exact", TM2, "tm2", "y1", "--bound", "x"), "ERROR: --bound must be an integer\n"),
]


@pytest.mark.parametrize("argv,message", ERRORS, ids=lambda v: None)
def test_input_errors(argv, message, capsys):
    got_code, out, err = run(argv, capsys)
    assert got_code == 2
    assert out == ""
    assert err == message


BAD_FILES = [
    ("c 1 2 1 = 1\n", "line 1: entry outside of any section"),
    ("[chart]\ncoords = x1\n\n[widget w]\nsize = 2\n", "line 4: unrecognized section header"),
    ("[chart]\ncoords = x1\n\n[chart]\ncoords = x2\n", "line 4: only one [chart]"),
    ("[algebroid a]\nrank = 1\n", "line 1: no [chart] section"),
    ("[chart]\ncoords = x1\n\n[algebroid a]\nc 1 2 1 = 1\n", "line 5: 'rank = n' must come"),
    ("[chart]\ncoords = x1\n\n[algebroid a]\nrank = 2\nc 2 1 1 = 1\n", "line 6: structure index"),
    (
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 2\nrho 1 2 = 1\n",
        "line 6: anchor index (1,2) out of range",
    ),
    (
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 1\n\n[algebroid a]\nrank = 1\n",
        "line 7: name 'a' already declared",
    ),
    (
        "[chart]\ncoords = x1\n\n[hamiltonian H on ghost]\n",
        "line 4: undeclared algebroid 'ghost'",
    ),
    (
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 2\nc 1 2 1 = x1 +* 2\n",
        "line 6: unexpected '*'",
    ),
    (
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 2\n\n[frame F on a]\nD 1 = y1\n",
        "line 7: frame is missing members D 2",
    ),
    (
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 2\n\n[frame F on a]\nD 1 = y1\nD 2 = xi1\n",
        "line 7: frame is not isotropic at pair (1,2)",
    ),
    (
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 2\n\n[frame F on a]\nD 1 = y1 + x1\nD 2 = y2\n",
        "line 8: frame members must be homogeneous of degree 1",
    ),
    (
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 2\nrank = 3\n",
        "line 6: duplicate rank entry",
    ),
    (
        "[chart]\ncoords = x1\n\n[algebroid a]\nrank = 2\n\n[bivector P on a]\nP 1 1 = 1\n",
        "line 8: bivector index (1,1)",
    ),
    ("[chart]\ncoords = x1\n\n[algebroid a]\n = 3\n", "line 5: expected 'key = value'"),
]


@pytest.mark.parametrize("text,fragment", BAD_FILES, ids=lambda v: None)
def test_malformed_files(text, fragment, tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    code, out, err = run(("check-jacobi", str(path), "a"), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR: ")
    assert fragment in err.replace(str(path) + ":", "line ")


def test_help_lists_every_verb(capsys):
    code, out, err = run(("--help",), capsys)
    assert code == 0 and err == ""
    for verb in (
        "check-jacobi", "modular", "exact", "morphism-check", "morphism-mod",
        "courant-check", "dorfman", "projectable", "project", "quasi-poisson",
        "twisted-bracket", "dirac-check", "relative-modular", "verify-cor53",
    ):
        assert f"algebroids {verb} " in out


def test_parse_problem_objects():
    text = Path(TM2).read_text()
    problem = parse_problem("tm2.alg", text)
    assert problem.chart.names == ("x1", "x2")
    assert set(problem.algebroids) == {"tm2"}
    assert set(problem.hamiltonians) == {"H", "Hmixed"}
    assert set(problem.bivectors) == {"P"}
    assert set(problem.frames) == {"D"}
    A = problem.algebroids["tm2"]
    assert A.rank == 2 and A.c == {}
    frame = problem.frames["D"]
    assert frame.is_graph()
    assert frame.bivector() == problem.bivectors["P"]


def _rho_file(expr):
    return f"[chart]\ncoords = x1\n\n[algebroid a]\nrank = 1\nrho 1 1 = {expr}\n"


def _nested_rho(depth):
    return _rho_file("(" * depth + "x1" + ")" * depth)


HOSTILE_FILES = [
    (_nested_rho(3000), "line 6: parentheses nested more than 100 deep"),
    (b"[chart]\ncoords = x1\n# \xff\xfe\n\n[algebroid a]\nrank = 1\n", "line 3: not valid UTF-8 text"),
    (
        "[chart]\ncoords = y1 x2\n\n[algebroid a]\nrank = 2\nrho 1 1 = 1\n",
        "line 2: coordinate name 'y1' is reserved",
    ),
    ("[chart]\ncoords = x1 xi2\n", "line 2: coordinate name 'xi2' is reserved"),
    ("[chart]\ncoords = p1\n", "line 2: coordinate name 'p1' is reserved"),
    (_rho_file("7" * 5000 + "*x1"), "line 6: cannot read the 5000-character integer literal"),
    (_rho_file("x1^99999999"), "line 6: exponent larger than 100"),
    (_rho_file("\u00b2*x1"), "line 6: cannot read the 1-character integer literal"),
    (_rho_file("(1 + x1)^100"), "line 6: power has more than 30 terms (line 1, column 10)"),
    (_rho_file("(1 + x1)^20*(2 + x1)^20"), "line 6: expression has more than 30 terms (line 1, column 12)"),
    (_rho_file(" + ".join(f"x1^{k}" for k in range(31))), "line 6: expression has more than 30 terms"),
]


@pytest.mark.parametrize("content,fragment", HOSTILE_FILES, ids=lambda v: None)
def test_hostile_files_are_input_errors(content, fragment, tmp_path, capsys):
    """Deep nesting, bad encodings, reserved coordinate names, unreadable
    integer literals, exponents past the cap and values past the term budget
    end in exit 2 with an ERROR line that names the file position."""
    path = tmp_path / "hostile.alg"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    code, out, err = run(("check-jacobi", str(path), "a"), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR: ")
    assert fragment in err.replace(str(path) + ":", "line ")


def test_nesting_below_the_bound_parses(tmp_path, capsys):
    path = tmp_path / "nested.alg"
    path.write_text(_nested_rho(100))
    assert run(("check-jacobi", str(path), "a"), capsys) == (0, "JACOBI: OK\n", "")


def test_budgets_at_the_cap_answer(tmp_path, capsys):
    path = tmp_path / "power.alg"
    for expr in ("x1^100", "(1 + x1)^29", "(1 + x1)^29 + 0*x1^30"):
        path.write_text(_rho_file(expr))
        assert run(("check-jacobi", str(path), "a"), capsys) == (0, "JACOBI: OK\n", "")
    argv = ("exact", TM2, "tm2", "y1", "--bound")
    assert run(argv + ("20",), capsys) == (0, "EXACT: YES, f = x1\n", "")
    for bound in ("21", "5000"):
        assert run(argv + (bound,), capsys) == (2, "", "ERROR: --bound must be at most 20\n")


def test_rank_budget(tmp_path, capsys):
    """The super space has at most 200 generators, 2*rank + 2*coordinates, so
    rank is capped at 99 on a line, where the slowest verb on one c entry and
    a Hamiltonian takes under a second; one more is an input error."""
    path = tmp_path / "rank.alg"
    text = "[chart]\ncoords = x1\n\n[algebroid a]\nrank = {}\nc 1 2 1 = x1\n"
    path.write_text(text.format(99))
    assert run(("check-jacobi", str(path), "a"), capsys) == (0, "JACOBI: OK\n", "")
    path.write_text(text.format(100))
    err = f"ERROR: {path}:5: rank must be at most 99 on this chart\n"
    assert run(("check-jacobi", str(path), "a"), capsys) == (2, "", err)


def test_chart_budget(tmp_path, capsys):
    """The same generator budget caps the chart at 99 coordinates, where a
    rank-1 algebroid still fits, and the rank on a wider chart shrinks."""
    path = tmp_path / "chart.alg"
    text = "[chart]\ncoords = {}\n\n[algebroid a]\nrank = {}\nrho 1 1 = x1\n"
    for m, rank, err in (
        (99, 1, None),
        (100, 1, "2: at most 99 coordinates"),
        (40, 60, None),
        (40, 61, "5: rank must be at most 60 on this chart"),
    ):
        path.write_text(text.format(" ".join(f"x{i}" for i in range(1, m + 1)), rank))
        expected = (0, "JACOBI: OK\n", "") if err is None else (2, "", f"ERROR: {path}:{err}\n")
        assert run(("check-jacobi", str(path), "a"), capsys) == expected


def test_term_budget_refuses_dense_powers(tmp_path, capsys):
    """(1 + x1 + x2)^100 has 5151 terms and took seconds in every verb; it is
    refused before it is expanded."""
    path = tmp_path / "dense.alg"
    path.write_text(Path(TM2).read_text().replace("rho 1 1 = 1", "rho 1 1 = (1 + x1 + x2)^100"))
    err = f"ERROR: {path}:7: power has more than 30 terms (line 1, column 15)\n"
    for argv in (("check-jacobi", "tm2"), ("modular", "tm2"), ("relative-modular", "D", "H")):
        assert run((argv[0], str(path), *argv[1:]), capsys) == (2, "", err)


def test_exact_budget_scales_with_the_chart(capsys):
    """The witness search is capped at 230 unknowns, C(m + bound, m) - 1,
    whether the bound is given or defaulted: bound 20 on the plane, 6 on a
    4-coordinate chart."""
    over = "ERROR: default degree bound {} is over budget; --bound must be at most {}\n"
    assert run(("exact", TM2, "tm2", "x1^60*y1"), capsys) == (2, "", over.format(62, 20))
    assert run(("exact", R4, "tm4", "x1^10*y1"), capsys) == (2, "", over.format(12, 6))
    argv = ("exact", R4, "tm4", "y1", "--bound")
    assert run(argv + ("6",), capsys) == (0, "EXACT: YES, f = x1\n", "")
    assert run(argv + ("7",), capsys) == (2, "", "ERROR: --bound must be at most 6\n")


# twisted_r4.alg plus objects no shipped file declares: a bundle map of tm4
# that is not a morphism, the graph frame of Pbook, which does not close,
# and a frame on a rank-1 algebroid
EXTENDED_R4 = Path(R4).read_text() + """
[morphism swap: tm4 -> tm4]
phi 1 2 = 1
phi 2 1 = 1

[frame Dbook on tm4]
D 1 = y1 + xi2
D 2 = y2 - xi1
D 3 = y3 + (1 + x1)*xi4
D 4 = y4 - (1 + x1)*xi3

[algebroid line]
rank = 1
rho 1 1 = 1

[frame Dline on line]
D 1 = y1
"""

EXTENDED_RUNS = [
    (("morphism-check", "swap"), (1, "MORPHISM: FAIL, at x1, defect = -y1 + y2\n", "")),
    (("morphism-mod", "swap"), (1, "MORPHISM: FAIL, at x1, defect = -y1 + y2\n", "")),
    (
        ("dirac-check", "Dbook", "H"),
        (1, "DIRAC: FAIL, bracket (2,3) leaves the span, residual = -xi4\n", ""),
    ),
    (("verify-cor53", "Pbook", "H"), (1, "QUASI-POISSON: NO, obstruction = xi2*xi3*xi4\n", "")),
    (("dirac-check", "Dline", "H"), (2, "", "ERROR: frame and Hamiltonian live on different spaces\n")),
    (("relative-modular", "Dline", "H"), (2, "", "ERROR: frame and Hamiltonian live on different spaces\n")),
    (("relative-modular", "tm4", "H"), (2, "", "ERROR: 'tm4' is an algebroid, not a frame or bivector\n")),
    (("relative-modular", "nosuch", "H"), (2, "", "ERROR: undeclared frame or bivector 'nosuch'\n")),
    (("exact", "tm4", "y1", "--bound", "0"), (2, "", "ERROR: --bound must be at least 1\n")),
    (
        ("dorfman", "H", "xi1 +", "xi2"),
        (2, "", "ERROR: section 'xi1 +': unexpected end of expression (line 1, column 5)\n"),
    ),
]


@pytest.mark.parametrize("argv,expected", EXTENDED_RUNS, ids=lambda v: None)
def test_certificates_and_argument_errors(argv, expected, tmp_path, capsys):
    """Failure certificates and argument errors that the shipped files and
    the golden runs leave unreached."""
    path = tmp_path / "extended.alg"
    path.write_text(EXTENDED_R4)
    assert run((argv[0], str(path), *argv[1:]), capsys) == expected


# a chart, a rank-2 algebroid a and a rank-1 algebroid b; each entry error
# below is appended to it and reported on the file's last line
ENTRY_BASE = "[chart]\ncoords = x1 x2\n\n[algebroid a]\nrank = 2\n\n[algebroid b]\nrank = 1\n"

ENTRY_ERRORS = [
    ("[morphism f: b -> a]\nphi 1 = 1\n", "morphism entries look like 'phi i j = <expr>'"),
    ("[morphism f: b -> a]\nphi 2 1 = 1\n", "matrix index (2,1) out of range"),
    ("[morphism f: b -> a]\nphi 1 3 = 1\n", "matrix index (1,3) out of range"),
    ("[morphism f: b -> a]\nphi 1 2 = 1\nphi 1 02 = x1\n", "duplicate entry phi 1 2"),
    ("[morphism f: b -> a]\nphi 1 x = 1\n", "indices must be integers"),
    ("[bivector P on a]\nQ 1 2 = 1\n", "bivector entries look like 'P i j = <expr>'"),
    ("[bivector P on a]\nP 1 3 = 1\n", "bivector index (1,3) needs 1 <= i < j <= 2"),
    ("[bivector P on a]\nP 1 2 = 1\nP 1 2 = 1\n", "duplicate entry P 1 2"),
    ("[hamiltonian H on a]\npsi 1 2 = 1\n", "hamiltonian entries are 'phi i j k' or 'term'"),
    ("[hamiltonian H on a]\nphi 1 2 = 1\n", "hamiltonian entries are 'phi i j k' or 'term'"),
    ("[hamiltonian H on a]\nphi 1 2 3 = 1\n", "twist index (1,2,3) needs 1 <= i < j < k <= 2"),
    (
        "[algebroid c3]\nrank = 3\n\n[hamiltonian H on c3]\nphi 1 2 3 = 1\nphi 1 2 3 = x1\n",
        "duplicate entry phi 1 2 3",
    ),
    ("[hamiltonian H on a]\nterm = y1*xi1 +\n", "unexpected end of expression (line 1, column 8)"),
    ("[frame F on a]\nD 1 2 = y1\n", "frame entries look like 'D a = <expr>'"),
    ("[frame F on a]\nD 3 = y1\n", "frame index 3 out of range"),
    ("[frame F on a]\nD 1 = y1\nD 1 = y1\n", "duplicate entry D 1"),
    ("[frame F on a]\nD 1 = (y1\n", "expected ')' (line 1, column 2)"),
    ("[algebroid z]\nrank = 0\n", "rank must be at least 1"),
    ("[algebroid z]\nrank = two\n", "rank must be an integer"),
    ("[algebroid z]\nrho 1 1 = 1\n", "'rank = n' must come before structure entries"),
    ("[algebroid z]\nrank 1 = 1\n", "'rank = n' must come before structure entries"),
    ("[algebroid z]\nrank = 1\nrank 1 = 1\n", "algebroid entries are 'rank', 'c i j k', or 'rho i a'"),
    ("[algebroid z]\nrank = 1\nrho 1 1 = 1\nrho 1 1 = 1\n", "duplicate entry rho 1 1"),
    ("[algebroid z]\nrank = 2\nc 1 2 1 = 1\nc 1 2 1 = 1\n", "duplicate entry c 1 2 1"),
]


@pytest.mark.parametrize("entries,message", ENTRY_ERRORS, ids=lambda v: None)
def test_entry_errors(entries, message, tmp_path, capsys):
    """Shape, index, range, duplicate and value errors of section entries."""
    text = ENTRY_BASE + "\n" + entries
    path = tmp_path / "entries.alg"
    path.write_text(text)
    err = f"ERROR: {path}:{text.count(chr(10))}: {message}\n"
    assert run(("check-jacobi", str(path), "a"), capsys) == (2, "", err)


def test_chart_entry_errors(tmp_path, capsys):
    path = tmp_path / "chart.alg"
    for text, message in (
        ("[chart]\ncoords = x1 x1\n", "2: duplicate coordinate name 'x1'"),
        ("[chart]\ncoords = x1\ncoords = x2\n", "3: duplicate coords entry"),
        ("[chart]\nnames = x1\n", "2: chart sections take a single 'coords' entry"),
        ("[chart]\ncoords 1 = x1\n", "2: chart sections take a single 'coords' entry"),
    ):
        path.write_text(text)
        assert run(("check-jacobi", str(path), "a"), capsys) == (2, "", f"ERROR: {path}:{message}\n")


def test_readme_lists_the_help_usage_lines(capsys):
    """README's command block holds exactly the usage lines --help prints."""
    code, out, err = run(("--help",), capsys)
    assert code == 0 and err == ""
    printed = sorted(line.strip() for line in out.splitlines()[1:])
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    listed = sorted(block.splitlines())
    assert listed == printed
