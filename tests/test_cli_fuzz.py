"""Grammar fuzz of the CLI: mutated problem files and argument lists.

Whatever the input, main returns 0, 1 or 2 without letting an exception
escape, an input error prints nothing on stdout and one ERROR: report on
stderr, and a second run prints the same bytes."""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.cli import _VERBS, main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
TEXTS = {path.name: path.read_text() for path in sorted(PROBLEMS.glob("*.alg"))}
# the (kind, name) of each object a file declares, in file order
DECLARED = {name: re.findall(r"^\[(\w+)\s+(\w+)", text, re.M) for name, text in TEXTS.items()}
FORMS = {
    "SECTION": ["y1", "xi1", "y1 + x1*xi2", "x1"],
    "COCYCLE": ["y1", "y2", "y1 + x1*y2", "y1*y2"],
    "COVECTOR": ["y1", "y2", "y1 + x1*y2", "y1*y2"],
}
TOKENS = [
    "=", " = ", "[", "]", "#", "*", "^", "(", ")", "/", "-", "0", "1", "99", "300",
    "x1", "x9", "y1", "xi1", "p1", "c", "rho", "P", "D", "phi", "rank", "coords",
    "term", "[chart]", "[algebroid z]", "[frame F on tm2]", "\n",
]
NOISE = ["y1", "nosuch", "--bound", "--bound=1", "2", "--gauge", "1 + x1", "0", "--gauge=x1", "--x"]


@st.composite
def calls(draw):
    """(problem text, argv after the file): a mutated problem file and a verb
    whose arguments are mostly names that file declares."""
    name = draw(st.sampled_from(sorted(TEXTS)))
    lines = TEXTS[name].splitlines()
    for _ in range(draw(st.sampled_from([0, 1, 2, 3]))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["key", "drop", "dup", "swap", "insert", "cut"]))
        if op == "key":
            # delete the text before the line's '='
            lines[i] = line[line.find("=") :] if "=" in line else line
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(i, line)
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "insert":
            k = draw(st.integers(0, len(line)))
            lines[i] = line[:k] + draw(st.sampled_from(TOKENS)) + line[k:]
        elif op == "cut":
            lines[i] = line[: draw(st.integers(0, len(line)))]
    verb = draw(st.sampled_from(sorted(_VERBS) + ["--help", "frobnicate"]))
    # each slot of the verb's usage gets a fitting word, so that most calls
    # reach the mathematics; then some words are swapped for noise
    usage = _VERBS[verb][1].split()[1:] if verb in _VERBS else ["ALGEBROID"]
    args = []
    for slot in (w for w in usage if w.replace("-", "").isalpha()):
        kinds = slot.lower().split("-or-")
        fitting = [n for k, n in DECLARED[name] if k in kinds] or ["nosuch"]
        args.append(draw(st.sampled_from(FORMS.get(slot, fitting))))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        k = draw(st.integers(0, len(args)))
        args[k:k + draw(st.integers(0, 1))] = [draw(st.sampled_from(NOISE))]
    return "\n".join(lines) + "\n", [verb, *args]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(calls())
def test_mutated_problems_keep_the_exit_contract(tmp_path_factory, call):
    text, (verb, *args) = call
    path = tmp_path_factory.getbasetemp() / "fuzz.alg"
    path.write_text(text)
    first = run_main([verb, str(path), *args])
    code, out, err = first
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("ERROR: ")
    assert run_main([verb, str(path), *args]) == first
