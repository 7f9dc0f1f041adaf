"""The CLI golden list the ``cli`` workload checks against.

``golden.json`` is a copy of the hand-pinned ``GOLDEN`` and ``ERRORS``
lists in ``tests/test_cli.py``: argv with problem paths relative to the
repository root, exact stdout and stderr, exit code. Regenerate it after
those lists change with

    python3 perfbench/golden.py

and check that the copy is current with ``python3 perfbench/golden.py
--check``. The copy keeps the workload fixed while the tests evolve.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COPY = HERE / "golden.json"
SOURCE = ROOT / "tests" / "test_cli.py"

# names test_cli.py binds to problem paths
PATHS = {
    "SL2": "problems/sl2.alg",
    "AFF1": "problems/aff1.alg",
    "TM2": "problems/tm2.alg",
    "R4": "problems/twisted_r4.alg",
    "NONLIE": "problems/nonlie.alg",
}


class _Paths(ast.NodeTransformer):
    def visit_Name(self, node):
        if node.id not in PATHS:
            raise ValueError(f"unexpected name {node.id!r} in a golden list")
        return ast.copy_location(ast.Constant(PATHS[node.id]), node)


def from_tests() -> list:
    """Golden cases read from the test module's list literals."""
    tree = ast.parse(SOURCE.read_text(encoding="utf-8"))
    lists = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("GOLDEN", "ERRORS"):
                lists[target.id] = ast.literal_eval(_Paths().visit(node.value))
    cases = [
        {"argv": list(argv), "stdout": out, "stderr": "", "code": code}
        for argv, out, code in lists["GOLDEN"]
    ]
    cases += [
        {"argv": list(argv), "stdout": "", "stderr": message, "code": 2}
        for argv, message in lists["ERRORS"]
    ]
    return cases


def load() -> list:
    return json.loads(COPY.read_text(encoding="utf-8"))


def main(argv) -> int:
    cases = from_tests()
    if argv == ["--check"]:
        if cases != load():
            print("golden.json differs from tests/test_cli.py", file=sys.stderr)
            return 1
        print(f"golden.json matches tests/test_cli.py ({len(cases)} cases)")
        return 0
    if argv:
        print("usage: golden.py [--check]", file=sys.stderr)
        return 2
    COPY.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {COPY.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
