"""Self-test of the benchmark's output checks: planted wrong answers are caught.

    python3 perfbench/selftest.py

Runs a few cheap jobs of each workload for real, requires their outputs to
pass every check, then plants one wrong answer at a time in a copy of an
output and requires the checks to report it. Also requires ``golden.json``
to match the lists in ``tests/test_cli.py``. Exits 0 when every planted
answer is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import algebroids  # noqa: E402
import algebroids.cli  # noqa: E402,F401
import checks  # noqa: E402
import golden  # noqa: E402
import workloads  # noqa: E402

ORACLE = checks.Sympy()


def outputs(jobs, names):
    """Summaries of the named jobs, run once for real."""
    picked = [job for job in jobs if job.name in names]
    return picked, [job.summary(job.run(algebroids, job.build(algebroids))) for job in picked]


def all_problems(jobs, summaries) -> list:
    bad = checks.cross_checks(jobs, summaries)
    for job, s in zip(jobs, summaries):
        bad += checks.properties(job, s) + checks.oracle(job, s, ORACLE)
    return bad


def main() -> int:
    missed = []
    cases = []  # (label, jobs, summaries)

    jobs, found = outputs(workloads.poly_jobs(1), ("skew_r3", "lie_tan3"))
    cases.append(("poly", jobs, found))
    rjobs, rfound = outputs(workloads.rational_jobs(1), ("twist_r4_x1",))
    cases.append(("rational", rjobs, rfound))
    workdir = HERE / "work" / "selftest"
    cjobs, files = workloads.cli_jobs(1, golden.load(), ROOT, workdir)
    workloads.write_files(files, workdir)
    try:
        keep = {j.name for j in cjobs if j.name.startswith(("golden_00", "gen_r2_"))}
        cjobs, cfound = outputs(cjobs, keep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cases.append(("cli", cjobs, cfound))

    for label, js, ss in cases:
        bad = all_problems(js, ss)
        if bad:
            print(f"real {label} outputs fail their checks: {bad[:3]}")
            return 1
        print(f"ok: real {label} outputs pass ({len(js)} jobs)")

    def plant(label, jobs, summaries, index, change):
        wrong = copy.deepcopy(summaries)
        change(wrong[index])
        if all_problems(jobs, wrong):
            print(f"caught: {label}")
        else:
            missed.append(label)
            print(f"MISSED: {label}")

    def flip_lie(s):
        s["lie"] = not s["lie"]
        s["square_zero"] = not s["square_zero"]

    def shift_modular(s):
        s["modular"][0] = f"({s['modular'][0]}) + 1"
        s["characteristic"][0] = s["modular"][0]

    def shift_conjugated(s):
        key = sorted(s["rho"])[0]
        s["rho"][key] = f"({s['rho'][key]}) + x3"

    plant("Jacobi verdict flipped together with {H,H}", jobs, found, 0, flip_lie)
    plant("{H,H} disagrees with is_lie", jobs, found, 0, lambda s: s.update(square_zero=not s["lie"]))
    plant("both modular routes agree on a wrong value", jobs, found, 0, shift_modular)
    plant("conjugate_frame anchor entry wrong", jobs, found, 1, shift_conjugated)
    plant("Lie-by-construction reported not Lie", jobs, found, 1, flip_lie)
    plant("solved twist not closed", rjobs, rfound, 0, lambda s: s.update(phi=f"{s['phi']} + x4*y1*y2*y3"))
    plant("quasi-Poisson check fails", rjobs, rfound, 0, lambda s: s.update(quasi=False))

    names = [j.name for j in cjobs]

    def at(name):
        return names.index(name)

    plant("golden bytes differ", cjobs, cfound, at("golden_00_check-jacobi"), lambda s: s.update(stdout="JACOBI: FAIL\n"))
    plant("golden exit code differs", cjobs, cfound, at("golden_00_check-jacobi"), lambda s: s.update(code=1))
    plant(
        "generated modular cocycle wrong",
        cjobs,
        cfound,
        at("gen_r2_modular"),
        lambda s: s.update(stdout=s["stdout"].rstrip("\n") + " + y1\n"),
    )
    plant(
        "exact witness wrong",
        cjobs,
        cfound,
        at("gen_r2_exact"),
        lambda s: s.update(stdout=s["stdout"].rstrip("\n") + " + x1\n"),
    )
    plant(
        "relative-modular differs for the frame and the bivector",
        cjobs,
        cfound,
        at("gen_r2_relative-modular-frame"),
        lambda s: s.update(stdout="RELATIVE MODULAR CLASS: y1\n"),
    )
    plant(
        "check-jacobi disagrees with courant-check",
        cjobs,
        cfound,
        at("gen_r2_courant-check"),
        lambda s: s.update(code=1 - s["code"], stdout="COURANT: OK\n" if s["code"] else "COURANT: FAIL, {H,H} = y1\n"),
    )

    if golden.from_tests() != golden.load():
        print("golden.json is stale: run python3 perfbench/golden.py")
        missed.append("golden copy")
    else:
        print("ok: golden.json matches tests/test_cli.py")
    if missed:
        print(f"{len(missed)} planted errors missed")
        return 1
    print("all planted errors caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
