"""Every harmgerm command at its largest accepted input, cold, within its budget.

    python tools/limits.py

runs each row of ROWS as a fresh `python -m harmgerm.cli` child and
prints its verdict (ok or FAIL), wall time, exit code and name. A row
passes when its child exits with the row's code within the row's budget
and its stdout and stderr together hold the row's text; the script exits
1 if any row fails. The inputs are the seeded families of `harmgerm.rng`
at the limits of `harmgerm.cli.RANGES` and `MAX_DEGREE`, built here in
the parent process, so each child pays only its own command. The script
takes no options and reads harmgerm from this checkout's `src`, so it
runs before the package is installed. `tests/test_limits.py` checks that
the table reaches every limit and that each argument fits one argv
string.
"""

import os
import pathlib
import random
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from harmgerm.equivalence import absorption_profile  # noqa: E402
from harmgerm.harmonic import harmonic_pair  # noqa: E402
from harmgerm.jets import jet_compose, jet_map, jet_truncate  # noqa: E402
from harmgerm.polyring import X, Y, Poly, format_poly  # noqa: E402
from harmgerm.rng import (  # noqa: E402
    Xoshiro256StarStar,
    biharmonic_perturbation,
    degenerate_dense_germs,
    dense_morse_germ,
    kernel_perturbations,
    random_homogeneous,
)

BUDGET_EXCEEDED = "work budget of 268435456 exceeded"


def ci_germ(k=36):
    """f_k, `kernel_perturbations` at every offset of its absorption
    profile and a degree-(2k-3) tail, all from `Xoshiro256StarStar(2016)`."""
    rng = Xoshiro256StarStar(2016)
    germ = harmonic_pair(k).f + sum(kernel_perturbations(rng, absorption_profile(k)).values(), Poly.zero())
    return germ + random_homogeneous(rng, 2 * k - 3)


def rotated_ci_germ(k=36):
    """CI's germ composed with z -> (1+i)z, whose reduction rotates its
    (z, zbar) components and whose verify() composes the rotation."""
    germ = jet_truncate(ci_germ(k), 2 * k - 3)
    return jet_compose(germ, jet_map(X - Y, X + Y, 2 * k - 3)).poly


def seeded_form(degree):
    return format_poly(random_homogeneous(Xoshiro256StarStar(2016), degree))


def degenerate(index):
    """G1 (index 0) or G2 (index 1) of `degenerate_dense_germs` at level 24."""
    return format_poly(degenerate_dense_germs(Xoshiro256StarStar(1), 24)[index])


def reciprocals(n):
    """The sum of 1/N_i*x^i for i = 1..n, with distinct seeded 600-digit N_i."""
    rng = random.Random(2016)
    return "+".join(f"1/{rng.randrange(10**599, 10**600)}*x^{i}" for i in range(1, n + 1))


NINES = "9" * 600

# (name, argv builder, budget in seconds, expected exit code, text the output must hold)
ROWS = [
    ("reduce, CI's germ at k = 36", lambda: ["reduce", "--k", "36", format_poly(ci_germ())], 120, 0, ""),
    (
        "determinacy, dense Morse germ at level 24, a spanning top block",
        lambda: ["determinacy", "--k", "24", format_poly(dense_morse_germ(Xoshiro256StarStar(1), 24))],
        120, 0, "",
    ),
    (
        "determinacy, G1 at level 24, decided by the row echelon",
        lambda: ["determinacy", "--k", "24", degenerate(0)],
        30, 1, "first uncovered monomial: y^24\n",
    ),
    (
        "determinacy, G2 at level 24, the full elimination",
        lambda: ["determinacy", "--k", "24", degenerate(1)],
        120, 0, "(criterion passed, 550 products)\n",
    ),
    ("reduce, CI's germ at k = 36 under z -> (1+i)z", lambda: ["reduce", "--k", "36", format_poly(rotated_ci_germ())], 120, 0, ""),
    (
        "biharm, a 2-fold Laplacian kernel perturbation in degrees 37..68",
        lambda: ["biharm", "--k", "36", format_poly(biharmonic_perturbation(Xoshiro256StarStar(2016), 36))],
        120, 0, "",
    ),
    ("split, a seeded form of degree 800", lambda: ["split", seeded_form(800)], 60, 0, ""),
    ("almansi, a seeded form of degree 400, 201 layers", lambda: ["almansi", seeded_form(400), "--s", "201"], 60, 0, ""),
    ("harmonic --k 14000, text", lambda: ["harmonic", "--k", "14000"], 60, 0, ""),
    ("harmonic --k 14000, json", lambda: ["--format", "json", "harmonic", "--k", "14000"], 60, 0, ""),
    ("kernel --k 450 --s 100", lambda: ["kernel", "--k", "450", "--s", "100"], 60, 0, ""),
    ("span --k 300 --s 300", lambda: ["span", "--k", "300", "--s", "300"], 60, 0, ""),
    ("selftest, default grid", lambda: ["selftest"], 60, 0, ""),
    (
        "split refuses 64 copies of (9...9*x+y)^128, 600 nines",
        lambda: ["split", "+".join([f"({NINES}*x+y)^128"] * 64)],
        5, 2, BUDGET_EXCEEDED,
    ),
    ("split refuses (x+y+1)^128", lambda: ["split", "(x+y+1)^128"], 5, 2, BUDGET_EXCEEDED),
    ("split refuses 215 reciprocals of 600-digit numerals", lambda: ["split", reciprocals(215)], 5, 2, BUDGET_EXCEEDED),
    ("split, the largest accepted power (9...9*x+y)^43", lambda: ["split", f"({NINES}*x+y)^43"], 5, 0, ""),
]


def run(argv, budget, code, text):
    """(verdict, seconds, exit code or None on timeout) of one cold child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.PIPE if text else subprocess.DEVNULL
    start = time.perf_counter()
    try:
        child = subprocess.run([sys.executable, "-m", "harmgerm.cli", *argv], stdout=out, stderr=subprocess.PIPE, env=env, timeout=budget)
    except subprocess.TimeoutExpired:
        return "FAIL", time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    output = (child.stdout or b"") + child.stderr
    ok = child.returncode == code and seconds <= budget and text.encode() in output
    return "ok" if ok else "FAIL", seconds, child.returncode


def main():
    failed = False
    for name, argv, budget, code, text in ROWS:
        verdict, seconds, returncode = run(argv(), budget, code, text)
        failed |= verdict != "ok"
        shown = "timeout" if returncode is None else f"exit {returncode}"
        print(f"{verdict:4} {seconds:6.2f} s of {budget:3} s  {shown:7} (want {code})  {name}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
