"""Every harmgerm command at its largest accepted input, cold, within its budget.

    python tools/limits.py

runs each row of ROWS as a fresh `python -m harmgerm.cli` child and
prints its verdict (ok or FAIL), wall time, peak resident set size (read
with `os.wait4`), exit code and name. Linux carries the high-water mark
of the process that spawns a child into the child's own, so a row's RSS
is at least this script's peak at that point, 20–25 MB once the
inputs are built; the script reads its children's output in chunks to
keep that low. A row passes when its child exits with the row's code
within the row's budget, its stdout and stderr together hold the row's
text, and the sha256 of its stdout is the row's digest; a mismatch
prints the first 12 hex digits of both digests. A last line holds the
same results as one JSON object: each row's name, seconds, peak RSS in
MB, exit code and stdout sha256, with the Python version, the platform
and the CPU count. The script exits 1 if any row fails. The inputs are
the seeded families of `harmgerm.rng` at the limits of
`harmgerm.cli.RANGES` and `MAX_DEGREE`, built here in the parent
process, so each child pays only its own command. The script takes no
options and reads harmgerm from this checkout's `src`, so it runs before
the package is installed.
`tests/test_limits.py` checks that the table reaches every limit, that
each argument fits one argv string, that every row pins a digest and the
shape of the JSON line.
"""

import hashlib
import json
import os
import pathlib
import platform
import random
import subprocess
import sys
import tempfile
import threading
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

# (name, argv builder, budget in seconds, expected exit code, text the output must hold,
#  sha256 of stdout)
ROWS = [
    (
        "reduce, CI's germ at k = 36",
        lambda: ["reduce", "--k", "36", format_poly(ci_germ())],
        120, 0, "",
        "f37dac47110284065314a68468150c048eca4ff526bfde31e77be4857c7f1422",
    ),
    (
        "determinacy, dense Morse germ at level 24, a spanning top block",
        lambda: ["determinacy", "--k", "24", format_poly(dense_morse_germ(Xoshiro256StarStar(1), 24))],
        120, 0, "",
        "d46f64ca199f8c5eaa79cb21f11a82ac5219462c3c0456850cb658b55bf710a6",
    ),
    (
        "determinacy, G1 at level 24, decided by the row echelon",
        lambda: ["determinacy", "--k", "24", degenerate(0)],
        30, 1, "first uncovered monomial: y^24\n",
        "cab39af897d020c0f7b79daf1731ec0165a67089d06d8efe2296e57331dc332d",
    ),
    (
        "determinacy, G2 at level 24, the full elimination",
        lambda: ["determinacy", "--k", "24", degenerate(1)],
        120, 0, "(criterion passed, 550 products)\n",
        "4fab4589cae2ba4bed5a21a9b034bbd107014e7be49e451ceb1c682a595e2372",
    ),
    (
        "reduce, CI's germ at k = 36 under z -> (1+i)z",
        lambda: ["reduce", "--k", "36", format_poly(rotated_ci_germ())],
        120, 0, "",
        "583b88450391a15e3d186e371266107e770f26aa27049d527d74b9673b9fb3ed",
    ),
    (
        "biharm, a 2-fold Laplacian kernel perturbation in degrees 37..68",
        lambda: ["biharm", "--k", "36", format_poly(biharmonic_perturbation(Xoshiro256StarStar(2016), 36))],
        120, 0, "",
        "7349b6866ccf8c72383f9375f6445fafeaacdc0efeda69d15286da33afd36b23",
    ),
    (
        "split, a seeded form of degree 800",
        lambda: ["split", seeded_form(800)],
        60, 0, "",
        "f4d570c0f86a7bc113240f7fc54ff89df524b0f1fd4209d30682db653a006e92",
    ),
    (
        "almansi, a seeded form of degree 400, 201 layers",
        lambda: ["almansi", seeded_form(400), "--s", "201"],
        60, 0, "",
        "4850cfb1a03ace3e5b33cb169710e15979e5cfb340b22204cfb9b4fcd819e95f",
    ),
    (
        "harmonic --k 14000, text",
        lambda: ["harmonic", "--k", "14000"],
        60, 0, "",
        "8edbd47d5a3ddc0f3909e78bd6293258e28ed7036b08a462396be6c30cac2b1f",
    ),
    (
        "harmonic --k 14000, json",
        lambda: ["--format", "json", "harmonic", "--k", "14000"],
        60, 0, "",
        "b336800416c489cf569770c33d5bfd98e756dd39c7c104dae9e5f5478cf555d1",
    ),
    (
        "kernel --k 450 --s 100",
        lambda: ["kernel", "--k", "450", "--s", "100"],
        60, 0, "",
        "ca10c52771c3ad5b5d406400ab39332e21ac3167a64fe2286424ca1c7aca0b7d",
    ),
    (
        "span --k 300 --s 300",
        lambda: ["span", "--k", "300", "--s", "300"],
        60, 0, "",
        "326f12a54fc82c4fac95dc2b16f39327329977a386c41023f0c5796e33ad2cbd",
    ),
    (
        "selftest, default grid",
        lambda: ["selftest"],
        60, 0, "",
        "221720c73d52820f95ddb24094e2550e23b47ad465b30cf1259c958dec746d79",
    ),
    (
        "split refuses 64 copies of (9...9*x+y)^128, 600 nines",
        lambda: ["split", "+".join([f"({NINES}*x+y)^128"] * 64)],
        5, 2, BUDGET_EXCEEDED,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "split refuses (x+y+1)^128",
        lambda: ["split", "(x+y+1)^128"],
        5, 2, BUDGET_EXCEEDED,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "split refuses 215 reciprocals of 600-digit numerals",
        lambda: ["split", reciprocals(215)],
        5, 2, BUDGET_EXCEEDED,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "split, the largest accepted power (9...9*x+y)^43",
        lambda: ["split", f"({NINES}*x+y)^43"],
        5, 0, "",
        "5dce58db700fbac63ef9343a54a3f8c0f12d9d51a49f60e502ed6689cb4dc898",
    ),
]


def run(argv, budget, code, text, digest):
    """(verdict, seconds, peak RSS in MB, exit code or None on timeout, stdout's sha256 or None)
    of one cold child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "harmgerm.cli", *argv], stdout=out, stderr=err, env=env)
        killed = threading.Event()
        timer = threading.Timer(budget, lambda: (killed.set(), child.kill()))
        timer.start()
        # wait4 reaps the child with its own resource usage, which Popen.wait does not report
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        rss = usage.ru_maxrss / 1024
        if killed.is_set():
            return "FAIL", seconds, rss, None, None
        # in chunks, so a large output does not raise this process's RSS, which later children inherit
        out.seek(0)
        sha = hashlib.sha256()
        for chunk in iter(lambda: out.read(1 << 20), b""):
            sha.update(chunk)
        got = sha.hexdigest()
        if text:
            out.seek(0)
            err.seek(0)
            found = text.encode() in out.read() + err.read()
        else:
            found = True
    ok = child.returncode == code and seconds <= budget and found and got == digest
    return "ok" if ok else "FAIL", seconds, rss, child.returncode, got


def summary(results):
    """One JSON line: the (name, seconds, RSS in MB, exit code, sha256) of each
    row, with the Python version, the platform and the CPU count."""
    rows = [
        {"name": name, "seconds": round(seconds, 3), "rss_mb": round(rss, 1), "exit": returncode, "sha256": got}
        for name, seconds, rss, returncode, got in results
    ]
    machine = {"python": platform.python_version(), "platform": platform.platform(), "cpus": os.cpu_count()}
    return json.dumps({**machine, "rows": rows}, sort_keys=True)


def main():
    failed, results = False, []
    for name, argv, budget, code, text, digest in ROWS:
        verdict, seconds, rss, returncode, got = run(argv(), budget, code, text, digest)
        failed |= verdict != "ok"
        results.append((name, seconds, rss, returncode, got))
        shown = "timeout" if returncode is None else f"exit {returncode}"
        line = f"{verdict:4} {seconds:6.2f} s of {budget:3} s  {rss:6.1f} MB  {shown:7} (want {code})  {name}"
        if got not in (None, digest):
            line += f"  stdout sha256 {got[:12]} (want {digest[:12]})"
        print(line, flush=True)
    print(summary(results), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
