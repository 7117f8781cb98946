"""The elimination references share no code with the kernel they check.

Each reference runs on a small system with every binding of the `rref`
kernel and of `linalg`'s `rref`, `solve_canonical` and `nullspace` made
to raise (`conftest.refuse_eliminations`), and must still give the
library's answer, which is computed before the eliminations are refused.
"""

import pytest

from harmgerm import linalg
from harmgerm.determinacy import check_determinacy
from harmgerm.graded import GradedSubspace, solve_membership, subspace_compare
from harmgerm.harmonic import almansi_decompose, harmonic_pair, harmonic_split

from conftest import P, as_fractions, certificate_fractions, rational_rref, reference_membership, reference_solve, refuse_eliminations
from test_determinacy import reference_certificate
from test_graded import reference_compare
from test_harmonic import layer_coordinates, reference_almansi, reference_split
from test_linalg import reference_nullspace

# the columns span x and not x^2; the second column is twice the first
COLUMNS = [P("x + 1/3*y"), P("2*x + 2/3*y"), P("y")]
TARGETS = [P("x"), P("x^2")]
BASIS = [(1, 0), (0, 1), (2, 0)]


def solve():
    missing, solved = linalg.solve_canonical(COLUMNS, TARGETS, BASIS)
    return (COLUMNS, TARGETS, BASIS), (missing, [as_fractions(c, len(COLUMNS)) for c in solved])


def nullspace():
    relations = linalg.nullspace(COLUMNS, BASIS)
    return (COLUMNS, BASIS), [as_fractions((numerators, den), len(COLUMNS)) for _, numerators, den in relations]


def membership(k, s):
    pair = harmonic_pair(k)
    target = pair.f * P("x") ** s / 3 + pair.g * P("y") ** s
    return (target, k, s), solve_membership(target, k, s)


def certificate(germ, level):
    cert = check_determinacy(germ, level)
    return (tuple(cert.products), level), (cert.missing, certificate_fractions(cert))


def almansi():
    # the reference caches one elimination per degree; clear it, so that this one runs under the guard
    layer_coordinates.cache_clear()
    return (P("x^4"), 3), almansi_decompose(P("x^4"), 3).components


def compare():
    a = GradedSubspace.from_polys(2, [P("x^2 + x*y")])
    b = GradedSubspace.from_polys(2, [P("x^2"), P("x*y")])
    return (a, b), subspace_compare(a, b)


CASES = {
    "rational_rref": (rational_rref, lambda: (([[1, 2, 3], [2, 4, 7]],), ([[1, 2, 0], [0, 0, 1]], [0, 2]))),
    "reference_solve": (reference_solve, solve),
    "reference_nullspace": (reference_nullspace, nullspace),
    "reference_membership, s < k": (reference_membership, lambda: membership(3, 1)),
    "reference_membership, s >= k": (reference_membership, lambda: membership(2, 3)),
    "reference_certificate, True": (reference_certificate, lambda: certificate(harmonic_pair(5).f, 7)),
    "reference_certificate, False": (reference_certificate, lambda: certificate(P("x^3"), 3)),
    "reference_compare": (reference_compare, compare),
    "reference_split": (reference_split, lambda: ((P("x^3"),), harmonic_split(P("x^3")))),
    "reference_almansi": (reference_almansi, almansi),
}


@pytest.mark.parametrize("reference, setup", CASES.values(), ids=CASES.keys())
def test_reference_runs_no_elimination(monkeypatch, reference, setup):
    args, expected = setup()
    refuse_eliminations(monkeypatch)
    assert reference(*args) == expected
