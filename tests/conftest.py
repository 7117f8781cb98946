"""Shared helpers: sympy-based oracles independent of the library's
arithmetic; the elimination references, a Gauss-Jordan on Fractions
(`rational_rref`) and the canonical solve and membership read from it,
which share no code with the integer kernel (`refuse_eliminations`
makes any elimination of the library raise, and
`tests/test_references.py` runs every reference under it); call
counters, tampered radial scale maps and a tampered determinacy
certificate; a certificate's combinations as Fraction tuples
(`certificate_fractions`); the identity jet map (`identity_map`); the
top-block translations (`translation_solution`), read through
`graded.solve_membership`, and the reduction's scale map from (u, v)
(`inverse_scale_map`)."""

import random
import sys
from fractions import Fraction

import pytest
import sympy

import harmgerm._kernels
import harmgerm.cli
import harmgerm.equivalence
from harmgerm import linalg
from harmgerm.graded import solve_membership
from harmgerm.harmonic import harmonic_pair
from harmgerm.jets import Jet, JetMap, _inverse_scale_root, jet_compose, jet_map, jet_truncate
from harmgerm.polyring import Poly, monomial_basis, parse_poly
from harmgerm.zcoords import _change_variables, _split, _z_image

X, Y = sympy.symbols("x y", real=True)


def P(text: str) -> Poly:
    return parse_poly(text)


def to_sympy(p: Poly):
    expr = sympy.Integer(0)
    for (a, b), c in p.terms():
        expr += sympy.Rational(c.numerator, c.denominator) * X**a * Y**b
    return sympy.expand(expr)


def from_sympy(expr) -> Poly:
    expr = sympy.expand(expr)
    poly = sympy.Poly(expr, X, Y)
    terms = {}
    for (a, b), c in poly.terms():
        c = sympy.Rational(c)
        terms[(int(a), int(b))] = Fraction(int(c.p), int(c.q))
    return Poly(terms)


def oracle_harmonic(k: int) -> tuple[Poly, Poly]:
    """Real and imaginary parts of (x + iy)^k via sympy expansion."""
    z = (X + sympy.I * Y) ** k
    z = sympy.expand(z)
    return from_sympy(sympy.re(z)), from_sympy(sympy.im(z))


def oracle_laplacian(p: Poly) -> Poly:
    expr = to_sympy(p)
    return from_sympy(sympy.diff(expr, X, 2) + sympy.diff(expr, Y, 2))


def oracle_compose(h: Poly, px: Poly, py: Poly, bound: int) -> Poly:
    """Substitute and expand with sympy, then truncate at the bound."""
    expr = to_sympy(h).subs({X: to_sympy(px), Y: to_sympy(py)}, simultaneous=True)
    return from_sympy(sympy.expand(expr)).truncate(bound)


def rescaled(p: Poly, re=1, im=1) -> Poly:
    """p composed with z -> (re + i*im)z, by default (1+i)z, i.e.
    (x, y) -> (x - y, x + y)."""
    bound = p.degree()
    x, y = P("x"), P("y")
    return jet_compose(jet_truncate(p, bound), jet_map(x * re - y * im, x * im + y * re, bound)).poly


def sum_of_reciprocals(n: int) -> str:
    """The text of the sum of 1/N_i*x^i for i = 1..n, with distinct seeded
    600-digit N_i, whose lcm grows by about 600 digits a term."""
    rng = random.Random(2016)
    return "+".join(f"1/{rng.randrange(10**599, 10**600)}*x^{i}" for i in range(1, n + 1))


def rational_rref(rows):
    """(rows, pivots) of the rational RREF, by Gauss-Jordan on Fractions:
    leading entries 1, zero rows dropped, no integer row and no kernel code."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        prow = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if prow is None:
            continue
        mat[r], mat[prow] = mat[prow], mat[r]
        pivot = mat[r][col]
        mat[r] = [v / pivot if v else v for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def coordinate_rows(polys, basis):
    """One row per basis exponent, one Fraction column per polynomial."""
    return [tuple(p.coeff(a, b) for p in polys) for a, b in basis]


def reference_solve(columns, targets, basis):
    """(missing, combinations) as `linalg.solve_canonical` defines them, from
    one `rational_rref` of [columns | targets]: the first target whose
    column is a pivot, and each earlier target's RREF column read as a
    Fraction tuple over the columns (free coefficients zero)."""
    width = len(columns)
    rr, pivots = rational_rref(coordinate_rows([*columns, *targets], basis))
    missing = next((col - width for col in pivots if col >= width), None)
    combinations = []
    for t in range(width, width + (len(targets) if missing is None else missing)):
        combo = [Fraction(0)] * width
        for row, col in zip(rr, pivots):
            if col < width:
                combo[col] = row[t]
            else:
                # a row pivoting at a later target is 0 at this one
                assert not row[t]
        combinations.append(tuple(combo))
    return missing, combinations


def as_fractions(combination, width):
    """The Fraction vector of a (numerators, den) combination over `width` columns."""
    numerators, den = combination
    return tuple(Fraction(numerators.get(j, 0), den) for j in range(width))


def certificate_fractions(cert):
    """The combinations of a determinacy certificate as one tuple of Fraction
    tuples, one coefficient per product of `cert.products`."""
    width = len(cert.products)
    return tuple(as_fractions(row, width) for row in cert.combinations)


def reference_membership(target: Poly, k: int, s: int):
    """(u, v) with target == u*f_k + v*g_k, u and v homogeneous of degree s,
    or None; one `reference_solve` at every degree (free coefficients
    zero), independent of the (z, zbar) read-off and of `linalg`."""
    if not target:
        return Poly.zero(), Poly.zero()
    if not target.is_homogeneous() or target.degree() != k + s or s < 0:
        return None
    pair = harmonic_pair(k)
    monos = monomial_basis(s)
    columns = [pair.f.shifted(a, b) for a, b in monos] + [pair.g.shifted(a, b) for a, b in monos]
    missing, solutions = reference_solve(columns, [target], monomial_basis(k + s))
    if missing is not None:
        return None
    solution = solutions[0]
    n = len(monos)
    u = Poly({exps: c for exps, c in zip(monos, solution[:n]) if c})
    v = Poly({exps: c for exps, c in zip(monos, solution[n:]) if c})
    return u, v


def identity_map(bound: int) -> JetMap:
    return JetMap(Jet(P("x"), bound), Jet(P("y"), bound), bound)


def translation_solution(target: Poly, k: int):
    """(u, v) with k*(u*f_(k-1) - v*g_(k-1)) == target, or None.

    Since df_k/dx = k*f_(k-1) and df_k/dy = -k*g_(k-1), this is the
    first-order change of f_k under the translation (x, y) -> (x + u, y + v).
    u and v are homogeneous of degree deg(target) - (k-1); None when the
    target lies outside the span of those multiples of f_(k-1), g_(k-1).
    `graded.solve_membership` finds the pair.
    """
    solved = solve_membership(target, k - 1, target.degree() - (k - 1))
    return None if solved is None else (solved[0] / k, -(solved[1] / k))


def inverse_scale_map(u, v, k: int):
    """The reduction's radial scale map for w = u - iv, from the jets u and
    v: `jets._inverse_scale_root` on w's (z, zbar) components up to degree
    bound - k. Composing f_k + u*f_k + v*g_k with it gives f_k modulo the
    bound."""
    w = _change_variables(_split(u.poly, -v.poly, u.bound - k), _z_image)
    return _inverse_scale_root(w, k, u.bound)


def read_digits(text: str) -> int:
    """The int a decimal string stands for, read 400 digits at a time, so
    no single int() call passes Python's int/str digit limit."""
    n = 0
    for i in range(0, len(text), 400):
        chunk = text[i : i + 400]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def refuse_eliminations(monkeypatch):
    """Make every elimination from here on raise: each binding, in any
    loaded module, of the `rref` kernel and of `linalg`'s `rref`,
    `solve_canonical` and `nullspace`."""
    eliminations = (harmgerm._kernels.rref, linalg.rref, linalg.solve_canonical, linalg.nullspace)

    def refuse(*args, **kwargs):
        raise AssertionError("elimination called")

    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if any(value is f for f in eliminations):
                monkeypatch.setattr(module, name, refuse)


def counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; return the record."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def recorded_verdicts(monkeypatch):
    """Record what each radial_step_holds call made by equivalence returns."""
    verdicts = []
    original = harmgerm.equivalence.radial_step_holds

    def wrapper(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    monkeypatch.setattr(harmgerm.equivalence, "radial_step_holds", wrapper)
    return verdicts


@pytest.fixture
def tampered_scale_map(monkeypatch):
    """The reduction's _inverse_scale_root returns the true map with one
    coefficient nudged: x^2 in the x-component gains 1/7, which moves
    f_k o phi in degree k+1."""
    original = harmgerm.equivalence._inverse_scale_root

    def nudged(w, k, bound):
        phi = original(w, k, bound)
        return jet_map(phi.x.poly + P("x^2") * Fraction(1, 7), phi.y.poly, phi.bound)

    monkeypatch.setattr(harmgerm.equivalence, "_inverse_scale_root", nudged)


@pytest.fixture
def tampered_radial_map(monkeypatch):
    """Call with m >= 2: the reduction's _inverse_scale_root then returns
    the true map plus (f_m, g_m)/7. The map stays radial,
    z -> z*(rho + z^(m-1)/7), so verify() checks it by its identity;
    f_k o phi moves in degree k + m - 1, inside the bound 2k - 4 for
    m <= k - 3."""
    original = harmgerm.equivalence._inverse_scale_root

    def tamper(m):
        pair = harmonic_pair(m)

        def nudged(w, k, bound):
            phi = original(w, k, bound)
            eps = Fraction(1, 7)
            return jet_map(phi.x.poly + pair.f * eps, phi.y.poly + pair.g * eps, phi.bound)

        monkeypatch.setattr(harmgerm.equivalence, "_inverse_scale_root", nudged)

    return tamper


@pytest.fixture
def tampered_certificate(monkeypatch):
    """The CLI's check_determinacy returns the true certificate with the
    first numerator of its first integer row raised by 1, so that row no
    longer multiplies back out to its monomial."""
    original = harmgerm.cli.check_determinacy

    def nudged(h, level):
        cert = original(h, level)
        (numerators, den), *rest = cert.combinations
        j = next(iter(numerators))
        return cert._replace(combinations=(({**numerators, j: numerators[j] + 1}, den), *rest))

    monkeypatch.setattr(harmgerm.cli, "check_determinacy", nudged)
