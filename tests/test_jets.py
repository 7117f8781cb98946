import contextlib
import hashlib
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import harmgerm.jets
from harmgerm.harmonic import harmonic_pair
from harmgerm.jets import (
    BoundMismatchError,
    Jet,
    complex_scale_map,
    jet_compose,
    jet_map,
    jet_map_compose,
    jet_root,
    jet_truncate,
    jets_equivalent_mod,
    radial_step_holds,
)
from harmgerm.jets import (
    JetMap,
    _compose_taylor,
    _graded_power,
    _radial_factor,
    _RadialImage,
)
from harmgerm.polyring import X, Y, InputError, Poly, format_poly, monomial_basis
from harmgerm.rng import (
    Xoshiro256StarStar,
    biharmonic_perturbation,
    derive_seed,
    kernel_perturbations,
    random_homogeneous,
)
from harmgerm.zcoords import (
    _change_variables,
    _conjugate,
    _convolve,
    _harmonic_quotient,
    _join,
    _split,
    _xy_image,
    _z_image,
    harmonic_multiple,
)

from conftest import P, counted, identity_map, inverse_scale_map, oracle_compose, reference_membership


def random_zero_order_poly(data, max_degree, min_degree=1):
    terms = {}
    for d in range(min_degree, max_degree + 1):
        for exps in monomial_basis(d):
            terms[exps] = data.draw(st.integers(-3, 3))
    return Poly(terms)


class TestTruncate:
    def test_drops_high_terms(self):
        assert jet_truncate(P("x + x^5"), 3).poly == P("x")

    def test_keeps_exact_bound(self):
        f5 = harmonic_pair(5).f
        assert jet_truncate(f5, 5).poly == f5

    def test_zero(self):
        assert jet_truncate(Poly.zero(), 7).poly == Poly.zero()

    def test_jet_rejects_overflow(self):
        with pytest.raises(ValueError):
            Jet(P("x^4"), 3)


# (record type, fields breaking one invariant, error, message); every
# route that builds a record must raise it
INVALID_RECORDS = {
    "negative bound": (Jet, (P("x"), -1), ValueError, "non-negative"),
    "overflow": (Jet, (P("x^4"), 3), ValueError, "exceeds"),
    "constant term": (JetMap, (Jet(P("1 + x"), 3), Jet(P("y"), 3), 3), ValueError, "origin"),
    "singular linear part": (JetMap, (Jet(P("x + y"), 3), Jet(P("x + y"), 3), 3), ValueError, "singular"),
    "component bound mismatch": (JetMap, (Jet(P("x"), 3), Jet(P("y"), 2), 3), BoundMismatchError, "disagree"),
}
VALID_RECORDS = {Jet: Jet(P("x"), 3), JetMap: identity_map(3)}


class TestJetMapInvariants:
    def test_constant_term_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            jet_map(P("1 + x"), P("y"), 3)

    def test_singular_linear_part_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            jet_map(P("x + y"), P("x + y"), 3)

    @pytest.mark.parametrize("route", ("construct", "replace", "unpickle"))
    @pytest.mark.parametrize("case", INVALID_RECORDS)
    def test_every_route_checks(self, case, route):
        cls, fields, error, message = INVALID_RECORDS[case]
        with pytest.raises(error, match=message):
            if route == "construct":
                cls(*fields)
            elif route == "replace":
                VALID_RECORDS[cls]._replace(**dict(zip(cls._fields, fields)))
            else:
                # tuple.__new__ skips the checks, so the bytes hold a bad record
                pickle.loads(pickle.dumps(tuple.__new__(cls, fields)))

    @pytest.mark.parametrize("record", VALID_RECORDS.values(), ids=lambda r: type(r).__name__)
    def test_valid_records_round_trip(self, record):
        for copy in (pickle.loads(pickle.dumps(record)), record._replace()):
            assert type(copy) is type(record) and copy == record

    def test_reprs(self):
        jet = Jet(P("x + y^2"), 2)
        assert repr(jet) == "Jet(poly=Poly('y^2 + x'), bound=2)"
        assert repr(jet_map(X, Y, 1)) == (
            "JetMap(x=Jet(poly=Poly('x'), bound=1), y=Jet(poly=Poly('y'), bound=1), bound=1)"
        )

    def test_fields_are_read_only(self):
        with pytest.raises(AttributeError):
            Jet(P("x"), 3).bound = 4


class TestCompose:
    def test_shear_example(self):
        h = jet_truncate(P("x^2 - y^2"), 3)
        phi = jet_map(P("x + x^2"), P("y"), 3)
        composed = jet_compose(h, phi)
        assert composed.poly == P("x^2 - y^2 + 2*x^3")
        assert composed.poly == oracle_compose(h.poly, P("x + x^2"), P("y"), 3)

    def test_identity(self):
        h = jet_truncate(P("x^3 - 3*x*y^2 + x*y"), 4)
        assert jet_compose(h, identity_map(4)) == h

    def test_swap(self):
        h = jet_truncate(P("x"), 2)
        swap = jet_map(P("y"), P("x"), 2)
        assert jet_compose(h, swap).poly == P("y")

    def test_bound_mismatch(self):
        with pytest.raises(BoundMismatchError):
            jet_compose(jet_truncate(P("x"), 3), identity_map(4))


def random_rational_poly(data, max_degree, min_degree=0):
    terms = {}
    for d in range(min_degree, max_degree + 1):
        for exps in monomial_basis(d):
            terms[exps] = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 4)))
    return Poly(terms)


def radial_map(rho_re, rho_im, bound):
    """z -> z*rho in real coordinates, rho = rho_re + i*rho_im."""
    return jet_map(P("x") * rho_re - P("y") * rho_im, P("x") * rho_im + P("y") * rho_re, bound)


class TestComposePaths:
    """The composition route against sympy substitution and Poly products.

    A map L + tau composes in two stages: Horner's rule substitutes the
    linear part L unless it is the identity, and the Taylor expansion of
    id + L^(-1) tau follows unless tau = 0."""

    # sympy expands the substitution in full before truncating, so the
    # jets and maps stay at degree 4 and 3

    @given(st.integers(1, 5), st.integers(0, 2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_radial_maps(self, bound, rho_degree, data):
        # rho_degree 0 is a constant rho: a rotation and rescaling
        h = random_rational_poly(data, min(bound, 4), data.draw(st.integers(0, min(bound, 4))))
        rho_re = random_rational_poly(data, min(rho_degree, bound - 1))
        rho_im = random_rational_poly(data, min(rho_degree, bound - 1))
        assume(rho_re.coeff(0, 0) or rho_im.coeff(0, 0))
        phi = radial_map(rho_re, rho_im, bound)
        assert harmgerm.jets._radial_factor(phi) is not None
        composed = jet_compose(jet_truncate(h, bound), phi)
        assert composed.poly == oracle_compose(h, phi.x.poly, phi.y.poly, bound)

    @given(st.integers(1, 16), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rotations_match_poly_products(self, bound, rotation, with_tau, data):
        # phi = L + tau against sum c_ab phi_x^a phi_y^b expanded by truncated
        # Poly products alone, past the sympy test's sizes. L is z -> delta*z,
        # delta = p + iq, or any invertible rational linear part: shears,
        # reflections, det < 0; tau, when drawn, has order >= 2
        parts = st.integers(-(10**30), 10**30), st.integers(1, 10**30)
        entry = st.one_of(st.sampled_from([0, 1, -1]), st.builds(Fraction, *parts))
        if rotation:
            p, q = (Fraction(data.draw(parts[0]), data.draw(parts[1])) for _ in range(2))
            a, b, c, d = p, -q, q, p
        else:
            a, b, c, d = (data.draw(entry) for _ in range(4))
        assume(a * d - b * c)
        monomials = [(i, n - i) for n in range(bound + 1) for i in range(n + 1)]
        coeffs = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
        h = Poly(data.draw(st.dictionaries(st.sampled_from(monomials), coeffs, max_size=40)))
        px, py = X * a + Y * b, X * c + Y * d
        if with_tau:
            nonlinear = st.sampled_from([(i, n - i) for n in range(2, bound + 2) for i in range(n + 1)])
            small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
            px, py = (part + Poly(data.draw(st.dictionaries(nonlinear, small, max_size=6))) for part in (px, py))
        phi = jet_map(px, py, bound)
        powers = [[Poly.constant(1)], [Poly.constant(1)]]
        for row, factor in zip(powers, (phi.x.poly, phi.y.poly)):
            for _ in range(bound):
                row.append(row[-1].mul_truncated(factor, bound))
        expected = Poly.zero()
        for (i, j), coeff in h.terms():
            expected = expected + powers[0][i].mul_truncated(powers[1][j], bound).scale(coeff)
        with route_counters() as counters:
            composed = jet_compose(jet_truncate(h, bound), phi)
        assert routes_taken(counters) == routes_for(phi)
        assert composed.poly == expected

    @given(st.integers(2, 5), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_maps_not_divisible_by_z(self, bound, translation, data):
        h = random_rational_poly(data, min(bound, 4), data.draw(st.integers(0, min(bound, 4))))
        if translation:
            px = P("x") + random_rational_poly(data, min(bound, 3), 2)
            py = P("y") + random_rational_poly(data, min(bound, 3), 2)
        else:
            # a scale map plus one term whose zbar^m part cannot cancel
            rho = random_rational_poly(data, min(bound - 1, 2), 1)
            m = data.draw(st.integers(2, min(bound, 3)))
            extra = Poly.monomial(0, m, data.draw(st.integers(1, 3)))
            phi = radial_map(P("1") + rho, rho, bound)
            px, py = phi.x.poly + extra, phi.y.poly
        phi = jet_map(px, py, bound)
        assume(harmgerm.jets._radial_factor(phi) is None)
        composed = jet_compose(jet_truncate(h, bound), phi)
        assert composed.poly == oracle_compose(h, px, py, bound)

    @given(st.integers(2, 6), st.sampled_from(["none", "harmonic", "x only"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_radial_test_matches_the_zbar_terms(self, bound, extra, data):
        # `_radial_factor` reads the zbar^n entries off the change of
        # variables; z divides P = phi.x + i*phi.y exactly when every
        # homogeneous component of P vanishes at (x, y) = (1, i), where z = 0
        phi = radial_map(
            P("1") + random_rational_poly(data, bound - 1, 1), random_rational_poly(data, bound - 1), bound
        )
        px, py = phi.x.poly, phi.y.poly
        m = data.draw(st.integers(2, bound))
        c = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 4)))
        if extra == "harmonic":
            # (f_m, g_m) adds z^m: still radial
            px, py = px + harmonic_pair(m).f * c, py + harmonic_pair(m).g * c
        elif extra == "x only":
            px = px + random_rational_poly(data, m, m) * c
        phi = jet_map(px, py, bound)
        # at[(n, 0)], at[(n, 1)]: the real and imaginary parts of P_n(1, i)
        at = {}
        for p, turn in ((px, 0), (py, 1)):
            for (a, b), c in p.terms():
                q = (b + turn) % 4
                at[(a + b, q % 2)] = at.get((a + b, q % 2), 0) + (c if q < 2 else -c)
        divisible = not any(at.values())
        assert (_radial_factor(phi) is not None) == divisible
        if extra != "x only":
            assert divisible


def non_dyadic_poly(data, max_degree, min_degree=0):
    """Sparse rational polynomial with denominators 3, 7 and 9, so that
    combining parts needs a true lcm rather than a power of 2."""
    terms = {}
    for d in range(min_degree, max_degree + 1):
        for exps in monomial_basis(d):
            if data.draw(st.booleans()):
                n = data.draw(st.integers(-20, 20))
                terms[exps] = Fraction(n, data.draw(st.sampled_from([1, 3, 7, 9])))
    return Poly(terms)


def gaussian_expand(forms):
    """The product of linear forms {(1, 0): (re, im), (0, 1): (re, im)}, as
    {(m, n): (re, im)} with Fraction parts."""
    out = {(0, 0): (Fraction(1), Fraction(0))}
    for form in forms:
        product = {}
        for (m, n), (a, b) in out.items():
            for (dm, dn), (c, d) in form.items():
                re, im = product.get((m + dm, n + dn), (0, 0))
                product[(m + dm, n + dn)] = (re + a * c - b * d, im + a * d + b * c)
        out = product
    return out


HALF = Fraction(1, 2)
# x = (z + zbar)/2 and y = (z - zbar)/(2i) = -i*z/2 + i*zbar/2
XY_IN_Z = ({(1, 0): (HALF, 0), (0, 1): (HALF, 0)}, {(1, 0): (0, -HALF), (0, 1): (0, HALF)})
# z = x + iy and zbar = x - iy
Z_IN_XY = ({(1, 0): (1, 0), (0, 1): (0, 1)}, {(1, 0): (1, 0), (0, 1): (0, -1)})


def reference_change_variables(re, im, first, second):
    """re + i*im with every monomial s^a t^b replaced by first^a * second^b,
    expanded term by term in Fractions."""
    out_re, out_im = {}, {}
    for imaginary_part, part in ((False, re), (True, im)):
        for (a, b), c in part.terms():
            for key, (u, v) in gaussian_expand([first] * a + [second] * b).items():
                # c*(u + iv), times i for the imaginary part
                t_re, t_im = (-c * v, c * u) if imaginary_part else (c * u, c * v)
                out_re[key] = out_re.get(key, 0) + t_re
                out_im[key] = out_im.get(key, 0) + t_im
    return Poly(out_re), Poly(out_im)


def assert_lowest_terms(p):
    assert p._den >= 1
    assert all(p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1


def assert_components(components):
    """Each component has lists of length d + 1 over den > 0, in lowest
    terms; the zero component has den 1."""
    for d, (re, im, den) in enumerate(components):
        assert len(re) == len(im) == d + 1
        assert den >= 1 and math.gcd(den, *re, *im) == 1
        if not any(re) and not any(im):
            assert den == 1


class TestIntegerHelpers:
    """The component helpers work on integer lists; each result must equal
    the Fraction computation and be in lowest terms."""

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_change_variables_matches_fractions(self, degree, data):
        p, q = non_dyadic_poly(data, degree), non_dyadic_poly(data, degree)
        w = _split(p, q, degree)
        for image, forms in ((_z_image, XY_IN_Z), (_xy_image, Z_IN_XY)):
            out = _change_variables(w, image)
            assert _join(out) == reference_change_variables(p, q, *forms)
            assert len(out) == degree + 1
            assert_components(out)
            for part in _join(out):
                assert_lowest_terms(part)

    @given(st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_change_variables_round_trip(self, degree, data):
        w = _split(non_dyadic_poly(data, degree), non_dyadic_poly(data, degree), degree)
        assert _change_variables(_change_variables(w, _z_image), _xy_image) == w

    @given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reindexing_and_shifts(self, degree, i, j, data):
        p = non_dyadic_poly(data, degree)
        q = non_dyadic_poly(data, degree)
        # the conjugate of p + iq in (z, zbar) swaps the exponents and negates q
        conj = _join([_conjugate(c) for c in _split(p, q, degree)])
        swapped = Poly({(b, a): c for (a, b), c in p.terms()})
        assert conj == (swapped, -Poly({(b, a): c for (a, b), c in q.terms()}))
        bound = data.draw(st.integers(0, degree + i + j))
        shifted = p.shifted(i, j, bound)
        assert shifted == (p * Poly.monomial(i, j)).truncate(bound)
        for result in (*conj, shifted):
            assert_lowest_terms(result)

    @given(st.integers(1, 4), st.integers(0, 2), st.data())
    @settings(max_examples=30, deadline=None)
    def test_radial_compose_matches_oracle(self, bound, rho_degree, data):
        h = non_dyadic_poly(data, bound, 1)
        rho_re = P("1") + non_dyadic_poly(data, min(rho_degree, bound - 1), 1)
        rho_im = non_dyadic_poly(data, min(rho_degree, bound - 1))
        phi = radial_map(rho_re, rho_im, bound)
        assert harmgerm.jets._radial_factor(phi) is not None
        composed = jet_compose(jet_truncate(h, bound), phi)
        assert composed.poly == oracle_compose(h, phi.x.poly, phi.y.poly, bound)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_components_in_lowest_terms(self, degree, data):
        p, q = non_dyadic_poly(data, degree, 1), non_dyadic_poly(data, degree, 1)
        w = _split(p, q, degree)
        z = _change_variables(w, _z_image)
        rho = _radial_factor(radial_map(P("1") + p, q, degree + 1))
        image = _RadialImage(z, rho)
        pair = harmonic_pair(degree)
        multiple = (p * pair.f + q * pair.g).truncate(2 * degree - 1)
        quotient = _harmonic_quotient(
            _change_variables(_split(multiple, Poly.zero(), 2 * degree - 1), _z_image), degree
        )
        assert quotient is not None
        outputs = [
            w,
            z,
            _change_variables(z, _xy_image),
            [_conjugate(part) for part in z],
            _graded_power(w, Fraction(-2, 3), degree),
            [image.component(d) for d in range(degree + 1)],
            quotient,
            rho,
        ]
        for components in outputs:
            assert_components(components)
        for d, part in enumerate(w):
            # a sum that cancels is the zero component, over 1
            zero = _convolve([(1, part, part), (-1, part, part)], 2 * d)
            assert zero == ([0] * (2 * d + 1), [0] * (2 * d + 1), 1)


@contextlib.contextmanager
def route_counters():
    """The calls of each composition route made inside the block."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield {
            name: counted(monkeypatch, harmgerm.jets, f"_compose_{name}")
            for name in ("linear", "taylor")
        }


def routes_taken(counters):
    return {name: len(calls) for name, calls in counters.items() if calls}


def routes_for(phi):
    """The stages that compose through phi = L + tau: Horner's rule unless
    L is the identity, then Taylor unless tau = 0."""
    linear = (phi.x.poly.graded_component(1), phi.y.poly.graded_component(1)) != (X, Y)
    tau = phi.x.poly.degree() > 1 or phi.y.poly.degree() > 1
    return {name: 1 for name, taken in (("linear", linear), ("taylor", tau)) if taken}


class TestHarmonicMultiple:
    @pytest.mark.parametrize("m", range(1, 15))
    def test_matches_membership_solve(self, m):
        # below degree 2m the pair is unique, so the coefficient read and
        # the canonical elimination must agree exactly
        rng = Xoshiro256StarStar(derive_seed(2016, m))
        pair = harmonic_pair(m)
        for n in range(m, 2 * m):
            u = random_homogeneous(rng, n - m) / rng.randint(1, 7)
            v = random_homogeneous(rng, n - m) / rng.randint(1, 7)
            p = u * pair.f + v * pair.g
            assert harmonic_multiple(p, m) == (u, v) == reference_membership(p, m, n - m), (m, n)
            if n <= 2 * m - 2:
                # every degree-(2m-1) form is a multiple; below it a random
                # form almost never is
                q = p + random_homogeneous(rng, n)
                assert harmonic_multiple(q, m) is None, (m, n)
                assert reference_membership(q, m, n - m) is None, (m, n)
        assert harmonic_multiple(Poly.zero(), m) == (Poly.zero(), Poly.zero())

    @pytest.mark.parametrize("m", (1, 2, 5, 9))
    def test_degree_2m_rejected(self, m):
        # from degree 2m on, the pair is not unique
        with pytest.raises(ValueError):
            harmonic_multiple(P(f"x^{m}") * harmonic_pair(m).f, m)

    def test_below_degree_m_is_none(self):
        assert harmonic_multiple(P("x^3 + y"), 4) is None


class TestTaylorRoute:
    """Every map L + tau with tau != 0 composes id + L^(-1) tau by Taylor
    expansion, after Horner's rule has substituted a linear part L other
    than the identity; a linear map takes Horner's rule alone.

    Sympy substitutes and expands in full, so the jets stay at bound 6."""

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, m, data):
        bound = data.draw(st.integers(m, 6))
        order = data.draw(st.integers(0, bound))
        h = non_dyadic_poly(data, min(bound, order + 2), order)
        a = data.draw(st.integers(0, m))
        tx = Poly.monomial(a, m - a, Fraction(1, 3)) + non_dyadic_poly(data, min(bound, m + 1), m)
        ty = non_dyadic_poly(data, min(bound, m + 1), m)
        phi = jet_map(P("x") + tx, P("y") + ty, bound)
        assume(_radial_factor(phi) is None)
        with route_counters() as counters:
            composed = jet_compose(jet_truncate(h, bound), phi)
        assert routes_taken(counters) == {"taylor": 1}
        assert composed.poly == oracle_compose(h, phi.x.poly, phi.y.poly, bound)

    @pytest.mark.parametrize(
        "h, tx, ty, bound",
        [
            ("x^3 - 3*x*y^2 + 1/7*x*y", "1/3*y^2", "2/9*x^2 - x*y", 6),
            ("x^2 + 5/3*y^2", "x^2*y", "1/9*y^3", 6),
            ("1 + x + y^2", "7/3*x*y", "-1/7*x^2", 4),
        ],
    )
    def test_terms_beyond_first_order_survive(self, h, tx, ty, bound):
        phi = jet_map(P("x") + P(tx), P("y") + P(ty), bound)
        with route_counters() as counters:
            composed = jet_compose(jet_truncate(P(h), bound), phi).poly
        assert routes_taken(counters) == {"taylor": 1}
        assert composed == oracle_compose(P(h), phi.x.poly, phi.y.poly, bound)
        first_order = P(h) + P(h).diff("x") * P(tx) + P(h).diff("y") * P(ty)
        assert composed != first_order.truncate(bound)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_other_linear_parts_take_the_taylor_route(self, data):
        bound = data.draw(st.integers(2, 5))
        a, b, c, d = (data.draw(st.integers(-2, 2)) for _ in range(4))
        assume(a * d - b * c and (a, b, c, d) != (1, 0, 0, 1))
        h = non_dyadic_poly(data, min(bound, 4), data.draw(st.integers(0, min(bound, 4))))
        px = Poly({(1, 0): a, (0, 1): b}) + non_dyadic_poly(data, min(bound, 3), 2)
        py = Poly({(1, 0): c, (0, 1): d}) + non_dyadic_poly(data, min(bound, 3), 2)
        phi = jet_map(px, py, bound)
        assume(_radial_factor(phi) is None)
        with route_counters() as counters:
            composed = jet_compose(jet_truncate(h, bound), phi)
        assert routes_taken(counters) == routes_for(phi)
        assert composed.poly == oracle_compose(h, px, py, bound)

    @pytest.mark.parametrize(
        "h, px, py, bound",
        [
            # the reflection z -> zbar: linear, not radial
            ("x^3 - 3*x*y^2 + 1/7*x^2*y + 2/3*y", "x", "-y", 4),
            # a pure linear shear, with deg h equal to the bound
            ("x^4 - 1/3*x*y^3 + 5/7*y^2 + x", "x + y", "y", 4),
            # tau_x = 0 has infinite order inside the min
            ("x^3*y + 2/9*x^2 - y^3 + 4*y", "x", "2*y + x^2", 5),
        ],
    )
    def test_linear_parts_of_order_one(self, h, px, py, bound):
        phi = jet_map(P(px), P(py), bound)
        assert _radial_factor(phi) is None
        with route_counters() as counters:
            composed = jet_compose(jet_truncate(P(h), bound), phi)
        assert routes_taken(counters) == routes_for(phi)
        assert composed.poly == oracle_compose(P(h), P(px), P(py), bound)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_linear_shear_runs_the_whole_sum(self, d):
        # the shear is linear, so Horner's rule substitutes it in full and no
        # Taylor sum runs: the y^d term of (x + y)^d comes from its last step
        h = Poly({(d, 0): Fraction(1, 3), (d - 1, 1): Fraction(-2, 7), (0, 1): 1})
        phi = jet_map(P("x + y"), P("y"), d)
        with route_counters() as counters:
            composed = jet_compose(jet_truncate(h, d), phi).poly
        assert routes_taken(counters) == {"linear": 1}
        expanded = sum(((P("x + y") ** a * P("y") ** b).scale(c) for (a, b), c in h.terms()), Poly.zero())
        assert composed == expanded

    @pytest.mark.parametrize("kind", ["radial_map", "complex_scale_map", "biharmonic_translation"])
    def test_radial_maps_take_the_taylor_route(self, kind):
        h = P("x^4 - 6*x^2*y^2 + y^4 + 1/7*x^5")
        if kind == "radial_map":
            # linear part the identity: z -> z*(1 + x*y + i*x^2/3)
            phi = radial_map(P("1 + x*y"), P("1/3*x^2"), 5)
        elif kind == "complex_scale_map":
            phi = complex_scale_map(jet_truncate(P("1/3*x + y^2"), 4), jet_truncate(P("2*x*y - 1/5*y"), 4), 3)
        else:
            # R in the 2-fold Laplacian kernel: its translations z -> z - T
            # have T divisible by z
            from harmgerm.equivalence import verify_biharmonic
            from harmgerm.graded import kernel_basis
            from harmgerm.rng import random_in_span

            rng = Xoshiro256StarStar(7)
            r = sum((random_in_span(rng, kernel_basis(d, 2).basis) for d in range(8, 11)), Poly.zero())
            phi = verify_biharmonic(7, r).maps[0]
        assert _radial_factor(phi) is not None
        h = jet_truncate(h, phi.bound)
        with route_counters() as counters:
            composed = jet_compose(h, phi)
        assert routes_taken(counters) == {"taylor": 1}
        assert composed.poly == oracle_compose(h.poly, phi.x.poly, phi.y.poly, phi.bound)

    @pytest.mark.parametrize("re, im", [("1", "1"), ("2", "-1/3"), ("0", "1"), ("-3/7", "0")])
    def test_rotations_take_the_radial_route(self, re, im):
        # z -> delta*z, a radial map with constant rho, is linear: Horner's
        # rule alone composes it
        phi = radial_map(P(re), P(im), 5)
        h = P("x^4 - 6*x^2*y^2 + 2/3*y^5 + 1/7*x^3*y - x*y + 5*y")
        with route_counters() as counters:
            composed = jet_compose(jet_truncate(h, 5), phi)
        assert routes_taken(counters) == {"linear": 1}
        assert composed.poly == oracle_compose(h, phi.x.poly, phi.y.poly, 5)

    def test_reduction_translations_take_the_taylor_route(self):
        from harmgerm.equivalence import absorption_profile, reduce_germ

        k = 8
        rhos = kernel_perturbations(Xoshiro256StarStar(5), absorption_profile(k))
        with route_counters() as counters:
            chain = reduce_germ(k, rhos)
        assert chain.verified and len(chain.maps) == 3
        # translations at offsets 3 and 4, composed only in verify(); the
        # reduction reads them off the germ's components, and verify()
        # checks the scale map by its identity, by neither route
        assert routes_taken(counters) == {"taylor": 2}


class TestRadialRouteBeyondTheBenchmark:
    """Bound 36, past the benchmark's bounds 10-16, on CI's seeded germ
    construction at k = 20 (`Xoshiro256StarStar(2016)`, one kernel
    perturbation per offset, then the tail): the rotation composes by
    Horner's rule, the translations, radial or not, by Taylor."""

    K = 20

    @staticmethod
    def digest(chain):
        return hashlib.sha256(chain.to_json().encode()).hexdigest()

    def test_rotated_reduce(self):
        from harmgerm.equivalence import absorption_profile, reduce_general

        k = self.K
        rng = Xoshiro256StarStar(2016)
        germ = harmonic_pair(k).f + sum(kernel_perturbations(rng, absorption_profile(k)).values(), Poly.zero())
        germ = germ + random_homogeneous(rng, 2 * k - 3)
        # germ o (z -> (1 + i)z), composed exactly at its own degree
        rotated = jet_compose(jet_truncate(germ, 2 * k - 3), radial_map(P("1"), P("1"), 2 * k - 3)).poly
        with route_counters() as counters:
            chain = reduce_general(rotated, k)
        # verify() composes the rotation by Horner's rule and each
        # translation by Taylor, and checks the scale map by its identity;
        # the construction rotates the germ's (z, zbar) components itself
        assert [call[2] for call in counters["linear"]] == [2 * k - 4]
        assert len(counters["taylor"]) == len(chain.maps) - 2
        assert self.digest(chain) == "e41bd62ace333f582c704c018e5af53d471f4f1773404317a141b17e992a553a"

    def test_biharmonic(self):
        from harmgerm.equivalence import verify_biharmonic

        k = self.K
        r = biharmonic_perturbation(Xoshiro256StarStar(2016), k)
        with route_counters() as counters:
            chain = verify_biharmonic(k, r)
        # the translations are radial, as R's components are biharmonic, but
        # not linear: verify() composes them by Taylor and checks the scale
        # map by its identity
        assert routes_taken(counters) == {"taylor": 8}
        assert self.digest(chain) == "793841ab00f0b4384595051a7b23bd890d7d17254ca3bebe68a98ab8604fb02a"


class TestMapCompose:
    def test_identity_neutral(self):
        phi = jet_map(P("x + x^2 - y^2"), P("y + 3*x*y"), 4)
        composed = jet_map_compose(phi, identity_map(4))
        assert composed == phi

    def test_bound_mismatch(self):
        with pytest.raises(BoundMismatchError) as err:
            jet_map_compose(identity_map(3), identity_map(4))
        assert str(err.value) == "map bounds differ: 3 vs 4"

    def test_shear_cancellation_at_low_bound(self):
        a = jet_map(P("x + x^2"), P("y"), 2)
        b = jet_map(P("x - x^2"), P("y"), 2)
        assert jet_map_compose(a, b) == identity_map(2)
        # agreement genuinely stops at degree 2: sympy expansion has an x^3 term
        full = oracle_compose(P("x + x^2"), P("x - x^2"), P("y"), 4)
        assert full != P("x")

    def test_swap_involution(self):
        swap = jet_map(P("y"), P("x"), 3)
        assert jet_map_compose(swap, swap) == identity_map(3)

    @given(st.booleans(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_associativity_with_composition(self, linear, data):
        # with `linear`, both maps draw a linear part other than the identity
        bound = 6
        h = jet_truncate(random_zero_order_poly(data, 3), bound)

        def draw_map():
            a, b, c, d = 1, 0, 0, 1
            if linear:
                a, b, c, d = (data.draw(st.integers(-2, 2)) for _ in range(4))
                assume(a * d - b * c and (a, b, c, d) != (1, 0, 0, 1))
            return jet_map(
                Poly({(1, 0): a, (0, 1): b}) + random_zero_order_poly(data, 3, 2),
                Poly({(1, 0): c, (0, 1): d}) + random_zero_order_poly(data, 3, 2),
                bound,
            )

        phi, psi = draw_map(), draw_map()
        assert jet_compose(jet_compose(h, phi), psi) == jet_compose(
            h, jet_map_compose(phi, psi)
        )


class TestJetRoot:
    def test_square_root_series(self):
        root = jet_root(jet_truncate(P("2*x*y"), 4), 2)
        assert root.poly == P("1 + x*y - 1/2*x^2*y^2")

    def test_trivial_root(self):
        assert jet_root(jet_truncate(Poly.zero(), 5), 3).poly == Poly.constant(1)

    def test_first_root(self):
        assert jet_root(jet_truncate(P("x"), 4), 1).poly == P("1 + x")

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            jet_root(Jet(P("1 + x"), 3), 2)

    @given(st.integers(1, 5), st.integers(2, 6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_power_roundtrip_via_sympy(self, k, bound, data):
        import sympy

        from conftest import from_sympy, to_sympy

        w = random_zero_order_poly(data, 2)
        root = jet_root(jet_truncate(w, bound), k)
        # independent multiplication: expand root^k with sympy and truncate
        power = from_sympy(sympy.expand(to_sympy(root.poly) ** k))
        assert power.truncate(bound) == (Poly.constant(1) + w).truncate(bound)

    @given(st.integers(1, 8), st.integers(2, 10), st.data())
    @settings(max_examples=40, deadline=None)
    def test_power_roundtrip_internal(self, k, bound, data):
        w = random_zero_order_poly(data, min(bound, 4))
        root = jet_root(jet_truncate(w, bound), k)
        power = Poly.constant(1)
        for _ in range(k):
            power = power.mul_truncated(root.poly, bound)
        assert power == (Poly.constant(1) + w).truncate(bound)


class TestEquivalentMod:
    def test_examples(self):
        assert jets_equivalent_mod(jet_truncate(P("x^2 + x^5"), 5), jet_truncate(P("x^2"), 5), 4)
        assert not jets_equivalent_mod(jet_truncate(P("x^2"), 2), jet_truncate(P("y^2"), 2), 2)
        f5 = harmonic_pair(5).f
        assert jets_equivalent_mod(jet_truncate(f5 + P("x^8"), 8), jet_truncate(f5, 8), 7)

    def test_insufficient_bound(self):
        with pytest.raises(BoundMismatchError):
            jets_equivalent_mod(jet_truncate(P("x"), 2), jet_truncate(P("x"), 2), 3)

    def test_equivalence_relation(self):
        a = jet_truncate(P("x^2 + x^3"), 4)
        b = jet_truncate(P("x^2 + x^4"), 4)
        c = jet_truncate(P("x^2 - y^4"), 4)
        k = 3
        assert jets_equivalent_mod(a, a, k)
        assert jets_equivalent_mod(a, b, k) == jets_equivalent_mod(b, a, k)
        if jets_equivalent_mod(a, b, k) and jets_equivalent_mod(b, c, k):
            assert jets_equivalent_mod(a, c, k)


class TestScaleMap:
    def test_pure_rescale(self):
        bound = 7
        u = jet_truncate(P("x"), bound)
        v = jet_truncate(Poly.zero(), bound)
        phi = complex_scale_map(u, v, 6)
        f6 = harmonic_pair(6).f
        lhs = jet_compose(jet_truncate(f6, bound), phi)
        assert lhs.poly == (f6 + P("x") * f6).truncate(bound)

    def test_zero_arguments_give_identity(self):
        phi = complex_scale_map(jet_truncate(Poly.zero(), 5), jet_truncate(Poly.zero(), 5), 4)
        assert phi == identity_map(5)

    @pytest.mark.parametrize(
        "u, error, message",
        [
            (Jet(P("x"), 4), BoundMismatchError, "jet bounds differ: 4 vs 3"),
            (Jet(P("1 + x"), 3), InputError, "scale map arguments must have zero constant term"),
        ],
    )
    def test_arguments_rejected(self, u, error, message):
        with pytest.raises(error) as err:
            complex_scale_map(u, Jet(P("y"), 3), 4)
        assert str(err.value) == message

    def test_mixing_term(self):
        bound = 6
        u = jet_truncate(Poly.zero(), bound)
        v = jet_truncate(P("y"), bound)
        phi = complex_scale_map(u, v, 5)
        pair = harmonic_pair(5)
        lhs = jet_compose(jet_truncate(pair.f, bound), phi)
        assert lhs.poly == (pair.f + P("y") * pair.g).truncate(bound)

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=25, deadline=None)
    def test_exactness_for_random_multipliers(self, k, data):
        bound = k + 4
        u = random_zero_order_poly(data, 3)
        v = random_zero_order_poly(data, 3)
        phi = complex_scale_map(jet_truncate(u, bound), jet_truncate(v, bound), k)
        pair = harmonic_pair(k)
        lhs = jet_compose(jet_truncate(pair.f, bound), phi)
        rhs = (pair.f + u * pair.f + v * pair.g).truncate(bound)
        assert lhs.poly == rhs

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=25, deadline=None)
    def test_inverse_recovers_leading_form(self, k, data):
        bound = k + 4
        u = random_zero_order_poly(data, 3)
        v = random_zero_order_poly(data, 3)
        pair = harmonic_pair(k)
        germ = pair.f + u * pair.f + v * pair.g
        phi = inverse_scale_map(jet_truncate(u, bound), jet_truncate(v, bound), k)
        assert jet_compose(jet_truncate(germ, bound), phi).poly == pair.f.truncate(bound)


# The parent algorithms of the graded power recurrence and the online
# solve, kept as references: the binomial series sum_m C(alpha, m) w^m and
# the solve that recomposes every degree below d on pass d.


def reference_binomial_coefficients(alpha, count):
    coeffs = [Fraction(1)]
    for m in range(1, count):
        coeffs.append(coeffs[-1] * (alpha - (m - 1)) / m)
    return coeffs


def complex_product(p, q, bound):
    """(p.re + i p.im)(q.re + i q.im) in (x, y), by four real products."""
    re = p[0].mul_truncated(q[0], bound) - p[1].mul_truncated(q[1], bound)
    im = p[0].mul_truncated(q[1], bound) + p[1].mul_truncated(q[0], bound)
    return re, im


def reference_series(w, coeffs, bound):
    """sum_m coeffs[m] * w^m for a complex pair w = (re, im) of Polys."""
    total = (Poly.constant(coeffs[0]), Poly.zero())
    power = (Poly.constant(1), Poly.zero())
    for m in range(1, len(coeffs)):
        power = complex_product(power, w, bound)
        if not power[0] and not power[1]:
            break
        total = (total[0] + power[0] * coeffs[m], total[1] + power[1] * coeffs[m])
    return total


def reference_jet_root(w, k):
    coeffs = reference_binomial_coefficients(Fraction(1, k), w.bound + 1)
    return Jet(reference_series((w.poly, Poly.zero()), coeffs, w.bound)[0], w.bound)


def reference_complex_scale_map(u, v, k):
    coeffs = reference_binomial_coefficients(Fraction(1, k), u.bound + 1)
    return radial_map(*reference_series((u.poly, -v.poly), coeffs, u.bound), u.bound)


def reference_inverse_scale_map(u, v, k):
    # each pass composes u and v with the map by its Taylor expansion
    bound = u.bound
    inner = bound - k
    if inner < 0:
        return identity_map(bound)
    coeffs = reference_binomial_coefficients(Fraction(-1, k), inner + 1)
    rho = (Poly.constant(1), Poly.zero())
    for d in range(1, inner + 1):
        phi = radial_map(*rho, d)
        tx, ty = phi.x.poly - X, phi.y.poly - Y
        u_d = _compose_taylor(u.poly.truncate(d), tx, ty, d)
        v_d = _compose_taylor(v.poly.truncate(d), tx, ty, d)
        rho = reference_series((u_d, -v_d), coeffs, d)
    phi = radial_map(*rho, inner + 1)
    return JetMap(Jet(phi.x.poly, bound), Jet(phi.y.poly, bound), bound)


class TestGradedPowerAndOnlineSolve:
    """The graded power recurrence and the online solve return exactly
    what the binomial series and the pass-based solve return."""

    @given(st.integers(1, 8), st.integers(0, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_scale_map_matches_passes(self, k, extra, data):
        bound = k + extra
        u = jet_truncate(non_dyadic_poly(data, min(bound, 5), 1), bound)
        v = jet_truncate(non_dyadic_poly(data, min(bound, 5), 1), bound)
        assert inverse_scale_map(u, v, k) == reference_inverse_scale_map(u, v, k)

    @given(st.integers(1, 8), st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_defining_identity(self, k, level, data):
        # ((1 + u - iv) o phi) * rho^k == 1 up to the degree phi is solved to
        bound = k + level
        u = non_dyadic_poly(data, min(bound, 3), 1)
        v = non_dyadic_poly(data, min(bound, 3), 1)
        phi = inverse_scale_map(jet_truncate(u, bound), jet_truncate(v, bound), k)
        rho_zz = _radial_factor(phi)
        assert rho_zz is not None
        rho = _join(_change_variables(rho_zz, _xy_image))
        at_level = jet_map(phi.x.poly, phi.y.poly, level)
        lhs = (
            P("1") + jet_compose(jet_truncate(u, level), at_level).poly,
            -jet_compose(jet_truncate(v, level), at_level).poly,
        )
        for _ in range(k):
            lhs = complex_product(lhs, rho, level)
        assert lhs == (P("1"), Poly.zero())

    @given(st.integers(1, 8), st.integers(1, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_complex_scale_map_matches_series(self, k, bound, data):
        u = jet_truncate(non_dyadic_poly(data, min(bound, 4), 1), bound)
        v = jet_truncate(non_dyadic_poly(data, min(bound, 4), 1), bound)
        assert complex_scale_map(u, v, k) == reference_complex_scale_map(u, v, k)

    @given(st.integers(1, 8), st.integers(0, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_jet_root_matches_series(self, k, bound, data):
        w = jet_truncate(non_dyadic_poly(data, min(bound, 4), 1), bound)
        assert jet_root(w, k) == reference_jet_root(w, k)


@pytest.mark.parametrize("k", (0, -1, -3))
@pytest.mark.parametrize("build", ("jet_root", "complex_scale_map"))
def test_root_index_below_one_rejected(build, k):
    u, v = jet_truncate(P("x"), 4), jet_truncate(P("y"), 4)
    calls = {
        "jet_root": lambda: jet_root(u, k),
        "complex_scale_map": lambda: complex_scale_map(u, v, k),
    }
    with pytest.raises(ValueError, match="root index must be at least 1"):
        calls[build]()


class TestInverseScaleMapBounds:
    def test_bound_equal_to_k_is_identity(self):
        # no degree of the map is visible at bound k, so it is the identity
        phi = inverse_scale_map(jet_truncate(P("x"), 5), jet_truncate(P("y"), 5), 5)
        assert phi == identity_map(5)


# The scale map at bound 2k-4, as the reduction builds it (`_inverse_scale_root`,
# through conftest's `inverse_scale_map`). The expected
# components pin the map exactly: a rewrite of the iteration must return
# the same polynomials, not only some map that also recovers f_k.
SCALE_MAP_GOLDEN = [
    (
        8,
        "x - 2*y^2 + 1/3*x*y",
        "y + x^2",
        (
            "493/98304*x^5 + 143/1536*x^4*y + 68777/147456*x^3*y^2 - "
            "117/256*x^2*y^3 + 22515/32768*x*y^4 - 13/1536*y^5 - 5/64*x^4 + "
            "17/192*x^3*y - 45/128*x^2*y^2 + 17/192*x*y^3 - 35/128*y^4 + 11/128*x^3 "
            "- 1/6*x^2*y + 43/128*x*y^2 - 1/8*x^2 - 1/8*y^2 + x"
        ),
        (
            "193/1024*x^5 - 8869/32768*x^4*y + 343/512*x^3*y^2 - "
            "52063/147456*x^2*y^3 - 185/3072*x*y^4 + 4695/32768*y^5 - 5/32*x^4 + "
            "21/256*x^3*y - 29/192*x^2*y^2 + 21/256*x*y^3 + 1/192*y^4 + 1/8*x^3 - "
            "7/128*x^2*y - 1/24*x*y^2 + 25/128*y^3 + y"
        ),
    ),
    (
        9,
        "3*x*y - y",
        "1/2*x",
        (
            "121/26244*x^6 + 284021/1889568*x^5*y + 1168/6561*x^4*y^2 + "
            "576197/472392*x^3*y^3 + 527/8748*x^2*y^4 - 24865/629856*x*y^5 + "
            "157/314928*x^5 + 1/27*x^4*y + 117943/157464*x^3*y^2 - 125/972*x^2*y^3 "
            "- 7927/314928*x*y^4 - 1/54*x^4 - 41/2187*x^3*y - 7/27*x^2*y^2 - "
            "185/17496*x*y^3 - 1/108*x^3 - 1/3*x^2*y + 1/108*x*y^2 + 1/18*x*y + x"
        ),
        (
            "77/629856*x^6 - 245/52488*x^5*y + 297769/314928*x^4*y^2 - "
            "9317/13122*x^3*y^3 + 446089/209952*x^2*y^4 - 14321/17496*x*y^5 + "
            "154/2187*y^6 - 11/972*x^5 - 317/39366*x^4*y - 449/972*x^3*y^2 + "
            "16358/19683*x^2*y^3 - 599/972*x*y^4 + 1288/19683*y^5 - 11/4374*x^4 - "
            "2/9*x^3*y + 319/5832*x^2*y^2 - 25/54*x*y^3 + 143/2187*y^4 + 1/18*x^2*y "
            "- 1/3*x*y^2 + 2/27*y^3 + 1/18*x^2 + 1/9*y^2 + y"
        ),
    ),
]


class TestInverseScaleMapGolden:
    @pytest.mark.parametrize("k, u, v, expected_x, expected_y", SCALE_MAP_GOLDEN)
    def test_recorded_maps(self, k, u, v, expected_x, expected_y):
        bound = 2 * k - 4
        phi = inverse_scale_map(jet_truncate(P(u), bound), jet_truncate(P(v), bound), k)
        assert format_poly(phi.x.poly) == expected_x
        assert format_poly(phi.y.poly) == expected_y
        pair = harmonic_pair(k)
        germ = pair.f + P(u) * pair.f + P(v) * pair.g
        assert jet_compose(jet_truncate(germ, bound), phi).poly == pair.f


class TestRadialStepHolds:
    """radial_step_holds decides h o phi == target up to the level exactly
    as composing does, whenever it gives a verdict."""

    @given(st.integers(5, 9), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_composition(self, k, non_dyadic, data):
        # non-dyadic multipliers give rho and W components over true lcms
        level = 2 * k - 4
        pair = harmonic_pair(k)
        draw = non_dyadic_poly if non_dyadic else random_zero_order_poly
        u = draw(data, k - 4, 1)
        v = draw(data, k - 4, 1)
        h = jet_truncate(pair.f + u * pair.f + v * pair.g, level)
        solved = inverse_scale_map(jet_truncate(u, level), jet_truncate(v, level), k)
        m = data.draw(st.integers(2, k - 3))
        nudge = harmonic_pair(m)
        tampered = jet_map(solved.x.poly + nudge.f / 3, solved.y.poly + nudge.g / 3, level)
        other = radial_map(P("1") + random_zero_order_poly(data, 2), random_zero_order_poly(data, 2), level)
        target = jet_truncate(pair.f, level)
        for phi in (solved, tampered, other):
            composed = jets_equivalent_mod(jet_compose(h, phi), target, level)
            assert radial_step_holds(h, phi, pair.f, level) is composed
        assert radial_step_holds(h, solved, pair.f, level) is True
        assert radial_step_holds(h, tampered, pair.f, level) is False

    @given(st.integers(5, 8), st.data())
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_composition_onto_other_targets(self, k, data):
        # h = Re(z^k (1 + w)) onto target = Re(z^k (1 + w')): undo w, then
        # apply w'; both maps and their composition are radial
        level = 2 * k - 4
        pair = harmonic_pair(k)
        u, v, u_target, v_target = (non_dyadic_poly(data, k - 4, 1) for _ in range(4))
        h = jet_truncate(pair.f + u * pair.f + v * pair.g, level)
        target = pair.f + u_target * pair.f + v_target * pair.g
        solved = jet_map_compose(
            inverse_scale_map(jet_truncate(u, level), jet_truncate(v, level), k),
            complex_scale_map(jet_truncate(u_target, level), jet_truncate(v_target, level), k),
        )
        m = data.draw(st.integers(2, k - 3))
        nudge = harmonic_pair(m)
        tampered = jet_map(solved.x.poly + nudge.f / 3, solved.y.poly + nudge.g / 3, level)
        for phi in (solved, tampered):
            composed = jets_equivalent_mod(jet_compose(h, phi), jet_truncate(target, level), level)
            assert radial_step_holds(h, phi, target, level) is composed
        assert radial_step_holds(h, solved, target, level) is True
        assert radial_step_holds(h, tampered, target, level) is False

    F6, G6 = harmonic_pair(6).f, harmonic_pair(6).g

    @pytest.mark.parametrize(
        "h, phi, level, why",
        [
            (F6, radial_map(P("1 + x"), P("y"), 12), 12, "level not below 2k"),
            (F6, radial_map(P("1 + x"), P("y"), 10), 11, "level above the bound"),
            (F6, jet_map(P("x + x^2"), P("y"), 10), 10, "map not radial"),
            (F6, radial_map(P("2"), P("x"), 10), 10, "rho(0) is not 1"),
            (F6 + P("x^7"), radial_map(P("1 + x"), P("y"), 10), 10, "not a harmonic multiple"),
            (F6 * 2, radial_map(P("1 + x"), P("y"), 10), 10, "order k"),
            (F6 + G6, radial_map(P("1 + x"), P("y"), 10), 10, "order k"),
        ],
    )
    def test_does_not_apply(self, h, phi, level, why):
        assert radial_step_holds(jet_truncate(h, phi.bound), phi, self.F6, level) is None, why

    @pytest.mark.parametrize(
        "target, why",
        [
            (F6 + P("x^7"), "not a harmonic multiple"),
            (F6 * 2, "order-k part not f_k"),
            (F6 + G6, "order-k part not f_k"),
            (P("x^4"), "level not below twice its order"),
            (Poly.zero(), "zero"),
        ],
    )
    def test_does_not_apply_to_the_target(self, target, why):
        phi = radial_map(P("1 + x"), P("y"), 10)
        assert radial_step_holds(jet_truncate(self.F6, 10), phi, target, 10) is None, why

    def test_bounds_must_match(self):
        phi = radial_map(P("1 + x"), P("y"), 11)
        assert radial_step_holds(jet_truncate(self.F6, 10), phi, self.F6, 10) is None
