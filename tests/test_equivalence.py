import hashlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmgerm.equivalence
import harmgerm.graded
import harmgerm.jets
import harmgerm.polyring
from harmgerm import linalg
from harmgerm.determinacy import determined_bound_report
from harmgerm.equivalence import (
    MembershipError,
    RescalingWitness,
    WitnessChain,
    WitnessFault,
    _gaussian_pow,
    _reduction_maps,
    _verified_chain,
    absorption_profile,
    exact_kth_root,
    leading_coefficients,
    normalize_harmonic,
    reduce_general,
    reduce_germ,
    verify_biharmonic,
)
from harmgerm.graded import kernel_basis, solve_membership
from harmgerm.harmonic import harmonic_pair
from harmgerm.jets import (
    Jet,
    _radial_factor,
    complex_scale_map,
    jet_compose,
    jet_map,
    jet_truncate,
    jets_equivalent_mod,
    radial_step_holds,
)
from harmgerm.polyring import R2, X, Y, InputError, Poly, laplacian_power, parse_poly
from harmgerm.rng import (
    Xoshiro256StarStar,
    biharmonic_perturbation,
    derive_seed,
    kernel_perturbations,
    random_homogeneous,
    random_in_span,
)
from harmgerm.zcoords import _component, _in_kernel, _z_components

from conftest import (
    P,
    counted,
    inverse_scale_map,
    recorded_verdicts,
    reference_membership,
    rescaled,
    translation_solution,
)


class TestAbsorptionProfile:
    def test_k5(self):
        profile = absorption_profile(5)
        assert dict(profile.exponents) == {1: 3}
        assert profile.split_offset == 1

    def test_k7(self):
        profile = absorption_profile(7)
        assert dict(profile.exponents) == {1: 2, 2: 4, 3: 5}
        assert profile.split_offset == 2

    def test_k8_rational_comparison(self):
        profile = absorption_profile(8)
        assert dict(profile.exponents) == {1: 2, 2: 3, 3: 5, 4: 6}
        assert profile.split_offset == 3

    @pytest.mark.parametrize("k", (5, 7, 9))
    def test_boundary_uses_upper_branch(self, k):
        # k odd: (k-3)/2 is an integer offset and must take the s+2 branch
        profile = absorption_profile(k)
        s = (k - 3) // 2
        assert profile.exponent(s) == s + 2
        assert profile.split_offset == s

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            absorption_profile(4)

    def test_offset_outside_the_profile(self):
        with pytest.raises(KeyError) as err:
            absorption_profile(8).exponent(9)
        assert err.value.args == ("offset 9 outside 1..4",)

    @pytest.mark.parametrize("k", range(5, 61))
    def test_closed_form_matches_the_threshold_definition(self, k):
        # sigma(s) = s + 1 below the rational threshold (k - 3)/2, s + 2 from
        # it on; the split offset is the first integer offset at or above it
        threshold = Fraction(k - 3, 2)
        exponents = tuple((s, s + 1 if s < threshold else s + 2) for s in range(1, k - 3))
        split = 1
        while split < threshold:
            split += 1
        profile = absorption_profile(k)
        assert profile == (k, exponents, split)
        assert all(profile.exponent(s) == power for s, power in exponents)


class TestNormalizeHarmonic:
    def test_identity(self):
        chain = normalize_harmonic(1, 0, 5)
        assert isinstance(chain, WitnessChain)
        assert chain.verified
        assert chain.maps[0].x.poly == P("x") and chain.maps[0].y.poly == P("y")

    def test_negated_quadratic_is_quarter_rotation(self):
        chain = normalize_harmonic(-1, 0, 2)
        assert isinstance(chain, WitnessChain)
        assert chain.maps[0].x.poly == P("-y")
        assert chain.maps[0].y.poly == P("x")
        f2 = harmonic_pair(2).f
        composed = jet_compose(jet_truncate(f2, 2), chain.maps[0])
        assert composed.poly == -f2

    def test_irrational_root_goes_numeric(self):
        # no Gaussian-rational square root of -i: the exact rescaling witness
        witness = normalize_harmonic(0, -1, 2)
        assert isinstance(witness, RescalingWitness)
        assert witness == RescalingWitness(2, Fraction(0), Fraction(-1), True)

    def test_scaling_with_exact_root(self):
        chain = normalize_harmonic(32, 0, 5)
        assert isinstance(chain, WitnessChain)
        assert chain.maps[0].x.poly == P("2*x")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_harmonic(0, 0, 3)

    def test_degree_zero_rejected(self):
        with pytest.raises(InputError) as err:
            normalize_harmonic(1, 0, 0)
        assert str(err.value) == "k must be at least 1"

    @pytest.mark.parametrize("k", (2, 3, 5, 8))
    def test_rescaling_identity_is_checked(self, k):
        # c = 2 + i/3 has no Gaussian-rational k-th root for k > 1, as 3 is
        # no k-th power; the binomial expansion of Re(c*(x + iy)^k) must
        # match the recurrence's pair
        witness = normalize_harmonic(2, Fraction(-1, 3), k)
        assert witness == RescalingWitness(k, Fraction(2), Fraction(-1, 3), True)

    @pytest.mark.parametrize("bad", (0.1, "1/8", None))
    def test_inexact_coefficients_rejected(self, bad):
        # floats are silently inexact; Poly raises the same TypeError
        with pytest.raises(TypeError, match="ints or Fractions"):
            normalize_harmonic(bad, 0, 3)
        with pytest.raises(TypeError, match="ints or Fractions"):
            normalize_harmonic(1, bad, 3)

    def test_exact_root_search(self):
        assert exact_kth_root(Fraction(-1), Fraction(0), 2) in ((0, 1), (0, -1))
        assert exact_kth_root(Fraction(0), Fraction(1), 2) is None


# exact_kth_root of 1/c for c = (1+i)^k, keyed by k % 4. These roots are
# the rescaling maps of every (1+i)-rescaled germ, and so of the recorded
# benchmark digests: the principal-first candidate order must keep them.
_INVERSE_ROOTS = {
    0: (Fraction(1, 2), Fraction(1, 2)),
    1: (Fraction(1, 2), Fraction(-1, 2)),
    2: (Fraction(-1, 2), Fraction(1, 2)),
    3: (Fraction(1, 2), Fraction(-1, 2)),
}


@st.composite
def _gaussian_rational(draw):
    """A nonzero p + qi with parts up to 2^200 and denominators above 10^9."""
    parts = []
    for _ in range(2):
        num = draw(st.integers(-(2**200), 2**200))
        den = draw(st.one_of(st.integers(1, 50), st.integers(10**9 + 1, 10**30)))
        parts.append(Fraction(num, den))
    if not any(parts):
        parts[0] = Fraction(1, 10**9 + 7)
    return tuple(parts)


class TestExactRoot:
    @given(_gaussian_rational(), st.integers(1, 28))
    @settings(max_examples=150, deadline=None)
    def test_root_of_a_power(self, delta, k):
        c = _gaussian_pow(*delta, k)
        root = exact_kth_root(*c, k)
        assert root is not None and _gaussian_pow(*root, k) == c
        p, q = delta
        assert root in ((p, q), (-p, -q), (-q, p), (q, -p))

    @pytest.mark.parametrize("k", range(5, 29))
    def test_rescaled_forms_keep_their_roots(self, k):
        c = _gaussian_pow(Fraction(1), Fraction(1), k)
        norm = c[0] ** 2 + c[1] ** 2
        assert exact_kth_root(*c, k) == (1, 1)
        assert exact_kth_root(c[0] / norm, -c[1] / norm, k) == _INVERSE_ROOTS[k % 4]

    @pytest.mark.parametrize("k", (2, 5, 12, 28))
    def test_perfect_norm_without_root(self, k):
        # delta^k times (3+4i)/5, of norm 1: the norm stays a k-th power
        re, im = _gaussian_pow(Fraction(7, 3), Fraction(-2, 11), k)
        assert exact_kth_root((3 * re - 4 * im) / 5, (4 * re + 3 * im) / 5, k) is None

    @pytest.mark.parametrize("k", (2, 6, 12, 28))
    def test_unit_without_root(self, k):
        # i*delta^k passes the denominator and norm tests, but for even k
        # no Newton candidate reaches an exact root
        re, im = _gaussian_pow(Fraction(7, 3), Fraction(-2, 11), k)
        assert exact_kth_root(-im, re, k) is None

    def test_roots_beyond_a_double(self):
        delta = (Fraction(2**40 + 1, 3), Fraction(1, 5))
        assert exact_kth_root(*_gaussian_pow(*delta, 3), 3) == delta
        c = Fraction(1, (10**10 + 1) ** 5)
        assert exact_kth_root(c, Fraction(0), 5) == (Fraction(1, 10**10 + 1), 0)

    def test_pure_form_beyond_a_double_gets_a_chain(self):
        chain = normalize_harmonic(Fraction(1, (10**10 + 1) ** 5), 0, 5)
        assert isinstance(chain, WitnessChain) and chain.verify()
        assert chain.maps[0].x.poly == P("1/10000000001*x")


class TestLeadingCoefficients:
    def test_matches_membership_solve(self):
        rng = Xoshiro256StarStar(derive_seed(11, 0))
        for k in range(1, 15):
            pair = harmonic_pair(k)
            forms = [Poly.zero(), R2 * random_homogeneous(rng, k - 2) if k > 1 else P("0")]
            for _ in range(3):
                a, b = rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                forms.append(pair.f * a + pair.g * b)
                forms.append(pair.f * a + pair.g * b + random_homogeneous(rng, k))
            for form in forms:
                germ = form + P("x") * harmonic_pair(k).f
                solved = reference_membership(form, k, 0) if form else None
                expected = solved and (solved[0].coeff(0, 0), solved[1].coeff(0, 0))
                assert leading_coefficients(germ, k) == expected, (k, form)


def scale_solution(rho, k):
    """rho, with every component above degree k, as u*f_k + v*g_k: one
    `solve_membership` per component."""
    u, v = Poly.zero(), Poly.zero()
    for degree, component in rho.components().items():
        solved = solve_membership(component, k, degree - k)
        u, v = u + solved[0], v + solved[1]
    return u, v


def root_absorb(k, rho, bound):
    """The verified chain f_k o phi == f_k + rho (mod bound) of one radial
    scale map, phi the `complex_scale_map` of rho's (u, v)."""
    u, v = scale_solution(rho, k)
    phi = complex_scale_map(Jet(u.truncate(bound), bound), Jet(v.truncate(bound), bound), k)
    f = harmonic_pair(k).f
    return _verified_chain(f, f + rho, [phi], bound)


def translation_absorb(k, s, rho, bound):
    """The verified chain f_k o phi == f_k + rho modulo m^(k+s+1) of one
    translation (x, y) -> (x + u, y + v), for a homogeneous rho of degree
    k + s and (u, v) its `translation_solution`."""
    u, v = translation_solution(rho, k)
    f = harmonic_pair(k).f
    return _verified_chain(f, f + rho, [jet_map(X + u, Y + v, bound)], k + s)


class TestRootAbsorb:
    """f_k + rho is f_k composed with the scale map of rho's (u, v)."""

    def test_single_multiplier(self):
        f6 = harmonic_pair(6).f
        chain = root_absorb(6, P("x") * f6, 8)
        assert chain.verified
        composed = chain.composed()
        assert composed.poly == (f6 + P("x") * f6).truncate(8)
        # the radial map comes from u = x, v = 0
        expected = complex_scale_map(jet_truncate(P("x"), 8), jet_truncate(Poly.zero(), 8), 6)
        assert chain.maps == (expected,)

    def test_g_multiplier(self):
        pair = harmonic_pair(7)
        chain = root_absorb(7, P("y") * pair.g, 9)
        assert chain.verified
        # the radial map comes from u = 0, v = y
        expected = complex_scale_map(jet_truncate(Poly.zero(), 9), jet_truncate(P("y"), 9), 7)
        assert chain.maps == (expected,)

    def test_degree_2k_component_keeps_canonical_solve(self):
        # at degree 2k = 10 the (u, v) is not unique; the chain is the one
        # built from solve_membership's canonical pair
        chain = root_absorb(5, P("x^5") * harmonic_pair(5).f, 12)
        assert chain.verified
        digest = hashlib.sha256(chain.to_json().encode()).hexdigest()
        assert digest == "395b910b16597e0d8a8bb5e757e24092dcdccfdca2696f14b4f805a563e3afd6"

    def test_bound_at_the_order_of_rho(self):
        chain = root_absorb(5, P("x^9"), 9)
        assert chain.verified
        digest = hashlib.sha256(chain.to_json().encode()).hexdigest()
        assert digest == "49f2d17cdf99fa12c9fd11e659a0b59ad87d7efb2b2f964abc8656137ce1ed32"


class TestTranslationAbsorb:
    """f_k + rho is f_k composed with the translation of rho's
    `translation_solution`."""

    def test_k5_example(self):
        f4 = harmonic_pair(4).f
        chain = translation_absorb(5, 1, P("x^2") * f4, 7)
        assert chain.verified
        assert chain.maps[0].x.poly == P("x + 1/5*x^2")
        assert chain.maps[0].y.poly == P("y")

    def test_k6_mixing(self):
        g5 = harmonic_pair(5).g
        chain = translation_absorb(6, 2, g5 * P("y^3") * (-6), 9)
        assert chain.verified
        assert chain.maps[0].x.poly == P("x")
        assert chain.maps[0].y.poly == P("y + y^3")

    @pytest.mark.parametrize("k", range(5, 10))
    def test_solvability_on_kernel_bases(self, k):
        profile = absorption_profile(k)
        for s in range(profile.split_offset, k - 3):
            for rho in kernel_basis(k + s, s + 2).basis:
                assert solve_membership(rho, k - 1, s + 1) is not None


class TestReduceGerm:
    def test_k5_example(self):
        f4 = harmonic_pair(4).f
        chain = reduce_germ(5, {1: P("x^2") * f4}, P("y^8"))
        assert chain.verified
        assert len(chain.maps) == 1
        assert chain.certificate is not None and chain.certificate.level == 6
        assert chain.bound == 6

    def test_k6_two_stage(self):
        rho7 = P("x") * harmonic_pair(6).f
        rho8 = P("x^3") * harmonic_pair(5).f * 6
        assert not laplacian_power(rho8, 4)
        chain = reduce_germ(6, {1: rho7, 2: rho8}, Poly.zero())
        assert chain.verified
        # one translation for offset 2, one radial map for offset 1
        assert len(chain.maps) == 2

    def test_trivial(self):
        chain = reduce_germ(5, {}, Poly.zero())
        assert chain.verified and not chain.maps

    def test_inhomogeneous_perturbation_rejected(self):
        with pytest.raises(InputError) as err:
            reduce_germ(5, {1: P("x^6 + x^7")})
        assert str(err.value) == "perturbation at offset 1 must be homogeneous of degree 6"

    def test_certificate_above_the_bound_fails(self):
        # a certificate of a higher level than the chain's bound does not cover it
        chain = reduce_germ(8, {})
        assert chain.verify()
        assert not chain._replace(certificate=chain.certificate._replace(level=chain.bound + 1)).verify()

    def test_kernel_validation(self):
        with pytest.raises(MembershipError) as err:
            reduce_germ(5, {1: P("x^6")}, Poly.zero())
        assert err.value.degree == 6

    def test_tail_order_validated(self):
        with pytest.raises(ValueError):
            reduce_germ(5, {}, P("x^6"))

    def test_sequence_argument(self):
        f4 = harmonic_pair(4).f
        chain = reduce_germ(5, [P("x^2") * f4], Poly.zero())
        assert chain.verified

    @pytest.mark.parametrize("k", (5, 6, 7, 8))
    @pytest.mark.parametrize("i", range(20))
    def test_seeded_instances(self, k, i):
        rng = Xoshiro256StarStar(derive_seed(777, k, i))
        rhos = kernel_perturbations(rng, absorption_profile(k))
        tail = random_homogeneous(rng, 2 * k - 3) + random_homogeneous(rng, 2 * k - 2)
        chain = reduce_germ(k, rhos, tail)
        assert chain.verified
        assert chain.verify()
        composed = chain.composed()
        difference = composed.poly - harmonic_pair(k).f.truncate(chain.bound)
        assert not difference


def every_offset_instance(k, i):
    """A random kernel perturbation at every offset and a degree-(2k-3) tail."""
    rng = Xoshiro256StarStar(derive_seed(999, k, i))
    rhos = kernel_perturbations(rng, absorption_profile(k))
    return rhos, random_homogeneous(rng, 2 * k - 3)


# SHA-256 of reduce_germ(...).to_json() for every_offset_instance(k, 0),
# above the benchmark's k <= 12: any change to a witness map, the
# certificate or the serialisation changes the digest.
GOLDEN_WITNESSES = {
    13: "9c10c3d023d302b4660cdd04b38344434ec24d776e7a4f267410fa29304ea754",
    14: "7a02d13a870b22858fd1521dabc9d8bd2c04267de16ea1d79f16263bbaa3fc82",
    16: "5b425e436e906abb2532db073b7ddc233853ae4d1468514cac5a5a9ad0dd9414",
    20: "15c241ad8d06d85c7dd9948011e995382e4c061b1a4721da49bf68e094dd1cc9",
    24: "2bb1e3e9156e1be04542a3841d521176c4c58a4f835b06175e77aa93d13d70ab",
}


class TestWitnessGolden:
    @pytest.mark.parametrize("k", sorted(GOLDEN_WITNESSES))
    def test_digest_unchanged(self, k):
        rhos, tail = every_offset_instance(k, 0)
        assert all(rhos.values()) and tail
        chain = reduce_germ(k, rhos, tail)
        assert hashlib.sha256(chain.to_json().encode()).hexdigest() == GOLDEN_WITNESSES[k]


class TestSingleVerification:
    def test_reduce_germ_composes_once(self, monkeypatch):
        rhos, tail = every_offset_instance(8, 0)
        composes = counted(monkeypatch, harmgerm.equivalence, "jet_compose")
        checks = counted(monkeypatch, harmgerm.equivalence, "radial_step_holds")
        verifies = counted(monkeypatch, WitnessChain, "verify")
        chain = reduce_germ(8, rhos, tail)
        # two translations (offsets 3, 4) and the radial scale map
        assert len(chain.maps) == 3
        # the construction composes nothing; the one verify composes the
        # translations and checks the scale map by its identity
        assert len(composes) == len(chain.maps) - 1 and len(checks) == 1
        assert len(verifies) == 1

    def test_reduce_general_verifies_once(self, monkeypatch):
        rhos, tail = every_offset_instance(8, 1)
        germ = rescaled(harmonic_pair(8).f + tail + sum(rhos.values(), Poly.zero()))
        composes = counted(monkeypatch, harmgerm.equivalence, "jet_compose")
        checks = counted(monkeypatch, harmgerm.equivalence, "radial_step_holds")
        verifies = counted(monkeypatch, WitnessChain, "verify")
        chain = reduce_general(germ, 8)
        assert len(chain.maps) == 4 and len(verifies) == 1
        # the rescaling prefix composes nothing; verify composes every map
        # but the scale map, which it checks by its identity
        assert len(composes) == len(chain.maps) - 1 and len(checks) == 1
        assert chain.source == germ and chain.target == harmonic_pair(8).f

    def test_verify_biharmonic_verifies_once(self, monkeypatch):
        R = P("x") * harmonic_pair(7).f + R2 * harmonic_pair(6).f
        verifies = counted(monkeypatch, WitnessChain, "verify")
        assert verify_biharmonic(7, R).verified
        assert len(verifies) == 1

    @pytest.mark.parametrize("k", (8, 10, 12))
    def test_reduction_runs_no_elimination(self, monkeypatch, k):
        rhos, tail = every_offset_instance(k, 0)
        determined_bound_report(k, Poly.zero())
        rrefs = counted(monkeypatch, linalg, "rref")
        solves = counted(monkeypatch, linalg, "solve_canonical")
        assert reduce_germ(k, rhos, tail).verified
        assert rrefs == [] and solves == []

    def test_tampered_scale_map_is_caught(self, monkeypatch, tampered_scale_map):
        rhos, tail = every_offset_instance(8, 0)
        verdicts = recorded_verdicts(monkeypatch)
        with pytest.raises(WitnessFault):
            reduce_germ(8, rhos, tail)
        # the nudged map is not radial: verify() composes it instead
        assert verdicts == [None]

    @pytest.mark.parametrize("k, m", [(8, 2), (8, 3), (8, 5), (12, 2), (12, 3), (12, 9)])
    def test_tampered_radial_map_is_caught(self, monkeypatch, tampered_radial_map, k, m):
        # m = 2, 3 and k - 3; the map stays radial, so the identity decides
        rhos, tail = every_offset_instance(k, 0)
        tampered_radial_map(m)
        verdicts = recorded_verdicts(monkeypatch)
        with pytest.raises(WitnessFault):
            reduce_germ(k, rhos, tail)
        assert verdicts == [False]


def _before_last(chain, maps=None):
    """The jet that the chain's last map acts on, composed as verify() does."""
    maps = chain.maps if maps is None else maps
    h = jet_truncate(chain.source, maps[0].bound)
    for phi in maps[:-1]:
        h = jet_compose(h, phi)
    return h


def _nudged(phi, degree):
    """phi with x^degree/7 added to its x-component: not radial."""
    return phi._replace(x=jet_truncate(phi.x.poly + P("x") ** degree / 7, phi.bound))


def _plus_harmonic(phi, m):
    """phi plus (f_m, g_m)/7: z -> z*(rho + z^(m-1)/7), still radial."""
    pair = harmonic_pair(m)
    return jet_map(phi.x.poly + pair.f / 7, phi.y.poly + pair.g / 7, phi.bound)


class TestRadialStepIdentity:
    """radial_step_holds against composing the last map, on the chains
    the reductions build and on tampered copies of them."""

    @pytest.mark.parametrize("k", range(5, 17))
    @pytest.mark.parametrize("kind", ["reduce_germ", "reduce_general"])
    def test_routes_agree(self, k, kind):
        rhos, tail = every_offset_instance(k, 0)
        if kind == "reduce_germ":
            chain = reduce_germ(k, rhos, tail)
        else:
            chain = reduce_general(rescaled(harmonic_pair(k).f + tail + sum(rhos.values(), Poly.zero())), k)
        level, f = chain.bound, harmonic_pair(k).f
        target = jet_truncate(f, level)
        phi, h = chain.maps[-1], _before_last(chain)
        radial = _radial_factor(phi) is not None
        # (jet, last map, whether the identity must decide)
        cases = [(h, phi, radial)]
        if radial:
            # radially tampered at m = 2, 3 and k - 3: the last moves f_k in degree 2k - 4
            cases += [(h, _plus_harmonic(phi, m), True) for m in sorted({2, 3, k - 3})]
            # nudged so that it is not radial; composing it runs a long Taylor
            # sum, so only the reduce_germ chains compare the two verdicts
            assert radial_step_holds(h, _nudged(phi, 2), f, level) is None
            if kind == "reduce_germ":
                cases.append((h, _nudged(phi, 2), False))
        if len(chain.maps) > 1:
            # the map before the last nudged in degree k - 3, which moves
            # the jet in degree 2k - 4; whether the identity applies then
            # depends on the nudge
            maps = chain.maps[:-2] + (_nudged(chain.maps[-2], k - 3), phi)
            cases.append((_before_last(chain, maps), phi, None))
        for index, (jet, last, decides) in enumerate(cases):
            identity = radial_step_holds(jet, last, f, level)
            composed = jets_equivalent_mod(jet_compose(jet, last), target, level)
            # the chain itself holds; every tampered copy fails
            assert composed == (index == 0), (k, index)
            assert identity is None or identity == composed, (k, index)
            if decides is not None:
                assert (identity is not None) == decides, (k, index)

    @pytest.mark.parametrize("k", range(5, 17))
    def test_reduce_germ_checks_its_scale_map_by_the_identity(self, monkeypatch, k):
        rhos, tail = every_offset_instance(k, 1)
        verdicts = recorded_verdicts(monkeypatch)
        chain = reduce_germ(k, rhos, tail)
        # k = 5 clears its one offset by a translation and has no scale map
        has_scale_map = _radial_factor(chain.maps[-1]) is not None
        assert has_scale_map == (k > 5)
        assert verdicts == ([True] if has_scale_map else [None])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: translation_absorb(5, 1, P("x^2") * harmonic_pair(4).f, 7),
            lambda: normalize_harmonic(32, 0, 5),
        ],
        ids=["translation_absorb", "normalize_harmonic"],
    )
    def test_other_targets_compose_every_map(self, monkeypatch, build):
        # a translation that is not radial, and a rotation whose rho(0) is not 1
        chain = build()
        composes = counted(monkeypatch, harmgerm.equivalence, "jet_compose")
        verdicts = recorded_verdicts(monkeypatch)
        assert chain.verify()
        assert len(composes) == len(chain.maps) == 1 and verdicts == [None]


class TestRootAbsorbIdentity:
    """A chain of one scale map onto f_k + rho, not onto f_k (`root_absorb`
    above): the identity still decides its scale map in verify(), and
    rejects tampered copies of it."""

    @pytest.mark.parametrize("k", (6, 8, 12))
    def test_identity_decides(self, monkeypatch, k):
        bound = 2 * k - 4
        pair = harmonic_pair(k)
        rng = Xoshiro256StarStar(derive_seed(2016, k))
        rho = sum(
            (
                random_homogeneous(rng, s) * pair.f / rng.randint(1, 7) + random_homogeneous(rng, s) * pair.g
                for s in range(1, bound - k + 1)
            ),
            Poly.zero(),
        )
        chain = root_absorb(k, rho, bound)
        composes = counted(monkeypatch, harmgerm.equivalence, "jet_compose")
        verdicts = recorded_verdicts(monkeypatch)
        assert chain.verify() and composes == [] and verdicts == [True]
        phi = chain.maps[0]
        # still radial, moving f_k o phi in degree k + m - 1 <= bound
        ms = sorted({2, 3, bound - k + 1})
        for m in ms:
            assert chain._replace(maps=(_plus_harmonic(phi, m),)).verify() is False, m
        # not radial: composed by Taylor
        assert chain._replace(maps=(_nudged(phi, 2),)).verify() is False
        assert verdicts == [True] + [False] * len(ms) + [None]


class TestReduceGeneral:
    @pytest.mark.parametrize("k", (5, 6, 7, 8))
    @pytest.mark.parametrize("i", range(3))
    def test_plain_leading_form_matches_reduce_germ(self, k, i):
        rhos, tail = every_offset_instance(k, i)
        germ = harmonic_pair(k).f + tail + sum(rhos.values(), Poly.zero())
        assert reduce_general(germ, k).to_json() == reduce_germ(k, rhos, tail).to_json()

    def test_rescaled_leading_form(self):
        f4 = harmonic_pair(4).f
        germ = harmonic_pair(5).f * 32 + P("x^2") * f4
        chain = reduce_general(germ, 5)
        assert chain.verified and chain.certificate.level == 6
        assert chain.maps[0].x.poly == P("1/2*x") and chain.maps[0].y.poly == P("1/2*y")
        assert len(chain.maps) == 2

    def test_kernel_violation(self):
        with pytest.raises(MembershipError) as err:
            reduce_general(P("x^5 - 10*x^3*y^2 + 5*x*y^4 + x^6"), 5)
        assert err.value.degree == 6

    @pytest.mark.parametrize(
        "germ, message",
        [
            ("x^4 + x^5", "degree below"),
            ("x^5 + x^7", "not harmonic"),
            ("2*x^5 - 20*x^3*y^2 + 10*x*y^4 + x^7", "irrational"),
        ],
    )
    def test_rejected(self, germ, message):
        with pytest.raises(ValueError, match=message):
            reduce_general(P(germ), 5)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            reduce_general(P("x^4 - 6*x^2*y^2 + y^4 + x^5"), 4)

    def test_tampered_prefix_map_is_caught(self):
        # the prefix is the linear map z -> z/2 of the rescaled leading
        # form; nudged, it gains a tau of order 2, and verify() composes it
        # by Horner's rule and then by its Taylor expansion
        germ = P("32*x^5 - 320*x^3*y^2 + 160*x*y^4 + x^2*(x^4 - 6*x^2*y^2 + y^4)")
        chain = reduce_general(germ, 5)
        assert chain.verify()
        prefix = chain.maps[0]
        nudged = jet_truncate(prefix.x.poly + P("x^2") * Fraction(1, 7), prefix.bound)
        maps = (prefix._replace(x=nudged),) + chain.maps[1:]
        assert _radial_factor(maps[0]) is None
        assert chain._replace(maps=maps).verify() is False

    @pytest.mark.parametrize("degree", range(9, 13))
    def test_defective_rotation_is_caught(self, monkeypatch, degree):
        # CI's germ at k = 8 composed with z -> (1+i)z, so the chain starts
        # with z -> delta*z. A defect in `_rotated` that keeps every result
        # real, one degree's entries times |p + iq|^2 for delta's numerators
        # p and q, must fail verify(): it composes the rotation without the
        # construction's arithmetic
        k = 8
        rng = Xoshiro256StarStar(2016)
        germ = harmonic_pair(k).f + sum(kernel_perturbations(rng, absorption_profile(k)).values(), Poly.zero())
        germ = rescaled(germ + random_homogeneous(rng, 2 * k - 3))
        original = harmgerm.equivalence._rotated

        def defective(w, delta):
            (p,), (q,), _ = delta
            parts = list(original(w, delta))
            re, im, den = parts[degree]
            parts[degree] = _component([v * (p * p + q * q) for v in re], [v * (p * p + q * q) for v in im], den)
            return parts

        for module in list(sys.modules.values()):
            if module.__name__.startswith("harmgerm.") and hasattr(module, "_rotated"):
                monkeypatch.setattr(module, "_rotated", defective)
        with pytest.raises(WitnessFault):
            reduce_general(germ, k)


class TestReadOff:
    """reduce_general reads its kernel checks, leading pair and translations
    off one (z, zbar) form of the germ."""

    @given(st.integers(5, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_read_off_agrees_with_the_laplacian(self, k, data):
        powers = [p for _, p in absorption_profile(k).exponents]
        d = data.draw(st.integers(k + 1, 2 * k - 4))
        rng = Xoshiro256StarStar(data.draw(st.integers(0, 2**64 - 1)))
        # a random component, or one in some power's kernel, possibly moved
        # off it by one monomial, so that both verdicts occur
        kind = data.draw(st.sampled_from(["random", "kernel", "nudged"]))
        if kind == "random":
            component = random_homogeneous(rng, d)
        else:
            component = random_in_span(rng, kernel_basis(d, data.draw(st.sampled_from(powers))).basis)
        if kind == "nudged":
            a = data.draw(st.integers(0, d))
            component = component + Poly.monomial(a, d - a) * data.draw(st.integers(-3, 3))
        c = _z_components(component, d)[d]
        for p in powers:
            assert _in_kernel(c, p) == (not laplacian_power(component, p)), (k, d, p, component)

    @pytest.mark.parametrize(
        "k, extra, degree, residual",
        [
            (8, "x^3*y^7 + x^2*y^9", 10, "3-fold Laplacian = 5040*x^3*y + 15120*x*y^3"),
            (
                10,
                "x^8*y^6 - 3/2*x^5*y^9",
                14,
                "6-fold Laplacian = 290304000*x^2 - 979776000*x*y + 217728000*y^2",
            ),
            (7, "x^9 + y^10", 9, "4-fold Laplacian = 362880*x"),
        ],
    )
    def test_kernel_violation_message(self, k, extra, degree, residual):
        # the residual is the failing component's iterated Laplacian in (x, y)
        with pytest.raises(MembershipError) as err:
            reduce_general(harmonic_pair(k).f + P(extra), k)
        assert err.value.degree == degree
        assert str(err.value) == f"degree-{degree} component violates its kernel condition ({residual})"

    @pytest.mark.parametrize("k", (8, 12))
    @pytest.mark.parametrize("form", ["plain", "rescaled"])
    def test_construction_multiplies_no_poly(self, monkeypatch, k, form):
        rhos, tail = every_offset_instance(k, 0)
        germ = harmonic_pair(k).f + tail + sum(rhos.values(), Poly.zero())
        if form == "rescaled":
            germ = rescaled(germ)
        determined_bound_report(k, Poly.zero())
        # the construction alone: reduce_general without its verify()
        monkeypatch.setattr(WitnessChain, "verify", lambda self: True)
        products = counted(monkeypatch, harmgerm.polyring, "poly_mul")
        laplacians = counted(monkeypatch, harmgerm.equivalence, "laplacian_power")
        solves = counted(monkeypatch, harmgerm.graded, "solve_membership")
        # equivalence binds no solve_membership of its own to call
        assert not hasattr(harmgerm.equivalence, "solve_membership")
        scale_maps = counted(monkeypatch, harmgerm.equivalence, "_inverse_scale_root")
        chain = reduce_general(germ, k)
        # a translation at every offset from the split on, the scale map and
        # the rescaling prefix of a rescaled germ
        translations = k - 3 - absorption_profile(k).split_offset
        assert len(chain.maps) == translations + 1 + (form == "rescaled")
        assert products == [] and laplacians == [] and solves == []
        assert len(scale_maps) == 1

    @pytest.mark.parametrize("k", (8, 12))
    def test_only_the_scale_step_builds_a_radial_image(self, monkeypatch, k):
        # the rotation of a rescaled germ is its closed form on the (z, zbar)
        # components, in the construction and in verify() alike; the lazy
        # radial engine serves the scale map's solve and its check only
        rhos, tail = every_offset_instance(k, 0)
        germ = rescaled(harmonic_pair(k).f + tail + sum(rhos.values(), Poly.zero()))
        builders = []
        init = harmgerm.jets._RadialImage.__init__

        def recording(self, w, rho):
            builders.append(sys._getframe(1).f_code.co_name)
            init(self, w, rho)

        monkeypatch.setattr(harmgerm.jets._RadialImage, "__init__", recording)
        assert reduce_general(germ, k).verified
        assert builders == ["_inverse_scale_root", "radial_step_holds"]

    def test_scale_step_fault_names_the_low_degrees(self):
        # x^9 is no harmonic multiple of f_8; the message shows the low
        # degrees less f_8 as an (x, y) polynomial
        with pytest.raises(WitnessFault) as err:
            _reduction_maps(8, _z_components(harmonic_pair(8).f + P("x^9"), 12), 3)
        assert str(err.value) == "low degrees are not a harmonic multiple of f_8: x^9"


class TestBiharmonic:
    def test_k5_mixed_perturbation(self):
        R = P("x") * harmonic_pair(5).f + R2 * harmonic_pair(4).f
        assert not laplacian_power(R, 2)
        chain = verify_biharmonic(5, R)
        assert chain.verified

    def test_k6_harmonic_tail(self):
        chain = verify_biharmonic(6, harmonic_pair(9).f)
        assert chain.verified and not chain.maps

    def test_rejects_non_biharmonic(self):
        with pytest.raises(MembershipError) as err:
            verify_biharmonic(5, P("x^6"))
        assert err.value.degree == 6
        assert "360" in str(err.value)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError):
            verify_biharmonic(5, P("x^5"))

    @pytest.mark.parametrize("k", (5, 6, 7))
    @pytest.mark.parametrize("i", range(10))
    def test_seeded_instances(self, k, i):
        chain = verify_biharmonic(k, biharmonic_perturbation(Xoshiro256StarStar(derive_seed(888, k, i)), k))
        assert chain.verified


def reference_reduction_maps(k, germ):
    """The reduction's maps by the forward sweep: each translation is
    composed into the jet with jet_compose and the next component is
    re-extracted from the result; the scale map comes from the (u, v)
    membership solve through conftest's `inverse_scale_map`."""
    bound = 2 * k - 4
    split = absorption_profile(k).split_offset
    current = jet_truncate(germ, bound)
    maps = []
    for s in range(split, k - 3):
        delta = current.poly.graded_component(k + s)
        if delta:
            u, v = translation_solution(delta, k)
            maps.append(jet_map(X - u, Y - v, bound))
            current = jet_compose(current, maps[-1])
            assert not current.poly.graded_component(k + s)
    low = current.poly - harmonic_pair(k).f
    if low:
        assert low.degree() < k + split
        u, v = scale_solution(low, k)
        maps.append(inverse_scale_map(Jet(u, bound), Jet(v, bound), k))
    return tuple(maps)


class TestGradedSweep:
    """The maps read off the germ's graded components equal the forward
    sweep's, which composes every translation."""

    @pytest.mark.parametrize("k", range(5, 17))
    @pytest.mark.parametrize("i", range(3))
    def test_reduce_germ(self, k, i):
        rhos, tail = every_offset_instance(k, i)
        chain = reduce_germ(k, rhos, tail)
        assert chain.maps == reference_reduction_maps(k, chain.source)

    @pytest.mark.parametrize("k", range(5, 17))
    @pytest.mark.parametrize(
        "i, delta",
        [pytest.param(i, (1, 1), id=str(i)) for i in range(3)]
        + [
            pytest.param(i, delta, id=f"{name}-{i}")
            for name, delta in (
                ("2z", (2, 0)),
                ("(1-2i)z", (1, -2)),
                ("(3+4i)z_over_5", (Fraction(3, 5), Fraction(4, 5))),
                ("z_over_3", (Fraction(1, 3), 0)),
                ("iz", (0, 1)),
            )
            for i in range(3)
        ],
    )
    def test_rescaled_reduce_general(self, k, i, delta):
        # the germ after z -> delta*z; the chain rotates its (z, zbar)
        # components back, and the reference composes that rotation in (x, y)
        rhos, tail = every_offset_instance(k, i)
        germ = rescaled(harmonic_pair(k).f + tail + sum(rhos.values(), Poly.zero()), *delta)
        chain = reduce_general(germ, k)
        maps = chain.maps
        reduced = germ
        if leading_coefficients(germ, k) != (1, 0):  # not so for iz at k = 0 mod 4
            reduced = jet_compose(jet_truncate(germ, chain.bound), maps[0]).poly
            maps = maps[1:]
        assert maps == reference_reduction_maps(k, reduced)

    @pytest.mark.parametrize("k", range(5, 17))
    @pytest.mark.parametrize("i", range(3))
    def test_verify_biharmonic(self, k, i):
        rng = Xoshiro256StarStar(derive_seed(777, k, i))
        R = Poly.zero()
        for d in range(k + 1, 2 * k - 2):
            R = R + random_in_span(rng, kernel_basis(d, 2).basis)
        chain = verify_biharmonic(k, R)
        assert chain.maps == reference_reduction_maps(k, chain.source)


class TestIndependentComposition:
    def test_chain_composes_under_sympy(self):
        # cross-check the chain verifier: compose the source through every
        # map with sympy substitution instead of the library's jet algebra
        from conftest import oracle_compose

        rho7 = P("x") * harmonic_pair(6).f
        rho8 = P("x^3") * harmonic_pair(5).f * 6
        chain = reduce_germ(6, {1: rho7, 2: rho8}, Poly.zero())
        current = chain.source.truncate(chain.bound)
        for phi in chain.maps:
            current = oracle_compose(current, phi.x.poly, phi.y.poly, chain.bound)
        assert current == harmonic_pair(6).f.truncate(chain.bound)

    def test_translation_witness_composes_under_sympy(self):
        from conftest import oracle_compose

        f4 = harmonic_pair(4).f
        chain = translation_absorb(5, 1, P("x^2") * f4, 7)
        phi = chain.maps[0]
        composed = oracle_compose(chain.source, phi.x.poly, phi.y.poly, 7)
        target = chain.target.truncate(7)
        difference = composed - target
        assert not difference or difference.order() > 6


class TestWitnessSerialization:
    def test_json_shape(self):
        f4 = harmonic_pair(4).f
        chain = reduce_germ(5, {1: P("x^2") * f4}, Poly.zero())
        payload = json.loads(chain.to_json())
        assert set(payload) == {"source", "target", "bound", "maps", "certificate", "verified"}
        assert payload["verified"] is True
        assert payload["bound"] == 6
        assert all(set(m) == {"x", "y"} for m in payload["maps"])
        from harmgerm.polyring import parse_poly

        assert parse_poly(payload["target"]) == harmonic_pair(5).f

    def test_numeric_witness_json(self):
        witness = normalize_harmonic(0, -1, 2)
        payload = witness.to_json_dict()
        assert payload == {"kind": "rescaling", "k": 2, "a": "0", "b": "-1", "verified": True}
