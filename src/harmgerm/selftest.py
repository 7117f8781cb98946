"""Grid verification of every identity the library is built on.

Each check either passes, fails, or lands on an expected discrepancy
(a printed identity documented to be wrong, kept as a regression
check that it stays wrong). The report is fully determined by the seed
and the degree cap: fixed iteration order, no timing, no environment
data, so equal configurations produce byte-identical reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import graded
from .determinacy import check_determinacy, reverify_certificate
from .equivalence import (
    MembershipError,
    absorption_profile,
    reduce_germ,
    verify_biharmonic,
)
from .harmonic import (
    almansi_decompose,
    check_product_identity,
    harmonic_basis,
    harmonic_pair,
    harmonic_split,
)
from .jets import (
    Jet,
    complex_scale_map,
    jet_compose,
    jet_map,
    jet_map_compose,
    jet_root,
    jet_truncate,
)
from .polyring import R2, X, Y, Poly, laplacian, parse_poly
from .rng import (
    Xoshiro256StarStar,
    biharmonic_perturbation,
    derive_seed,
    kernel_perturbations,
    random_homogeneous,
    random_order_tail,
)

PASS = "PASS"
FAIL = "FAIL"
EXPECTED = "EXPECTED-DISCREPANCY"


class CheckResult(NamedTuple):
    name: str
    params: str
    status: str
    detail: str = ""


class SelfTestReport(NamedTuple):
    seed: int
    max_degree: int | None
    checks: tuple[CheckResult, ...]

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    @property
    def passed(self) -> bool:
        return not self.failed


def _cap(value: int, max_degree: int | None) -> int:
    return value if max_degree is None else min(value, max_degree)


def _check_ring_laws(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 1))
    for trial in range(4):
        polys = []
        for _ in range(3):
            p = Poly.zero()
            for d in range(0, 4):
                p = p + random_homogeneous(rng, d)
            polys.append(p)
        p, q, r = polys
        ok = (
            p + q == q + p
            and (p + q) + r == p + (q + r)
            and p * q == q * p
            and (p * q) * r == p * (q * r)
            and p * (q + r) == p * q + p * r
            and p + Poly.zero() == p
            and p - p == Poly.zero()
        )
        out.append(CheckResult("polyring/ring-laws", f"trial={trial}", PASS if ok else FAIL))


def _check_laplacian_linearity(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 2))
    for trial in range(4):
        p = random_homogeneous(rng, 5)
        q = random_homogeneous(rng, 5)
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        ok = laplacian(p * alpha + q * beta) == laplacian(p) * alpha + laplacian(q) * beta
        out.append(
            CheckResult("polyring/laplacian-linear", f"trial={trial}", PASS if ok else FAIL)
        )


def _check_roundtrip(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 3))
    for trial in range(4):
        p = Poly.zero()
        for d in range(0, 6):
            p = p + random_homogeneous(rng, d)
        ok = parse_poly(str(p)) == p
        out.append(CheckResult("polyring/parse-roundtrip", f"trial={trial}", PASS if ok else FAIL))


def _check_laplacian_grading(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 4))
    for k in range(2, _cap(10, cap) + 1):
        p = random_homogeneous(rng, k)
        lp = laplacian(p)
        ok = not lp or (lp.is_homogeneous() and lp.degree() == k - 2)
        out.append(CheckResult("polyring/laplacian-degree", f"k={k}", PASS if ok else FAIL))


def _check_harmonic_pairs(out, cap, seed):
    top = _cap(30, cap)
    for k in range(1, top + 1):
        pair = harmonic_pair(k)
        ok = not laplacian(pair.f) and not laplacian(pair.g)
        ok = ok and pair.f.is_homogeneous() and pair.f.degree() == k
        if k < top:
            nxt = harmonic_pair(k + 1)
            ok = ok and nxt.f == pair.f.shifted(1, 0) - pair.g.shifted(0, 1)
            ok = ok and nxt.g == pair.g.shifted(1, 0) + pair.f.shifted(0, 1)
        out.append(CheckResult("harmonic/pair-recurrence", f"k={k}", PASS if ok else FAIL))


def _check_product_identities(out, cap, seed):
    for k in range(1, _cap(15, cap) + 1):
        for s in range(1, k + 1):
            report = check_product_identity(s, k)
            ok = report.first_ok and report.corrected_second_ok
            out.append(
                CheckResult("harmonic/product-identity", f"s={s} k={k}", PASS if ok else FAIL)
            )
    report = check_product_identity(1, 3)
    status = EXPECTED if not report.printed_second_ok else FAIL
    out.append(
        CheckResult(
            "harmonic/product-identity-printed-form",
            "s=1 k=3",
            status,
            "printed second identity fails as documented; corrected sign passes",
        )
    )


def _check_harmonic_split(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 5))
    for k in range(2, _cap(15, cap) + 1):
        p = random_homogeneous(rng, k)
        h, q = harmonic_split(p)
        ok = not laplacian(h) and p == h + R2 * q
        ok = ok and graded.kernel_basis(k, 1).dim + (k - 1) == k + 1
        out.append(CheckResult("harmonic/split-reconstruct", f"k={k}", PASS if ok else FAIL))


def _check_almansi(out, cap, seed):
    for d in range(1, _cap(12, cap) + 1):
        for s in range(1, 6):
            basis = graded.kernel_basis(d, s).basis
            ok = True
            for u in basis:
                layers = almansi_decompose(u, s)
                if layers.reconstruct() != u:
                    ok = False
                if any(laplacian(h) for h in layers.components):
                    ok = False
            out.append(CheckResult("harmonic/almansi-roundtrip", f"d={d} s={s}", PASS if ok else FAIL))


def _check_kernel_dimensions(out, cap, seed):
    for s in range(1, 9):
        for k in range(1, _cap(16, cap) + 1):
            dim = graded.kernel_basis(k, s).dim
            ok = dim == min(2 * s, k + 1)
            out.append(CheckResult("graded/kernel-dimension", f"s={s} k={k}", PASS if ok else FAIL))


def _check_kernel_containments(out, cap, seed):
    for s in range(1, 7):
        for k in range(2 * s, _cap(12, cap) + 1):
            span = graded.product_space(s - 1, k - s + 1)
            kernel = graded.kernel_basis(k, s)
            relation = graded.subspace_compare(span, kernel)
            ok = relation in ("equal", "a_in_b")
            out.append(
                CheckResult("graded/kernel-contains-products", f"s={s} k={k}", PASS if ok else FAIL)
            )


def _check_product_space_kernels(out, cap, seed):
    for s in range(0, 9):
        for k in range(1, _cap(10, cap) + 1):
            span = graded.product_space(s, k)
            if s < k - 1:
                expected = graded.kernel_basis(s + k, s + 1)
            else:
                expected = graded.full_space(s + k)
            ok = graded.subspace_compare(span, expected) == "equal"
            out.append(
                CheckResult("graded/product-space-kernel", f"s={s} k={k}", PASS if ok else FAIL)
            )


def _check_kernel_layer_decomposition(out, cap, seed):
    for d in range(1, _cap(12, cap) + 1):
        for s in range(1, 6):
            layered = []
            for j in range(min(s, d // 2 + 1)):
                for h in harmonic_basis(d - 2 * j):
                    layered.append(R2**j * h)
            direct = graded.GradedSubspace.from_polys(d, layered)
            kernel = graded.kernel_basis(d, s)
            ok = graded.subspace_compare(direct, kernel) == "equal"
            out.append(CheckResult("graded/kernel-layering", f"d={d} s={s}", PASS if ok else FAIL))


def _check_membership_reconstruction(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 6))
    for trial in range(5):
        k = rng.randint(1, _cap(9, cap))
        s = rng.randint(0, 4)
        pair = harmonic_pair(k)
        u = random_homogeneous(rng, s)
        v = random_homogeneous(rng, s)
        target = u * pair.f + v * pair.g
        solved = graded.solve_membership(target, k, s)
        ok = solved is not None and solved[0] * pair.f + solved[1] * pair.g == target
        out.append(CheckResult("graded/membership-reconstruct", f"trial={trial}", PASS if ok else FAIL))


def _check_jet_roots(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 7))
    for trial in range(6):
        bound = rng.randint(3, 10)
        k = rng.randint(1, 8)
        w = Poly.zero()
        for d in range(1, bound + 1):
            if rng.randint(0, 1):
                w = w + random_homogeneous(rng, d)
        root = jet_root(jet_truncate(w, bound), k)
        power = Jet(Poly.constant(1), bound)
        for _ in range(k):
            power = Jet(power.poly.mul_truncated(root.poly, bound), bound)
        ok = power.poly == (Poly.constant(1) + w).truncate(bound)
        out.append(CheckResult("jets/root-power-roundtrip", f"trial={trial}", PASS if ok else FAIL))


def _check_jet_associativity(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 8))
    for trial in range(4):
        bound = 6
        h = jet_truncate(random_homogeneous(rng, 2) + random_homogeneous(rng, 3), bound)
        phi = jet_map(
            X + random_homogeneous(rng, 2),
            Y + random_homogeneous(rng, 2),
            bound,
        )
        psi = jet_map(
            X + random_homogeneous(rng, 3),
            Y + random_homogeneous(rng, 3),
            bound,
        )
        ok = jet_compose(jet_compose(h, phi), psi) == jet_compose(h, jet_map_compose(phi, psi))
        out.append(CheckResult("jets/compose-associative", f"trial={trial}", PASS if ok else FAIL))


def _check_scale_map(out, cap, seed):
    rng = Xoshiro256StarStar(derive_seed(seed, 9))
    for trial in range(4):
        k = rng.randint(2, 7)
        bound = k + 3
        u = random_homogeneous(rng, 1) + random_homogeneous(rng, 2)
        v = random_homogeneous(rng, 1) + random_homogeneous(rng, 2)
        phi = complex_scale_map(jet_truncate(u, bound), jet_truncate(v, bound), k)
        pair = harmonic_pair(k)
        lhs = jet_compose(jet_truncate(pair.f, bound), phi)
        rhs = jet_truncate(pair.f + u * pair.f + v * pair.g, bound)
        ok = lhs.poly == rhs.poly
        out.append(CheckResult("jets/scale-map-identity", f"trial={trial}", PASS if ok else FAIL))


def _check_determinacy_instances(out, cap, seed):
    for k in (5, 6, 7):
        if cap is not None and 2 * k - 3 > cap:
            continue
        pair = harmonic_pair(k)
        cert = check_determinacy(pair.f, 2 * k - 3)
        out.append(CheckResult("determinacy/leading-form", f"k={k}", PASS if cert.verdict else FAIL))
        for i in range(3):
            tail = random_order_tail(Xoshiro256StarStar(derive_seed(seed, 10, k, i)), k)
            cert = check_determinacy(pair.f + tail, 2 * k - 3)
            out.append(
                CheckResult("determinacy/perturbed", f"k={k} seed={i}", PASS if cert.verdict else FAIL)
            )
    cert = check_determinacy(harmonic_pair(5).f, 7)
    out.append(
        CheckResult(
            "determinacy/independent-reverify",
            "k=5",
            PASS if reverify_certificate(cert) else FAIL,
        )
    )


def _check_determinacy_monotone(out, cap, seed):
    germ = harmonic_pair(5).f
    small = check_determinacy(germ, 7, max_multiplier_degree=1)
    full = check_determinacy(germ, 7)
    ok = (not small.verdict) or full.verdict
    out.append(CheckResult("determinacy/monotone-multipliers", "k=5", PASS if ok else FAIL))


def _check_low_degree_criterion(out, cap, seed):
    for k, expected in ((2, True), (3, True)):
        cert = check_determinacy(harmonic_pair(k).f, k)
        ok = cert.verdict == expected
        out.append(CheckResult("determinacy/low-degree", f"k={k}", PASS if ok else FAIL))
    cert = check_determinacy(harmonic_pair(4).f, 4)
    status = EXPECTED if not cert.verdict else FAIL
    out.append(
        CheckResult(
            "determinacy/low-degree-criterion-gap",
            "k=4",
            status,
            "sufficient criterion alone is inconclusive at k=4 although 4-determinacy holds",
        )
    )


def _check_sigma_boundary(out, cap, seed):
    for k in (5, 7, 9):
        profile = absorption_profile(k)
        s = (k - 3) // 2
        ok = profile.exponent(s) == s + 2 and profile.split_offset == s
        out.append(CheckResult("equivalence/profile-boundary", f"k={k}", PASS if ok else FAIL))


def _check_translation_solvability(out, cap, seed):
    for k in range(5, _cap(9, cap) + 1):
        profile = absorption_profile(k)
        for s in range(profile.split_offset, k - 3):
            basis = graded.kernel_basis(k + s, s + 2).basis
            ok = all(graded.solve_membership(rho, k - 1, s + 1) is not None for rho in basis)
            out.append(
                CheckResult("equivalence/translation-solvable", f"k={k} s={s}", PASS if ok else FAIL)
            )


def _check_reductions(out, cap, seed):
    for k in (5, 6, 7, 8):
        if cap is not None and 2 * k - 4 > cap:
            continue
        profile = absorption_profile(k)
        for i in range(3):
            rng = Xoshiro256StarStar(derive_seed(seed, 11, k, i))
            rhos = kernel_perturbations(rng, profile)
            tail = random_homogeneous(rng, 2 * k - 3)
            try:
                chain = reduce_germ(k, rhos, tail)
                ok = chain.verified and chain.verify()
            except (MembershipError, RuntimeError):
                ok = False
            out.append(CheckResult("equivalence/reduce", f"k={k} seed={i}", PASS if ok else FAIL))


def _check_biharmonic(out, cap, seed):
    for k in (5, 6, 7):
        if cap is not None and 2 * k - 4 > cap:
            continue
        for i in range(3):
            R = biharmonic_perturbation(Xoshiro256StarStar(derive_seed(seed, 12, k, i)), k)
            try:
                chain = verify_biharmonic(k, R)
                ok = chain.verified
            except (MembershipError, RuntimeError):
                ok = False
            out.append(CheckResult("equivalence/biharmonic", f"k={k} seed={i}", PASS if ok else FAIL))
    try:
        verify_biharmonic(5, parse_poly("x^6"))
        ok = False
    except MembershipError:
        ok = True
    out.append(CheckResult("equivalence/biharmonic-rejects-invalid", "k=5", PASS if ok else FAIL))


_SUITES = (
    _check_ring_laws,
    _check_laplacian_linearity,
    _check_roundtrip,
    _check_laplacian_grading,
    _check_harmonic_pairs,
    _check_product_identities,
    _check_harmonic_split,
    _check_almansi,
    _check_kernel_dimensions,
    _check_kernel_containments,
    _check_product_space_kernels,
    _check_kernel_layer_decomposition,
    _check_membership_reconstruction,
    _check_jet_roots,
    _check_jet_associativity,
    _check_scale_map,
    _check_determinacy_instances,
    _check_determinacy_monotone,
    _check_low_degree_criterion,
    _check_sigma_boundary,
    _check_translation_solvability,
    _check_reductions,
    _check_biharmonic,
)


def run_selftest(seed: int = 0, max_degree: int | None = None) -> SelfTestReport:
    checks: list[CheckResult] = []
    for suite in _SUITES:
        suite(checks, max_degree, seed)
    return SelfTestReport(seed, max_degree, tuple(checks))


def format_report(report: SelfTestReport, fmt: str = "text") -> str:
    if fmt == "json":
        payload = {
            "seed": report.seed,
            "max_degree": report.max_degree,
            "checks": [
                {"name": c.name, "params": c.params, "status": c.status, "detail": c.detail}
                for c in report.checks
            ],
            "passed": report.passed,
        }
        return json.dumps(payload, sort_keys=True, separators=(", ", ": "))
    lines = [f"selftest seed={report.seed} max-degree={report.max_degree or 'default'}"]
    for c in report.checks:
        line = f"{c.status:<22} {c.name} [{c.params}]"
        if c.detail:
            line += f"  ({c.detail})"
        lines.append(line)
    expected = sum(1 for c in report.checks if c.status == EXPECTED)
    lines.append(
        f"RESULT: {'PASS' if report.passed else 'FAIL'} "
        f"({len(report.checks)} checks, {expected} expected discrepancies, "
        f"{len(report.failed)} failures)"
    )
    return "\n".join(lines)
