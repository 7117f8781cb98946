"""Deterministic random instance generation.

The generator is xoshiro256** with the state seeded by four successive
outputs of splitmix64 applied to the user seed, the reference seeding
procedure for that family. It is fully specified by integer arithmetic
on 64-bit words, so the same seed yields the same instances on every
platform; statistical quality far exceeds what coefficient sampling
here needs.

Random polynomials draw integer coefficients uniformly from [-3, 3],
either directly on monomials or as combinations of a subspace basis.

The seeded input families that the self-test, the tests and CI share
are defined here once, so each draws the same words wherever it is
built:
- `kernel_perturbations`: one perturbation in the exponent-fold
  Laplacian kernel at every offset of an absorption profile; "CI's
  germ" at k is f_k plus these from `Xoshiro256StarStar(2016)` plus a
  degree-(2k-3) `random_homogeneous` tail;
- `biharmonic_perturbation`: R in the 2-fold Laplacian kernel in every
  degree k+1..2k-4;
- `random_order_tail`: a dense tail in every degree k+1..2k-3;
- `dense_morse_germ` and `degenerate_dense_germs` (G1, G2): the dense
  low-order germs of the determinacy limits, from `Xoshiro256StarStar(1)`.
"""

from __future__ import annotations

from .graded import kernel_basis
from .polyring import InputError, Poly, monomial_basis, parse_poly

_MASK = (1 << 64) - 1


def _splitmix64(state: int):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (64 - r))) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** stream over 64-bit words."""

    def __init__(self, seed: int):
        state = seed & _MASK
        words = []
        for _ in range(4):
            state, word = _splitmix64(state)
            words.append(word)
        self._s = words

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], unbiased via rejection sampling."""
        if hi < lo:
            raise InputError("empty range")
        span = hi - lo + 1
        threshold = ((1 << 64) // span) * span
        while True:
            word = self.next_u64()
            if word < threshold:
                return lo + word % span


def derive_seed(base: int, *coords: int) -> int:
    """Stable per-instance seed from a base seed and grid coordinates."""
    state = base & _MASK
    for coord in coords:
        state ^= (coord * 0x9E3779B97F4A7C15) & _MASK
        state, _ = _splitmix64(state)
    _, out = _splitmix64(state)
    return out


def random_coefficient(rng: Xoshiro256StarStar) -> int:
    return rng.randint(-3, 3)


def random_homogeneous(rng: Xoshiro256StarStar, degree: int) -> Poly:
    """Random degree-d polynomial with integer coefficients in [-3, 3]."""
    return Poly({exps: random_coefficient(rng) for exps in monomial_basis(degree)})


def random_order_tail(rng: Xoshiro256StarStar, k: int) -> Poly:
    """Random homogeneous terms in every degree k+1..2k-3, drawn in degree order."""
    tail = Poly.zero()
    for d in range(k + 1, 2 * k - 2):
        tail = tail + random_homogeneous(rng, d)
    return tail


def random_in_span(rng: Xoshiro256StarStar, basis) -> Poly:
    """Random integer combination of basis polynomials, coefficients in [-3, 3]."""
    total = Poly.zero()
    for p in basis:
        c = random_coefficient(rng)
        if c:
            total = total + p * c
    return total


def kernel_perturbations(rng: Xoshiro256StarStar, profile) -> dict[int, Poly]:
    """{s: a random element of the exponent-fold Laplacian kernel in degree
    k+s} over an `equivalence.AbsorptionProfile`'s offsets, drawn in
    ascending s."""
    return {
        s: random_in_span(rng, kernel_basis(profile.k + s, power).basis)
        for s, power in profile.exponents
    }


def biharmonic_perturbation(rng: Xoshiro256StarStar, k: int) -> Poly:
    """Random R in the 2-fold Laplacian kernel in every degree k+1..2k-4,
    drawn in degree order."""
    total = Poly.zero()
    for d in range(k + 1, 2 * k - 3):
        total = total + random_in_span(rng, kernel_basis(d, 2).basis)
    return total


def dense_morse_germ(rng: Xoshiro256StarStar, level: int) -> Poly:
    """x^2 + 3xy + 2y^2 plus a random dense form in each degree 3..level."""
    germ = parse_poly("x^2 + 3*x*y + 2*y^2")
    for d in range(3, level + 1):
        germ = germ + random_homogeneous(rng, d)
    return germ


def degenerate_dense_germs(rng: Xoshiro256StarStar, level: int) -> tuple[Poly, Poly]:
    """(G1, G2) = (x^2*(1 + D), x^3 + x*y^3 + x^2*D), truncated at `level`,
    with D a random dense form in each degree 1..level-2. Every product of
    G1 is a multiple of x, so y^level is uncovered; G2's top block is
    dependent and leaves a monomial uncovered, and its lower products
    cover the level."""
    dense = Poly.zero()
    for d in range(1, level - 1):
        dense = dense + random_homogeneous(rng, d)
    x2 = parse_poly("x^2")
    return (x2 + x2 * dense).truncate(level), (parse_poly("x^3 + x*y^3") + x2 * dense).truncate(level)
