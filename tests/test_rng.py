"""The seeded input families of `harmgerm.rng` at the sizes CI builds.

Each is pinned by the length and sha256 of its `format_poly` text. The
golden digests and CI's expectations ("550 products", "y^24") were
recorded on these inputs, so a change to a family's draws or their
order must show here first.
"""

import ast
import hashlib
from pathlib import Path

import pytest

import harmgerm.rng
from harmgerm.equivalence import absorption_profile
from harmgerm.harmonic import harmonic_pair
from harmgerm.polyring import InputError, Poly, format_poly
from harmgerm.rng import (
    Xoshiro256StarStar,
    biharmonic_perturbation,
    degenerate_dense_germs,
    dense_morse_germ,
    kernel_perturbations,
    random_homogeneous,
)


def pinned(p):
    text = format_poly(p)
    return len(text), hashlib.sha256(text.encode()).hexdigest()


def test_ci_germ():
    # f_36, kernel_perturbations at every offset, then the degree-69 tail
    k = 36
    rng = Xoshiro256StarStar(2016)
    germ = harmonic_pair(k).f + sum(kernel_perturbations(rng, absorption_profile(k)).values(), Poly.zero())
    assert pinned(germ + random_homogeneous(rng, 2 * k - 3)) == (
        33103,
        "d17b6590c7eb206169b5eebfeae581324a6183626200333e718a673795fccd54",
    )


def test_biharmonic_perturbation():
    assert pinned(biharmonic_perturbation(Xoshiro256StarStar(2016), 36)) == (
        40531,
        "312c8d3a9e1f511e1cf21556db3f70b8364fe150574478a5e8eec5c73ded5b21",
    )


def test_dense_morse_germ():
    assert pinned(dense_morse_germ(Xoshiro256StarStar(1), 24)) == (
        3176,
        "323a9f7a1296d2ffc16036b1cff2ecf66ecbe3452ef47793d279356fe4f7098e",
    )


def test_degenerate_dense_germs():
    assert [pinned(g) for g in degenerate_dense_germs(Xoshiro256StarStar(1), 24)] == [
        (2838, "dbc1dce8a0f5adefc9075a7f4070c7eecd8a4972be9c14d359fb7f342a63d747"),
        (2846, "00698c822634b631ebedcd9f9bf45c4b5befc5fbfc7b9185fa6cfe22a9a4e5c8"),
    ]


def test_empty_range_rejected():
    with pytest.raises(InputError) as err:
        Xoshiro256StarStar(1).randint(3, 2)
    assert str(err.value) == "empty range"


def test_imports_no_layer_above_graded():
    # the caller passes the absorption profile in, so rng needs no equivalence
    tree = ast.parse(Path(harmgerm.rng.__file__).read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    assert modules == {"graded", "polyring"}
