"""Exact computation with harmonic leading terms of plane function-germs.

The package provides sparse bivariate polynomials over the rationals,
the harmonic generator pairs and polyharmonic kernel spaces built on
them, truncated-germ (jet) algebra, finite-determinacy certificates,
and explicit right-equivalence witnesses composing perturbed germs back
to their harmonic leading form. Every identity is checked in exact
rational arithmetic; floats only seed the exact root search for
leading-form rescalings, and an irrational one gets a symbolic witness.
"""

from ._kernels import active_backend
from .determinacy import (
    DeterminacyCertificate,
    DeterminacyReport,
    check_determinacy,
    determined_bound_report,
    jacobian_generators,
    reverify_certificate,
)
from .equivalence import (
    AbsorptionProfile,
    MembershipError,
    RescalingWitness,
    WitnessChain,
    absorption_profile,
    normalize_harmonic,
    reduce_general,
    reduce_germ,
    verify_biharmonic,
)
from .graded import (
    GradedSubspace,
    kernel_basis,
    product_space,
    solve_membership,
    subspace_compare,
)
from .harmonic import (
    AlmansiDecomposition,
    HarmonicPair,
    almansi_decompose,
    check_product_identity,
    harmonic_pair,
    harmonic_split,
)
from .jets import (
    Jet,
    JetMap,
    complex_scale_map,
    jet_compose,
    jet_map,
    jet_map_compose,
    jet_root,
    jet_truncate,
    jets_equivalent_mod,
)
from .polyring import InputError, Poly, PolyParseError, format_poly, laplacian, parse_poly
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "AbsorptionProfile",
    "AlmansiDecomposition",
    "DeterminacyCertificate",
    "DeterminacyReport",
    "GradedSubspace",
    "HarmonicPair",
    "InputError",
    "Jet",
    "JetMap",
    "MembershipError",
    "Poly",
    "PolyParseError",
    "RescalingWitness",
    "WitnessChain",
    "absorption_profile",
    "active_backend",
    "almansi_decompose",
    "check_determinacy",
    "check_product_identity",
    "complex_scale_map",
    "determined_bound_report",
    "format_poly",
    "harmonic_pair",
    "harmonic_split",
    "jacobian_generators",
    "jet_compose",
    "jet_map",
    "jet_map_compose",
    "jet_root",
    "jet_truncate",
    "jets_equivalent_mod",
    "kernel_basis",
    "laplacian",
    "normalize_harmonic",
    "parse_poly",
    "product_space",
    "reduce_general",
    "reduce_germ",
    "reverify_certificate",
    "run_selftest",
    "solve_membership",
    "subspace_compare",
    "verify_biharmonic",
]
