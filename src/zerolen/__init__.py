"""Exact factorization-length computations for zero-sum sequence monoids over
finite abelian groups and for numerical monoids and their finite products."""

from .atoms import (
    AtomCatalog,
    classify_c2c4,
    enumerate_atoms,
    is_half_factorial,
)
from .budget import ResourceLimitError
from .families import (
    FamilyBranch,
    FamilyMatch,
    c24_interval_witness,
    family_branches,
    family_members_up_to,
    intersection_witness,
    interval_criterion_c24,
    match_family,
    presentation_equivalence,
)
from .groups import (
    DavenportBound,
    FiniteAbelianGroup,
    davenport_lower_bound,
    invariant_factors,
    make_group,
    parse_group,
)
from .lengths import AampWitness, LengthEngine, delta, engine_for, is_aamp, rho
from .numerical import (
    BetaGap,
    NumericalMonoid,
    ProductMonoid,
    beta_gap,
    verify_elasticity_gap,
    verify_thm57_case,
    y_L_bound,
)
from .sequences import Sequence, parse_sequence
from .system import (
    BoundedSystem,
    bounded_intersection,
    bounded_system,
    compare_systems,
    default_bound,
    delta_star,
    observed_delta,
    rho_k,
)
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AampWitness",
    "AtomCatalog",
    "BetaGap",
    "BoundedSystem",
    "DavenportBound",
    "FamilyBranch",
    "FamilyMatch",
    "FiniteAbelianGroup",
    "LengthEngine",
    "NumericalMonoid",
    "ProductMonoid",
    "ResourceLimitError",
    "Sequence",
    "VerificationReport",
    "beta_gap",
    "bounded_intersection",
    "bounded_system",
    "c24_interval_witness",
    "classify_c2c4",
    "compare_systems",
    "davenport_lower_bound",
    "default_bound",
    "delta",
    "delta_star",
    "engine_for",
    "enumerate_atoms",
    "family_branches",
    "family_members_up_to",
    "intersection_witness",
    "interval_criterion_c24",
    "invariant_factors",
    "is_aamp",
    "is_half_factorial",
    "make_group",
    "match_family",
    "observed_delta",
    "parse_group",
    "parse_sequence",
    "presentation_equivalence",
    "rho",
    "rho_k",
    "run_verification",
    "verify_elasticity_gap",
    "verify_thm57_case",
    "y_L_bound",
]
