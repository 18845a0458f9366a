"""Exact arithmetic toolkit for Puiseux pairs of unicuspidal plane curves.

The package answers one family of questions: for which coprime pairs
(a, b), degrees d and genera g can a plane curve of degree d and genus g
carry a single cusp whose local branch has semigroup <a, b>?  Everything
is integer or rational arithmetic; no floats enter any verdict.
"""

from .semigroup import GapFunction, Semigroup, combined_gap_value, convolve
from .obstruction import (
    ObstructionWitness,
    Verdict,
    check_multi,
    check_single,
    triangle_lower,
    triangle_upper,
)
from .quadring import (
    PellDecomposition,
    QuadInt,
    canonical,
    coprime_decompose,
    fundamental_prime,
    generating_set,
    has_solution,
    phi_power,
)
from .families import (
    Candidate,
    IdentityReport,
    LucasSeq,
    cremona_step,
    element_to_pair,
    fibonacci,
    lucas,
    lucas_family,
    lucas_family_neg,
    orbit_candidates,
    pair_to_element,
    verify_fibonacci_identities,
)
from .classify import (
    EnumerationReport,
    Sector,
    SlopePair,
    asymptote_slopes,
    degree_for,
    enumerate_candidates,
    exceptional_family,
    mediant_bound,
    sector_bounds,
    sector_of,
    walk_sectors,
)
from .germs import (
    FlexReport,
    GermRecord,
    PowerSeries,
    flex_check,
    germ_sequence,
    node_parametrization,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "EnumerationReport",
    "FlexReport",
    "GapFunction",
    "GermRecord",
    "IdentityReport",
    "LucasSeq",
    "ObstructionWitness",
    "PellDecomposition",
    "PowerSeries",
    "QuadInt",
    "Sector",
    "Semigroup",
    "SlopePair",
    "Verdict",
    "asymptote_slopes",
    "canonical",
    "check_multi",
    "check_single",
    "combined_gap_value",
    "convolve",
    "coprime_decompose",
    "cremona_step",
    "degree_for",
    "element_to_pair",
    "enumerate_candidates",
    "exceptional_family",
    "fibonacci",
    "flex_check",
    "fundamental_prime",
    "generating_set",
    "germ_sequence",
    "has_solution",
    "lucas",
    "lucas_family",
    "lucas_family_neg",
    "mediant_bound",
    "node_parametrization",
    "orbit_candidates",
    "pair_to_element",
    "phi_power",
    "sector_bounds",
    "sector_of",
    "triangle_lower",
    "triangle_upper",
    "verify_fibonacci_identities",
    "walk_sectors",
]
