"""Exact invariants of affine semigroup rings generated by arithmetic
progressions a, a+d, ..., a+kd of plane lattice vectors, with optional
one-vector gluing extensions.

Everything is computed in exact integer and rational arithmetic, and every
closed form has an independent brute-force or elimination oracle in
`apsemigroups.verify`.
"""

from .closed_forms import (
    GeneratorFamily,
    GluingData,
    GradedResolution,
    HilbertSeriesForm,
    apery_extended,
    extended_betti,
    extended_generating_set,
    gb_partition,
    generating_set,
    gluing_data,
    hilbert_numerator,
    progression_ring,
    qf_extended,
    regularity,
    regularity_from_resolution,
    resolution,
    xi_family,
)
from .errors import (
    BadExtension,
    BadIndex,
    BoxTooLarge,
    CapTooSmall,
    DependentDirections,
    ExponentTooLarge,
    FamilyError,
    InfiniteDimension,
    NotHomogeneous,
    NotMinimal,
    OutsideCone,
    UnsupportedK,
)
from .lattice import Vec2, det, in_lattice, ray_coordinates
from .polynomials import (
    MAX_EXPONENT,
    Grading,
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    PolynomialRing,
    buchberger,
    elimination_order,
    family_grading,
    family_ring,
    grevlex,
    ideal_equal,
    is_groebner_basis,
    is_quadratic,
    is_s_homogeneous,
    leading_term,
    monic,
    multidegree,
    reduce,
    s_degree,
    s_polynomial,
    standard_monomials,
    toric_kernel,
    vanishes_under_degree_map,
)
from .semigroup import (
    AperySet,
    SemigroupFamily,
    Witnessed,
    all_representations,
    apery_bruteforce,
    apery_closed_form,
    build_family,
    cm_type,
    degree_in_rays,
    extremal_rays,
    is_cohen_macaulay,
    is_member,
    is_normal,
    member_certificate,
    quasi_frobenius,
)
from .verify import (
    CheckResult,
    EnumerationBox,
    Report,
    TruncatedSeries,
    complex_check,
    default_box,
    enumerate_semigroup,
    expand_series,
    full_report,
    gastinger_check,
    hilbert_truncation_check,
)

__version__ = "0.1.0"
