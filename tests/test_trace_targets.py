"""The benchmark traces every public module-level function of five layers,
and `perfbench/counts.json` pins the calls to each. A new public helper in
one of those layers would add a count entry and fail the pins with a bare
count diff; this test fails first, naming it.

It imports the benchmark's tracer read-only from `perfbench/`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402

from apsemigroups import cli  # noqa: E402,F401  (loads every layer)

TRACED = {
    "cli": ["main"],
    "closed_forms": [
        "apery_extended",
        "extended_betti",
        "extended_generating_set",
        "gb_partition",
        "generating_set",
        "gluing_data",
        "hilbert_numerator",
        "progression_ring",
        "qf_extended",
        "regularity",
        "regularity_from_resolution",
        "resolution",
        "xi_family",
    ],
    "polynomials": [
        "buchberger",
        "elimination_order",
        "family_grading",
        "family_ring",
        "grevlex",
        "ideal_equal",
        "is_groebner_basis",
        "is_quadratic",
        "is_s_homogeneous",
        "leading_monomial",
        "leading_term",
        "monic",
        "multidegree",
        "reduce",
        "s_degree",
        "s_polynomial",
        "standard_monomials",
        "toric_kernel",
        "vanishes_under_degree_map",
    ],
    "semigroup": [
        "all_representations",
        "apery_bruteforce",
        "apery_closed_form",
        "build_family",
        "cm_type",
        "degree_in_rays",
        "extremal_rays",
        "is_cohen_macaulay",
        "is_member",
        "is_normal",
        "member_certificate",
        "quasi_frobenius",
    ],
    "verify": [
        "complex_check",
        "default_box",
        "enumerate_semigroup",
        "expand_series",
        "full_report",
        "gastinger_check",
        "hilbert_truncation_check",
        "poly_matrix_det",
    ],
}


def test_traced_functions_are_the_pinned_set():
    assert sorted(tracer.LAYERS) == sorted(TRACED)
    found = set(tracer.targets())
    expected = {f"{layer}.{name}" for layer, names in TRACED.items() for name in names}
    assert sorted(found - expected) == [], "new public functions in a traced layer"
    assert sorted(expected - found) == [], "traced functions gone"
