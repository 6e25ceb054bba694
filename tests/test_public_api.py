"""The names ``import nilrigid`` exports.

Adding or removing a public name changes this list, so the change shows in
the diff and is recorded in CHANGES.md.
"""

import types

import nilrigid

PUBLIC = [
    "AdaptedBasis",
    "ClassVector",
    "Cohomology",
    "Decomposability",
    "DomainMismatchError",
    "FamilyShapeError",
    "Fingerprint",
    "Form",
    "FreeNilpotentAlgebra",
    "Generator",
    "GeneratorMap",
    "LieAlgebra",
    "MixedDegreeError",
    "ModelError",
    "NilrigidError",
    "Normalization",
    "NotClosedError",
    "NotNilpotentError",
    "ParseError",
    "SizeCapError",
    "SubspaceChain",
    "SullivanModel",
    "adapted_basis",
    "apply_differential",
    "associated_graded_model",
    "carnot",
    "ce_model",
    "change_basis",
    "check_d_squared",
    "cochain_matrix",
    "fingerprint",
    "free_nilpotent_lie",
    "generated_basis",
    "is_carnot_homogeneous",
    "is_decomposable_2form",
    "jacobi_defect",
    "lie_from_model",
    "lower_central_series",
    "lyndon_words",
    "map_form",
    "monomial_basis",
    "normalize_perturbation",
    "parse_algebra",
    "section3_pair",
    "standard_factorization",
    "theorem1_family",
    "theorem2_family",
    "theorem3_family",
    "theorem4_example",
    "trivial_basis",
    "verify_cdga_morphism",
    "verify_cohomology_ring_iso",
    "wedge",
    "witt_dimension",
]


def test_public_names_are_pinned():
    # submodules show up in dir() once imported anywhere, so they are left out
    names = [
        n for n in dir(nilrigid)
        if not n.startswith("_") and not isinstance(getattr(nilrigid, n), types.ModuleType)
    ]
    assert sorted(names) == PUBLIC
