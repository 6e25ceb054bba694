"""Exact rational models and cohomology of nilpotent Lie algebras."""

from .cohomology import ClassVector, Cohomology, cochain_matrix
from .errors import (
    DomainMismatchError,
    FamilyShapeError,
    MixedDegreeError,
    ModelError,
    NilrigidError,
    NotClosedError,
    NotNilpotentError,
    ParseError,
    SizeCapError,
)
from .families import (
    section3_pair,
    theorem1_family,
    theorem2_family,
    theorem4_example,
)
from .fileformat import parse_algebra
from .forms import (
    Form,
    Generator,
    SullivanModel,
    apply_differential,
    check_d_squared,
    monomial_basis,
    wedge,
)
from .free_nilpotent import (
    FreeNilpotentAlgebra,
    free_nilpotent_lie,
    lyndon_words,
    standard_factorization,
    theorem3_family,
    witt_dimension,
)
from .lie import (
    AdaptedBasis,
    LieAlgebra,
    SubspaceChain,
    adapted_basis,
    associated_graded_model,
    carnot,
    ce_model,
    change_basis,
    generated_basis,
    is_carnot_homogeneous,
    jacobi_defect,
    lie_from_model,
    lower_central_series,
    trivial_basis,
)
from .morphisms import (
    Decomposability,
    Fingerprint,
    GeneratorMap,
    Normalization,
    fingerprint,
    is_decomposable_2form,
    map_form,
    normalize_perturbation,
    verify_cdga_morphism,
    verify_cohomology_ring_iso,
)

__version__ = "0.1.0"
