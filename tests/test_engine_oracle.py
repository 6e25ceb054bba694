"""The integer derivation engine against the Fraction-only oracle.

cochain_matrix and check_d_squared derive through the model's integer term
table, jacobi_defect through its own integer bracket table; the oracle builds
d and the Jacobiator from the rational structure constants directly.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nilrigid import LieAlgebra, ce_model, check_d_squared, cochain_matrix, jacobi_defect
from nilrigid import monomial_basis, trivial_basis
from oracle import (
    corrupt,
    jacobiator,
    oracle_columns,
    oracle_d_squared,
    random_nilpotent,
)


def assert_engine_matches_oracle(L):
    """Check every derivation of L against the oracle; returns (D, d^2 fails)."""
    A = ce_model(L, trivial_basis(L))
    for p in range(L.dimension + 1):
        assert cochain_matrix(A, p) == oracle_columns(L, p)
    index = {m: r for r, m in enumerate(monomial_basis(A, 3))}
    defects = [
        (g.index, {index[m]: c for m, c in f.terms.items()}) for g, f in check_d_squared(A)
    ]
    assert defects == oracle_d_squared(L)
    assert jacobi_defect(L) == jacobiator(L)
    return A.scale, bool(defects)


def test_conjugates_and_corruptions_match_the_oracle():
    rng = random.Random(41)
    scales, failing = [], 0
    for _ in range(5):
        L = random_nilpotent(rng)
        for bad in (L, corrupt(rng, L), corrupt(rng, corrupt(rng, L))):
            scale, fails = assert_engine_matches_oracle(bad)
            scales.append(scale)
            failing += fails
    assert max(scales) > 1 and failing >= 5


# pairwise coprime denominators, so the common denominator D grows to ~1e30
DENOMINATORS = (1, 2, 3, 7, 999953, 999959, 999961, 999979, 999983)
coefficients = st.builds(
    Fraction,
    st.integers(-(10**6), 10**6).filter(bool),
    st.sampled_from(DENOMINATORS),
)


@st.composite
def structure_constants(draw):
    n = draw(st.integers(2, 6))
    pairs = [(l, k) for l in range(n) for k in range(l + 1, n)]
    brackets = {
        pair: draw(st.dictionaries(st.integers(0, n - 1), coefficients, min_size=1, max_size=3))
        for pair in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    }
    return LieAlgebra(tuple(f"e{i}" for i in range(n)), brackets)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(structure_constants())
def test_random_structure_constants_match_the_oracle(L):
    assert_engine_matches_oracle(L)
