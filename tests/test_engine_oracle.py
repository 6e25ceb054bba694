"""The integer engines against the Fraction-only oracle.

cochain_matrix and check_d_squared derive through the model's integer term
table, jacobi_defect through its own integer bracket table; the oracle builds
d and the Jacobiator from the rational structure constants directly.
cochain_matrix gives D * d on ints, D the model's scale, so it is compared
with the oracle's columns times D.  Betti numbers and indecomposables come
from integer elimination of primitive rows, which the oracle's dense
Fraction ranks check on conjugates whose entries have large coprime
denominators, seeded and drawn.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from nilrigid import Cohomology, LieAlgebra, ce_model, check_d_squared, cochain_matrix
from nilrigid import change_basis, jacobi_defect, monomial_basis, trivial_basis
from nilrigid.linalg import rank
from oracle import (
    DENOMINATORS,
    base_algebras,
    corrupt,
    jacobiator,
    oracle_betti,
    oracle_columns,
    oracle_d_squared,
    oracle_indecomposables,
    random_nilpotent,
    rational_conjugate,
)


def assert_engine_matches_oracle(L):
    """Check every derivation of L against the oracle; returns (D, d^2 fails)."""
    A = ce_model(L, trivial_basis(L))
    for p in range(L.dimension + 1):
        columns = cochain_matrix(A, p)
        assert columns == [{r: A.scale * c for r, c in col.items()} for col in oracle_columns(L, p)]
        assert all(type(v) is int for col in columns for v in col.values())
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


def test_large_denominator_conjugates_match_the_oracle():
    # the entries of the integer rows grow with the common denominator
    rng = random.Random(43)
    algebras = [rational_conjugate(rng, random_nilpotent(rng)) for _ in range(8)]
    scales = []
    for L in [L for L in algebras if L.brackets]:
        H = Cohomology(ce_model(L, trivial_basis(L)))
        scales.append(H.model.scale)
        assert H.betti_vector() == oracle_betti(L)
        for p in range(1, L.dimension + 1):
            assert H.indecomposables(p)[0] == oracle_indecomposables(L, p), (L.names, p)
    assert len(scales) == 5 and max(scales) > 10**100


BASES = base_algebras()


@st.composite
def drawn_conjugates(draw):
    """A base algebra in a drawn invertible basis, entries in {-2..2} over DENOMINATORS."""
    L = draw(st.sampled_from(BASES))
    n = L.dimension
    entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from(DENOMINATORS))
    cols = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(rank([list(c) for c in cols]) == n)
    basis = trivial_basis(L)
    return change_basis(L, type(basis)(columns=tuple(map(tuple, cols)),
                                       weights=basis.weights, names=L.names))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(drawn_conjugates())
def test_drawn_conjugates_match_the_oracle(L):
    H = Cohomology(ce_model(L, trivial_basis(L)))
    assert H.betti_vector() == oracle_betti(L)
    for p in range(L.dimension + 1):
        assert H.indecomposables(p)[0] == oracle_indecomposables(L, p), p
        for i in range(H.betti(p)):
            v = H.unit_class(p, i)
            assert H.class_coordinates(H.form_of(v), p) == v
