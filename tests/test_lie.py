"""Lie algebra side: LCS, adapted bases, Carnot associates, model round trips."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from nilrigid import (
    AdaptedBasis,
    LieAlgebra,
    NotNilpotentError,
    adapted_basis,
    associated_graded_model,
    carnot,
    ce_model,
    change_basis,
    free_nilpotent_lie,
    generated_basis,
    is_carnot_homogeneous,
    jacobi_defect,
    lie_from_model,
    lower_central_series,
    section3_pair,
    theorem1_family,
    theorem2_family,
    theorem4_example,
    trivial_basis,
)
from nilrigid import lie
from nilrigid.forms import monomial_weight
from nilrigid.lie import sparse_basis
from oracle import (corrupt, filiform4, heisenberg, jacobiator, oracle_carnot, random_nilpotent,
                    rational_conjugate)


def test_heisenberg_lcs():
    chain = lower_central_series(heisenberg())
    assert chain.nilpotent
    assert chain.dimensions() == (3, 1, 0)


def test_filiform_lcs_and_weights():
    chain = lower_central_series(filiform4())
    assert chain.dimensions() == (4, 2, 1, 0)
    basis = adapted_basis(filiform4())
    assert basis.is_identity()
    assert basis.weights == (0, 0, 1, 2)


def test_non_nilpotent_detected():
    L = LieAlgebra(("x", "y"), {(0, 1): {1: Fraction(1)}})
    chain = lower_central_series(L)
    assert not chain.nilpotent
    with pytest.raises(NotNilpotentError):
        adapted_basis(L)
    with pytest.raises(NotNilpotentError):
        generated_basis(L)


def test_generated_basis_is_the_identity_on_the_families():
    models = [theorem1_family(2), theorem1_family(3), theorem2_family(2), theorem2_family(3),
              theorem4_example(), *section3_pair()]
    for L in [lie_from_model(A) for A in models] + [free_nilpotent_lie(2, 4).algebra]:
        basis = generated_basis(L)
        assert basis.is_identity() and basis.names == L.names, L.names
        assert basis.weights == adapted_basis(L).weights


def test_fingerprint_of_a_single_term_algebra_brackets_nothing_for_its_basis(monkeypatch):
    # every bracket of theorem4 is one term, so the generated basis that
    # fingerprint eliminates in is the identity at the LCS weights, taken
    # without bracketing a candidate
    from nilrigid import cohomology, fingerprint
    L, inside, counts = lie_from_model(theorem4_example()), [], Counter()
    bracket, generated = LieAlgebra.bracket, cohomology.generated_basis

    def spy(M):
        counts["g"] += 1
        inside.append(M)
        try:
            return generated(M)
        finally:
            inside.pop()

    monkeypatch.setattr(cohomology, "generated_basis", spy)
    monkeypatch.setattr(LieAlgebra, "bracket",
                        lambda self, u, v: counts.update("b" if inside else "o") or bracket(self, u, v))
    fingerprint(L)
    assert counts["g"] == 1 and counts["b"] == 0
    # e_j has the weight of the last stage of the lower central series that holds it
    stages = lower_central_series(L).subspaces
    weights = [max(w for w, rows in enumerate(stages) if {j: 1} in rows) for j in range(L.dimension)]
    assert spy(L) == trivial_basis(L, weights) and counts["g"] == 2 and counts["b"] == 0


def test_sparse_basis_is_the_generated_one_where_a_bracket_has_several_terms(monkeypatch):
    # free(2,5) has two such brackets and a generated basis that is not its own;
    # free(3,3) has one, but its generated basis is the identity
    free = free_nilpotent_lie(2, 5).algebra
    assert sparse_basis(free) == generated_basis(free) and not generated_basis(free).is_identity()
    assert sparse_basis(free_nilpotent_lie(3, 3).algebra) is None
    # [x, y] = y + z is not nilpotent: its own basis
    assert sparse_basis(LieAlgebra(("x", "y", "z"), {(0, 1): {1: 1, 2: 1}})) is None
    # one term per bracket: its own basis, with no generated basis computed
    monkeypatch.setattr(lie, "generated_basis", lambda L: pytest.fail("generated_basis called"))
    assert sparse_basis(free_nilpotent_lie(2, 4).algebra) is None


def test_jacobi_defect_empty_on_families():
    for model in [theorem1_family(2), theorem2_family(2), theorem4_example()]:
        assert jacobi_defect(lie_from_model(model)) == []


def test_jacobi_defect_nonempty_on_corruption():
    rng = random.Random(2)
    L = lie_from_model(theorem4_example())
    found = False
    for _ in range(10):
        bad = corrupt(rng, L)
        if jacobi_defect(bad):
            found = True
            break
    assert found


def test_jacobi_defect_matches_the_jacobiator():
    rng = random.Random(31)
    algebras = [lie_from_model(theorem4_example())]
    algebras += [random_nilpotent(rng) for _ in range(6)]
    failing = 0
    for L in algebras:
        for bad in (L, corrupt(rng, L), corrupt(rng, corrupt(rng, L))):
            expected = jacobiator(bad)
            assert jacobi_defect(bad) == expected
            failing += bool(expected)
    assert failing >= 5


def test_ce_model_round_trip_on_families():
    for model in [
        theorem1_family(1),
        theorem2_family(2),
        theorem4_example(),
        *section3_pair(),
    ]:
        L = lie_from_model(model)
        rebuilt = ce_model(L, trivial_basis(L, model.weights))
        assert rebuilt == model


def test_ce_model_round_trip_random():
    rng = random.Random(9)
    for _ in range(20):
        L = random_nilpotent(rng)
        assert lie_from_model(ce_model(L, trivial_basis(L))) == L


def test_change_basis_inverse():
    rng = random.Random(4)
    L = lie_from_model(theorem1_family(2))
    n = L.dimension
    from oracle import random_invertible

    cols = random_invertible(rng, n)
    basis = trivial_basis(L)
    moved = change_basis(L, type(basis)(columns=cols, weights=basis.weights, names=L.names))
    from nilrigid import linalg

    P = [[cols[a][i] for a in range(n)] for i in range(n)]
    Pinv = linalg.invert(P)
    inv_cols = tuple(tuple(Pinv[i][a] for i in range(n)) for a in range(n))
    back = change_basis(
        moved, type(basis)(columns=inv_cols, weights=basis.weights, names=L.names)
    )
    assert back == L


def test_change_basis_rejects_a_singular_basis():
    L = heisenberg()
    one, zero = Fraction(1), Fraction(0)
    singular = ((one, zero, zero), (zero, one, zero), (one, one, zero))
    with pytest.raises(ValueError, match="singular"):
        change_basis(L, AdaptedBasis(columns=singular, weights=(0, 0, 0), names=L.names))


def test_adapted_basis_on_scrambled_algebra():
    rng = random.Random(12)
    L = random_nilpotent(rng)
    basis = adapted_basis(L)
    graded = change_basis(L, basis)
    model = ce_model(L, basis)
    # triangular: every monomial of every d v has weight below weight(v)
    for g, df in zip(model.generators, model.differential):
        assert all(monomial_weight(model.generators, m) < g.weight for m in df.terms)
    assert lie_from_model(model) == graded


def test_carnot_is_carnot():
    rng = random.Random(21)
    for _ in range(5):
        L = random_nilpotent(rng)
        C = carnot(L)
        model = ce_model(C, trivial_basis(C, adapted_basis(L).weights))
        assert is_carnot_homogeneous(model)
        # the Carnot associate of a Carnot algebra is itself
        assert carnot(C) == C


def test_carnot_preserves_lcs_dimensions():
    L = lie_from_model(theorem2_family(2))
    C = carnot(L)
    assert lower_central_series(C).dimensions() == lower_central_series(L).dimensions()


def assert_carnot_matches_the_oracle(L, basis):
    """carnot and is_carnot_homogeneous against the cut on brackets, basis None
    meaning the adapted one; returns whether the cut dropped a term."""
    adapted = basis or adapted_basis(L)
    graded, C = change_basis(L, adapted), oracle_carnot(L, adapted)
    assert carnot(L, basis) == C
    assert is_carnot_homogeneous(ce_model(L, basis)) == (C == graded)
    return C != graded


def test_carnot_and_homogeneity_match_the_oracle_cut():
    # the families in their adapted basis and under their declared weights, their
    # conjugates in the adapted basis, and random nilpotent algebras under drawn
    # weights, where the cut drops terms of any weight
    rng = random.Random(31)
    models = [theorem1_family(2), theorem2_family(2), theorem2_family(3), theorem4_example(),
              *section3_pair()]
    cases = [(free_nilpotent_lie(2, 4).algebra, None)]
    for A in models:
        L = lie_from_model(A)
        cases += [(L, None), (L, trivial_basis(L, A.weights)), (rational_conjugate(rng, L), None)]
    for _ in range(20):
        L = random_nilpotent(rng)
        cases.append((L, trivial_basis(L, [rng.randrange(3) for _ in range(L.dimension)])))
    dropped = Counter(assert_carnot_matches_the_oracle(L, basis) for L, basis in cases)
    assert dropped[True] >= 10 and dropped[False] >= 10, dropped


def test_associated_graded_model_drops_top_term():
    model = theorem2_family(2)
    bar = associated_graded_model(model)
    m = model.index_of("m")
    dropped = model.differential[m] - bar.differential[m]
    assert list(dropped.terms) == [
        (model.index_of("x4"), model.index_of("x5"))
    ]
    assert is_carnot_homogeneous(bar)
    assert not is_carnot_homogeneous(model)
