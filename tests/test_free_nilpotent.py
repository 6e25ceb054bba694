"""Lyndon bases, Witt dimensions, free nilpotent algebras and quotients."""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st
import pytest

from nilrigid import (
    Cohomology,
    SizeCapError,
    ce_model,
    check_d_squared,
    free_nilpotent_lie,
    jacobi_defect,
    lower_central_series,
    lyndon_words,
    standard_factorization,
    theorem3_family,
    trivial_basis,
    witt_dimension,
)
from nilrigid.free_nilpotent import LyndonBasis, is_lyndon
from oracle import oracle_theorem3


def test_lyndon_words_small():
    words = lyndon_words(2, 4)
    assert words[1] == ["a", "b"]
    assert words[2] == ["ab"]
    assert words[3] == ["aab", "abb"]
    assert words[4] == ["aaab", "aabb", "abbb"]


def test_is_lyndon():
    for w in ("a", "ab", "aab", "aabab"):
        assert is_lyndon(w)
    for w in ("", "aa", "ba", "abab"):
        assert not is_lyndon(w)


def test_lyndon_counts_match_witt():
    for l in (2, 3):
        words = lyndon_words(l, 5)
        for n in range(1, 6):
            assert len(words[n]) == witt_dimension(l, n)
    assert [witt_dimension(2, n) for n in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [witt_dimension(3, n) for n in range(1, 6)] == [3, 3, 8, 18, 48]


@pytest.mark.parametrize("l, n", [(2, 0), (-1, 2), (0, 3)])
def test_witt_dimension_rejects_no_letters_and_length_below_1(l, n):
    with pytest.raises(ValueError, match="need at least one letter and length 1"):
        witt_dimension(l, n)


def test_standard_factorization():
    assert standard_factorization("ab") == ("a", "b")
    assert standard_factorization("aab") == ("a", "ab")
    assert standard_factorization("aabab") == ("aab", "ab")
    assert standard_factorization("abbb") == ("abb", "b")
    with pytest.raises(ValueError):
        standard_factorization("a")


def test_bracket_to_basis_jacobi_combination():
    def bracket(c, u, v):
        free = free_nilpotent_lie(2, c)
        index = free.words.index
        vec = free.algebra.bracket_basis(index(u), index(v))
        return {free.words[i]: x for i, x in vec.items()}

    one = Fraction(1)
    for c in (3, 5):
        # [[a,b],b] is the basis word abb itself, [b,[a,b]] its negative
        assert bracket(c, "ab", "b") == {"abb": one}
        assert bracket(c, "b", "ab") == {"abb": -one}
    # [aab,ab] is the standard bracketing of aabab; antisymmetry gives the other order
    assert bracket(5, "aab", "ab") == {"aabab": one}
    assert bracket(5, "ab", "aab") == {"aabab": -one}
    # by Jacobi [[a,ab],b] = [a,abb] + [ab,ab] = aabb, so [b,aab] = -aabb
    assert bracket(5, "b", "aab") == {"aabb": -one}
    # [[a,abb],b] = [a,[abb,b]] + [[a,b],abb] = aabbb + ababb
    assert bracket(5, "aabb", "b") == {"aabbb": one, "ababb": one}


def _product(p, q):
    """The product of two tensor polynomials, summed independently of the library."""
    out = Counter()
    for u, x in p.items():
        for v, y in q.items():
            out[u + v] += x * y
    return out


@pytest.mark.parametrize("l, c", [(2, 5), (3, 3)])
def test_bracket_coordinates_are_ints_that_rebuild_the_commutator(l, c):
    # every bracket [u, v] of two Lyndon words: [P_u, P_v] = sum_w coords[w] P_w,
    # P_w the expansion of w's standard bracketing, over the integers
    basis, free = LyndonBasis(l, c), free_nilpotent_lie(l, c)
    words = basis.words
    for a, u in enumerate(words):
        for b in range(a + 1, len(words)):
            v = words[b]
            if len(u) + len(v) > c:
                continue
            eu, ev = basis.expansion(u), basis.expansion(v)
            commutator = _product(eu, ev)
            commutator.subtract(_product(ev, eu))
            commutator = {w: x for w, x in commutator.items() if x}
            coords = basis.to_coordinates(commutator)
            assert all(type(x) is int for x in coords.values())
            rebuilt = Counter()
            for w, x in coords.items():
                for word, y in basis.expansion(w).items():
                    rebuilt[word] += x * y
            assert {w: x for w, x in rebuilt.items() if x} == commutator
            assert free.algebra.brackets.get((a, b), {}) == {
                basis.index[w]: x for w, x in coords.items()}


def test_to_coordinates_rejects_what_is_not_a_lie_element():
    basis = LyndonBasis(2, 3)
    for poly in ({"ba": 1}, {"ab": 1}, {"aab": 2, "aba": 1}):
        with pytest.raises(ValueError, match="not a Lie element"):
            basis.to_coordinates(poly)


def test_free_nilpotent_algebra_valid():
    for l, c in [(2, 3), (2, 4), (3, 2)]:
        free = free_nilpotent_lie(l, c)
        L = free.algebra
        assert L.dimension == sum(witt_dimension(l, m) for m in range(1, c + 1))
        assert jacobi_defect(L) == []
        assert check_d_squared(ce_model(L, trivial_basis(L, free.weights))) == []
        dims = lower_central_series(L).dimensions()
        # the lower central series walks down the word-length filtration
        expected = [L.dimension]
        for m in range(2, c + 1):
            expected.append(sum(witt_dimension(l, j) for j in range(m, c + 1)))
        expected.append(0)
        assert dims == tuple(expected)


def test_free_nilpotent_size_cap():
    with pytest.raises(SizeCapError):
        free_nilpotent_lie(3, 5, max_dim=64)


def test_theorem3_full_subspace_is_free_algebra():
    free = free_nilpotent_lie(2, 3)
    top = witt_dimension(2, 3)
    basis = [[1 if i == j else 0 for j in range(top)] for i in range(top)]
    L = theorem3_family(2, 1, basis)
    assert L.names == free.algebra.names
    assert L.brackets == free.algebra.brackets


def test_theorem3_proper_subspace():
    # keep only the span of aab + abb inside the length-3 component
    L = theorem3_family(2, 1, [[1, 1]])
    assert L.dimension == 4
    assert jacobi_defect(L) == []
    dims = lower_central_series(L).dimensions()
    assert dims == (4, 2, 1, 0)


def test_theorem3_rejects_dependent_subspace():
    with pytest.raises(ValueError):
        theorem3_family(2, 1, [[1, 0], [2, 0]])


_ENTRIES = st.one_of(st.just(0), st.just(1), st.fractions(-3, 3, max_denominator=5))


@st.composite
def _theorem3_inputs(draw):
    """(l, k, vectors): empty, proper or full subspaces of rational vectors,
    some multiples of one top word, sometimes made dependent by a multiple of
    one of them, or given a vector of the wrong width."""
    l, k = draw(st.sampled_from((2, 3))), draw(st.sampled_from((0, 1, 2)))
    width = witt_dimension(l, k + 2)
    size = draw(st.sampled_from((0, width)) | st.integers(0, width))
    row = st.lists(_ENTRIES, min_size=width, max_size=width)
    vectors = draw(st.lists(row, min_size=size, max_size=size))
    if vectors and draw(st.booleans()):  # a multiple of a top word, which may name it
        j = draw(st.integers(0, width - 1))
        vectors[-1] = [draw(_ENTRIES) if i == j else 0 for i in range(width)]
    flaw = draw(st.sampled_from((None, None, "dependent", "width")))
    if flaw == "dependent":
        scale = draw(_ENTRIES)
        vectors.append([scale * x for x in vectors[0]] if vectors else [0] * width)
    elif flaw == "width":
        vectors.append(draw(st.lists(_ENTRIES, min_size=width + 1, max_size=width + 1)))
    return l, k, draw(st.permutations(vectors))


def _outcome(family, l, k, vectors):
    """Names and brackets, in order, of the algebra, or the ValueError message."""
    try:
        L = family(l, k, vectors)
    except ValueError as err:
        return str(err)
    return L.names, list(L.brackets.items())


@settings(max_examples=60, deadline=None)
@given(_theorem3_inputs())
def test_theorem3_matches_the_change_of_basis_oracle(inputs):
    assert _outcome(theorem3_family, *inputs) == _outcome(oracle_theorem3, *inputs)


def test_theorem3_zero_weight_relations():
    # quotienting the whole top component away gives the class-2 algebra
    L = theorem3_family(2, 1, [])
    free2 = free_nilpotent_lie(2, 2)
    assert L.names == free2.algebra.names
    assert L.brackets == free2.algebra.brackets


@pytest.mark.parametrize("m, c, n", [(6, 2, 21), (2, 6, 23), (3, 4, 32)])
def test_b2_is_the_next_witt_number(m, c, n):
    # Hopf: H_2 of f / f^(c+1), f free on m generators, is f^(c+1) / f^(c+2); a
    # closed form at n >= 16, beyond the dense oracle's reach
    free = free_nilpotent_lie(m, c)
    assert free.algebra.dimension == n
    H = Cohomology(ce_model(free.algebra, trivial_basis(free.algebra, free.weights)))
    assert H.betti(2) == witt_dimension(m, c + 1)
