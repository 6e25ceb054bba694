"""Lyndon bases, Witt dimensions, free nilpotent algebras and quotients."""

from fractions import Fraction

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
from nilrigid.free_nilpotent import is_lyndon


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
