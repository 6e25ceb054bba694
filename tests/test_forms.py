"""Exterior algebra arithmetic and the derivation property of d."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from nilrigid import (
    Form,
    Generator,
    MixedDegreeError,
    DomainMismatchError,
    SullivanModel,
    apply_differential,
    check_d_squared,
    cochain_matrix,
    monomial_basis,
    theorem1_family,
    theorem2_family,
    theorem4_example,
    section3_pair,
    wedge,
)
from nilrigid.forms import _derive, _masks, _Monomials, product


GENS = tuple(Generator(f"e{i}", i) for i in range(6))


def rand_form(rng, degree, nterms=3):
    terms = {}
    for _ in range(nterms):
        mono = tuple(sorted(rng.sample(range(len(GENS)), degree)))
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Form(GENS, terms)


def test_merge_monomials_signs():
    # the wedge of two monomials merges their increasing index tuples: the
    # sign is that of the merge, and a shared index gives zero
    def mono(*m):
        return Form(GENS, {m: 1})

    assert wedge(mono(0), mono(1)) == mono(0, 1)
    assert wedge(mono(1), mono(0)) == -mono(0, 1)
    assert wedge(mono(0, 2), mono(1)) == -mono(0, 1, 2)
    assert wedge(mono(0, 1), mono(1)).is_zero()
    assert wedge(mono(), mono(0, 1)) == mono(0, 1)


def test_wedge_anticommutes_on_generators():
    a = Form.generator(GENS, 0)
    b = Form.generator(GENS, 1)
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero()


def test_wedge_associative_and_bilinear():
    rng = random.Random(11)
    for _ in range(20):
        f = rand_form(rng, 1)
        g = rand_form(rng, 2)
        h = rand_form(rng, 1)
        assert wedge(wedge(f, g), h) == wedge(f, wedge(g, h))
        k = rand_form(rng, 2)
        assert wedge(f, g + k) == wedge(f, g) + wedge(f, k)


def test_graded_commutativity():
    rng = random.Random(5)
    for da, db in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        f = rand_form(rng, da)
        g = rand_form(rng, db)
        sign = (-1) ** (da * db)
        assert wedge(f, g) == wedge(g, f).scale(sign)


def test_degree_and_weight_accessors():
    gens = (Generator("x", 0, 0), Generator("n", 1, 1))
    f = Form(gens, {(0,): 1, (1,): 2})
    assert f.degree() == 1
    mixed = Form(gens, {(0,): 1, (0, 1): 1})
    with pytest.raises(MixedDegreeError):
        mixed.degree()
    assert Form.zero(gens).degree() is None


def test_domain_mismatch():
    other = tuple(Generator(f"f{i}", i) for i in range(3))
    with pytest.raises(DomainMismatchError):
        wedge(Form.generator(GENS, 0), Form.generator(other, 0))


def test_apply_differential_is_a_derivation():
    model = theorem2_family(2)
    rng = random.Random(3)
    idx = range(model.dimension)

    def rand(degree):
        terms = {}
        for _ in range(3):
            mono = tuple(sorted(rng.sample(idx, degree)))
            terms[mono] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        return Form(model.generators, terms)

    for da, db in [(1, 1), (1, 2), (2, 2)]:
        f = rand(da)
        g = rand(db)
        lhs = apply_differential(model, wedge(f, g))
        rhs = wedge(apply_differential(model, f), g) + wedge(
            f, apply_differential(model, g)
        ).scale((-1) ** da)
        assert lhs == rhs


def test_d_squared_on_families():
    for model in [
        theorem1_family(1),
        theorem1_family(3),
        theorem2_family(2),
        theorem4_example(),
        *section3_pair(),
    ]:
        assert check_d_squared(model) == []


def test_d_squared_detects_invalid_model():
    gens = tuple(
        Generator(n, i) for i, n in enumerate(["a", "b", "c", "n", "m"])
    )
    diff = [
        Form.zero(gens),
        Form.zero(gens),
        Form.zero(gens),
        Form(gens, {(0, 1): 1}),  # d n = a b
        Form(gens, {(2, 3): 1}),  # d m = c n, so d^2 m = -c a b != 0
    ]
    defects = check_d_squared(SullivanModel(gens, diff))
    assert [g.name for g, _ in defects] == ["m"]


def test_derive_drops_terms_that_cancel():
    # d v1 = v0 v1 and d v2 = -v0 v2, so the two terms of d(v1 v2) cancel at
    # v0 v1 v2: no column, Form or d^2 defect holds that monomial, not even as 0
    gens = tuple(Generator(f"v{i}", i) for i in range(5))

    def form(terms):
        return Form(gens, terms)

    A = SullivanModel(gens, [form({}), form({(0, 1): 1}), form({(0, 2): -1}),
                             form({(1, 2): 1, (1, 4): 1}), form({(0, 4): 1})])
    assert _derive(A, 0b110, _Monomials()) == {}
    assert _derive(A, 0b10010, _Monomials()) == {(0, 1, 4): 2}
    assert cochain_matrix(A, 2)[_masks(5, 2).index(0b110)] == {}
    assert all(v for p in range(6) for column in cochain_matrix(A, p) for v in column.values())
    assert apply_differential(A, form({(1, 2): 1, (1, 4): 1})).terms == {(0, 1, 4): 2}
    # d^2 v3 = d(v1 v2) + d(v1 v4): the first cancels, the second is the defect
    assert [(g.name, f.terms) for g, f in check_d_squared(A)] == [("v3", {(0, 1, 4): 2})]


def test_monomial_basis_counts_and_order():
    model = theorem1_family(1)
    basis = monomial_basis(model, 2)
    assert len(basis) == 6
    assert basis == sorted(basis)
    assert monomial_basis(model, 0) == [()]
    assert monomial_basis(model, -1) == []
    assert monomial_basis(model, 5) == []
    assert monomial_basis(model, 10**20) == []


def test_masks_enumerate_each_degree_in_lexicographic_order():
    # row j of every degree-p cochain is the j-th mask, so this order is the
    # row order of every matrix and report
    for n in range(10):
        for p in range(-1, n + 2):
            expected = [sum(1 << x for x in c) for c in combinations(range(n), max(p, 0))]
            assert _masks(n, p) == (expected if p >= 0 else [])


def test_product_wedges_from_the_unit_and_stops_at_zero():
    x0, x1 = Form.generator(GENS, 0), Form.generator(GENS, 1)
    assert product(GENS, []) == Form.unit(GENS)
    assert product(GENS, [x1, x0]) == wedge(x1, x0)
    taken = []
    factors = (taken.append(f) or f for f in (x0, x0, x1))
    assert product(GENS, factors).is_zero() and len(taken) == 2


def test_model_validation():
    gens = (Generator("a", 0), Generator("b", 1))
    with pytest.raises(Exception):
        SullivanModel(gens, [Form.zero(gens)])
    cubic = Form(gens, {(0,): 1})
    with pytest.raises(Exception):
        SullivanModel(gens, [cubic, Form.zero(gens)])


@pytest.mark.parametrize("mono", [(-1,), (3,), (float("nan"),), (-1, -2), (2, 1, 5), (0, 3)])
def test_a_monomial_outside_the_generators_is_refused(mono):
    # the range test comes first, so (-1, -2) and (2, 1, 5) name the range
    with pytest.raises(ValueError, match="references unknown generator index"):
        Form(GENS[:3], {mono: 1})


@pytest.mark.parametrize("mono", [(1, 1), (2, 1), (0, 2, 1)])
def test_a_monomial_out_of_order_is_refused(mono):
    with pytest.raises(ValueError, match="is not strictly increasing"):
        Form(GENS[:3], {mono: 1})


def test_form_coefficients_are_fractions_and_zeros_are_dropped():
    f = Form(GENS[:3], {(0,): 2, (1,): "3/4", (1, 2): Fraction(-1),
                        (2,): 0, (0, 1): "0", (): Fraction(0)})
    assert f.terms == {(0,): Fraction(2), (1,): Fraction(3, 4), (1, 2): Fraction(-1)}
    assert all(type(k) is tuple and type(c) is Fraction for k, c in f.terms.items())
    assert Form(GENS[:3], [((0,), 1)]).terms == {(0,): Fraction(1)} and Form(GENS[:3], {}).is_zero()
