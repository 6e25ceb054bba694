"""Morphism verification, normalization, decomposability, fingerprints."""

import random
from fractions import Fraction

import pytest

from nilrigid import (
    Cohomology,
    FamilyShapeError,
    Form,
    GeneratorMap,
    SullivanModel,
    fingerprint,
    is_decomposable_2form,
    lie_from_model,
    map_form,
    normalize_perturbation,
    section3_pair,
    theorem1_family,
    theorem2_family,
    trivial_basis,
    verify_cdga_morphism,
    verify_cohomology_ring_iso,
    wedge,
)
from nilrigid.lie import change_basis
from helpers import (
    SECTION3_RING_MAP_COMPLETED,
    form_of,
    section3_ring_verdicts,
)
from oracle import random_invertible, random_nilpotent


def identity_map(model):
    return GeneratorMap(
        tuple(Form.generator(model.generators, g.index) for g in model.generators)
    )


def perturbed_theorem2(rng, k, include_residual=True):
    """theorem2-shaped model with a random quadratic perturbation of d m."""
    base = theorem2_family(k)
    q = 2 * k + 1
    pert = base.zero()
    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            if not include_residual and (i, j) == (2 * k, 2 * k + 1):
                continue
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            if c:
                pert = pert + form_of(base, f"x{i}^x{j}").scale(c)
    m = base.index_of("m")
    # replace d m = sum x_i n_i + x_2k x_2k+1 by sum x_i n_i + p
    diffs = list(base.differential)
    dm = diffs[m] - form_of(base, f"x{2 * k}^x{2 * k + 1}") + pert
    diffs[m] = dm
    return SullivanModel(base.generators, diffs), base


def test_identity_is_a_morphism():
    for model in [theorem1_family(2), theorem2_family(2)]:
        assert verify_cdga_morphism(model, model, identity_map(model)).ok


def test_morphism_failure_carries_witness():
    model = theorem1_family(1)
    images = list(identity_map(model).images)
    images[model.index_of("n1")] = form_of(model, "2 n1")  # breaks d n1 = x1 x2
    result = verify_cdga_morphism(model, model, GeneratorMap(tuple(images)))
    assert not result.ok
    assert result.stage == "differential"
    assert result.generator == "n1"
    assert result.witness == form_of(model, "- x1^x2")


def test_singular_map_rejected():
    from nilrigid import Generator

    gens = (Generator("a", 0), Generator("b", 1))
    abelian = SullivanModel(gens, (Form.zero(gens), Form.zero(gens)))
    images = (Form.generator(gens, 0), Form.generator(gens, 0))
    result = verify_cdga_morphism(abelian, abelian, GeneratorMap(images))
    assert not result.ok and result.stage == "invertibility"


def test_map_form_is_multiplicative():
    model = theorem1_family(2)
    phi = identity_map(model)
    f = form_of(model, "x1^n1 + 2 x2^x3")
    g = form_of(model, "n2")
    assert map_form(phi, model, model, wedge(f, g)) == wedge(
        map_form(phi, model, model, f), map_form(phi, model, model, g)
    )


def test_normalize_residual_nonzero():
    rng = random.Random(31)
    for _ in range(5):
        W, base = perturbed_theorem2(rng, 2)
        norm = normalize_perturbation(W)
        result = verify_cdga_morphism(W, norm.normalized, norm.map)
        assert result.ok, result
        if norm.residual:
            # rescaling x5 turned the residual term into exactly x4 x5
            assert norm.normalized == base


def test_normalize_residual_zero_hits_graded_model():
    rng = random.Random(33)
    W, base = perturbed_theorem2(rng, 2, include_residual=False)
    norm = normalize_perturbation(W)
    assert norm.residual == 0
    from nilrigid import associated_graded_model

    assert norm.normalized == associated_graded_model(base)
    assert verify_cdga_morphism(W, norm.normalized, norm.map).ok


def test_normalize_rejects_other_shapes():
    with pytest.raises(FamilyShapeError):
        normalize_perturbation(section3_pair()[0])


def test_decomposability_section3_obstructions():
    model, _ = section3_pair()
    for text in ("a1^c + a2^b", "a1^c + a2^d"):
        w = form_of(model, text)
        result = is_decomposable_2form(w)
        assert not result.decomposable
        assert result.rank == 4
        assert not result.square.is_zero()
        assert result.square == wedge(w, w)


def test_decomposability_accepts_products():
    model, _ = section3_pair()
    rng = random.Random(8)
    gens = model.generators
    for _ in range(20):
        u = Form(gens, {(i,): Fraction(rng.randint(-3, 3)) for i in range(5)})
        v = Form(gens, {(i,): Fraction(rng.randint(-3, 3)) for i in range(5)})
        w = wedge(u, v)
        result = is_decomposable_2form(w)
        assert result.decomposable
        assert result.square.is_zero()
        a, b = result.witness
        assert wedge(a, b) == w


def test_fingerprint_basis_invariance():
    rng = random.Random(14)
    L = lie_from_model(theorem1_family(1))
    fp = fingerprint(L)
    basis = trivial_basis(L)
    cols = random_invertible(rng, L.dimension)
    moved = change_basis(
        L, type(basis)(columns=cols, weights=basis.weights, names=L.names)
    )
    assert fingerprint(moved) == fp


def test_fingerprint_computes_the_central_series_once(monkeypatch):
    from nilrigid import lie

    calls, series = [], lie._series
    monkeypatch.setattr(lie, "_series", lambda L: calls.append(L) or series(L))
    fp = fingerprint(lie_from_model(theorem2_family(2)))
    assert len(calls) == 1
    assert fp.lcs_quotients == (5, 3, 1)


def test_fingerprints_of_section3_pair_agree():
    first, second = section3_pair()
    assert fingerprint(lie_from_model(first)) == fingerprint(lie_from_model(second))


def ring_pairs(src, dst, table):
    return [(form_of(src, s), form_of(dst, d)) for s, d in table]


def test_ring_iso_identity():
    model = theorem1_family(1)
    H = Cohomology(model)
    pairs = []
    for p in range(1, model.dimension + 1):
        pairs += [(f, f) for f in H.basis(p)]
    assert verify_cohomology_ring_iso(H, Cohomology(model), pairs).ok


def test_ring_iso_section3_completed_map_passes():
    result, _ = section3_ring_verdicts()
    assert result.ok, result


def test_ring_iso_section3_published_map_misses_a_generator():
    # the published seven-class list omits [a1^d], so it cannot generate H^2
    _, result = section3_ring_verdicts()
    assert not result.ok
    assert result.stage == "not-generating" and result.degree == 2


def test_ring_iso_wrong_image_fails():
    # without the -a2^b^d correction the proposed image is not even closed
    first, second = section3_pair()
    broken = [
        (s, "a1^c^d" if d == "a1^c^d - a2^b^d" else d)
        for s, d in SECTION3_RING_MAP_COMPLETED
    ]
    result = verify_cohomology_ring_iso(
        Cohomology(first), Cohomology(second), ring_pairs(first, second, broken)
    )
    assert not result.ok
    assert result.stage == "image-not-closed"


def test_ring_iso_collapsing_map_fails():
    first, second = section3_pair()
    collapsed = [("a2", "a1") if s == "a2" else (s, d) for s, d in SECTION3_RING_MAP_COMPLETED]
    result = verify_cohomology_ring_iso(
        Cohomology(first), Cohomology(second), ring_pairs(first, second, collapsed)
    )
    assert not result.ok
    assert result.stage == "not-surjective" and result.degree == 1


def test_ring_iso_rejects_non_closed_image():
    first, second = section3_pair()
    pairs = [(form_of(first, "a1"), form_of(second, "b"))]
    result = verify_cohomology_ring_iso(Cohomology(first), Cohomology(second), pairs)
    assert not result.ok and result.stage == "image-not-closed"


def test_ring_iso_rejects_a_degree_zero_class():
    first, second = section3_pair()
    pairs = ring_pairs(first, second, [("a1", "a1"), ("1", "1")])
    with pytest.raises(ValueError, match="generator 1 has degree 0"):
        verify_cohomology_ring_iso(Cohomology(first), Cohomology(second), pairs)
