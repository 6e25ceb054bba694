"""Cohomology: Betti numbers, representatives, cup products, indecomposables."""

import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nilrigid import (
    ClassVector,
    Cohomology,
    DomainMismatchError,
    LieAlgebra,
    ModelError,
    NotClosedError,
    apply_differential,
    associated_graded_model,
    ce_model,
    change_basis,
    cochain_matrix,
    fingerprint,
    free_nilpotent_lie,
    lie_from_model,
    monomial_basis,
    section3_pair,
    theorem1_family,
    theorem2_family,
    theorem4_example,
    trivial_basis,
)
from nilrigid import cohomology, forms, linalg
from nilrigid.fileformat import emit_algebra, form_to_str, model_basis, parse_source
from helpers import SECTION3_RING_MAP_COMPLETED, dense_free_3_3, form_of, sign_conjugate
from oracle import (
    abelian,
    direct_sum,
    filiform4,
    heisenberg,
    oracle_betti,
    oracle_grading_rank,
    oracle_indecomposables,
    random_nilpotent,
    rational_conjugate,
    _forward_rank,
    _wedge,
)


def model_of(L, weights=None):
    return ce_model(L, trivial_basis(L, weights))


def test_abelian_betti_binomial():
    for n in (2, *range(4, 11)):
        A = model_of(abelian(n))
        assert Cohomology(A).betti_vector() == tuple(comb(n, p) for p in range(n + 1))
    # no generator is live, so no monomial derives to anything
    assert A.live == 0
    assert all(cohomology._derive(A, mask, forms._Monomials()) == {}
               for mask in range(2**A.dimension))


def test_zero_differential_lists_no_masks(monkeypatch):
    # d = 0: every column of every degree is empty, and no mask is listed or derived
    A = model_of(abelian(12))
    for name in ("_masks", "_mask_index", "_derive"):
        monkeypatch.setattr(cohomology, name, lambda *args, name=name: pytest.fail(name))
    assert [cochain_matrix(A, p) for p in range(14)] == [[{}] * comb(12, p) for p in range(14)]
    assert Cohomology(A).betti_vector() == tuple(comb(12, p) for p in range(13))


def test_dead_generators_match_the_oracle():
    # d v_i = 0 on the abelian summand: those bits are skipped, not derived
    for m in range(1, 5):
        L = direct_sum(heisenberg(), abelian(m))
        A = model_of(L)
        assert A.live == 0b100
        assert Cohomology(A).betti_vector() == oracle_betti(L)


def test_elimination_leaves_the_built_columns_unchanged(monkeypatch):
    # elimination copies each int column before it reduces it, so the columns
    # of d that ranks and classes eliminate stay those cochain_matrix builds
    A, built, build = theorem2_family(2), [], cohomology.cochain_matrix
    monkeypatch.setattr(cohomology, "cochain_matrix",
                        lambda A, p: built.append((p, d := build(A, p))) or d)
    H = Cohomology(A)
    H.betti_vector()
    for p in range(A.dimension + 1):
        H.basis(p)
    assert len(built) > A.dimension and all(d == build(A, p) for p, d in built)


def test_ranks_keep_no_columns(monkeypatch):
    # a rank asked for alone keeps only its int: after betti_vector, or betti(p)
    # for every p, no basis of B^p or Z^p is kept and no column of d, whole
    # (cochain_matrix) or in torus blocks (_derive), is referenced
    class Columns(list):  # lists and dicts that can be weakly referenced
        pass

    class Column(dict):
        pass

    made, build, derive = [], cohomology.cochain_matrix, cohomology._derive

    def tracked(kind, result):
        made.append(weakref.ref(result := kind(result)))
        return result

    monkeypatch.setattr(cohomology, "cochain_matrix", lambda A, p: tracked(Columns, build(A, p)))
    monkeypatch.setattr(cohomology, "_derive", lambda *args: tracked(Column, derive(*args)))
    for A in (theorem2_family(3), theorem1_family(3)):  # n = 13, with a self-dual degree, and 12
        n = A.dimension
        for ask in (Cohomology.betti_vector, lambda H: [H.betti(p) for p in range(-1, n + 2)]):
            made.clear()
            H = Cohomology(A)
            ask(H)
            gc.collect()
            assert H._echelons == H._kernels == {}, n
            assert made and all(ref() is None for ref in made), n
            assert all(isinstance(rank, int) for rank in H._ranks.values()), n


def test_cochain_matrices_are_pinned():
    # sha256 of each degree's columns, each as its sorted (row, value) pairs,
    # recorded from the builder that indexed rows through monomial tuples;
    # theorem1(4), n = 16, is beyond the dense oracle's reach
    pins = json.loads((Path(__file__).parent / "data" / "cochain_hashes.json").read_text())
    models = {"theorem1(3)": theorem1_family(3), "theorem2(3)": theorem2_family(3),
              "theorem4": theorem4_example(), "theorem1(4)": theorem1_family(4)}
    assert pins.keys() == models.keys()
    for name, A in models.items():
        digests = [hashlib.sha256(json.dumps([sorted(c.items()) for c in cochain_matrix(A, p)])
                                  .encode()).hexdigest() for p in range(A.dimension + 1)]
        assert digests == pins[name], name


def test_heisenberg_betti_and_cup():
    A = model_of(heisenberg(), (0, 0, 1))
    H = Cohomology(A)
    assert H.betti_vector() == (1, 2, 2, 1)
    x1 = H.class_coordinates(form_of(A, "x1"))
    x2 = H.class_coordinates(form_of(A, "x2"))
    assert H.cup(x1, x2).is_zero()  # x1 x2 = d z is exact
    reps = H.basis(2)
    assert len(reps) == 2
    for f in reps:
        assert apply_differential(A, f).is_zero()


def test_theorem1_k1_betti():
    assert Cohomology(theorem1_family(1)).betti_vector() == (1, 2, 2, 2, 1)


def test_betti_invariants_on_families():
    for A in [theorem1_family(1), theorem1_family(2), theorem2_family(2)]:
        b = Cohomology(A).betti_vector()
        n = A.dimension
        assert b[0] == 1 and b[n] == 1
        assert all(b[p] == b[n - p] for p in range(n + 1))
        assert sum((-1) ** p * bp for p, bp in enumerate(b)) == 0


def test_rank_duality_eliminating_both_halves():
    # d_(n-1-p) is the transpose of d_p up to a signed permutation on unimodular g, so
    # betti_vector eliminates only p <= (n-1)/2; here every d_p is eliminated, and the
    # oracle, which ranks every degree, checks the Betti vector read from half of them
    free = free_nilpotent_lie(2, 4)
    models = [theorem1_family(2), theorem1_family(3), theorem2_family(2), theorem2_family(3),
              theorem4_example(), model_of(free.algebra, free.weights), *section3_pair()]
    rng = random.Random(53)
    drawn = [random_nilpotent(rng) for _ in range(20)]
    for L, A in [(lie_from_model(A), A) for A in models] + [(L, model_of(L)) for L in drawn]:
        n = A.dimension
        ranks = [len(linalg.integer_echelon(cochain_matrix(A, p))) for p in range(n)]
        assert ranks == ranks[::-1], L.names
        assert Cohomology(A).betti_vector() == oracle_betti(L), L.names


def test_non_unimodular_input_eliminates_every_degree():
    # d_(n-1) != 0 exactly when some ad x has nonzero trace; then no rank is mirrored,
    # and the Betti vector is not palindromic
    r2 = LieAlgebra(("x", "y"), {(0, 1): {1: Fraction(1)}})
    sl2sum = LieAlgebra(("a", "b", "c"), {(0, 1): {1: Fraction(1), 2: Fraction(1)},
                                          (0, 2): {1: Fraction(1)}})
    for L, expected in ((r2, (1, 1, 0)), (sl2sum, (1, 1, 0, 0))):
        b = Cohomology(model_of(L)).betti_vector()
        assert b == oracle_betti(L) == expected
        assert b != b[::-1]


def middle_degree_models():
    """Odd-n models with a torus grading: Heisenberg (z, at W/2, is a block paired with
    itself), section3's pair, free(2,3), theorem2(2) and (3), their Carnot models and
    theorem2(2) with its basis vectors rescaled, which keeps the grading."""
    free = free_nilpotent_lie(2, 3)
    s3a, s3b = section3_pair()
    models = {"heisenberg": model_of(heisenberg(), (0, 0, 1)), "s3a": s3a, "s3b": s3b,
              "free(2,3)": model_of(free.algebra, free.weights),
              "theorem2(2)": theorem2_family(2), "theorem2(3)": theorem2_family(3)}
    models.update({f"carnot {name}": associated_graded_model(A) for name, A in models.items()})
    L = lie_from_model(theorem2_family(2))
    n, basis = L.dimension, trivial_basis(L)
    diagonal = tuple(tuple(Fraction(a + 2, 3) * (i == a) for i in range(n)) for a in range(n))
    scaled = change_basis(L, type(basis)(columns=diagonal, weights=basis.weights, names=L.names))
    return {**models, "rescaled theorem2(2)": model_of(scaled)}


def test_middle_rank_is_read_off_torus_blocks(monkeypatch):
    # in the self-dual degree q = (n-1)/2, the block of d_q at torus weight s has the
    # rank of the one at W - s: one of each pair is eliminated, for ranks alone, and
    # only that int is kept; the rank is that of all of d_q
    eliminated, eliminate = [], linalg.integer_echelon

    def counting_eliminate(rows):
        eliminated.append(rows := list(rows))
        return eliminate(rows)

    monkeypatch.setattr(linalg, "integer_echelon", counting_eliminate)
    paired = self_paired = 0
    for name, A in middle_degree_models().items():
        q, H = A.dimension // 2, Cohomology(A)
        eliminated.clear()
        assert H.betti_vector() == oracle_betti(lie_from_model(A)), name
        blocks = eliminated[-2:]  # the paired and the self-paired blocks of d_q come last
        assert H._ranks[q] == len(eliminate(cochain_matrix(A, q))), name
        assert H._echelons == {}, name
        paired, self_paired = paired + len(blocks[0]), self_paired + len(blocks[1])
        # a class query eliminates all of d_q, with its kernel, and the rank is
        # then read off its pivots
        assert len(H.basis(q)) == H.betti(q) and len(H._echelons[q + 1]) == H._ranks[q], name
    assert paired and self_paired
    # d_(n-1) != 0: r2 + R (n = 3) has a grading but no duality, so all of d_1 is eliminated
    L = direct_sum(LieAlgebra(("x", "y"), {(0, 1): {1: Fraction(1)}}), abelian(1))
    H = Cohomology(model_of(L))
    eliminated.clear()
    assert H.betti_vector() == oracle_betti(L) and not H._unimodular
    assert cohomology._grading(H.model) and [len(rows) for rows in eliminated] == [1, 3]


def test_middle_degree_derives_only_the_smaller_blocks(monkeypatch):
    derived, derive = [], cohomology._derive
    monkeypatch.setattr(cohomology, "_derive",
                        lambda A, mask, index: derived.append(mask) or derive(A, mask, index))

    def middle(H):
        derived.clear()
        H.betti_vector()
        n = H._eliminated.dimension
        return sum(mask.bit_count() == n // 2 for mask in derived), comb(n, n // 2)

    # theorem2(3), n = 13: 433 of the 1,716 columns of d_6
    assert middle(Cohomology(theorem2_family(3))) == (433, 1716)
    # conjugates whose grading is empty derive every column of d_q
    t2k2, t2k3 = (lie_from_model(theorem2_family(k)) for k in (2, 3))
    for H in (Cohomology(model_of(rational_conjugate(random.Random(34), t2k2))),
              Cohomology.of(sign_conjugate(t2k3, "conjugate:c_t2k3"))):
        assert cohomology._grading(H._eliminated) == [], H.model
        derived_q, all_q = middle(H)
        assert derived_q == all_q, H.model


def test_odd_abelian_middle_degree_lists_no_masks(monkeypatch):
    # d = 0: the self-dual rank is 0 with no mask listed, as cochain_matrix lists none
    calls = Counter()
    for name in ("_masks", "_mask_index", "_derive"):
        f = getattr(cohomology, name)
        monkeypatch.setattr(cohomology, name,
                            lambda *args, name=name, f=f: calls.update([name]) or f(*args))
    for n in (5, 7):
        H = Cohomology(model_of(abelian(n)))
        assert H.betti_vector() == tuple(comb(n, p) for p in range(n + 1))
        assert H._ranks[n // 2] == 0
    assert calls == Counter()


def test_theorem1_k4_betti_is_pinned():
    # n = 16, from the exact Fraction engine that inserted one row at a time
    A = theorem1_family(4)
    b = Cohomology(A).betti_vector()
    assert b == (1, 8, 40, 128, 306, 533, 710, 738, 700, 738, 710, 533, 306, 128, 40, 8, 1)
    assert all(b[p] == b[A.dimension - p] for p in range(A.dimension + 1))
    assert sum((-1) ** p * bp for p, bp in enumerate(b)) == 0


def test_agrees_with_oracle_on_random_algebras():
    rng = random.Random(17)
    for _ in range(10):
        L = random_nilpotent(rng)
        assert Cohomology(model_of(L)).betti_vector() == oracle_betti(L)


def test_betti_matches_representative_count_on_random_algebras():
    # ranks alone give betti; the representatives come from kernels
    rng = random.Random(31)
    for _ in range(10):
        H = Cohomology(model_of(random_nilpotent(rng)))
        for p in range(H.model.dimension + 1):
            assert H.betti(p) == len(H.basis(p)), p


def test_theorem1_k2_representatives_are_pinned():
    H = Cohomology(theorem1_family(2))
    assert [form_to_str(f) for f in H.basis(2)] == [
        "x1^x3", "x1^x4", "x1^n2 - x3^n1", "x2^x4", "x2^n1", "x2^n2",
        "x2^n3 - x4^n2", "x3^n2", "x3^n3", "x4^n3",
    ]
    assert [form_to_str(f) for f in H.basis(3)] == [
        "x1^x3^n2", "x1^x3^m - x3^n1^n2", "x1^x4^n2 - x3^x4^n1", "x1^x4^n3",
        "x2^x3^n1", "x2^x3^n2", "x2^x4^n1", "x2^x4^n2", "x2^x4^n3", "x2^n1^n2",
        "x3^x4^n2", "x3^x4^n3", "x3^n2^n3",
    ]
    count, reps = H.indecomposables(3)
    assert count == 3
    assert [v.coordinates.index(1) for v in reps] == [1, 9, 12]
    assert all(sum(v.coordinates) == 1 for v in reps)
    assert [form_to_str(H.form_of(v)) for v in reps] == [
        "x1^x3^m - x3^n1^n2", "x2^n1^n2", "x3^n2^n3",
    ]


def test_each_differential_is_built_once(monkeypatch):
    # ranks build each d_p at most once and keep ints; classes build each d_p
    # at most once more, and eliminate it with its kernel
    built, derived, differentiated = [], [], []
    build, derive = cohomology.cochain_matrix, cohomology._derive
    differentiate = forms.apply_differential

    def counting_build(A, p):
        built.append((p, d := build(A, p)))
        return d

    def counting_derive(A, mono, index):
        derived.append(mono)
        return derive(A, mono, index)

    def counting_differentiate(A, f):
        differentiated.append(f)
        return differentiate(A, f)

    eliminated, with_kernels, reduced, back = [], [], [], []
    eliminate, image_and_kernel = linalg.integer_echelon, linalg.image_and_kernel
    to_rref, back_substitute = linalg.to_rref, linalg._back_substitute

    def counting_eliminate(rows):
        eliminated.append(rows)
        return eliminate(rows)

    def counting_image_and_kernel(columns, nrows):
        with_kernels.append(columns)
        return image_and_kernel(columns, nrows)

    monkeypatch.setattr(cohomology, "cochain_matrix", counting_build)
    monkeypatch.setattr(cohomology, "_derive", counting_derive)
    monkeypatch.setattr(forms, "apply_differential", counting_differentiate)
    monkeypatch.setattr(linalg, "integer_echelon", counting_eliminate)
    monkeypatch.setattr(linalg, "image_and_kernel", counting_image_and_kernel)
    monkeypatch.setattr(linalg, "to_rref", lambda basis: reduced.append(basis) or to_rref(basis))
    monkeypatch.setattr(linalg, "_back_substitute",
                        lambda basis: back.append(basis) or back_substitute(basis))
    A = theorem1_family(2)
    n = A.dimension
    H = Cohomology(A)
    H.betti_vector()
    # n = 8: the vector eliminates d_0..d_3 for their ranks and keeps those ints;
    # d_7 = 0 is built as the unimodularity test, its rank whether it is 0, and
    # not eliminated; d_(-1) and d_8 map to 0 and are not built
    assert sorted(p for p, _ in built) == [0, 1, 2, 3, 7]
    assert list(map(id, eliminated)) == [id(d) for p, d in built if p < 7]
    assert sorted(H._ranks) == [-1, 0, 1, 2, 3, 7, 8] and H._echelons == H._kernels == {}
    assert len(derived) == len(set(derived)) == sum(comb(n, q) for q in (0, 1, 2, 3, 7))
    # the weight split eliminates the model's own B^k for its pivots, each at
    # most once a call (B^4 serves both q = 3 and q = 4), and keeps nothing
    for p in range(n + 1):
        built.clear()
        assert sum(H.betti_by_weight(p).values()) == H.betti(p)
        assert len(built) == len({q for q, _ in built}) <= 2, p
    assert H._echelons == H._kernels == {} and with_kernels == reduced == back == []
    built.clear()
    derived.clear()
    eliminated.clear()
    for p in range(n + 1):
        H.basis(p)
        H.indecomposables(p)
    # the ranks kept no kernel, so the classes build and eliminate d_0..d_3 once
    # more, each with its kernel; each Z^q above the middle degree is the
    # annihilator of B^(n-q), so no upper d_q is built or eliminated, and no
    # basis is divided into Fractions
    assert sorted(p for p, _ in built) == [0, 1, 2, 3]
    assert len(with_kernels) == 4 and all(any(rows is d for rows in with_kernels) for _, d in built)
    assert not any(rows is d for rows in eliminated for _, d in built)
    assert reduced == [] and H._kernels == {}
    # one integer basis of each B^p, p = 0..n, is kept; the lower B^p that
    # the upper Z^q annihilate are reduced in place, and no other
    assert sorted(H._echelons) == list(range(n + 1))
    assert sorted(p for p, e in H._echelons.items() if any(b is e for b in back)) == [0, 1, 2, 3, 4]
    # every monomial of the degrees built is differentiated once more, by the
    # integer kernel and never through a Form
    assert len(derived) == len(set(derived)) == sum(comb(n, q) for q in (0, 1, 2, 3))
    assert differentiated == []


def test_betti_vector_eliminates_half_the_complex(monkeypatch):
    built = []
    build = cohomology.cochain_matrix
    monkeypatch.setattr(cohomology, "cochain_matrix", lambda A, p: built.append(p) or build(A, p))
    A = theorem1_family(2)
    n = A.dimension

    def fresh(query, *args):
        built.clear()
        H = Cohomology(A)
        getattr(H, query)(*args)
        return sorted(built), H

    # n = 8: d_7 = 0 is the unimodularity test, and the ranks of d_0..d_3 are
    # kept as ints, with no basis of any B^p
    degrees, H = fresh("betti_vector")
    assert degrees == [0, 1, 2, 3, 7] and sorted(H._ranks) == [-1, 0, 1, 2, 3, 7, 8]
    assert H._echelons == {}
    # a single degree mirrors too: betti(p) reads rank d_q, q = p - 1, p, as rank
    # d_(n-1-q) when 2q > n - 1, and takes dim Lambda^p from comb, so it builds
    # no d_p above the middle degree but d_7; so does the weight split, which
    # counts pivots of the model's own B^(q+1), or B^(n-q) if mirrored, and keeps
    # none (B^0 = 0, at p = 0 and 8, has an empty list of columns); and so do
    # indecomposables(p), whose classes read Z^q and B^(q+1) above the middle
    # degree off the lower half
    betti = {0: [0], 1: [0, 1], 2: [1, 2], 3: [2, 3], 4: [3, 7], 5: [2, 3, 7], 6: [1, 2, 7],
             7: [0, 1, 7], 8: [0, 7]}
    products = {0: [], 1: [0, 1, 7], 2: [0, 1, 2, 7], 7: [0, 1, 2, 7], 8: [0, 1, 7]}
    for p in range(n + 1):
        degrees, H = fresh("betti", p)
        assert degrees == betti[p] and set(H._ranks) == {-1, n, *degrees}, p
        assert H._echelons == {}, p
        degrees, H = fresh("betti_by_weight", p)
        assert [q for q in degrees if q >= 0] == betti[p] and H._echelons == {}, p
        degrees, H = fresh("indecomposables", p)
        assert degrees == products.get(p, [0, 1, 2, 3, 7]), p
    # after a single degree, the vector eliminates only the lower half it lacks
    H = Cohomology(A)
    H.betti(6)
    built.clear()
    assert H.betti_vector() == (1, 4, 10, 13, 12, 13, 10, 4, 1)
    assert sorted(built) == [0, 3] and H._echelons == {}


def test_single_term_inputs_compute_no_series(monkeypatch, tmp_path, capsys):
    # every bracket of two basis vectors of the graded families is a multiple of one
    # basis vector, so the engine eliminates their own d and never computes a generated
    # basis; `conj` is read in an adapted basis, one series, whose brackets are one term too
    from nilrigid import lie
    from nilrigid.cli import main

    def run(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    texts = []
    for argv in (("theorem1", "--k", "2"), ("theorem1", "--k", "3"), ("theorem2", "--k", "2"),
                 ("theorem2", "--k", "3"), ("theorem4",), ("free", "--gens", "2", "--class", "4"),
                 ("section3",)):
        report = json.loads(run("--format", "json", "family", *argv)[1])
        texts += [report[key] for key in ("algebra_file", "first", "second") if key in report]
    reports = json.loads((Path(__file__).parent / "data" / "text_reports.json").read_text())
    texts.append(reports["inputs"]["conj"])
    calls, series = [], lie._series
    monkeypatch.setattr(lie, "_series", lambda L: calls.append(L) or series(L))
    for command in (("betti",), ("generators", "--degree", "3"), ("cohomology", "--degree", "2")):
        counts = []
        for i, text in enumerate(texts):
            path = tmp_path / f"{i}.alg"
            path.write_text(text)
            before = len(calls)
            assert run(command[0], str(path), *command[1:])[0] == 0
            counts.append(len(calls) - before)
        assert counts == [0] * 8 + [1], command


def algebra_files(tmp_path) -> dict:
    """theorem2(2) and free(3,3) in their own bases, with weights, and three dense
    files: ``conj``, a rational conjugate of theorem2(2) without weights and
    ``dense_free_3_3``; their paths by name."""
    reports = json.loads((Path(__file__).parent / "data" / "text_reports.json").read_text())
    t2k2, free = theorem2_family(2), free_nilpotent_lie(3, 3)
    texts = {"t2k2": emit_algebra(lie_from_model(t2k2), t2k2.weights),
             "free3c3": emit_algebra(free.algebra, free.weights),
             "conj": reports["inputs"]["conj"],
             "c_t2k2": emit_algebra(rational_conjugate(random.Random(5), lie_from_model(t2k2)))}
    paths = {name: tmp_path / f"{name}.alg" for name in texts}
    for name, text in texts.items():
        paths[name].write_text(text)
    paths["c_free3c3"] = dense_free_3_3(tmp_path)
    return paths


# (command, input) -> at most this many LieAlgebras built and central series computed
ALGEBRA_BOUNDS = {
    ("betti", "t2k2"): (1, 0), ("fingerprint", "t2k2"): (1, 1), ("fingerprint", "free3c3"): (1, 1),
    ("betti", "conj"): (2, 1), ("fingerprint", "conj"): (2, 1),
    ("betti", "c_free3c3"): (3, 1), ("generators", "c_free3c3"): (3, 1),
    ("cohomology", "c_free3c3"): (3, 1), ("fingerprint", "c_free3c3"): (3, 2),
    ("compare", "c_free3c3"): (6, 4), ("betti", "c_t2k2"): (4, 2),
    ("generators", "c_t2k2"): (4, 2), ("fingerprint", "c_t2k2"): (3, 2),
}
ARGS = {"betti": (), "generators": ("--degree", "1"), "cohomology": ("--degree", "1"),
        "fingerprint": ("--max-degree", "1"), "compare": ("{path}", "--max-degree", "1")}


def test_cohomology_commands_hand_the_file_algebra_to_the_engine(monkeypatch, tmp_path, capsys):
    # no command reads an algebra off a model (lie._lie_of); a dense file with declared
    # weights is changed once, to its generated basis, and fingerprint eliminates a
    # file, dense or not, in its generated basis as it stands, after one central series
    from nilrigid import lie
    from nilrigid.cli import main

    paths = algebra_files(tmp_path)
    counts = Counter()
    init, series = lie.LieAlgebra.__init__, lie._series
    monkeypatch.setattr(lie.LieAlgebra, "__init__", lambda L, *a: counts.update("a") or init(L, *a))
    monkeypatch.setattr(lie, "_series", lambda L: counts.update("s") or series(L))
    for module in (lie, cohomology):
        monkeypatch.setattr(module, "_lie_of", lambda A: pytest.fail("algebra read off a model"))
    got = {}
    for command, name in ALGEBRA_BOUNDS:
        path = str(paths[name])
        counts.clear()
        assert main([command, path, *(a.format(path=path) for a in ARGS[command])]) == 0, name
        got[command, name] = counts["a"], counts["s"]
    capsys.readouterr()
    assert all(a <= bound[0] and s <= bound[1]
               for (a, s), bound in zip(got.values(), ALGEBRA_BOUNDS.values())), got
    assert got["betti", "c_free3c3"] == (2, 1)
    assert got["fingerprint", "c_free3c3"][1] == got["fingerprint", "c_t2k2"][1] == 1


DEGREE_ONE = {  # b_1 and the representatives that `cohomology` and `generators --degree 1` print
    "conj": (2, "[v3]", "[v0]"),
    "c_t2k2": (5, "[x1]", "[x2]", "[x3]", "[x4]", "[x5]"),
    "c_free3c3": (3, "[a - bc - aab - aac + acb + acc]", "[b - abb - abc - acc]",
                  "[c + bc + 2 aac - abb - abc - acb - 2 acc]"),
}


def test_betti_builds_only_the_model_it_eliminates(monkeypatch, tmp_path, capsys):
    # a dense file is eliminated in its generated basis: its model in its own basis
    # and the inverse images that push classes into it are built on first read, so
    # betti builds one model and solves for no inverse image; classes push into it
    from nilrigid.cli import main

    paths = algebra_files(tmp_path)
    counts = Counter()
    init, ce, inverse = forms.SullivanModel.__init__, cohomology.ce_model, cohomology._inverse_images
    monkeypatch.setattr(forms.SullivanModel, "__init__",
                        lambda A, *a: counts.update("m") or init(A, *a))
    monkeypatch.setattr(cohomology, "ce_model", lambda *a: counts.update("c") or ce(*a))
    monkeypatch.setattr(cohomology, "_inverse_images",
                        lambda basis: counts.update("i") or inverse(basis))
    for name, (b1, *reps) in DEGREE_ONE.items():
        counts.clear()
        assert main(["betti", str(paths[name])]) == 0
        assert counts == Counter("mc"), name
        capsys.readouterr()
        for command, head in (("cohomology", f"b_1 = {b1}"),
                              ("generators", f"degree 1: betti {b1}, indecomposable {b1}")):
            counts.clear()
            assert main([command, str(paths[name]), "--degree", "1"]) == 0
            assert capsys.readouterr().out == "".join(f"{line}\n" for line in
                                                      [head] + [f"  {r}" for r in reps])
            assert counts["i"] == (name != "conj"), (command, name)  # conj's are one term


PINS = json.loads((Path(__file__).parent / "data" / "cohomology_pins.json").read_text())
PINNED_MODELS = {"theorem4": theorem4_example, "theorem2(2)": lambda: theorem2_family(2)}


@pytest.mark.parametrize("case", sorted(PINS))
def test_indecomposables_and_decomposables_are_pinned(case):
    # coordinates and forms of indecomposables(p) and rows of
    # decomposable_subspace(p), as computed when each product was solved
    # for its class coordinates on its own
    name, p = case.split(" p=")
    H = Cohomology(PINNED_MODELS[name]())
    count, reps = H.indecomposables(int(p))

    def sparse(row):
        return {str(j): str(c) for j, c in enumerate(row) if c}

    assert count == len(reps)
    assert {
        "coordinates": [sparse(v.coordinates) for v in reps],
        "forms": [form_to_str(H.form_of(v)) for v in reps],
        "decomposables": [sparse(row) for row in H.decomposable_subspace(int(p))],
    } == PINS[case]


def test_indecomposables_check_that_products_are_closed(monkeypatch):
    # a product plus one monomial that is not closed grows the span past Z^p, so
    # the final count refuses it: the first such monomial of each degree, or,
    # in degree 3 and in degree 7, where every class is decomposable, one of the
    # product's own torus weight and one of another weight
    A = theorem2_family(2)
    weight = Cohomology(A)._weight
    first, loose = {}, {}  # per degree, and per degree and weight, a monomial with d != 0
    for p in range(1, A.dimension + 1):
        for mono in monomial_basis(A, p):
            if not apply_differential(A, A.form({mono: 1})).is_zero():
                mask = sum(1 << x for x in mono)
                first.setdefault(p, mask)
                loose.setdefault((p, weight(mask)), mask)
    multiply = cohomology._multiply
    for degree, case in ((3, "first"), (3, "own"), (3, "other"), (7, "own"), (7, "other")):
        added = []

        def loose_product(a, b, index):
            out = multiply(a, b, index)
            p, w = a[0][0].bit_count() + b[0][0].bit_count(), weight(a[0][0]) + weight(b[0][0])
            pick = first[p] if case == "first" else None if p != degree else next(
                (m for (q, u), m in loose.items() if q == p and (u == w) == (case == "own")), None)
            if pick is not None:
                added.append(pick)
                out[index[pick]] = out.get(index[pick], 0) + 1
            return {i: c for i, c in out.items() if c}

        monkeypatch.setattr(cohomology, "_multiply", loose_product)
        with pytest.raises(NotClosedError):
            Cohomology(A).indecomposables(degree)
        assert added, (degree, case)


def test_fingerprint_stops_forming_products_at_a_full_span(monkeypatch):
    # once B^p and the products span Z^p, no further product is formed, in
    # degree 2i only one of g . h and h . g is (5279 products when both were),
    # g . h only when h's least factor is not below g (4888 when every class
    # of a lower degree was a second factor), and only when the span lacks
    # classes of g . h's torus weight (2818 for theorem4 and 2720 for its
    # Carnot model when every weight was offered)
    calls = []
    multiply = cohomology._multiply
    monkeypatch.setattr(cohomology, "_multiply", lambda *args: calls.append(1) or multiply(*args))
    fingerprint(lie_from_model(theorem4_example()))
    assert 0 < len(calls) <= 1478
    calls.clear()
    fingerprint(lie_from_model(associated_graded_model(theorem4_example())))
    assert 0 < len(calls) <= 635


def grading_models() -> dict:
    """The families, their Carnot models and seeded ``random_nilpotent`` draws, by name."""
    free = free_nilpotent_lie(2, 4)
    families = {"theorem1(1)": theorem1_family(1), "theorem1(2)": theorem1_family(2),
                "theorem1(3)": theorem1_family(3), "theorem2(2)": theorem2_family(2),
                "theorem2(3)": theorem2_family(3), "theorem4": theorem4_example(),
                "section3 first": section3_pair()[0], "section3 second": section3_pair()[1],
                "free(2,4)": model_of(free.algebra, free.weights)}
    rng = random.Random(17)
    carnot = {f"carnot {name}": associated_graded_model(A) for name, A in families.items()}
    drawn = {f"random {j}": model_of(random_nilpotent(rng)) for j in range(12)}
    return {**families, **carnot, **drawn}


def test_grading_is_the_maximal_torus_of_the_model():
    # every term v_a v_b of d v_i has w_a + w_b = w_i, the weight vectors are
    # independent, and there are n less the rank of those constraints of them,
    # as the dense oracle counts on the structure constants
    for name, A in grading_models().items():
        grading, n = cohomology._grading(A), A.dimension
        assert len(grading) == oracle_grading_rank(lie_from_model(A)), name
        assert _forward_rank([[Fraction(x) for x in w] for w in grading], n) == len(grading), name
        for w in grading:
            for i, terms in enumerate(A.table):
                for ab, _, _ in terms:
                    assert w[i] == sum(w[x] for x in range(n) if ab >> x & 1), (name, i)
    assert len(cohomology._grading(model_of(abelian(4)))) == 4
    # theorem4's one weight is proportional to (1,1,1,2, 2,2,2,3,3,3) on x1..x4, n1..n5, m
    A = theorem4_example()
    (w,) = cohomology._grading(A)
    assert [g.name for g in A.generators] == ["x1", "x2", "x3", "x4", "n1", "n2", "n3", "n4",
                                              "n5", "m"]
    assert w[0] and [x * w[0] for x in (1, 1, 1, 2, 2, 2, 2, 3, 3, 3)] == w


def test_packed_weights_tell_multidegrees_apart():
    # by brute force over the monomials of every model with n <= 8: two
    # monomials share a packed key exactly when they share a multidegree
    models = {name: A for name, A in grading_models().items() if A.dimension <= 8}
    assert any(len(cohomology._grading(A)) > 1 for A in models.values())
    for name, A in models.items():
        grading, keys, n = cohomology._grading(A), Cohomology(A)._keys, A.dimension
        degrees = {}
        for mask in range(1 << n):
            bits = [x for x in range(n) if mask >> x & 1]
            degree = tuple(sum(w[x] for x in bits) for w in grading)
            assert degrees.setdefault(sum(keys[x] for x in bits), degree) == degree, name
        assert len(degrees) == len(set(degrees.values())), name


def test_products_see_homogeneous_spans_and_representatives(monkeypatch):
    # reduced integer rows of a graded subspace are homogeneous, so each
    # representative has the weight of its pivot mask and each row of the span
    # that _products grows has one weight; with every lower degree split, each
    # span _products(p) extends is degree p's
    spans, extend = {}, linalg.reduced_extend

    def spied_extend(basis, row):
        spans[id(basis)] = basis
        return extend(basis, row)

    monkeypatch.setattr(linalg, "reduced_extend", spied_extend)
    for A in (theorem4_example(), associated_graded_model(theorem4_example()),
              theorem1_family(2), theorem2_family(2)):
        H, grown = Cohomology(A), 0
        for p in range(1, A.dimension + 1):
            spans.clear()
            H.indecomposables(p)
            masks, data = forms._masks(A.dimension, p), H._degree(p)
            rows = [*data.vectors.values(), *(r for span in spans.values() for r in span.values())]
            for row in rows:
                assert len({H._weight(masks[j]) for j in row}) == 1, p
            if data.terms is not None:  # as a factor: the weights of the pivot masks
                pivots = [H._weight(masks[c]) for c in data.vectors]
                assert [w for _, w in data.terms] == pivots, p
            grown += len(H._grown[p])
            for _, b, w in H._grown[p]:
                assert {H._weight(m) for m, _, _ in b} == {w}, p
        assert grown, A.generators


def test_each_representative_weight_is_packed_once(monkeypatch):
    # _products(p) and _terms(p) share the weights of degree p's representatives,
    # so no monomial's weight is packed twice
    calls, weight = [], Cohomology._weight
    monkeypatch.setattr(Cohomology, "_weight",
                        lambda H, mask: calls.append(mask) or weight(H, mask))
    for A in (theorem4_example(), associated_graded_model(theorem4_example()), theorem2_family(2)):
        calls.clear()
        fingerprint(lie_from_model(A))
        assert calls and len(calls) == len(set(calls)), A.generators


def counted_eliminations(monkeypatch):
    """Count the eliminations of each differential that ``cochain_matrix``
    builds, by (id of its list, "rank" or "kernel"); returns the built lists
    by id, with their degrees, and the counts."""
    built, counts = {}, Counter()
    build, eliminate, both = cohomology.cochain_matrix, linalg.integer_echelon, linalg.image_and_kernel

    def counting_build(A, p):
        d = build(A, p)
        built[id(d)] = d, p  # keeps d alive, so that its id is not reused
        return d

    def count(rows, kind):
        if id(rows) in built:
            counts[id(rows), kind] += 1

    monkeypatch.setattr(cohomology, "cochain_matrix", counting_build)
    monkeypatch.setattr(linalg, "integer_echelon", lambda rows: count(rows, "rank") or eliminate(rows))
    monkeypatch.setattr(linalg, "image_and_kernel",
                        lambda columns, nrows: count(columns, "kernel") or both(columns, nrows))
    monkeypatch.setattr(linalg, "nullspace", lambda *args: pytest.fail("d_p eliminated again"))
    return built, counts


def test_class_paths_eliminate_each_differential_once(monkeypatch, tmp_path, capsys):
    # fingerprint and generators take B^(p+1) and Z^p from one elimination of
    # d_p for p <= (n-1)/2 and read them off that half above it, and the Betti
    # vector reads the ranks of those eliminations; n = 10, so d_0..d_4 are
    # eliminated and d_9 = 0 is built as the unimodularity test alone
    from nilrigid.cli import main
    A = theorem4_example()
    lower = {0, 1, 2, 3, 4}
    path = tmp_path / "t4.alg"
    path.write_text(emit_algebra(lie_from_model(A), A.weights))
    built, counts = counted_eliminations(monkeypatch)
    fingerprint(lie_from_model(A))
    assert sorted(p for _, p in built.values()) == [*sorted(lower), 9]
    assert sorted(counts) == sorted((key, "kernel") for key, (_, p) in built.items() if p in lower)
    assert set(counts.values()) == {1}
    # below a degree bound the ranks above it are eliminated alone, with no kernel
    built.clear()
    counts.clear()
    fingerprint(lie_from_model(A), max_indec_degree=2)
    assert {built[key][1]: kind for key, kind in counts} == {
        0: "kernel", 1: "kernel", 2: "kernel", 3: "rank", 4: "rank"}
    assert set(counts.values()) == {1}
    for argv in (["generators", str(path), "--degree", "5"], ["cohomology", str(path), "--degree", "4"],
                 ["compare", str(path), str(path)]):
        built.clear()
        counts.clear()
        assert main(argv) == 0
        capsys.readouterr()
        assert counts and {kind for _, kind in counts} == {"kernel"}, argv
        assert set(counts.values()) == {1}, argv
        assert {p for _, p in built.values()} <= lower | {9}, argv
        assert {built[key][1] for key, _ in counts} <= lower, argv
    # the rank paths keep no kernel: betti and betti_vector eliminate no
    # kernel on a fresh Cohomology, each d_p at most once, and above the
    # middle degree none (d_0..d_4 for n = 10 and 9)
    for A in (theorem4_example(), theorem2_family(2)):
        built.clear()
        counts.clear()
        Cohomology(A).betti_vector()
        H = Cohomology(A)
        for p in range(A.dimension + 2):
            H.betti(p)
        assert main(["betti", str(path)]) == 0
        capsys.readouterr()
        assert counts and {kind for _, kind in counts} == {"rank"}
        assert set(counts.values()) == {1}
        assert {built[key][1] for key, _ in counts} <= lower


def test_ring_check_eliminates_each_differential_once(monkeypatch, tmp_path, capsys):
    # verify-ring-iso asks for the classes of a degree before its Betti
    # numbers, so the elimination that gives Z^p gives rank d_p too
    from nilrigid.cli import main
    first, second = tmp_path / "s3a.alg", tmp_path / "s3b.alg"
    for path, A in zip((first, second), section3_pair()):
        path.write_text(emit_algebra(lie_from_model(A), A.weights))
    ring = tmp_path / "map8"
    ring.write_text("generators a1 a2 b c d\n" + "".join(
        f"class {s} -> {d}\n" for s, d in SECTION3_RING_MAP_COMPLETED))
    built, counts = counted_eliminations(monkeypatch)
    assert main(["verify-ring-iso", str(first), str(second), str(ring)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    # two Cohomologys of n = 5, each eliminating d_0..d_2 once, with its kernel
    assert sorted(p for _, p in built.values()) == [0, 0, 1, 1, 2, 2, 4, 4]
    assert sorted(counts) == sorted((key, "kernel") for key, (_, p) in built.items() if p < 4)
    assert set(counts.values()) == {1}


# theorem4's oracle_indecomposables for p = 1..10, about 15 s to recompute
THEOREM4_INDECOMPOSABLES = (4, 15, 23, 18, 8, 2, 0, 0, 0, 0)


def test_indecomposables_cold_warm_and_oracle_agree():
    # which products are formed depends on the degrees already split, the
    # answer does not: indecomposables(p) on a fresh Cohomology, after every
    # lower degree, and by the oracle give one count, the same unit classes
    # and the same representative forms
    rng = random.Random(11)
    cases = [(theorem4_example(), lambda p: THEOREM4_INDECOMPOSABLES[p - 1])]
    for A in (theorem1_family(2), theorem2_family(2), *section3_pair()):
        cases.append((A, lambda p, L=lie_from_model(A): oracle_indecomposables(L, p)))
    for L in (random_nilpotent(rng) for _ in range(8)):
        cases.append((model_of(L), lambda p, L=L: oracle_indecomposables(L, p)))
    for A, oracle in cases:
        warm = Cohomology(A)
        for p in range(1, A.dimension + 1):
            cold = Cohomology(A)
            count, reps = cold.indecomposables(p)
            assert warm.indecomposables(p) == (count, reps), (A.generators, p)
            assert [warm.form_of(v) for v in reps] == [cold.form_of(v) for v in reps], p
            assert count == oracle(p), (A.generators, p)


def test_shortest_rows_first_keep_the_coboundary_entries_small():
    # a guard on the elimination order that reads no clock: on the dense
    # c_t2k3 file of engine_times.py the integer echelon bases of B^p,
    # p <= 6, hold entries of at most 13 bits eliminated shortest row first,
    # and of 18 bits in the order d_p's columns are built
    from engine_times import build
    H = Cohomology.of(*model_basis(parse_source(build("c_t2k3"))))
    assert max(abs(x).bit_length() for p in range(7)
               for row in H._boundaries(p).values() for x in row.values()) <= 14


def test_class_coordinates_round_trip():
    A = theorem1_family(2)
    H = Cohomology(A)
    for p in range(1, A.dimension + 1):
        for i in range(H.betti(p)):
            v = H.unit_class(p, i)
            assert H.class_coordinates(H.form_of(v), p) == v


@pytest.mark.parametrize("i", [10, 99, -1])
def test_unit_class_rejects_an_index_outside_the_betti_range(i):
    H = Cohomology(theorem1_family(2))
    assert H.betti(2) == 10
    with pytest.raises(IndexError):
        H.unit_class(2, i)


@pytest.mark.parametrize("length", [1, 9, 11, 40])
def test_form_of_and_cup_reject_a_vector_of_the_wrong_length(length):
    # a vector is not read as its first b_2 classes, nor padded with zeros
    H = Cohomology(theorem1_family(2))
    v = ClassVector(2, (Fraction(1),) * length)
    with pytest.raises(ValueError, match=f"degree 2 has 10 coordinates, not {length}"):
        H.form_of(v)
    with pytest.raises(ValueError, match=f"has 10 coordinates, not {length}"):
        H.cup(H.unit_class(1, 0), v)


def sl2_model():
    # sl2 = <e, f, h> in its given basis: no 1-form is closed, b = (1, 0, 0, 1)
    brackets = {(0, 1): {2: Fraction(1)}, (0, 2): {0: Fraction(-2)}, (1, 2): {1: Fraction(2)}}
    return model_of(LieAlgebra(("e", "f", "h"), brackets), (0, 0, 0))


def test_class_coordinates_rejects_non_closed():
    # the witness is d f, both where H^1 != 0 and where Z^1 = B^1 = 0
    for A, name, b1 in ((theorem1_family(1), "n1", 2), (sl2_model(), "h", 0)):
        H = Cohomology(A)
        assert H.betti(1) == b1
        f = form_of(A, name)
        with pytest.raises(NotClosedError) as err:
            H.class_coordinates(f)
        assert err.value.differential == apply_differential(A, f)
    assert Cohomology(sl2_model()).betti_vector() == (1, 0, 0, 1)


def test_class_coordinates_rejects_a_form_over_other_generators():
    H = Cohomology(theorem1_family(1))
    with pytest.raises(DomainMismatchError):
        H.class_coordinates(form_of(theorem1_family(2), "x1"), 1)


def test_class_coordinates_rejects_a_form_of_another_degree():
    H = Cohomology(theorem1_family(1))
    assert H.betti(3) > 0 and H.betti(5) == 0
    f = H.basis(2)[0]
    for p in (3, 5):
        with pytest.raises(ValueError, match=f"degree 2 .*degree {p}"):
            H.class_coordinates(f, p)


def test_exact_form_has_zero_class():
    A = theorem1_family(2)
    H = Cohomology(A)
    f = apply_differential(A, form_of(A, "n1^n2 + x1^m"))
    assert H.class_coordinates(f, 3).is_zero()


def test_cup_product_graded_commutative_in_cohomology():
    A = theorem2_family(2)
    H = Cohomology(A)
    u = H.unit_class(1, 0)
    v = H.unit_class(1, 3)
    # odd-degree classes anticommute, odd times even commutes
    assert H.cup(u, v).coordinates == tuple(-c for c in H.cup(v, u).coordinates)
    w = H.unit_class(2, 3)
    assert H.cup(u, w) == H.cup(w, u)


# int coefficients, and Fractions with other denominators
coefficients = st.one_of(
    st.integers(-(10**6), 10**6).filter(bool),
    st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 10**6)),
)


@st.composite
def factor_pairs(draw):
    """(n, a, b, p): two homogeneous forms on n generators as term dicts, of
    degrees summing to p; the empty monomial is degree 0."""
    n = draw(st.integers(1, 6))
    pa = draw(st.integers(0, n))
    pb = draw(st.integers(0, n - pa))
    a, b = (
        draw(st.dictionaries(st.sampled_from(list(combinations(range(n), q))), coefficients,
                             max_size=6))
        for q in (pa, pb)
    )
    return n, a, b, pa + pb


@settings(derandomize=True, max_examples=200, deadline=None)
@given(factor_pairs())
@example((3, {(): 2}, {(0, 2): Fraction(-1, 2), (1, 2): 3}, 2))  # the unit form
@example((3, {(0,): 1, (2,): 1}, {(0,): 1, (1,): Fraction(2, 3)}, 2))  # a repeated index
@example((3, {(1, 2): 5}, {(0,): -1}, 3))  # x1 x2 . x0 = x0 x1 x2: an even sign
@example((4, {(0, 2): 1}, {(1, 3): 1}, 4))  # x0 x2 . x1 x3 = -x0 x1 x2 x3
def test_product_kernel_is_wedge_on_monomial_indices(pair):
    # against the oracle's dense wedge, whose signs come from sorting the
    # merged indices, not from parity masks
    n, a, b, p = pair
    i = len(next(iter(a), ()))  # the degree of a; if a = 0, any degree will do
    u, v = ([f.get(m, 0) for m in combinations(range(n), q)] for f, q in ((a, i), (b, p - i)))
    index = forms._mask_index(n, p)
    product = forms._multiply(*(forms._kernel_terms(f.items()) for f in (a, b)), index)
    assert product == {r: c for r, c in enumerate(_wedge(u, i, v, p - i, n)) if c}


def test_indecomposables_abelian():
    A = model_of(abelian(4))
    H = Cohomology(A)
    assert H.indecomposables(1)[0] == 4
    for p in range(2, 5):
        count, reps = H.indecomposables(p)
        assert count == 0 and reps == ()


def test_indecomposables_heisenberg():
    H = Cohomology(model_of(heisenberg(), (0, 0, 1)))
    # H^2 holds no products (all degree-1 products die), but the top class
    # [x1 x2 z] = -[x1 z].[x2] is decomposable
    assert H.indecomposables(2)[0] == 2
    assert H.indecomposables(3)[0] == 0


def test_indecomposables_agree_with_oracle():
    # the README's filiform example, then dense conjugates of the base algebras
    rng = random.Random(23)
    algebras = [filiform4()] + [random_nilpotent(rng) for _ in range(20)]
    for L in algebras:
        H = Cohomology(model_of(L))
        for p in range(1, L.dimension + 1):
            assert H.indecomposables(p)[0] == oracle_indecomposables(L, p), (L.names, p)


@pytest.mark.parametrize("L", [abelian(3), abelian(4), abelian(5), abelian(6),
                               direct_sum(heisenberg(), abelian(2))],
                         ids=["abelian3", "abelian4", "abelian5", "abelian6", "h3+k2"])
def test_indecomposables_count_products_of_three_classes(L):
    # here the decomposables of degree 3 and up are mostly products of three
    # or more classes: only a second factor ranging over all of H^(p-i) for
    # i <= p/3 reaches them
    H = Cohomology(model_of(L))
    for p in range(1, L.dimension + 1):
        assert H.indecomposables(p)[0] == oracle_indecomposables(L, p), p


def test_indecomposable_representatives_complete_decomposables():
    # indecomposables come from integer cochain spans, decomposable_subspace
    # from solved cup products: together they span each H^p, independently
    rng = random.Random(5)
    models = [theorem2_family(2), theorem4_example()]
    models += [model_of(random_nilpotent(rng)) for _ in range(4)]
    for A in models:
        H = Cohomology(A)
        for p in range(1, A.dimension + 1):
            count, reps = H.indecomposables(p)
            dec = H.decomposable_subspace(p)
            rows = [list(r) for r in dec] + [list(v.coordinates) for v in reps]
            assert len(dec) + count == H.betti(p), (A.generators, p)
            assert linalg.rank(rows, H.betti(p)) == H.betti(p), (A.generators, p)


def test_indecomposables_and_fingerprint_solve_nothing(monkeypatch):
    # indecomposables need no class coordinates: no solver, no dense rref
    def refuse(*args, **kwargs):
        raise AssertionError("a solver was built or a dense rref run")

    monkeypatch.setattr(linalg, "ColumnSolver", refuse)
    monkeypatch.setattr(linalg, "rref", refuse)
    A = theorem4_example()
    H = Cohomology(A)
    counts = tuple(H.indecomposables(p)[0] for p in range(1, A.dimension + 1))
    assert fingerprint(lie_from_model(A)).indecomposables == counts


def test_betti_by_weight_heisenberg():
    A = model_of(heisenberg(), (0, 0, 1))
    H = Cohomology(A)
    assert H.betti_by_weight(1) == {0: 2}
    assert H.betti_by_weight(2) == {1: 2}
    assert H.betti_by_weight(3) == {1: 1}


def test_betti_by_weight_sums_to_betti():
    A = theorem1_family(2)
    H = Cohomology(A)
    for p in range(A.dimension + 1):
        assert sum(H.betti_by_weight(p).values()) == H.betti(p)


def test_betti_by_weight_requires_homogeneous():
    H = Cohomology(theorem2_family(2))
    with pytest.raises(ModelError):
        H.betti_by_weight(2)


def test_cochain_matrix_shape():
    # one sparse column per degree-1 monomial, rows over the degree-2 ones
    A = theorem1_family(1)
    columns = cochain_matrix(A, 1)
    assert len(columns) == 4
    dst = monomial_basis(A, 2)
    assert len(dst) == comb(4, 2)
    for mono, col in zip(monomial_basis(A, 1), columns):
        df = apply_differential(A, A.form({mono: 1}))
        assert A.form({dst[i]: c for i, c in col.items()}) == df


def test_cohomology_rejects_invalid_model():
    # Jacobi fails on (a, b, c): [[b,c],a] = -e with the other two terms zero
    L = LieAlgebra(
        ("a", "b", "c", "d", "e"),
        {
            (0, 1): {2: Fraction(1)},
            (0, 2): {3: Fraction(1)},
            (1, 2): {3: Fraction(1)},
            (0, 3): {4: Fraction(1)},
        },
    )
    bad = model_of(L)
    with pytest.raises(ModelError):
        Cohomology(bad)
