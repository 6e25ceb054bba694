"""The sparse eliminator and its views, checked against the oracle's elimination."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilrigid import linalg
from oracle import DENOMINATORS, _forward_rank, _nullspace, oracle_extend

ZERO = Fraction(0)


def random_matrix(rng, nrows, ncols, density):
    """Rows with small rational entries; some rows repeat combinations of others."""
    values = [Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2)]
    rows = [
        [rng.choice(values) if rng.random() < density else ZERO for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for i in range(1, nrows):
        if rng.random() < 0.3:
            a, b = rng.choice(values), rng.choice(values)
            k = rng.randrange(i)
            rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[k])]
    return rows


def matrices():
    rng = random.Random(5)
    out = []
    for density in (0.15, 0.4, 1.0):
        for _ in range(12):
            out.append(random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9), density))
    return out


def columns_of(rows, ncols):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def apply(rows, x):
    return [sum((a * b for a, b in zip(row, x)), ZERO) for row in rows]


@pytest.mark.parametrize("rows", matrices())
def test_rref_is_canonical(rows):
    ncols = len(rows[0])
    red, pivots = linalg.rref(rows, ncols)
    r = _forward_rank(rows, ncols)
    assert len(red) == len(pivots) == r == linalg.rank(rows, ncols)
    assert pivots == sorted(set(pivots))
    for i, (row, pc) in enumerate(zip(red, pivots)):
        assert not any(row[:pc]) and row[pc] == 1
        assert all(other[pc] == 0 for k, other in enumerate(red) if k != i)
    # same span: the input adds nothing to the reduced rows
    assert _forward_rank(rows + red, ncols) == r
    # one row at a time: the span grows exactly when the oracle's rank does
    basis = {}
    for i, row in enumerate(rows):
        grew = oracle_extend(basis, linalg.sparse(row))
        assert grew == (_forward_rank(rows[: i + 1], ncols) > _forward_rank(rows[:i], ncols))
    assert [linalg.dense(basis[c], ncols) for c in sorted(basis)] == red


@pytest.mark.parametrize("rows", matrices())
def test_row_order_changes_no_answer(rows):
    # integer_echelon eliminates shortest rows first, stably, so the order of
    # rows of one length is the input's; no consumer may read it
    nrows, ncols = len(rows), len(rows[0])
    order = list(range(nrows))
    random.Random(nrows * ncols).shuffle(order)
    shuffled = [rows[i] for i in order]
    sparse_rows = [linalg.sparse(row) for row in rows]
    basis = linalg.integer_echelon(sparse_rows)
    assert list(basis) == sorted(basis)
    assert list(linalg.integer_echelon(linalg.sparse(row) for row in shuffled)) == list(basis)
    assert linalg.echelon(linalg.sparse(row) for row in shuffled[::-1]) == linalg.echelon(sparse_rows)
    assert linalg.rref(shuffled[::-1], ncols) == linalg.rref(rows, ncols)
    # nullspace and ColumnSolver eliminate the columns, whose entries move
    # to other rows when the rows of the matrix are shuffled
    assert (linalg.nullspace(columns_of(shuffled, ncols), nrows)
            == linalg.nullspace(columns_of(rows, ncols), nrows))
    solver = linalg.ColumnSolver(columns_of(rows, ncols), nrows)
    moved = linalg.ColumnSolver(columns_of(shuffled, ncols), nrows)
    assert moved.rank == solver.rank == _forward_rank(rows, ncols)
    rng = random.Random(nrows + ncols)
    probes = [apply(rows, [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]) for _ in range(3)]
    probes += [[Fraction(int(i == k)) for i in range(nrows)] for k in range(nrows)]
    for b in probes:
        assert (moved.solve({k: b[i] for k, i in enumerate(order) if b[i]})
                == solver.solve({i: x for i, x in enumerate(b) if x}))


@pytest.mark.parametrize("rows", matrices())
def test_in_rowspan_matches_rank(rows):
    ncols = len(rows[0])
    red, pivots = linalg.rref(rows, ncols)
    r = _forward_rank(rows, ncols)
    probes = random_matrix(random.Random(ncols), 6, ncols, 0.5) + [rows[-1]]
    for v in probes:
        assert linalg.in_rowspan(red, pivots, v) == (_forward_rank(rows + [v], ncols) == r)


@pytest.mark.parametrize("rows", matrices())
def test_nullspace_is_the_reduced_kernel(rows):
    nrows, ncols = len(rows), len(rows[0])
    kernel = linalg.nullspace(columns_of(rows, ncols), nrows)
    assert len(kernel) == ncols - _forward_rank(rows, ncols)
    dense = [[v.get(j, ZERO) for j in range(ncols)] for v in kernel]
    for x in dense:
        assert not any(apply(rows, x))
    # the reduced echelon form of the oracle's kernel basis
    assert linalg.rref(_nullspace(rows, ncols), ncols)[0] == dense


@pytest.mark.parametrize("rows", matrices())
def test_image_and_kernel_is_one_elimination_of_both(rows):
    # an echelon basis of the column span, and the kernel as primitive int
    # rows with a positive pivot entry, 0 at the other pivots, whose rows over
    # their pivot entries are nullspace's (the oracle's, above)
    nrows, ncols = len(rows), len(rows[0])
    columns = columns_of(rows, ncols)
    image, kernel = linalg.image_and_kernel(columns, nrows)
    assert linalg.echelon(image.values()) == linalg.echelon(columns)
    for basis in (image, kernel):
        assert list(basis) == sorted(basis) and all(min(row) == c for c, row in basis.items())
        assert all(type(x) is int and x for row in basis.values() for x in row.values())
        assert all(math.gcd(*row.values()) == 1 for row in basis.values())
    assert all(row[c] > 0 and not kernel.keys() & row.keys() - {c} for c, row in kernel.items())
    assert [{j: Fraction(x, row[c]) for j, x in row.items()} for c, row in kernel.items()] == (
        linalg.nullspace(columns, nrows))


@pytest.mark.parametrize("rows", [m for m in matrices() if len(m) == len(m[0])])
def test_invert(rows):
    n = len(rows)
    inverse = linalg.invert(rows)
    if _forward_rank(rows, n) < n:
        assert inverse is None
        return
    product = [[sum((inverse[i][k] * rows[k][j] for k in range(n)), ZERO) for j in range(n)]
               for i in range(n)]
    assert product == linalg.identity(n)


@pytest.mark.parametrize("rows", matrices())
def test_column_solver(rows):
    nrows, ncols = len(rows), len(rows[0])
    solver = linalg.ColumnSolver(columns_of(rows, ncols), nrows)
    cols = [[row[j] for row in rows] for j in range(ncols)]
    # free columns: those in the span of the columns before them
    free = [j for j in range(ncols)
            if _forward_rank(cols[: j + 1], nrows) == _forward_rank(cols[:j], nrows)]
    rng = random.Random(nrows * 10 + ncols)
    for _ in range(4):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
        b = apply(rows, x)
        y = solver.solve({i: v for i, v in enumerate(b) if v})
        assert y is not None and apply(rows, y) == b
        assert all(y[j] == 0 for j in free)
    r = _forward_rank(cols, nrows)
    for i in range(nrows):
        e = [ZERO] * nrows
        e[i] = Fraction(1)
        outside = _forward_rank(cols + [e], nrows) > r
        assert (solver.solve({i: Fraction(1)}) is None) == outside


def test_column_solver_sets_free_coordinates_to_zero():
    one = Fraction(1)
    solver = linalg.ColumnSolver([{0: one}, {0: one}, {1: one}], 2)
    assert solver.solve({0: Fraction(2), 1: Fraction(3)}) == [2, 0, 3]


def test_column_solver_rejects_a_column_row_index_outside_the_matrix():
    with pytest.raises(ValueError, match="row index 2 outside a matrix of 2 rows"):
        linalg.ColumnSolver([{0: 1}, {2: 1}], 2)


def test_column_solver_rejects_a_right_hand_side_outside_the_matrix():
    # an entry at row 2 would land on the identity block and "solve" to [0, -5]
    solver = linalg.ColumnSolver([{0: 1}, {1: 1}], 2)
    with pytest.raises(ValueError, match="row index 2 outside"):
        solver.solve({2: 5})
    with pytest.raises(ValueError, match="row index -1 outside"):
        solver.solve({-1: 1})


def test_nullspace_rejects_a_row_index_outside_the_matrix():
    # {2: 1} would collide with the identity block and give the kernel [{0: 1}]
    with pytest.raises(ValueError, match="row index 2 outside a matrix of 2 rows"):
        linalg.nullspace([{2: 1}], 2)


# int entries, and Fractions over large pairwise coprime denominators
entries = st.one_of(
    st.integers(-(10**6), 10**6).filter(bool),
    st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), st.sampled_from(DENOMINATORS)),
)


@st.composite
def sparse_matrices(draw):
    """(ncols, rows): sparse rows, some empty, some combinations of others."""
    ncols = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        a, b = draw(entries), draw(entries)
        combo = {j: x for j in sorted(u.keys() | v.keys())
                 if (x := a * u.get(j, 0) + b * v.get(j, 0))}
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return ncols, rows


def extend_loop(rows):
    basis = {}
    for row in rows:
        oracle_extend(basis, row)
    return basis


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sparse_matrices())
def test_integer_echelon_is_the_reduced_basis_of_extend(matrix):
    ncols, rows = matrix
    reference = extend_loop(rows)
    basis = linalg.echelon(rows)
    assert basis == reference and list(basis) == sorted(reference)
    assert all(type(x) is Fraction for row in basis.values() for x in row.values())
    assert linalg.integer_echelon(rows).keys() == reference.keys()

    # the kernel of the matrix: the reduced form of the oracle's kernel basis
    dense_rows = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    kernel = extend_loop(linalg.sparse(v) for v in _nullspace(dense_rows, ncols))
    assert linalg.nullspace(columns_of(dense_rows, ncols), len(rows)) == [
        kernel[c] for c in sorted(kernel)
    ]

    # the transpose as a column matrix: solved iff the oracle's rank stays,
    # with the coordinates of columns in the span of earlier ones set to 0
    solver = linalg.ColumnSolver(rows, ncols)
    dense_cols = [[row.get(i, 0) for i in range(ncols)] for row in rows]
    rank = _forward_rank(dense_cols, ncols)
    assert solver.rank == rank
    free = [j for j in range(len(rows))
            if _forward_rank(dense_cols[: j + 1], ncols) == _forward_rank(dense_cols[:j], ncols)]
    red, pivots = linalg.rref(dense_rows, ncols)
    probes = [dict(row) for row in rows] + [{i: Fraction(1)} for i in range(ncols)]
    probes.append({i: sum(Fraction(k + 1) * row.get(i, 0) for k, row in enumerate(rows))
                   for i in range(ncols)})
    for b in probes:
        b = {i: x for i, x in b.items() if x}
        x = solver.solve(b)
        dense_b = [b.get(i, 0) for i in range(ncols)]
        inside = _forward_rank(dense_cols + [dense_b], ncols) == rank
        assert (x is not None) == inside == linalg.in_rowspan(red, pivots, dense_b)
        if x is not None:
            image = [sum(c * row.get(i, 0) for c, row in zip(x, rows)) for i in range(ncols)]
            assert image == dense_b
            assert all(x[j] == 0 for j in free)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sparse_matrices())
def test_integer_extend_grows_the_span_that_extend_grows(matrix):
    ncols, rows = matrix
    copies = [dict(row) for row in rows]
    integer, reduced = {}, {}
    for row in rows:
        assert linalg.integer_extend(integer, row) == oracle_extend(reduced, row)
        assert integer.keys() == reduced.keys()
    assert rows == copies
    assert integer.keys() == linalg.integer_echelon(rows).keys()
    assert all(type(x) is int and x for row in integer.values() for x in row.values())
    assert all(math.gcd(*row.values()) == 1 and min(row) == c for c, row in integer.items())


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sparse_matrices())
def test_reduced_extend_grows_the_span_that_integer_extend_grows(matrix):
    ncols, rows = matrix
    copies = [dict(row) for row in rows]
    integer, reduced = {}, {}
    for row in rows:
        assert linalg.reduced_extend(reduced, row) == linalg.integer_extend(integer, row)
        # the unique reduced basis of the span, each row primitive and 0 at
        # every other pivot, up to the sign of the row
        expected = linalg._back_substitute({c: dict(r) for c, r in integer.items()})
        assert reduced.keys() == expected.keys()
        for c, r in reduced.items():
            sign = 1 if (r[c] > 0) == (expected[c][c] > 0) else -1
            assert r == {j: sign * x for j, x in expected[c].items()}
    assert rows == copies
    assert all(type(x) is int and x for row in reduced.values() for x in row.values())


def test_integer_extend_leaves_an_int_row_unchanged():
    # an int row is copied, not aliased, before it is made primitive and reduced
    row = {0: 2, 3: 4}
    basis = {}
    assert linalg.integer_extend(basis, row) and row == {0: 2, 3: 4}
    assert basis == {0: {0: 1, 3: 2}}
    reduced = {0: 3, 1: 5, 3: 6}
    assert linalg.integer_extend(basis, reduced) and reduced == {0: 3, 1: 5, 3: 6}
    assert basis[1] == {1: 1} and basis[0] == {0: 1, 3: 2}
    assert not linalg.integer_extend(basis, row) and row == {0: 2, 3: 4}


def test_a_row_mixing_int_and_integral_fraction_becomes_ints():
    r, den = linalg._integer({0: 2, 1: Fraction(3, 1)})
    assert r == {0: 2, 1: 3} and den == 1
    assert all(type(x) is int for x in r.values())
    assert all(type(x) is int for x in linalg._primitive({0: 2, 1: Fraction(3, 1)}).values())
