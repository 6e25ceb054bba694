"""Exact Gaussian elimination over the rationals, on Python ints.

A span is held as an echelon basis of sparse rows, ``{column: value}`` dicts
with nonzero entries only, keyed by pivot column.  Two integer steps do all
the elimination: ``integer_extend`` scales a row to a primitive integer row
and reduces it fraction-free (Bareiss; the exact integer strategy of Dumas,
Saunders & Villard) against an unreduced integer echelon basis, and
``_clear`` back-substitutes an integer row against a reduced integer basis,
dividing nothing.  ``integer_echelon`` loops over the first; ``to_rref`` and
``reduced_extend`` run the second, then divide each row by its pivot entry
or add it, and ``echelon`` is ``to_rref(integer_echelon(rows))``, the unique
reduced row echelon basis.  ``image_and_kernel`` takes the span of a matrix's
columns and its integer reduced kernel from one ``integer_echelon``, and
``nullspace`` is the ``to_rref`` of that kernel.  A ``Fraction`` is built
only by such a division and by ``ColumnSolver.solve`` for its result; a
rank, a pivot set or a test of whether a row grows a span needs none.

The order in which ``integer_echelon`` takes its rows changes its cost, not
an answer: every caller reads a pivot set (ranks, Betti numbers), a unique
reduced basis (``to_rref``, kernels; ``ColumnSolver``'s, whose "free
coordinates 0" rule lies in where it puts e_j) or a span (products, bases).

``image_and_kernel``, ``nullspace`` and ``ColumnSolver`` take a matrix as a
list of sparse columns, the form in which the cochain complexes and changes
of basis are built.  The dense views ``rref``, ``rank``, ``in_rowspan``,
``invert`` and ``identity`` take lists of rows of Fraction; they serve tests,
the benchmark's input generation, ``morphisms.verify_cohomology_ring_iso``'s
rank checks and ``Cohomology.decomposable_subspace``'s dense basis.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

Row = list[Fraction]
Vec = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _subtract(target: dict[int, int], f: int, row: dict[int, int]) -> None:
    """target -= f * row on integer rows, in place, keeping only nonzero entries."""
    for j, x in row.items():
        if j in target:
            v = target[j] - f * x
            if v:
                target[j] = v
            else:
                del target[j]
        else:
            target[j] = -f * x


def _integer(row: dict[int, Fraction | int]) -> tuple[dict[int, int], int]:
    """(den * row as a new dict, den), den the lcm of the denominators of the
    entries, which may be int (its own numerator, over 1) or Fraction."""
    den = 1
    for x in row.values():
        den = lcm(den, x.denominator)
    return {j: x.numerator * (den // x.denominator) for j, x in row.items()}, den


def _primitive(row: dict[int, Fraction | int]) -> dict[int, int]:
    """``row`` times the one positive rational that makes it an integer row
    whose entries have no common factor, as a new dict.  A row of ints alone,
    as cochain columns are, is copied without taking an lcm of denominators."""
    r = dict(row) if all(map(int.__instancecheck__, row.values())) else _integer(row)[0]
    _remove_content(r)
    return r


def _scale(r: dict[int, int], a: int) -> None:
    """r *= a, in place."""
    for j in r:
        r[j] *= a


def _remove_content(r: dict[int, int]) -> None:
    """Divide the integer row ``r`` by the gcd of its entries, in place."""
    g = 0
    for x in r.values():
        g = gcd(g, x)
        if g == 1:
            return
    if g > 1:
        for j in r:
            r[j] //= g


def integer_extend(basis: dict[int, dict[int, int]], row: dict[int, Fraction | int]) -> bool:
    """Add ``row`` to an integer echelon basis in place; True iff the span grew.

    ``row`` (int or Fraction entries, not modified) is scaled to a primitive
    integer row and reduced fraction-free (Bareiss) against the basis, pivot
    by pivot in increasing order from a heap: r <- (a/g) r - (f/g) prow,
    where a is the pivot entry of prow, f the entry of r there and
    g = gcd(a, f), then r is divided by its content.  A row that does not reduce to zero joins the basis at its
    leading column; the basis rows are not changed.
    """
    if not row:
        return False
    r = _primitive(row)
    heap = [c for c in r if c in basis]
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = r.get(c)
        if f is None:  # cleared by an earlier step, or pushed twice
            continue
        prow = basis[c]
        a = prow[c]
        g = gcd(a, f)
        if g != a:
            _scale(r, a // g)
        f //= g
        for j, x in prow.items():
            v = r.get(j)
            w = f * x
            if v is None:
                r[j] = -w
                if j in basis:
                    heappush(heap, j)
            elif v == w:
                del r[j]
            else:
                r[j] = v - w
        _remove_content(r)
    if not r:
        return False
    basis[min(r)] = r
    return True


def integer_echelon(rows: Iterable[dict[int, Fraction | int]]) -> dict[int, dict[int, int]]:
    """Echelon basis of the span of sparse rows, pivot -> primitive integer
    row, in pivot order: one ``integer_extend`` per row, shortest first (the
    Markowitz rule, 1957, against fill and entry growth; no answer reads it)."""
    basis: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        integer_extend(basis, row)
    return {c: basis[c] for c in sorted(basis)}


def _clear(r: dict[int, int], pivots: list[int], basis: dict[int, dict[int, int]]) -> int:
    """Clear the integer row ``r`` in place at ``pivots``, pivots of ``basis``
    whose rows are 0 at every other pivot: r <- m r - sum_j (m r_j / a_j) row_j
    in one pass, with m, returned, the lcm of the pivot entries a_j there."""
    m = 1
    for j in pivots:
        m = lcm(m, basis[j][j])
    if m != 1:
        _scale(r, m)
    for j in pivots:
        _subtract(r, r[j] // basis[j][j], basis[j])
    return m


def reduced_extend(basis: dict[int, dict[int, int]], row: dict[int, Fraction | int]) -> bool:
    """Add ``row`` to an integer reduced basis (``_back_substitute``'s) in
    place; True iff the span grew.  ``row``, made primitive, is ``_clear``ed;
    a nonzero rest joins at its leading column c, cleared from the others."""
    r = _primitive(row)
    _clear(r, [j for j in r if j in basis], basis)
    if r:
        _remove_content(r)
        basis[c := min(r)] = r
        for other in [o for o in basis.values() if c in o and o is not r]:
            _clear(other, [c], basis)
            _remove_content(other)
    return bool(r)


def _back_substitute(basis: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """Turn an ``integer_echelon`` basis in place into the integer reduced
    basis of its span, each row primitive with a positive pivot entry, and
    return it.  In decreasing pivot order each row is cleared at the later
    pivots it holds, whose rows are already reduced, then made primitive."""
    for c in sorted(basis, reverse=True):
        r = basis[c]
        later = [j for j in r if j != c and j in basis]
        if later:
            _clear(r, later, basis)
            _remove_content(r)
        if r[c] < 0:
            _scale(r, -1)
    return basis


def to_rref(basis: dict[int, dict[int, int]]) -> dict[int, Vec]:
    """The reduced row echelon basis of the span of an ``integer_echelon``
    basis, which it turns into that basis in place and returns: each row of
    ``_back_substitute`` divided by its pivot entry, into ``Fraction``
    entries that share one object per value.  Rows and keys keep their order.
    """
    quotients: dict[tuple[int, int], Fraction] = {}
    for c, r in _back_substitute(basis).items():
        a = r[c]
        for j, x in r.items():
            q = quotients.get((x, a))
            if q is None:
                q = quotients[x, a] = Fraction(x, a)
            r[j] = q
    return basis


def echelon(rows: Iterable[dict[int, Fraction | int]]) -> dict[int, Vec]:
    """Reduced row echelon basis of the span of sparse rows, pivot -> row.
    It is unique, so neither the order of the rows nor the arithmetic that
    builds it can change it."""
    return to_rref(integer_echelon(rows))


def sparse(row) -> Vec:
    """The nonzero entries of a dense row, by column."""
    return {j: x for j, x in enumerate(row) if x}


def dense(vec: Vec, n: int) -> Row:
    """The sparse vector ``vec`` as a dense row of length ``n``."""
    out = [_ZERO] * n
    for j, x in vec.items():
        out[j] = x
    return out


def rref(rows: list[Row], ncols: int | None = None) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of the row span.

    Returns (nonzero rows, pivot column per row), ordered by pivot.  Input
    rows are not modified.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    basis = echelon(sparse(row) for row in rows)
    pivots = list(basis)
    return [dense(basis[c], ncols) for c in pivots], pivots


def rank(rows: list[Row], ncols: int | None = None) -> int:
    return len(rref(rows, ncols)[0])


def _within(vec: dict, nrows: int) -> dict:
    """``vec``, a column or right-hand side of a matrix with ``nrows`` rows,
    after checking that every index is one of its rows."""
    if vec and (min(vec) < 0 or max(vec) >= nrows):
        bad = next(i for i in vec if not 0 <= i < nrows)
        raise ValueError(f"row index {bad} outside a matrix of {nrows} rows")
    return vec


def image_and_kernel(columns: list[Vec], nrows: int) -> tuple[dict, dict]:
    """An integer echelon basis of the span of columns of ``nrows`` rows and
    the integer reduced basis (``_back_substitute``'s) of {x : sum_j x_j
    columns[j] = 0}, both by pivot, from one elimination of the rows
    (c_j | e_j), e_j placed after the matrix coordinates.  A row whose pivot
    lies in the c part is, there and made primitive, a row of the first; the
    others are zero in the c part and carry the relations, so only they are
    back-substituted.  Raises ValueError for a row index outside 0..nrows-1.
    """
    basis = integer_echelon(
        {**_within(col, nrows), nrows + j: 1} for j, col in enumerate(columns))
    image = {c: {j: x for j, x in r.items() if j < nrows} for c, r in basis.items() if c < nrows}
    for r in image.values():
        _remove_content(r)
    kernel = _back_substitute({c: r for c, r in basis.items() if c >= nrows})
    return image, {c - nrows: {j - nrows: x for j, x in r.items()} for c, r in kernel.items()}


def nullspace(columns: list[Vec], nrows: int) -> list[Vec]:
    """Reduced echelon basis of {x : sum_j x_j columns[j] = 0}, by pivot:
    the kernel of ``image_and_kernel``, each row divided by its pivot entry."""
    return list(to_rref(image_and_kernel(columns, nrows)[1]).values())


def in_rowspan(red: list[Row], pivots: list[int], v: Row) -> bool:
    """Membership test against a precomputed rref basis."""
    basis = {pc: _primitive(sparse(prow)) for prow, pc in zip(red, pivots)}
    return not integer_extend(basis, sparse(v))


def identity(n: int) -> list[Row]:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def invert(rows: list[Row]) -> list[Row] | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    aug = [list(row) + ident_row for row, ident_row in zip(rows, identity(n))]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


class ColumnSolver:
    """Factor a column matrix once, then solve M x = b for many b.

    The factorisation is the integer reduced basis (``_back_substitute``) of
    the rows (c_j | e_j), e_j placed after the ``nrows`` matrix coordinates
    in reverse column order, kept where the pivot is a matrix coordinate:
    each row writes a multiple of a basis vector of the column span as a
    combination of columns.  Relations get their pivot at their last column,
    so those combinations avoid every column that depends on earlier ones.
    ``rank`` is the rank of the column matrix.  A row index outside
    0..nrows-1, in a column or in b, raises ValueError.
    """

    def __init__(self, columns: list[Vec], nrows: int):
        self.ncols = len(columns)
        self.nrows = nrows
        self._last = nrows + self.ncols - 1
        basis = _back_substitute(integer_echelon(
            {**_within(col, nrows), self._last - j: 1} for j, col in enumerate(columns)))
        self._basis = {c: row for c, row in basis.items() if c < nrows}
        self.rank = len(self._basis)

    def solve(self, b: Vec) -> Row | None:
        """Coordinates x with M x = b, free coordinates set to 0.

        Returns None when b is outside the column span.  den b, on ints, is
        cleared at the pivots it holds with multiplier m (``_clear``), which
        leaves -den m x in the e part.
        """
        r, den = _integer(_within(b, self.nrows))
        m = _clear(r, [j for j in r if j in self._basis], self._basis)
        x = [_ZERO] * self.ncols
        for j, v in r.items():
            if j < self.nrows:
                return None
            x[self._last - j] = Fraction(-v, den * m)
        return x
