"""Exact Gaussian elimination over the rationals.

Every routine here is a view on one sparse elimination step, ``extend``,
which grows the reduced row echelon basis of a span, kept as
``{column: Fraction}`` rows that hold nonzero entries only, by one row
(after Dumas, Heckenbach, Saunders & Welker, restricted to ranks over Q).
The reduced echelon form of a span is unique, so every result (rref,
nullspace, solved coordinates) is deterministic for a given input.

Library code calls the sparse routines: ``extend``, ``echelon``, ``reduce``
(a membership test), and ``nullspace`` and ``ColumnSolver``, which take a
matrix as a list of sparse columns, the form in which the cochain complexes
and changes of basis are built.  The dense views ``rref``,
``rank``, ``in_rowspan``, ``invert`` and ``identity`` take matrices as lists
of rows of Fraction; they serve tests and the benchmark's input generation,
plus the small dense rank checks in ``morphisms`` and the dense basis that
``Cohomology.decomposable_subspace`` returns.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

Row = list[Fraction]
Vec = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _subtract(target: Vec, f: Fraction, row: Vec) -> None:
    """target -= f * row, in place, keeping only nonzero entries."""
    for j, x in row.items():
        if j in target:
            v = target[j] - f * x
            if v:
                target[j] = v
            else:
                del target[j]
        else:
            target[j] = -f * x


def reduce(row: Vec, basis: dict[int, Vec]) -> Vec:
    """``row`` cleared at every pivot of a reduced echelon basis, as a new
    dict; empty iff ``row`` lies in the span.

    A basis row is zero at every other pivot, so one pass over the pivots
    present in ``row`` suffices.
    """
    r = dict(row)
    for c in [c for c in r if c in basis]:
        _subtract(r, r[c], basis[c])
    return r


def extend(basis: dict[int, Vec], row: Vec) -> bool:
    """Add ``row`` to a reduced echelon basis in place; True iff the span grew.

    The basis maps each pivot column to its row, which is 1 at the pivot and
    0 at every other pivot column.  ``row`` itself is not modified.
    """
    r = reduce(row, basis)
    if not r:
        return False
    lead = min(r)
    inv = _ONE / r[lead]
    if inv != 1:
        r = {j: x * inv for j, x in r.items()}
    for prow in basis.values():
        f = prow.get(lead)
        if f:
            _subtract(prow, f, r)
    basis[lead] = r
    return True


def echelon(rows: Iterable[Vec]) -> dict[int, Vec]:
    """Reduced row echelon basis of the span of sparse rows, pivot -> row."""
    basis: dict[int, Vec] = {}
    for row in rows:
        extend(basis, row)
    return basis


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
    pivots = sorted(basis)
    return [dense(basis[c], ncols) for c in pivots], pivots


def rank(rows: list[Row], ncols: int | None = None) -> int:
    return len(rref(rows, ncols)[0])


def nullspace(columns: list[Vec], nrows: int) -> list[Vec]:
    """Reduced echelon basis of {x : sum_j x_j columns[j] = 0}, by pivot.

    Eliminates the rows (c_j | e_j), with e_j placed after the ``nrows``
    matrix coordinates: the rows whose pivot lies in the e part are zero in
    the c part and carry the relations.
    """
    basis = echelon({**col, nrows + j: _ONE} for j, col in enumerate(columns))
    return [
        {j - nrows: x for j, x in basis[c].items()} for c in sorted(basis) if c >= nrows
    ]


def in_rowspan(red: list[Row], pivots: list[int], v: Row) -> bool:
    """Membership test against a precomputed rref basis."""
    basis = {pc: sparse(prow) for prow, pc in zip(red, pivots)}
    return not reduce(sparse(v), basis)


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

    The factorisation is the reduced echelon basis of the rows (c_j | e_j),
    with e_j placed after the ``nrows`` matrix coordinates in reverse column
    order.  A row with its pivot among the matrix coordinates writes a basis
    vector of the column span as a combination of columns; relations among
    the columns get their pivot at their last column, so those combinations
    avoid every column that depends on earlier ones.  ``rank`` is the rank
    of the column matrix.
    """

    def __init__(self, columns: list[Vec], nrows: int):
        self.ncols = len(columns)
        self.nrows = nrows
        self._last = nrows + self.ncols - 1
        basis = echelon({**col, self._last - j: _ONE} for j, col in enumerate(columns))
        self._basis = {c: row for c, row in basis.items() if c < nrows}
        self.rank = len(self._basis)

    def solve(self, b: Vec) -> Row | None:
        """Coordinates x with M x = b, free coordinates set to 0.

        Returns None when b is outside the column span.
        """
        rest = reduce(b, self._basis)
        x = [_ZERO] * self.ncols
        for j, v in rest.items():
            if j < self.nrows:
                return None
            x[self._last - j] = -v
        return x
