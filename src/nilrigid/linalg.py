"""Exact Gaussian elimination over the rationals.

Every routine here is a view on one sparse eliminator, ``echelon``, which
keeps the reduced row echelon basis of a span as ``{column: Fraction}`` rows
that hold nonzero entries only (after Dumas, Heckenbach, Saunders &
Welker, restricted to ranks over Q).
The reduced echelon form of a span is unique, so every result (rref,
nullspace, solved coordinates) is deterministic for a given input.

Two interfaces sit on top.  ``rref``, ``rank``, ``in_rowspan`` and ``invert``
take dense matrices as lists of rows, rows being lists of Fraction.
``nullspace`` and ``ColumnSolver`` take a matrix as a list of sparse
columns, the form in which the cochain complexes are built.
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


def _reduce(row: Vec, basis: dict[int, Vec]) -> Vec:
    """Clear ``row`` at every pivot of a reduced echelon basis, in place.

    A basis row is zero at every other pivot, so one pass over the pivots
    present in ``row`` suffices.
    """
    for c in [c for c in row if c in basis]:
        _subtract(row, row[c], basis[c])
    return row


def echelon(rows: Iterable[Vec]) -> dict[int, Vec]:
    """Reduced row echelon basis of the span of sparse rows.

    Maps each pivot column to its row, which is 1 at the pivot and 0 at every
    other pivot column.  Input rows are not modified.
    """
    basis: dict[int, Vec] = {}
    for row in rows:
        r = _reduce(dict(row), basis)
        if not r:
            continue
        lead = min(r)
        inv = _ONE / r[lead]
        if inv != 1:
            r = {j: x * inv for j, x in r.items()}
        for prow in basis.values():
            f = prow.get(lead)
            if f:
                _subtract(prow, f, r)
        basis[lead] = r
    return basis


def _sparse(row: Row) -> Vec:
    return {j: x for j, x in enumerate(row) if x}


def rref(rows: list[Row], ncols: int | None = None) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of the row span.

    Returns (nonzero rows, pivot column per row), ordered by pivot.  Input
    rows are not modified.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    basis = echelon(_sparse(row) for row in rows)
    pivots = sorted(basis)
    red = []
    for c in pivots:
        dense = [_ZERO] * ncols
        for j, x in basis[c].items():
            dense[j] = x
        red.append(dense)
    return red, pivots


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
    basis = {pc: _sparse(prow) for prow, pc in zip(red, pivots)}
    return not _reduce(_sparse(v), basis)


def identity(n: int) -> list[Row]:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def mat_vec(rows: list[Row], v: Row) -> Row:
    out = []
    for row in rows:
        s = _ZERO
        for a, b in zip(row, v):
            if a and b:
                s += a * b
        out.append(s)
    return out


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
    avoid every column that depends on earlier ones.
    """

    def __init__(self, columns: list[Vec], nrows: int):
        self.ncols = len(columns)
        self.nrows = nrows
        self._last = nrows + self.ncols - 1
        basis = echelon({**col, self._last - j: _ONE} for j, col in enumerate(columns))
        self._basis = {c: row for c, row in basis.items() if c < nrows}

    def solve(self, b: Vec) -> Row | None:
        """Coordinates x with M x = b, free coordinates set to 0.

        Returns None when b is outside the column span.
        """
        rest = _reduce(dict(b), self._basis)
        x = [_ZERO] * self.ncols
        for j, v in rest.items():
            if j < self.nrows:
                return None
            x[self._last - j] = -v
        return x
