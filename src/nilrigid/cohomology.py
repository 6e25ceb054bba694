"""Exact cohomology of a Sullivan model.

Betti numbers, deterministic representative bases, cup products,
indecomposable (algebra generator) counts and the weight refinement for
Carnot-homogeneous differentials.  All elimination happens over the
rationals, so every reported number is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .errors import ModelError, NotClosedError
from .forms import (
    Form,
    SullivanModel,
    apply_differential,
    check_d_squared,
    monomial_basis,
    monomial_weight,
    wedge,
)
from .lie import is_carnot_homogeneous

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class ClassVector:
    """Coordinates of a cohomology class in the chosen representative basis."""

    degree: int
    coordinates: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return not any(self.coordinates)


def cochain_matrix(A: SullivanModel, p: int) -> list[dict[int, Fraction]]:
    """Sparse columns of d: Lambda^p -> Lambda^(p+1).

    Column j is d of the j-th lexicographic monomial of degree p, as
    {row: coefficient} over the lexicographic monomials of degree p + 1.
    """
    index = {m: i for i, m in enumerate(monomial_basis(A, p + 1))}
    columns = []
    for mono in monomial_basis(A, p):
        df = apply_differential(A, Form(A.generators, {mono: 1}))
        columns.append({index[m]: c for m, c in df.terms.items()})
    return columns


class _Classes:
    """Representatives of one degree; the solver is built on first use."""

    __slots__ = ("index", "vectors", "forms", "solver")


class Cohomology:
    """Cohomology ring of a valid Sullivan model, computed degree by degree.

    Each d_p is built once: its rank gives Betti numbers, its kernel the
    cocycles of degree p, its column span the coboundaries of degree p + 1,
    and its weight blocks the weight refinement.
    """

    def __init__(self, model: SullivanModel):
        defects = check_d_squared(model)
        if defects:
            names = ", ".join(g.name for g, _ in defects)
            raise ModelError(f"d^2 != 0 on {names}", defects=defects)
        self.model = model
        self._d: dict[int, list[dict[int, Fraction]]] = {}
        self._images: dict[int, dict[int, dict[int, Fraction]]] = {}
        self._data: dict[int, _Classes] = {}
        self._dec: dict[int, list[list[Fraction]]] = {}
        self._indec: dict[int, tuple[int, tuple[ClassVector, ...]]] = {}

    # -- internal ----------------------------------------------------------

    def _differential(self, p: int) -> list[dict[int, Fraction]]:
        if p not in self._d:
            self._d[p] = cochain_matrix(self.model, p)
        return self._d[p]

    def _coboundaries(self, p: int) -> dict[int, dict[int, Fraction]]:
        """Reduced echelon basis of d(Lambda^(p-1)), keyed by pivot."""
        if p not in self._images:
            self._images[p] = linalg.echelon(self._differential(p - 1)) if p > 0 else {}
        return self._images[p]

    def _degree(self, p: int) -> _Classes:
        if p in self._data:
            return self._data[p]
        A = self.model
        monos = monomial_basis(A, p)
        cocycles = linalg.nullspace(self._differential(p), comb(A.dimension, p + 1))
        coboundaries = self._coboundaries(p)
        data = _Classes()
        data.index = {m: i for i, m in enumerate(monos)}
        # representatives: reduced echelon cocycle rows whose pivot is not a
        # coboundary pivot; deterministic by construction
        data.vectors = [v for v in cocycles if min(v) not in coboundaries]
        data.forms = [
            Form(A.generators, {monos[i]: c for i, c in v.items()})
            for v in data.vectors
        ]
        data.solver = None
        self._data[p] = data
        return data

    def _solver(self, p: int) -> linalg.ColumnSolver:
        data = self._degree(p)
        if data.solver is None:
            columns = data.vectors + list(self._coboundaries(p).values())
            data.solver = linalg.ColumnSolver(columns, len(data.index))
        return data.solver

    # -- public api --------------------------------------------------------

    def betti(self, p: int) -> int:
        """dim Lambda^p - rank d_p - rank d_(p-1)."""
        if p < 0 or p > self.model.dimension:
            return 0
        dim = len(self._differential(p))
        return dim - len(self._coboundaries(p + 1)) - len(self._coboundaries(p))

    def betti_vector(self) -> tuple[int, ...]:
        return tuple(self.betti(p) for p in range(self.model.dimension + 1))

    def basis(self, p: int) -> list[Form]:
        """Closed representative forms mapping to a basis of H^p."""
        if p < 0 or p > self.model.dimension:
            return []
        return list(self._degree(p).forms)

    def class_coordinates(self, f: Form, p: int | None = None) -> ClassVector:
        """Coordinates of a closed form in the representative basis of H^p."""
        if p is None:
            p = f.degree() or 0
        df = apply_differential(self.model, f)
        if not df.is_zero():
            raise NotClosedError("form is not closed", differential=df)
        b = self.betti(p)
        if b == 0:
            return ClassVector(p, ())
        index = self._degree(p).index
        x = self._solver(p).solve({index[m]: c for m, c in f.terms.items()})
        if x is None:
            raise AssertionError("closed form outside cocycle space")
        return ClassVector(p, tuple(x[:b]))

    def form_of(self, v: ClassVector) -> Form:
        out = Form.zero(self.model.generators)
        for c, rep in zip(v.coordinates, self._degree(v.degree).forms):
            if c:
                out = out + rep.scale(c)
        return out

    def cup(self, u: ClassVector, v: ClassVector) -> ClassVector:
        """Product of classes, reduced into the representative basis."""
        p = u.degree + v.degree
        if p > self.model.dimension:
            return ClassVector(p, ())
        product = wedge(self.form_of(u), self.form_of(v))
        return self.class_coordinates(product, p)

    def unit_class(self, p: int, i: int) -> ClassVector:
        b = self.betti(p)
        return ClassVector(p, tuple(Fraction(1) if j == i else _ZERO for j in range(b)))

    def decomposable_subspace(self, p: int) -> list[list[Fraction]]:
        """rref basis of the image of H^+ . H^+ inside H^p coordinates.

        Products of two positive-degree classes are spanned by products of an
        indecomposable generator with an arbitrary class, which keeps the
        number of wedges small.
        """
        if p not in self._dec:
            rows = []
            for i in range(1, p):
                j = p - i
                if self.betti(j) == 0:
                    continue
                _, gens_i = self.indecomposables(i)
                for g in gens_i:
                    gform = self.form_of(g)
                    for rep in self._degree(j).forms:
                        cv = self.class_coordinates(wedge(gform, rep), p)
                        if any(cv.coordinates):
                            rows.append(list(cv.coordinates))
            self._dec[p], _ = linalg.rref(rows, self.betti(p))
        return [list(row) for row in self._dec[p]]

    def indecomposables(self, p: int) -> tuple[int, tuple[ClassVector, ...]]:
        """Count and representatives of H^p / (H^+ . H^+)."""
        if p in self._indec:
            return self._indec[p]
        b = self.betti(p)
        if p <= 0 or b == 0:
            result = (0, ())
            self._indec[p] = result
            return result
        dec = self.decomposable_subspace(p)
        span = linalg.echelon(linalg.sparse(row) for row in dec)
        reps = [self.unit_class(p, j) for j in range(b) if linalg.extend(span, {j: _ONE})]
        count = b - len(dec)
        assert count == len(reps)
        result = (count, tuple(reps))
        self._indec[p] = result
        return result

    def betti_by_weight(self, p: int) -> dict[int, int]:
        """H^p split by total lower degree; requires a Carnot-homogeneous d.

        The differential then maps the weight-w part of Lambda^p to the
        weight-(w-1) part of Lambda^(p+1), so cohomology refines by weight:
        each weight block of d_p is eliminated on its own.
        """
        A = self.model
        if not is_carnot_homogeneous(A):
            raise ModelError("differential is not Carnot-homogeneous")

        def blocks(q: int) -> dict[int, list[dict[int, Fraction]]]:
            """Columns of d_q grouped by the weight of their monomial."""
            out: dict[int, list[dict[int, Fraction]]] = {}
            for mono, col in zip(monomial_basis(A, q), self._differential(q)):
                out.setdefault(monomial_weight(A.generators, mono), []).append(col)
            return out

        here = blocks(p)
        below = blocks(p - 1) if p > 0 else {}
        out: dict[int, int] = {}
        for w, cols in sorted(here.items()):
            r_out = len(linalg.echelon(cols))
            r_in = len(linalg.echelon(below.get(w + 1, [])))
            dim = len(cols) - r_out - r_in
            if dim:
                out[w] = dim
        return out
