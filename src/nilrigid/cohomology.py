"""Exact cohomology of a Sullivan model.

Betti numbers, deterministic representative bases, cup products,
indecomposable (algebra generator) counts and the weight refinement for
Carnot-homogeneous differentials.  All elimination is exact, fraction-free
on integers with rational results, so every reported number is exact.  Each
degree is eliminated once: Betti numbers and the weight refinement count
pivots of the cached coboundary bases, and the decomposables of a degree
are one span of cochains.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .errors import DomainMismatchError, ModelError, NotClosedError
from .forms import (
    Form,
    SullivanModel,
    _derive,
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
    Each column is one call of the integer kernel ``forms._derive``, which
    gives D * d(mono) for D = A.scale, divided by D; no Form is built.
    """
    index = {m: i for i, m in enumerate(monomial_basis(A, p + 1))}
    scale = A.scale
    return [
        {index[m]: Fraction(v, scale) for m, v in _derive(A, mono).items() if v}
        for mono in monomial_basis(A, p)
    ]


class _Classes:
    """Representatives of one degree; the solver is built on first use."""

    __slots__ = ("index", "vectors", "forms", "solver")


class Cohomology:
    """Cohomology ring of a valid Sullivan model, computed degree by degree.

    Each d_p is built once.  Its column span, the coboundaries B^(p+1), is
    eliminated once into an integer echelon basis: Betti numbers are pivot
    counts of it, and so is the weight refinement, weight by weight.  The
    reduced basis of B^(p+1) is built from that same integer basis, which it
    replaces, only when representatives, products or solves need its rows.
    The kernel of d_p gives the cocycles of degree p.  Classes are solved as
    cochain vectors against the representatives and B^p, which span Z^p:
    membership is closedness.  The decomposables of degree p are one cochain
    span, B^p extended by products of classes until it is all of Z^p.
    """

    def __init__(self, model: SullivanModel):
        defects = check_d_squared(model)
        if defects:
            names = ", ".join(g.name for g, _ in defects)
            raise ModelError(f"d^2 != 0 on {names}", defects=defects)
        self.model = model
        self._d: dict[int, list[dict[int, Fraction]]] = {}
        self._echelons: dict[int, dict[int, dict[int, int]]] = {}
        self._images: dict[int, dict[int, dict[int, Fraction]]] = {}
        self._data: dict[int, _Classes] = {}
        self._dec: dict[int, tuple[list[list[Fraction]], tuple[int, tuple]]] = {}

    # -- internal ----------------------------------------------------------

    def _differential(self, p: int) -> list[dict[int, Fraction]]:
        if p not in self._d:
            self._d[p] = cochain_matrix(self.model, p)
        return self._d[p]

    def _pivots(self, p: int) -> dict[int, dict]:
        """The pivot columns of B^p = d(Lambda^(p-1)), as the keys of its
        integer echelon basis, or of the reduced basis once that is built."""
        if p in self._images:
            return self._images[p]
        if p not in self._echelons:
            self._echelons[p] = linalg.integer_echelon(self._differential(p - 1)) if p > 0 else {}
        return self._echelons[p]

    def _coboundaries(self, p: int) -> dict[int, dict[int, Fraction]]:
        """Reduced echelon basis of B^p, keyed by pivot, built from the
        integer echelon basis, which it replaces."""
        if p not in self._images:
            self._pivots(p)
            self._images[p] = linalg.to_rref(self._echelons.pop(p))
        return self._images[p]

    def _degree(self, p: int) -> _Classes:
        if p in self._data:
            return self._data[p]
        A = self.model
        monos = monomial_basis(A, p)
        cocycles = linalg.nullspace(self._differential(p), comb(A.dimension, p + 1))
        coboundaries = self._pivots(p)
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

    def _coordinates(self, v: dict[int, Fraction], p: int) -> ClassVector:
        """Class of the cochain v of degree p, by monomial index; refused unless closed."""
        data = self._degree(p)
        if data.solver is None:
            columns = data.vectors + list(self._coboundaries(p).values())
            data.solver = linalg.ColumnSolver(columns, len(data.index))
        x = data.solver.solve(v)
        if x is None:
            f = Form(self.model.generators, {m: v[j] for m, j in data.index.items() if j in v})
            raise NotClosedError("form is not closed", differential=self.model.d(f))
        return ClassVector(p, tuple(x[: len(data.vectors)]))

    def _products(self, p: int):
        """rref basis of H^+ . H^+ in H^p coordinates, and the indecomposables.

        One cochain span holds B^p and the products g . h of indecomposables
        g of degree i <= p // 2 with classes h of degree p - i.  These span
        H^+ . H^+ in degree p: the indecomposables generate H^+, so it is
        spanned by products g_1 ... g_r, r >= 2, of them, and by graded
        commutativity the factor of least degree, at most p / 2, can go
        first up to sign, the rest being a class of the complementary
        degree.  Products stop once the span is full, with len(B^p) + b_p
        rows, all of Z^p.  Only its rows with a pivot outside B^p get class
        coordinates.  With B^p they span it, so a product that is not closed
        makes one of their solves fail.  The unit classes whose cocycles
        extend the span, in order, represent H^p / (H^+ . H^+).
        """
        if p not in self._dec:
            rows, reps = [], []
            if p > 0:
                data = self._degree(p)
                coboundaries = self._coboundaries(p)
                span = {c: dict(row) for c, row in coboundaries.items()}
                full = len(coboundaries) + self.betti(p)
                factors = ((gform, rep) for i in range(1, p // 2 + 1) if self.betti(p - i)
                           for gform in map(self.form_of, self.indecomposables(i)[1])
                           for rep in self._degree(p - i).forms)
                for gform, rep in factors:
                    if len(span) == full:
                        break
                    product = wedge(gform, rep).terms
                    linalg.extend(span, {data.index[m]: c for m, c in product.items()})
                rows = [list(self._coordinates(row, p).coordinates)
                        for c, row in span.items() if c not in coboundaries]
                reps = [self.unit_class(p, j) for j, v in enumerate(data.vectors)
                        if linalg.extend(span, v)]
                assert len(reps) == self.betti(p) - len(rows)
            self._dec[p] = linalg.rref(rows, self.betti(p))[0], (len(reps), tuple(reps))
        return self._dec[p]

    # -- public api --------------------------------------------------------

    def betti(self, p: int) -> int:
        """dim Lambda^p - rank d_p - rank d_(p-1), the ranks being the pivot
        counts of the integer echelon bases of B^(p+1) and B^p."""
        if p < 0 or p > self.model.dimension:
            return 0
        dim = len(self._differential(p))
        return dim - len(self._pivots(p + 1)) - len(self._pivots(p))

    def betti_vector(self) -> tuple[int, ...]:
        return tuple(self.betti(p) for p in range(self.model.dimension + 1))

    def basis(self, p: int) -> list[Form]:
        """Closed representative forms mapping to a basis of H^p."""
        if p < 0 or p > self.model.dimension:
            return []
        return list(self._degree(p).forms)

    def class_coordinates(self, f: Form, p: int | None = None) -> ClassVector:
        """Coordinates of a closed form in the representative basis of H^p."""
        degree = f.degree()
        if p is None:
            p = degree or 0
        elif degree is not None and degree != p:
            raise ValueError(f"a form of degree {degree} has no class in degree {p}")
        if f.gens != self.model.generators:
            raise DomainMismatchError("form does not live over the model's generators")
        if p < 0 or p > self.model.dimension:
            return ClassVector(p, ())
        index = self._degree(p).index
        return self._coordinates({index[m]: c for m, c in f.terms.items()}, p)

    def form_of(self, v: ClassVector) -> Form:
        out = Form.zero(self.model.generators)
        for c, rep in zip(v.coordinates, self._degree(v.degree).forms):
            if c:
                out = out + rep.scale(c)
        return out

    def cup(self, u: ClassVector, v: ClassVector) -> ClassVector:
        """Product of classes, reduced into the representative basis."""
        product = wedge(self.form_of(u), self.form_of(v))
        return self.class_coordinates(product, u.degree + v.degree)

    def unit_class(self, p: int, i: int) -> ClassVector:
        b = self.betti(p)
        return ClassVector(p, tuple(_ONE if j == i else _ZERO for j in range(b)))

    def decomposable_subspace(self, p: int) -> list[list[Fraction]]:
        """rref basis of the image of H^+ . H^+ inside H^p coordinates."""
        return [list(row) for row in self._products(p)[0]]

    def indecomposables(self, p: int) -> tuple[int, tuple[ClassVector, ...]]:
        """Count and representatives of H^p / (H^+ . H^+)."""
        return self._products(p)[1] if self.betti(p) else (0, ())

    def betti_by_weight(self, p: int) -> dict[int, int]:
        """H^p split by total lower degree; requires a Carnot-homogeneous d.

        d then maps weight w of Lambda^p to weight w - 1 of Lambda^(p+1), so
        the pivot set of B^(p+1), which does not depend on the echelon basis
        it is read from, is the union of those of the weight blocks: the
        rank of d_p on weight w is the number of its pivots at weight w - 1,
        that of d_(p-1) into weight w of B^p's.
        """
        A = self.model
        if not is_carnot_homogeneous(A):
            raise ModelError("differential is not Carnot-homogeneous")
        here, above = (
            [monomial_weight(A.generators, m) for m in monomial_basis(A, q)] for q in (p, p + 1)
        )
        dims = Counter(here)
        for c in self._pivots(p):
            dims[here[c]] -= 1
        for c in self._pivots(p + 1):
            dims[above[c] + 1] -= 1
        return {w: dim for w, dim in sorted(dims.items()) if dim}
