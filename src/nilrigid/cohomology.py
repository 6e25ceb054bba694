"""Exact cohomology of a Sullivan model.

Betti numbers, deterministic representative bases, cup products,
indecomposable (algebra generator) counts and the weight refinement for
Carnot-homogeneous differentials.  All elimination is exact, fraction-free
on integers with rational results, so every reported number is exact.
Each d_p is built once, in a basis where it is sparse (see ``Cohomology``),
and its column span eliminated once: Betti numbers count pivots of those
coboundary bases, for p <= (n-1)/2 alone when d_(n-1) = 0 (then rank d_p =
rank d_(n-1-p)) and in every degree otherwise, and ``linalg.nullspace``
eliminates d_p again for cocycles.
Indecomposables come from integer cochain spans, with no class coordinates,
grown by products whose least factor is an indecomposable (see ``_factors``).
d and every cup product are computed by the exterior-algebra kernel of
``forms``, on monomials as bitmasks: row j of a degree-p cochain is the j-th
mask of ``_masks``, each column of d is one ``_derive`` and each product one
``_multiply``; index tuples exist only inside a ``Form``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from . import linalg
from .errors import DomainMismatchError, ModelError, NotClosedError, NotNilpotentError
from .forms import (
    Form,
    SullivanModel,
    Terms,
    _derive,
    _kernel_terms,
    _mask_index,
    _mask_terms,
    _masks,
    _Monomials,
    _multiply,
    check_d_squared,
    # not called here: perfbench/test_bench.py checks that its tracer rebinds cohomology.wedge
    wedge,  # noqa: F401
)
from .lie import AdaptedBasis, _lie_of, ce_model, generated_basis, is_carnot_homogeneous


@dataclass(frozen=True)
class ClassVector:
    """Coordinates of a cohomology class in the chosen representative basis."""

    degree: int
    coordinates: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return not any(self.coordinates)


def cochain_matrix(A: SullivanModel, p: int) -> list[dict[int, int]]:
    """Sparse integer columns of D * d: Lambda^p -> Lambda^(p+1), D = A.scale.

    Column j is D * d of the j-th mask of ``_masks(n, p)`` as {row: int} over
    ``_masks(n, p + 1)``, one ``_derive`` with nothing divided and no Form
    built.  D != 0, so these columns have the kernel and the span of d's.
    """
    index = _mask_index(A.dimension, p + 1)
    return [{index[m]: v for m, v in _derive(A, mask).items() if v}
            for mask in _masks(A.dimension, p)]


def _inverse_images(basis: AdaptedBasis) -> list[Terms]:
    """The rows of D G^-1 as term lists, G the basis columns and D the lcm of
    G^-1's denominators: row a is D phi(f^a), f^a a generator of ``ce_model(L, basis)``."""
    n = len(basis.columns)
    solver = linalg.ColumnSolver([linalg.sparse(c) for c in basis.columns], n)
    inverse = [solver.solve({i: 1}) for i in range(n)]  # the columns of G^-1
    D = lcm(*(x.denominator for column in inverse for x in column))
    return [_mask_terms((1 << i, int(inverse[i][a] * D)) for i in range(n) if inverse[i][a])
            for a in range(n)]


class _Classes:
    """Representatives of one degree as reduced cocycle vectors; the solver
    and their primitive integer term lists are built on first use."""

    __slots__ = ("masks", "vectors", "solver", "terms")


class Cohomology:
    """Cohomology ring of a valid Sullivan model, computed degree by degree.

    d is eliminated in the ``generated_basis`` of the model's algebra, where
    it is sparse, unless each bracket of two basis vectors is one term, the
    algebra is not nilpotent or that basis is the identity: then in the
    model's own.  d^2 = 0 is checked there; the model's defects are computed
    only to name them.  Each d_p is built once, on ints as D * d, and its
    column span, B^(p+1), eliminated once into an integer echelon basis: Betti
    numbers count its pivots, for p <= (n-1)/2 alone when d_(n-1) = 0 and for
    every p otherwise (see ``betti_vector``).  The kernel of d_p is Z^p.
    From the generated basis, B^p and Z^p are pushed by phi, Lambda^p of the
    inverse change of basis, and eliminated again: the reduced basis of Z^p is
    unique, so the representatives are the model's own.  The weight
    refinement counts the model's B^p pivots.  Classes are solved as cochain
    vectors against the representatives and the rows of B^p, a basis of Z^p:
    membership is closedness.  Indecomposables need no solve: they are the
    representatives that extend B^p and the products of classes.
    A ``Form`` is built only where a caller reads one.
    """

    def __init__(self, model: SullivanModel):
        self.model = self._eliminated = model
        self._ones: list[Terms] | None = None  # D phi(f^a) when the bases differ
        pairs = [ab for terms in model.table for ab, _, _ in terms]
        if len(set(pairs)) < len(pairs):  # a bracket of two basis vectors has two terms
            L = _lie_of(model)
            try:
                basis = generated_basis(L)
            except NotNilpotentError:  # eliminate the model's own d
                basis = None
            if basis is not None and not basis.is_identity():
                self._eliminated = ce_model(L, basis)
                self._ones = _inverse_images(basis)
                self._pushed: dict[int, dict[int, dict[int, int]]] = {}
                self._images: list[list[dict[int, int]]] = [[{0: 1}]]  # by degree
        defects = check_d_squared(self._eliminated) and check_d_squared(model)
        if defects:
            names = ", ".join(g.name for g, _ in defects)
            raise ModelError(f"d^2 != 0 on {names}", defects=defects)
        self._d: dict[int, list[dict[int, int]]] = {}
        self._echelons: dict[int, dict[int, dict[int, int]]] = {}
        self._data: dict[int, _Classes] = {}
        self._units: dict[int, list[int]] = {}

    # -- internal ----------------------------------------------------------

    def _differential(self, p: int) -> list[dict[int, int]]:
        if p not in self._d:
            self._d[p] = cochain_matrix(self._eliminated, p)
        return self._d[p]

    def _boundaries(self, p: int) -> dict[int, dict[int, int]]:
        """The integer echelon basis of B^p = d(Lambda^(p-1)), by pivot."""
        if p not in self._echelons:
            self._echelons[p] = linalg.integer_echelon(self._differential(p - 1)) if p > 0 else {}
        return self._echelons[p]

    def _pivots(self, p: int) -> dict[int, dict[int, int]]:
        """An integer echelon basis of B^p in the model's basis, by pivot."""
        if self._ones is None:
            return self._boundaries(p)
        if p not in self._pushed:
            self._pushed[p] = linalg.integer_echelon(self._push(self._boundaries(p).values(), p))
        return self._pushed[p]

    def _push(self, rows, p: int):
        """D^p phi(v) by monomial index for each cochain v of degree p of the
        eliminated model in ``rows``, made a primitive integer row first.  The
        image of each monomial m is built once: that of m without its last
        index times that of its last generator, one ``_multiply``."""
        for q in range(len(self._images), p + 1):
            below = _masks(self.model.dimension, q - 1)
            head = {m: _mask_terms((below[j], c) for j, c in image.items())
                    for m, image in zip(below, self._images[q - 1])}
            index = _mask_index(self.model.dimension, q)  # m's last index: its top bit
            self._images.append([_multiply(head[m ^ (1 << m.bit_length() - 1)],
                                           self._ones[m.bit_length() - 1], index) for m in index])
        for v in rows:
            out: dict[int, int] = {}
            for j, c in linalg._primitive(v).items():
                for i, x in self._images[p][j].items():
                    out[i] = out.get(i, 0) + c * x
            yield {i: x for i, x in out.items() if x}

    def _degree(self, p: int) -> _Classes:
        if p in self._data:
            return self._data[p]
        A = self.model
        cocycles = linalg.nullspace(self._differential(p), comb(A.dimension, p + 1))
        if self._ones is not None:  # Z^p in the model's basis, reduced
            reduced = linalg.echelon(self._push(cocycles, p))
            cocycles = [reduced[c] for c in sorted(reduced)]
        coboundaries = self._pivots(p)
        data = _Classes()
        data.masks = _mask_index(A.dimension, p)  # the rows of cochains
        # representatives: reduced echelon cocycle rows whose pivot is not a
        # coboundary pivot; deterministic by construction
        data.vectors = [v for v in cocycles if min(v) not in coboundaries]
        data.solver = data.terms = None
        self._data[p] = data
        return data

    def _coordinates(self, v: dict[int, Fraction | int], p: int) -> ClassVector:
        """Class of the cochain v of degree p, by monomial index; refused unless closed."""
        data = self._degree(p)
        if data.solver is None:
            columns = data.vectors + list(self._pivots(p).values())
            data.solver = linalg.ColumnSolver(columns, len(data.masks))
        x = data.solver.solve(v)
        if x is None:
            masks, monos = list(data.masks), _Monomials()
            f = Form(self.model.generators, {monos[masks[j]]: c for j, c in v.items()})
            raise NotClosedError("form is not closed", differential=self.model.d(f))
        return ClassVector(p, tuple(x[: len(data.vectors)]))

    def _terms(self, p: int) -> list[Terms]:
        """The representatives of degree p as primitive integer kernel terms."""
        data = self._degree(p)
        if data.terms is None:
            masks = list(data.masks)
            data.terms = [_mask_terms((masks[j], c) for j, c in linalg._primitive(v).items())
                          for v in data.vectors]
        return data.terms

    def _factors(self, p: int):
        """(i, g, h): positions among the unit classes of an indecomposable g
        of degree i <= p / 2 and a class h of degree p - i, indecomposable if
        3i > p; their products g . h span H^+ . H^+ in degree p.  For the
        indecomposables generate H^+, so it is spanned by their products
        g_1 ... g_k, k >= 2, ordered by degree up to sign: deg g_1 = i <= p / k.
        If k >= 3, i <= p / 3 and g_2 ... g_k is a class of degree p - i; if
        3i > p, k = 2 and g_2 is an indecomposable of degree p - i."""
        for i in range(1, p // 2 + 1):
            seconds = range(self.betti(p - i)) if 3 * i <= p else self._products(p - i)
            for g in self._products(i) if seconds else ():
                for h in seconds:
                    yield i, g, h

    def _products(self, p: int) -> list[int]:
        """Positions of the indecomposables of degree p among its unit classes.

        One integer echelon span of cochains starts as a copy of the integer
        basis of B^p.  Each product of ``_factors(p)`` is one ``_multiply`` of
        integer kernel terms, and ``linalg.integer_extend`` adds it to the span
        until it has len(B^p) + b_p = dim Z^p rows.  A span only grows, so once
        a product c . e_j of one term is offered to it, e_j stays in it: a
        product whose terms all lie on such rows, zero included, is skipped.
        The unit classes whose cocycles extend the span, in order, represent
        H^p / (H^+ . H^+), and it ends as Z^p, with dim Z^p rows, exactly when
        every product in it is closed; otherwise NotClosedError is raised.
        None of this depends on the echelon basis that holds the span.
        """
        if p in self._units:
            return self._units[p]
        if not self.betti(p):
            return []
        data = self._degree(p)
        span = dict(self._pivots(p))
        full = len(span) + self.betti(p)
        terms: dict[int, tuple[list[Terms], list[Terms]]] = {}
        known: set[int] = set()  # rows j with e_j in the span
        for i, g, h in self._factors(p):
            if len(span) == full:
                break
            if i not in terms:
                terms[i] = self._terms(i), self._terms(p - i)
            v = _multiply(terms[i][0][g], terms[i][1][h], data.masks)
            if known.issuperset(v):  # zero, or each e_j in the span
                continue
            if len(v) == 1:
                known.update(v)
            linalg.integer_extend(span, v)
        units = [j for j, v in enumerate(data.vectors) if linalg.integer_extend(span, v)]
        if len(span) != full:
            raise NotClosedError(f"a product of classes in degree {p} is not closed")
        self._units[p] = units
        return units

    # -- public api --------------------------------------------------------

    def betti(self, p: int) -> int:
        """dim Lambda^p - rank d_p - rank d_(p-1), the ranks being the pivot
        counts of the integer echelon bases of B^(p+1) and B^p."""
        if p < 0 or p > self.model.dimension:
            return 0
        dim = len(self._differential(p))
        return dim - len(self._boundaries(p + 1)) - len(self._boundaries(p))

    def betti_vector(self) -> tuple[int, ...]:
        """b_0..b_n from the ranks of d_p.  d_(n-1) = 0 exactly when g is
        unimodular; then d_(n-1-p) is d_p transposed up to a signed permutation
        (Hazewinkel 1970): only p <= (n-1)/2 is eliminated, and a rank above
        that whose B^(p+1) is not cached is read as rank d_(n-1-p)."""
        n = self.model.dimension
        mirror = n > 0 and not any(self._differential(n - 1))
        ranks = [0]  # ranks[p + 1] = rank d_p, p = -1..n
        for p in range(n):
            mirrored = mirror and 2 * p > n - 1 and p + 1 not in self._echelons
            ranks.append(ranks[n - p] if mirrored else len(self._boundaries(p + 1)))
        ranks.append(0)
        return tuple(comb(n, p) - ranks[p + 1] - ranks[p] for p in range(n + 1))

    def basis(self, p: int) -> list[Form]:
        """Closed representative forms mapping to a basis of H^p."""
        if p < 0 or p > self.model.dimension:
            return []
        return [self.form_of(self.unit_class(p, i)) for i in range(self.betti(p))]

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
        masks = self._degree(p).masks
        return self._coordinates({masks[m]: c for m, _, c in _kernel_terms(f.terms.items())}, p)

    def _cochain(self, v: ClassVector) -> list[tuple[int, Fraction]]:
        """sum_i v_i rep_i as (mask, coefficient) pairs; v needs b_p coordinates."""
        data = self._degree(v.degree)
        if len(v.coordinates) != len(data.vectors):
            raise ValueError(f"a class of degree {v.degree} has {len(data.vectors)} "
                             f"coordinates, not {len(v.coordinates)}")
        out: dict[int, Fraction] = {}
        for c, vec in zip(v.coordinates, data.vectors):
            if c:
                for j, x in vec.items():
                    out[j] = out.get(j, 0) + c * x
        masks = list(data.masks)
        return [(masks[j], x) for j, x in out.items()]

    def form_of(self, v: ClassVector) -> Form:
        """The closed form sum_i v_i rep_i; v needs b_p coordinates."""
        monos = _Monomials()
        return Form(self.model.generators, {monos[m]: x for m, x in self._cochain(v)})

    def cup(self, u: ClassVector, v: ClassVector) -> ClassVector:
        """Product of classes, reduced into the representative basis."""
        p = u.degree + v.degree
        a, b = (_mask_terms(self._cochain(w)) for w in (u, v))
        return self._coordinates(_multiply(a, b, self._degree(p).masks), p)

    def unit_class(self, p: int, i: int) -> ClassVector:
        b = self.betti(p)
        if not 0 <= i < b:
            raise IndexError(f"class {i} of degree {p}: b_{p} = {b}")
        return ClassVector(p, tuple(Fraction(j == i) for j in range(b)))

    def decomposable_subspace(self, p: int) -> list[list[Fraction]]:
        """rref basis of the image of H^+ . H^+ inside H^p coordinates: the
        ``cup`` products of the unit classes paired by ``_factors(p)``."""
        rows = [list(self.cup(self.unit_class(i, g), self.unit_class(p - i, h)).coordinates)
                for i, g, h in self._factors(p)]
        return linalg.rref(rows, self.betti(p))[0]

    def indecomposables(self, p: int) -> tuple[int, tuple[ClassVector, ...]]:
        """Count and representatives of H^p / (H^+ . H^+)."""
        units = self._products(p) if p > 0 else []
        return len(units), tuple(self.unit_class(p, j) for j in units)

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
        here, above = ([sum(c) for c in combinations(A.weights, q)] if 0 <= q <= A.dimension else []
                       for q in (p, p + 1))  # in the order of _masks
        dims = Counter(here)
        for c in self._pivots(p):
            dims[here[c]] -= 1
        for c in self._pivots(p + 1):
            dims[above[c] + 1] -= 1
        return {w: dim for w, dim in sorted(dims.items()) if dim}
