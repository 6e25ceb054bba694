"""Exact cohomology of a Sullivan model.

Betti numbers, deterministic representative bases, cup products,
indecomposable (algebra generator) counts and the weight refinement for
Carnot-homogeneous differentials.  All elimination is exact, fraction-free
on integers with rational results, so every reported number is exact.
``Cohomology.of(L, basis)`` is the one entry from a Lie algebra; it names a
d^2 defect in L's own basis.  Each d_p is built in a basis where it is sparse
(see ``Cohomology``): a Betti number alone eliminates d_p for its rank and keeps
that int; classes eliminate d_p with its kernel and keep B^(p+1), whose pivots
are the rank, and Z^p; if d_(n-1) = 0, only p <= (n-1)/2, since Z^q = ann(B^(n-q))
and B^(q+1) = ann(Z^(n-1-q)) under e_m . e_(comp m) = (-1)^(sum m - k(k-1)/2)
e_top, which pairs weight s with W - s, W the weight of e_top: the weight split
counts rank d_q leaving s as the pivots of B^(n-q) at W - s, and the self-dual
rank, 2q + 1 = n, is read off one torus block of each pair.  Indecomposables come
from integer cochain spans, grown by products in standard-monomial order, none
of a torus weight whose classes are spanned (see ``_factors``, ``_grading``).
d and every cup product are computed by the exterior-algebra kernel of
``forms``, on monomials as bitmasks: row j of a degree-p cochain is the j-th
mask of ``_masks``, each column of d is one ``_derive`` and each product one
``_multiply``; index tuples exist only inside a ``Form``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations
from math import comb, lcm
from operator import add, itemgetter, mul, sub

from . import linalg
from .errors import DomainMismatchError, ModelError, NotClosedError
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
from .lie import (AdaptedBasis, LieAlgebra, _in_basis, _lie_of, ce_model, generated_basis,
                  is_carnot_homogeneous, sparse_basis, trivial_basis)


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
    When d = 0 (``A.live == 0``) the columns are empty and no mask is listed.
    """
    if not A.live and p >= 0:
        return [{} for _ in range(comb(A.dimension, p))]
    index = _mask_index(A.dimension, p + 1)
    return [_derive(A, mask, index) for mask in _masks(A.dimension, p)]


def _annihilator(S: dict[int, dict[int, int]], n: int, k: int) -> dict[int, dict[int, int]]:
    """The integer reduced basis of ann(S) in Lambda^(n-k), S one in Lambda^k, under
    e_m . e_(comp m) = eps(m) e_top, eps(m) = (-1)^(sum m - k(k-1)/2).  comp takes
    the j-th mask of degree k to the (C(n,k)-1-j)-th, so each non-pivot column j
    of S gives the row at C(n,k)-1-j: L there, -eps(m_c) eps(m_j) x L / a_c at
    C(n,k)-1-c for each row c of S with x at j, L the lcm of their pivots a_c."""
    masks, odd = _masks(n, k), sum(1 << i for i in range(1, n, 2))  # (-1)^|m & odd| = (-1)^(sum m)
    top, holding, out = len(masks) - 1, {}, {}
    for c, r in S.items():
        for j, x in r.items():
            holding.setdefault(j, []).append((c, x))
    for j in sorted(set(range(top + 1)).difference(S), reverse=True):  # non-pivot columns
        out[top - j] = row = {top - j: 1}
        if hits := holding.get(j):  # so no row holding j has its pivot there
            row[top - j] = L = lcm(*(S[c][c] for c, _ in hits))
            for c, x in hits:  # -eps(m_c) eps(m_j) x L / a_c
                v = x * L // S[c][c]
                row[top - c] = v if ((masks[c] ^ masks[j]) & odd).bit_count() & 1 else -v
            linalg._remove_content(row)
    return out


def _grading(A: SullivanModel) -> list[list[int]]:
    """An integer basis of A's maximal diagonal grading, the w with w_i = w_a + w_b for
    each term v_a v_b of d v_i (Favre 1973): w_i is w_a + w_b by d v_i's first term if
    a, b < i, else a parameter, and the other terms are integer rows on the parameters,
    whose kernel w runs over; empty once they reach full rank, as on dense conjugates."""
    n, W, basis = A.dimension, [], {}
    for i, terms in enumerate(A.table):
        ab = terms[0][0] if terms else 1 << i
        W.append([0] * i + [1] + [0] * (n - i - 1) if ab >> i  # w_i over the parameters
                 else list(map(add, W[(ab & -ab).bit_length() - 1], W[ab.bit_length() - 1])))
    params = [i for i, w in enumerate(W) if w[i]]
    for i, terms in enumerate(A.table):
        for ab, _, _ in terms[not W[i][i]:]:  # w_a + w_b - w_i on the parameters
            row = map(sub, map(add, W[(ab & -ab).bit_length() - 1], W[ab.bit_length() - 1]), W[i])
            if linalg.integer_extend(basis, dict(filter(itemgetter(1), enumerate(row)))) \
                    and len(basis) == len(params):
                return []
    if not basis:  # no constraint: a weight per parameter
        return [[w[f] for w in W] for f in params]
    L = lcm(*(r[c] for c, r in linalg._back_substitute(basis).items()))
    kernel = [[L if x == f else -basis[x].get(f, 0) * L // basis[x][x] if x in basis else 0
               for x in range(n)] for f in params if f not in basis]  # k, one per free f
    return [[sum(map(mul, w, k)) for w in W] for k in kernel]


def _packed(A: SullivanModel) -> list[int]:
    """Each generator's weight under ``_grading(A)`` as one int in base 2nM + 1, M its
    largest entry: sums of n weights, in [-nM, nM], share a key only if equal."""
    grading, n = _grading(A), A.dimension
    base, keys = 2 * n * max(map(abs, chain.from_iterable(grading)), default=0) + 1, [0] * n
    for w in reversed(grading):  # Horner's rule
        keys = [key * base + x for key, x in zip(keys, w)]
    return keys


def _inverse_images(basis: AdaptedBasis) -> list[Terms]:
    """The rows of D G^-1 as term lists, G the basis columns: row a is D phi(f^a), f^a a
    generator of ``ce_model(L, basis)``.  Row a of the integer reduced basis of the rows
    (row i of G | e_i) is a_a (e_a | row a of G^-1), primitive, so D = lcm a_a clears G^-1."""
    n = len(basis.columns)
    reduced = linalg._back_substitute(linalg.integer_echelon(
        {**{a: col[i] for a, col in enumerate(basis.columns) if col[i]}, n + i: 1}
        for i in range(n)))
    D = lcm(*(r[a] for a, r in reduced.items()))
    return [_mask_terms((1 << j - n, x * (D // r[a])) for j, x in sorted(r.items()) if j >= n)
            for a, r in reduced.items()]


class _Classes:
    """One degree's representatives as int rows by pivot; solver, weights, terms built on use."""

    __slots__ = ("masks", "vectors", "solver", "weights", "terms")


class Cohomology:
    """Cohomology ring of a valid Sullivan model, computed degree by degree.

    ``Cohomology.of`` is the front door from a Lie algebra; a model whose
    brackets of basis vectors are one term each builds no algebra.  d is
    eliminated in the basis that ``lie.sparse_basis`` picks for the model's
    algebra: its generated basis, where d is sparse, or the model's own.
    d^2 = 0 is checked there; a defect is computed again only to name it.
    d_p is built on ints as D * d.  A rank asked for alone is counted from an
    integer echelon basis of B^(p+1) and kept as an int, the rest dropped;
    classes eliminate d_p once, with its kernel, and keep B^(p+1), whose pivots
    are then the rank, and Z^p until read.  If d_(n-1) = 0, only p <= (n-1)/2
    is: above, Z^p = ann(B^(n-p)), B^(p+1) = ann(Z^(n-1-p)) under eps (``_annihilator``).
    The representatives are the rows of the integer reduced basis of Z^p
    whose pivot is not one of B^p, as ints; class coordinates and forms read
    them over their pivot entry, the unique reduced basis.  From the
    generated basis, B^p and Z^p are pushed by phi, Lambda^p of the inverse
    change of basis, and eliminated again, so the representatives are the
    model's own.  The model in its own basis and the images of phi are built
    on first read, so Betti numbers build only the model they eliminate and
    solve nothing.  The weight refinement counts the model's B^p pivots.
    Classes are solved against the representatives and the rows of B^p, a
    basis of Z^p: membership is closedness.  Indecomposables need no solve.
    A ``Form`` is built only where a caller reads one.
    """

    def __init__(self, model: SullivanModel):
        pairs = [ab for terms in model.table for ab, _, _ in terms]
        multiple = len(set(pairs)) < len(pairs)  # a bracket of two basis vectors has two terms
        self._start(_lie_of(model) if multiple else None, lambda: model, lambda: model)

    @classmethod
    def of(cls, L: LieAlgebra, basis: AdaptedBasis | None = None) -> Cohomology:
        """The cohomology of ``ce_model(L, basis)``, L being changed to that
        basis once; with no basis, that of L in ``generated_basis(L)``,
        eliminated as it stands, so the model's weights are the LCS weights.
        A d^2 defect is named in L's own basis, as ``check`` names it."""
        pushed, basis = basis is not None, basis or generated_basis(L)
        M, H = _in_basis(L, basis), cls.__new__(cls)
        H._start(M if pushed else None, lambda: ce_model(M, trivial_basis(M, basis.weights)),
                 lambda: ce_model(L, trivial_basis(L)))
        return H

    def _start(self, L: LieAlgebra | None, model, named):
        """Eliminate in ``sparse_basis(L)``, L the algebra of the model
        ``model()`` (None: the model as it stands), which is then built on
        first read; a d^2 defect is named in the model ``named()``."""
        self._build = model
        self._basis = None if L is None else sparse_basis(L)  # None: eliminate the model
        self._eliminated = self.model if self._basis is None else ce_model(L, self._basis)
        self._ones: list[Terms] | None = None  # D phi(f^a), built by the first _push
        self._pushed: dict[int, dict[int, dict[int, int]]] = {}
        self._images: list[list[dict[int, int]]] = [[{0: 1}]]  # by degree
        if check_d_squared(self._eliminated):
            defects = check_d_squared(named())
            names = ", ".join(g.name for g, _ in defects)
            raise ModelError(f"d^2 != 0 on {names}", defects=defects)
        self._ranks = {-1: 0, self._eliminated.dimension: 0}  # rank d_p alone; d_-1, d_n are 0
        self._echelons: dict[int, dict[int, dict[int, int]]] = {}  # B^p, for classes
        self._kernels: dict[int, dict[int, dict[int, int]]] = {}  # Z^p, until read
        self._data: dict[int, _Classes] = {}
        self._units: dict[int, list[int]] = {}
        self._grown: dict[int, list[tuple[tuple[int, int], Terms, int]]] = {}

    @cached_property
    def model(self) -> SullivanModel:
        """The model whose cohomology this is, in its own basis."""
        return self._build()

    @cached_property
    def _keys(self) -> list[int]:  # each generator's packed weight in the model (``_packed``)
        return _packed(self.model)

    def _weight(self, mask: int) -> int:
        """The packed weight of a monomial: the sum of its generators' keys."""
        keys, w = self._keys, 0
        while mask:
            w += keys[(low := mask & -mask).bit_length() - 1]
            mask ^= low
        return w

    # -- internal ----------------------------------------------------------

    @cached_property
    def _unimodular(self) -> bool:
        """Whether d_(n-1) = 0 (g unimodular); its rank, 0 or 1 (one row), is kept."""
        n = self._eliminated.dimension
        self._ranks[n - 1] = int(any(cochain_matrix(self._eliminated, n - 1)))
        return not self._ranks[n - 1]

    def _mirrored(self, p: int) -> bool:
        """Whether d_p is read off d_(n-1-p): p > (n-1)/2 and d_(n-1) = 0 (g unimodular)."""
        return 2 * p >= self._eliminated.dimension and self._unimodular

    def _rank(self, p: int) -> int:
        """rank d_p: the pivots of B^(p+1) if classes eliminated d_p, rank d_(n-1-p) if
        mirrored, else ``_rank_alone(p)``, kept in ``_ranks``."""
        if p + 1 in self._echelons:
            return len(self._echelons[p + 1])
        if self._mirrored(p):
            return self._rank(self._eliminated.dimension - 1 - p)
        if p not in self._ranks:
            self._ranks[p] = self._rank_alone(p)
        return self._ranks[p]

    def _rank_alone(self, p: int) -> int:
        """rank d_p from an elimination that keeps nothing.  In the self-dual degree,
        2p + 1 = n, it is read off torus blocks if d_(n-1) = 0 and the model eliminated is
        graded: d_p is its own transpose twisted by eps, which pairs weight s of Lambda^p
        with W - s of Lambda^(p+1), so the blocks at s and W - s have one rank; of each
        pair, the one with fewer columns (ties: the smaller key) is eliminated, twice."""
        A, n = self._eliminated, self._eliminated.dimension
        if 2 * p + 1 != n or not A.live or not self._unimodular \
                or not any(keys := self._keys if self._basis is None else _packed(A)):
            return len(linalg.integer_echelon(cochain_matrix(A, p)))  # d = 0: no mask listed
        weights, top, columns = list(map(sum, combinations(keys, p))), sum(keys), ([], [])
        sizes, index = Counter(weights), _mask_index(n, p + 1)  # no columns at W - s: no rows
        kept = {w for w, k in sizes.items() if (k, w) <= (sizes.get(top - w, 0), top - w)}
        for mask, w in zip(_masks(n, p), weights):
            if w in kept:  # blocks have disjoint rows; one at s = W - s is counted once
                columns[2 * w == top].append(_derive(A, mask, index))
        return 2 * len(linalg.integer_echelon(columns[0])) + len(linalg.integer_echelon(columns[1]))

    def _boundaries(self, p: int) -> dict[int, dict[int, int]]:
        """An integer echelon basis of B^p, by pivot, for classes: ann(Z^(n-p)) if
        d_(p-1) is mirrored, else from one elimination of d_(p-1) with its kernel Z^(p-1)."""
        if p not in self._echelons:
            n = self._eliminated.dimension
            if p <= 0:
                self._echelons[p] = {}
            elif self._mirrored(p - 1):
                self._echelons[p] = _annihilator(self._cocycles(n - p), n, n - p) if p <= n else {}
            else:
                self._echelons[p], self._kernels[p - 1] = linalg.image_and_kernel(
                    cochain_matrix(self._eliminated, p - 1), comb(n, p))
        return self._echelons[p]

    def _cocycles(self, p: int) -> dict[int, dict[int, int]]:
        """The integer reduced basis of Z^p: ann(B^(n-p)) if d_p is mirrored, else d_p's kernel."""
        n = self._eliminated.dimension
        if self._mirrored(p):
            return _annihilator(linalg._back_substitute(self._boundaries(n - p)), n, n - p)
        if p not in self._kernels:  # d_p not eliminated yet
            self._boundaries(p + 1)
        keep = p not in self._data and n - p not in self._echelons and self._mirrored(n - 1 - p)
        return self._kernels[p] if keep else self._kernels.pop(p)  # read by _degree(p), B^(n-p)

    def _pivots(self, p: int) -> dict[int, dict[int, int]]:
        """An integer echelon basis of B^p in the model's basis, by pivot."""
        if self._basis is None:
            return self._boundaries(p)
        if p not in self._pushed:
            self._pushed[p] = linalg.integer_echelon(self._push(self._boundaries(p).values(), p))
        return self._pushed[p]

    def _push(self, rows, p: int):
        """D^p phi(v) by monomial index for each cochain v of degree p of the
        eliminated model in ``rows``, made a primitive integer row first.  The
        image of each monomial m is built once: that of m without its last
        index times that of its last generator, one ``_multiply``."""
        if self._ones is None:
            self._ones = _inverse_images(self._basis)
        n = self._eliminated.dimension
        for q in range(len(self._images), p + 1):
            below = _masks(n, q - 1)
            head = {m: _mask_terms((below[j], c) for j, c in image.items())
                    for m, image in zip(below, self._images[q - 1])}
            index = _mask_index(n, q)  # m's last index: its top bit
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
        cocycles = self._cocycles(p)
        if self._basis is not None:  # Z^p in the model's basis, reduced
            cocycles = linalg._back_substitute(linalg.integer_echelon(
                self._push(cocycles.values(), p)))
        coboundaries = self._pivots(p)
        data = _Classes()
        data.masks = _mask_index(self._eliminated.dimension, p)  # the rows of cochains
        data.vectors = {c: v for c, v in cocycles.items() if c not in coboundaries}
        data.solver = data.weights = data.terms = None
        self._data[p] = data
        return data

    def _coordinates(self, v: dict[int, Fraction | int], p: int) -> ClassVector:
        """Class of the cochain v of degree p, by monomial index; refused unless closed."""
        data = self._degree(p)
        if data.solver is None:
            columns = list(data.vectors.values()) + list(self._pivots(p).values())
            data.solver = linalg.ColumnSolver(columns, len(data.masks))
        x = data.solver.solve(v)
        if x is None:
            masks, monos = list(data.masks), _Monomials()
            f = Form(self.model.generators, {monos[masks[j]]: c for j, c in v.items()})
            raise NotClosedError("form is not closed", differential=self.model.d(f))
        return ClassVector(p, tuple(y * r[c] for y, (c, r) in zip(x, data.vectors.items())))

    def _weights(self, p: int, masks: list[int]) -> list[int]:
        """The packed weight of each (homogeneous) representative of degree p: its pivot's."""
        data = self._degree(p)
        data.weights = data.weights or [self._weight(masks[c]) for c in data.vectors]
        return data.weights

    def _terms(self, p: int) -> list[tuple[Terms, int]]:
        """The representatives of degree p as primitive integer kernel terms, with weights."""
        data = self._degree(p)
        if data.terms is None:
            masks = list(data.masks)
            data.terms = [(_mask_terms((masks[j], c) for j, c in v.items()), w)
                          for v, w in zip(data.vectors.values(), self._weights(p, masks))]
        return data.terms

    def _factors(self, p: int, missing: dict[int, int]):
        """(label, a, b, w): kernel terms a of an indecomposable g of degree i <= p / 2
        and b of a class h of degree p - i, label (i, g) (degree, position), w the
        weight of g . h: the products g . h span H^+ . H^+ in degree p, as do the
        products of two or more indecomposables, least factor first.  Once
        ``_products(p - i)`` has split H^(p-i), h runs over its indecomposables and
        the products that grew its span, labelled by themselves and by their least
        factor g', and only when that label is >= (i, g), > for odd i: if (i', g') <
        (i, g), g . (g' . h') = +-g' . (g . h') is spanned, by induction on the
        label.  Elsewhere h runs over the unit classes; if 3i > p, only the
        indecomposables of degree p - i are needed, and it is split first.  A pair
        is skipped if ``missing`` has no class at w: g . h would not grow the span."""
        for i in range(1, p // 2 + 1):
            q = p - i
            units = self._products(q) if 3 * i > p or q in self._units else range(
                len(self._degree(q).vectors))
            seconds = [((q, u), *self._terms(q)[u]) for u in units] + self._grown.get(q, [])
            for g in self._products(i) if seconds else ():
                (a, v), least = self._terms(i)[g], (i, g + i % 2)
                for label, b, u in seconds:
                    if label >= least and missing.get(v + u):
                        yield (i, g), a, b, v + u

    def _products(self, p: int) -> list[int]:
        """Positions of the indecomposables of degree p among its unit classes.

        One span of cochains, an integer reduced basis, starts as
        ``linalg._back_substitute`` of a copy of the integer basis of B^p.
        Each product of ``_factors(p)`` is one ``_multiply`` of integer kernel
        terms, which ``linalg.reduced_extend`` clears in one pass and adds if
        it grows the span, until it has dim Z^p = len(B^p) + b_p rows; those
        that grow it are kept in ``_grown``, labelled and with their weight; by
        weight, ``missing`` counts representatives less those products.  A product
        whose terms all lie on rows e_j of the span, offered as products of one
        term, is skipped.  The unit classes whose cocycles extend the span, in
        order, represent H^p / (H^+ . H^+), and it ends as Z^p exactly when every
        product in it is closed, else NotClosedError is raised.
        """
        if p in self._units:
            return self._units[p]
        data = self._degree(p)
        span = linalg._back_substitute({c: dict(r) for c, r in self._pivots(p).items()})
        full = len(span) + len(data.vectors)
        masks, grown, known = list(data.masks), [], set()  # known: rows j with e_j in the span
        missing = dict(Counter(self._weights(p, masks)))
        for label, a, b, w in self._factors(p, missing) if data.vectors else ():
            v = _multiply(a, b, data.masks)
            if known.issuperset(v):  # zero, or each e_j in the span
                continue
            if len(v) == 1:
                known.update(v)
            if linalg.reduced_extend(span, v):
                grown.append((label, _mask_terms((masks[j], c) for j, c in v.items()), w))
                missing[w] -= 1
                if len(span) == full:
                    break
        units = [j for j, v in enumerate(data.vectors.values()) if linalg.reduced_extend(span, v)]
        if len(span) != full:
            raise NotClosedError(f"a product of classes in degree {p} is not closed")
        self._units[p], self._grown[p] = units, grown
        return units

    # -- public api --------------------------------------------------------

    def betti(self, p: int) -> int:
        """dim Lambda^p - rank d_p - rank d_(p-1) (see ``_rank``).  If d_(n-1) = 0 (g
        unimodular), d_(n-1-p) is -(-1)^p d_p transposed, twisted by the signs eps of the
        wedge pairing (Hazewinkel 1970), so only p <= (n-1)/2 is eliminated, the rest read
        as rank d_(n-1-p); if n is odd, d_q, q = (n-1)/2, on one torus block of each pair."""
        n = self._eliminated.dimension
        return comb(n, p) - self._rank(p) - self._rank(p - 1) if 0 <= p <= n else 0

    def betti_vector(self) -> tuple[int, ...]:
        """b_0..b_n (see ``betti``)."""
        return tuple(map(self.betti, range(self._eliminated.dimension + 1)))

    def basis(self, p: int) -> list[Form]:
        """Closed representative forms mapping to a basis of H^p."""
        if p < 0 or p > self.model.dimension:
            return []
        return [self.form_of(self.unit_class(p, i)) for i in range(len(self._degree(p).vectors))]

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
        for c, (pivot, vec) in zip(v.coordinates, data.vectors.items()):
            if c:
                q = Fraction(c, vec[pivot])  # the representative is vec / its pivot entry
                for j, x in vec.items():
                    out[j] = out.get(j, 0) + q * x
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
        b = len(self._degree(p).vectors) if 0 <= p <= self._eliminated.dimension else 0
        if not 0 <= i < b:
            raise IndexError(f"class {i} of degree {p}: b_{p} = {b}")
        return ClassVector(p, (linalg._ZERO,) * i + (linalg._ONE,) + (linalg._ZERO,) * (b - i - 1))

    def decomposable_subspace(self, p: int) -> list[list[Fraction]]:
        """rref basis of the image of H^+ . H^+ inside H^p coordinates: the
        class coordinates of the products that grew the span of
        ``_products(p)``, which span it."""
        self._products(p)
        index = self._degree(p).masks
        rows = [list(self._coordinates({index[m]: c for m, _, c in b}, p).coordinates)
                for _, b, _ in self._grown[p]]
        return linalg.rref(rows, self.betti(p))[0]

    def indecomposables(self, p: int) -> tuple[int, tuple[ClassVector, ...]]:
        """Count and representatives of H^p / (H^+ . H^+)."""
        units = self._products(p) if p > 0 else []
        return len(units), tuple(self.unit_class(p, j) for j in units)

    def betti_by_weight(self, p: int) -> dict[int, int]:
        """H^p split by total lower degree; requires a Carnot-homogeneous d.

        d then maps weight s of Lambda^q to weight s - 1 of Lambda^(q+1), so the pivot
        set of B^(q+1), which does not depend on the echelon basis it is read from, is
        the union of those of the weight blocks: the rank of d_q leaving weight s is the
        number of its pivots at weight s - 1.  If d_q is mirrored (see ``_rank``),
        pairing weight w with W - w, W the sum of the weights, takes that block to the
        one of d_(n-1-q) leaving W - s + 1: the pivots of B^(n-q) at W - s.
        """
        A = self.model
        if not is_carnot_homogeneous(A):
            raise ModelError("differential is not Carnot-homogeneous")
        n, top = A.dimension, sum(A.weights)
        if not 0 <= p <= n:
            return {}

        @cache  # n = 2p reads B^p twice
        def pivots(k: int) -> list[int]:  # the weights of the pivots of the model's B^k
            weights = [sum(c) for c in combinations(A.weights, k)]  # in the order of _masks
            return [weights[c] for c in linalg.integer_echelon(cochain_matrix(A, k - 1))]

        dims = Counter(map(sum, combinations(A.weights, p)))
        for q in (p, p - 1):  # rank d_q leaving weight s, taken from weight s + q - p
            if self._mirrored(q):
                dims.subtract(top - w + q - p for w in pivots(n - q))
            else:
                dims.subtract(w + 1 + q - p for w in pivots(q + 1))
        return {w: dim for w, dim in sorted(dims.items()) if dim}
