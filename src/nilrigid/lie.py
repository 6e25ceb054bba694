"""Nilpotent Lie algebras by structure constants and their Sullivan models.

Conventions: structure constants are stored for index pairs l < k with the
skew extension implied, and the differential of the model is
d v_i = -sum c^i_{l,k} v_l v_k, so a bracket [x, y] = -n gives d n = x y.
Brackets are summed in Python ints over ``LieAlgebra.table``: the structure
constants, skew-extended, times ``scale``, the lcm of their denominators.
The lower central series and ``change_basis`` take each vector to ints once
and sum and eliminate its brackets as int rows, with no Fraction per bracket,
and a bracket already in a stage's integer reduced span costs one pass.
``generated_basis`` is made of brackets; basis-free answers, such as
``Cohomology.of(L)``, are computed in it.  ``sparse_basis`` is the one rule
for when: ``Cohomology`` eliminates d in the basis it picks.  The CLI's
``check``, which eliminates nothing, computes the Jacobiator, d^2 transposed,
in the cheaper ``adapted_basis``.  ``associated_graded_model`` is the one
Carnot cut, keeping the part of weight w - 1 of each d v of weight w;
``carnot`` and ``is_carnot_homogeneous`` are read off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm

from . import linalg
from .errors import ModelError, NotNilpotentError
from .forms import Form, Generator, SullivanModel, check_d_squared, monomial_weight

Vector = list[Fraction]
Vec = linalg.Vec

_ONE = Fraction(1)


class LieAlgebra:
    """A finite-dimensional Lie algebra given by rational structure constants."""

    __slots__ = ("names", "brackets", "scale", "table", "by_first")

    def __init__(self, names, brackets):
        """brackets maps index pairs (l, k) with l < k to {i: coefficient}."""
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("basis names are not unique")
        n = len(names)
        clean: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (l, k), vec in dict(brackets).items():
            if not 0 <= l < k < n:
                raise ValueError(f"bad bracket pair ({l}, {k})")
            entries = {}
            for i, c in dict(vec).items():
                if not 0 <= i < n:
                    raise ValueError(f"bracket [{l},{k}] hits unknown index {i}")
                c = c if isinstance(c, Fraction) else Fraction(c)
                if c:
                    entries[i] = c
            if entries:
                clean[(l, k)] = entries
        self.names = names
        self.brackets = clean
        self.scale = scale = lcm(*(c.denominator for vec in clean.values() for c in vec.values()))
        self.table: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.by_first: dict[int, list[tuple[int, list[tuple[int, int]]]]] = {}  # l -> [(k, row)]
        for (l, k), vec in clean.items():
            row = [(i, c.numerator * (scale // c.denominator)) for i, c in vec.items()]
            self.table[l, k], self.table[k, l] = row, [(i, -v) for i, v in row]
        for (l, k), terms in self.table.items():
            self.by_first.setdefault(l, []).append((k, terms))

    @property
    def dimension(self) -> int:
        return len(self.names)

    def bracket_basis(self, l: int, k: int) -> dict[int, Fraction]:
        """[X_l, X_k] as a sparse coordinate map (skew-extended)."""
        return self.bracket({l: _ONE}, {k: _ONE})

    def bracket(self, u: Vec, v: Vec) -> Vec:
        """Bilinear extension of the structure constants to sparse vectors:
        summed in ints over the pairs ``table`` holds, one Fraction per entry."""
        hits = [(l, k, terms) for l in u for k in v if (terms := self.table.get((l, k)))]
        if not hits:
            return {}
        (iu, du), (iv, dv) = linalg._integer(u), linalg._integer(v)
        out: dict[int, int] = {}
        for l, k, terms in hits:
            f = iu[l] * iv[k]
            for i, c in terms:
                out[i] = out.get(i, 0) + f * c
        den = self.scale * du * dv
        return {i: Fraction(x, den) for i, x in out.items() if x}

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.names == other.names
            and self.brackets == other.brackets
        )

    def __repr__(self):
        return f"LieAlgebra({', '.join(self.names)}; {len(self.brackets)} bracket pairs)"


@dataclass(frozen=True)
class SubspaceChain:
    """Lower central series as sparse rref bases in pivot order; last entry
    empty iff nilpotent."""

    subspaces: tuple[tuple[Vec, ...], ...]
    nilpotent: bool

    def dimensions(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.subspaces)


@dataclass(frozen=True)
class AdaptedBasis:
    """Columns are the new basis vectors in the old coordinates."""

    columns: tuple[tuple[Fraction, ...], ...]
    weights: tuple[int, ...]
    names: tuple[str, ...]

    def is_identity(self) -> bool:
        return all(
            col[i] == (1 if i == a else 0)
            for a, col in enumerate(self.columns)
            for i in range(len(col))
        )


def jacobi_defect(L: LieAlgebra) -> list[tuple[int, int, int, Vector]]:
    """Triples (i, j, k) where the Jacobi identity fails, with the defect
    [[X_i, X_j], X_k] + [[X_j, X_k], X_i] + [[X_k, X_i], X_j] as a dense vector.

    Defects are summed in ints over L.table and divided by L.scale^2.  Only
    L's own table is read, so this stays independent of check_d_squared.
    d^2 on generators is this list transposed, d^2 e^m the sum of v[m] e^i e^j e^k
    over the defects v at (i, j, k): the CLI's ``check`` reads its d^2 list off it.
    """
    n = L.dimension
    defects = []
    for i, j, k in combinations(range(n), 3):
        defect = [0] * n
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for x, u in L.table.get((a, b), ()):
                for y, v in L.table.get((x, c), ()):
                    defect[y] += u * v
        if any(defect):
            defects.append((i, j, k, [Fraction(v, L.scale**2) for v in defect]))
    return defects


def _ad(L: LieAlgebra, u: dict[int, int]) -> dict[int, dict[int, int]]:
    """{k: L.scale [u, e_k]} for the int row u: sparse int rows, over u's ``L.by_first``."""
    out: dict[int, dict[int, int]] = {}
    for l, f in u.items():
        for k, terms in L.by_first.get(l, ()):
            r = out.setdefault(k, {})
            for i, c in terms:
                r[i] = r.get(i, 0) + f * c
    return {k: {i: x for i, x in r.items() if x} for k, r in out.items()}


def _series(L: LieAlgebra) -> tuple[list[dict[int, Vec]], bool]:
    """Echelon bases of g = g^(0) >= [g,g] >= ..., and whether they reach 0
    (else the list ends where the series stabilizes).  g^(0) is the identity
    rows; [g,g] is spanned by the rows of ``L.table``, g^(w+1) by the ``_ad``
    rows of those of g^(w), all [u, e_k], Jacobi or not: grown shortest first
    by ``reduced_extend``, then ``to_rref``, in pivot order, so each stage is
    ``echelon``'s."""
    stages = [{i: {i: _ONE} for i in range(L.dimension)}]
    rows = [dict(terms) for (l, k), terms in L.table.items() if l < k]
    while True:
        span: dict[int, dict[int, int]] = {}
        for r in sorted(rows, key=len):
            linalg.reduced_extend(span, r)
        if len(span) == len(stages[-1]):
            return stages, False
        rows = [r for u in span.values() for r in _ad(L, u).values()]
        stages.append(linalg.to_rref({c: span[c] for c in sorted(span)}))
        if not span:
            return stages, True


def lower_central_series(L: LieAlgebra) -> SubspaceChain:
    """Chain g = g^(0) >= [g,g] >= ...; stabilizing nonzero means non-nilpotent."""
    stages, nilpotent = _series(L)
    return SubspaceChain(tuple(tuple(s.values()) for s in stages), nilpotent)


def _complete(L: LieAlgebra, candidates=lambda w, picked: ()):
    """The greedy loop of ``adapted_basis``, trying first at each weight w the
    vectors of ``candidates(w, picked)``, picked the (vector, weight) pairs
    kept so far.  Returns the kept vectors, their weights and their names."""
    stages, nilpotent = _series(L)
    if not nilpotent:
        raise NotNilpotentError("lower central series stabilizes at a nonzero subspace")
    n = L.dimension
    columns, weights, raw = [], [], []
    for w, (stage, below) in enumerate(zip(stages, stages[1:])):
        span = linalg.integer_echelon(below.values())
        # e_j lies in g^(w) iff it is the reduced row of g^(w) at pivot j
        standard = (({j: _ONE}, L.names[j]) for j in range(n) if stage.get(j) == {j: 1})
        rows = ((row, None) for row in stage.values())
        for v, name in chain(candidates(w, list(zip(columns, weights))), standard, rows):
            if len(span) == len(stage):
                break
            if linalg.integer_extend(span, v):
                raw.append(f"v{len(columns)}" if name is None else name)
                columns.append(v)
                weights.append(w)
    return columns, weights, raw


def adapted_basis(L: LieAlgebra) -> AdaptedBasis:
    """Basis adapted to the lower central series.

    At each weight w the span starts from the echelon rows of g^(w+1) and
    is completed to g^(w) greedily: first the standard vectors e_j that lie
    in g^(w), in index order and under their own names, then the echelon
    rows of g^(w), in pivot order and named ``v<position>``.  An algebra
    already given in adapted coordinates keeps the identity basis.  A name
    that is taken gets the first free suffix ``_2``, ``_3``, ... in order.
    """
    columns, weights, raw = _complete(L)
    names: list[str] = []
    for name in raw:
        base, idx = name, 1
        while name in names:
            idx += 1
            name = f"{base}_{idx}"
        names.append(name)
    return AdaptedBasis(
        columns=tuple(tuple(linalg.dense(c, L.dimension)) for c in columns),
        weights=tuple(weights),
        names=tuple(names),
    )


def generated_basis(L: LieAlgebra) -> AdaptedBasis:
    """Basis generated by brackets of a complement of [g,g] (de Graaf, 2000).

    Weight 0 is ``adapted_basis``'s; weight w >= 1 takes the brackets [x, y],
    x of weight 0 and y of weight w - 1, in order, that grow the span modulo
    g^(w+1), so the weights are ``adapted_basis``'s.  A multiple of one e_j is
    taken as e_j; if all columns are such they go in index order, so L's own
    basis up to scale and order is the identity.  Names are L's.  With one
    term per bracket of L the e_j alone complete each stage, so no bracket
    is taken: the identity at the LCS weights."""
    multiple = any(len(vec) > 1 for vec in L.brackets.values())

    def brackets(w, picked):
        for x in [x for x, u in picked if u == 0 and multiple]:
            for y in [y for y, u in picked if u == w - 1]:
                b = L.bracket(x, y)
                yield ({j: _ONE for j in b} if len(b) == 1 else b), None

    columns, weights, _ = _complete(L, brackets)
    if all(list(c.values()) == [1] for c in columns):
        columns, weights = zip(*sorted(zip(columns, weights), key=lambda cw: min(cw[0])))
    columns = tuple(tuple(linalg.dense(c, L.dimension)) for c in columns)
    return AdaptedBasis(columns, tuple(weights), L.names)


def sparse_basis(L: LieAlgebra) -> AdaptedBasis | None:
    """The basis that ``Cohomology`` eliminates in: ``generated_basis(L)``
    when a bracket of two basis vectors has several terms, or None, for L's
    own, when none has, L is not nilpotent or that basis is the identity."""
    if all(len(vec) == 1 for vec in L.brackets.values()):
        return None
    try:
        basis = generated_basis(L)
    except NotNilpotentError:
        return None
    return None if basis.is_identity() else basis


def trivial_basis(L: LieAlgebra, weights=None) -> AdaptedBasis:
    """Identity change of basis with declared (default zero) weights."""
    weights = (0,) * L.dimension if weights is None else tuple(weights)
    return AdaptedBasis(tuple(map(tuple, linalg.identity(L.dimension))), weights, L.names)


def change_basis(L: LieAlgebra, basis: AdaptedBasis) -> LieAlgebra:
    """Structure constants rewritten in the columns of the given basis."""
    n = L.dimension
    columns = [linalg.sparse(col) for col in basis.columns]
    solver = linalg.ColumnSolver(columns, n)
    if solver.rank < n:
        raise ValueError("change of basis matrix is singular")
    ints = [linalg._integer(col) for col in columns]
    brackets = {}
    for a, (ia, da) in enumerate(ints):
        ad = _ad(L, ia)
        for b, (ib, db) in enumerate(ints[a + 1:], a + 1):
            old: dict[int, int] = {}  # L.scale da db [x_a, x_b], on ints
            for k, f in ib.items():
                for i, c in ad.get(k, {}).items():
                    old[i] = old.get(i, 0) + f * c
            if old := {i: x for i, x in old.items() if x}:
                den = L.scale * da * db
                brackets[(a, b)] = {j: x / den for j, x in enumerate(solver.solve(old)) if x}
    return LieAlgebra(basis.names, brackets)


def _in_basis(L: LieAlgebra, basis: AdaptedBasis) -> LieAlgebra:
    """``change_basis(L, basis)``, or L itself when the basis is its own under its names."""
    return L if basis.is_identity() and basis.names == L.names else change_basis(L, basis)


def carnot(L: LieAlgebra, basis: AdaptedBasis | None = None) -> LieAlgebra:
    """Associated Carnot-graded algebra in the given (default: computed)
    adapted basis: the algebra of ``associated_graded_model(ce_model(L, basis))``.
    """
    return _lie_of(associated_graded_model(ce_model(L, basis)))


def ce_model(L: LieAlgebra, basis: AdaptedBasis | None = None) -> SullivanModel:
    """Chevalley-Eilenberg/Sullivan model of L in the given adapted basis."""
    if basis is None:
        basis = adapted_basis(L)
    Lb = _in_basis(L, basis)
    gens = tuple(
        Generator(name, idx, weight)
        for idx, (name, weight) in enumerate(zip(basis.names, basis.weights))
    )
    # d e^i has the term -c e^l e^k for each c e_i in [e_l, e_k], in bracket order
    terms = [{} for _ in gens]
    for (l, k), vec in Lb.brackets.items():
        for i, c in vec.items():
            if c:
                terms[i][(l, k)] = -c
    return SullivanModel(gens, [Form(gens, t) for t in terms])


def lie_from_model(A: SullivanModel) -> LieAlgebra:
    """Inverse of ce_model with the same sign convention."""
    defects = check_d_squared(A)
    if defects:
        names = ", ".join(g.name for g, _ in defects)
        raise ModelError(f"d^2 != 0 on {names}", defects=defects)
    return _lie_of(A)


def _lie_of(A: SullivanModel) -> LieAlgebra:
    """The algebra of ``lie_from_model``, read off d whether or not d^2 = 0."""
    brackets = {}
    for i, df in enumerate(A.differential):
        for (l, k), c in df.terms.items():
            brackets.setdefault((l, k), {})[i] = -c
    return LieAlgebra(tuple(g.name for g in A.generators), brackets)


def is_carnot_homogeneous(A: SullivanModel) -> bool:
    """True iff A is its own ``associated_graded_model``."""
    return associated_graded_model(A) == A


def associated_graded_model(A: SullivanModel) -> SullivanModel:
    """Keep only the weight-homogeneous part of weight(v) - 1 in each d v."""
    gens = A.generators
    differential = []
    for g, df in zip(gens, A.differential):
        terms = {
            mono: c
            for mono, c in df.terms.items()
            if monomial_weight(gens, mono) == g.weight - 1
        }
        differential.append(Form(gens, terms))
    return SullivanModel(gens, differential)
