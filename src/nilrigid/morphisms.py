"""Morphism verification, perturbation normalization and invariants.

Nothing here searches for isomorphisms: given maps are verified or refuted
with explicit witnesses, fingerprints collect the invariants that must agree
(``Cohomology.of(L)`` picks the basis they are computed in, so nothing here
holds basis code), and the 2-form decomposability criterion decides the
bilinear obstruction used to separate the five-dimensional pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cohomology import Cohomology
from .errors import FamilyShapeError
from .forms import Form, SullivanModel, apply_differential, product, wedge
from .lie import LieAlgebra

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class GeneratorMap:
    """Images of the source generators, one degree-1 form in the target each."""

    images: tuple[Form, ...]


@dataclass(frozen=True)
class MorphismResult:
    ok: bool
    stage: str = "ok"
    generator: str | None = None
    witness: Form | None = None

    def __bool__(self):
        return self.ok


def map_form(phi: GeneratorMap, dst: SullivanModel, f: Form) -> Form:
    """Multiplicative extension of the generator images applied to f."""
    out = Form.zero(dst.generators)
    for mono, coeff in f.terms.items():
        out = out + product(dst.generators, (phi.images[idx] for idx in mono)).scale(coeff)
    return out


def verify_cdga_morphism(
    src: SullivanModel, dst: SullivanModel, phi: GeneratorMap
) -> MorphismResult:
    """Check that phi commutes with the differentials and is invertible.

    Failure is a value: the first failing generator and the nonzero
    difference phi(d v) - d(phi v), or the singular coefficient matrix stage.
    """
    if len(phi.images) != len(src.generators):
        return MorphismResult(False, stage="shape")
    for img in phi.images:
        if img.gens != dst.generators:
            return MorphismResult(False, stage="shape")
        if not img.is_zero() and img.degree() != 1:
            return MorphismResult(False, stage="shape")
    for g, df in zip(src.generators, src.differential):
        lhs = map_form(phi, dst, df)
        rhs = apply_differential(dst, phi.images[g.index])
        diff = lhs - rhs
        if not diff.is_zero():
            return MorphismResult(False, stage="differential", generator=g.name, witness=diff)
    if len(src.generators) != len(dst.generators):
        return MorphismResult(False, stage="invertibility")
    n = len(src.generators)
    rows = ({j: c for (j,), c in img.terms.items()} for img in phi.images)  # 1-forms or 0
    if len(linalg.integer_echelon(rows)) != n:
        return MorphismResult(False, stage="invertibility")
    return MorphismResult(True)


@dataclass(frozen=True)
class Normalization:
    """Result of absorbing a top-generator perturbation into shifts of n_i."""

    map: GeneratorMap
    normalized: SullivanModel
    residual: Fraction


def _family_shape(A: SullivanModel):
    """Split generators as (x list, n list, m) for the two-parameter shape."""
    xs = [g for g in A.generators if g.weight == 0]
    ns = [g for g in A.generators if g.weight == 1]
    ms = [g for g in A.generators if g.weight == 2]
    if len(ms) != 1 or not ns or len(xs) + len(ns) + 1 != len(A.generators):
        raise FamilyShapeError("expected generators of weights 0, 1 and a single weight-2 one")
    q = len(xs)
    if len(ns) + 1 not in (q, q - 1) or (len(ns) + 1) % 2:
        raise FamilyShapeError("generator counts do not match the family (2k or 2k+1, 2k-1, 1)")
    for x in xs:
        if not A.differential[x.index].is_zero():
            raise FamilyShapeError(f"d {x.name} != 0")
    for i, ngen in enumerate(ns):
        expected = Form(A.generators, {(xs[i].index, xs[i + 1].index): 1})
        if A.differential[ngen.index] != expected:
            raise FamilyShapeError(f"d {ngen.name} is not x_{i + 1} x_{i + 2}")
    return xs, ns, ms[0]


def normalize_perturbation(A: SullivanModel) -> Normalization:
    """Remove the quadratic perturbation of d m by shifting the n_i.

    The returned map sends A onto the model with
    d m = sum x_i n_i (+ x_{2k} x_{2k+1} when the residual coefficient was
    nonzero; a rescaling of x_{2k+1} makes that coefficient 1).
    """
    xs, ns, m = _family_shape(A)
    gens = A.generators
    q = len(xs)
    two_k = len(ns) + 1
    base = Form.zero(gens)
    for x, ngen in zip(xs, ns):
        base = base + Form.generator(gens, x.index) * Form.generator(gens, ngen.index)
    p = A.differential[m.index] - base
    xset = {x.index for x in xs}
    for mono in p.terms:
        if not set(mono) <= xset:
            raise FamilyShapeError("perturbation is not quadratic in the weight-0 generators")
    # t[i][j] over 0-based x positions, i < j
    xpos = {x.index: i for i, x in enumerate(xs)}
    t: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in p.terms.items():
        t[(xpos[a], xpos[b])] = c
    residual = t.get((two_k - 1, q - 1), _ZERO) if q == two_k + 1 else _ZERO

    images = [Form.generator(gens, g.index) for g in gens]
    for j, ngen in enumerate(ns):
        shift = Form.zero(gens)
        for j2 in range(j + 1, q):
            c = t.get((j, j2), _ZERO)
            if c:
                if j2 == q - 1 and q == two_k + 1 and residual:
                    c = c / residual
                shift = shift + Form.generator(gens, xs[j2].index).scale(c)
        images[ngen.index] = images[ngen.index] - shift
    if residual:
        images[xs[q - 1].index] = Form.generator(gens, xs[q - 1].index).scale(
            _ONE / residual
        )

    dm = base
    if residual:
        dm = dm + Form(gens, {(xs[two_k - 1].index, xs[q - 1].index): 1})
    differential = list(A.differential)
    differential[m.index] = dm
    normalized = SullivanModel(gens, differential)
    return Normalization(GeneratorMap(tuple(images)), normalized, residual)


@dataclass(frozen=True)
class Decomposability:
    """Outcome of the rank test on the skew coefficient matrix of a 2-form."""

    decomposable: bool
    rank: int
    witness: tuple[Form, Form] | None
    square: Form


def is_decomposable_2form(w: Form) -> Decomposability:
    """Decide whether w = u ^ v for 1-forms u, v.

    Decomposable iff the skew coefficient matrix has rank <= 2 iff w ^ w = 0;
    the nonzero square is returned as the refutation certificate.
    """
    gens = w.gens
    if not w.is_zero() and w.degree() != 2:
        raise ValueError("decomposability test needs a homogeneous 2-form")
    square = wedge(w, w)
    rows: dict[int, dict[int, Fraction]] = {}  # the nonzero rows of the skew matrix
    for (a, b), c in w.terms.items():
        rows.setdefault(a, {})[b] = c
        rows.setdefault(b, {})[a] = -c
    r = len(linalg.integer_echelon(rows.values()))
    if r > 2:
        return Decomposability(False, r, None, square)
    if r == 0:
        zero = Form.zero(gens)
        return Decomposability(True, 0, (zero, zero), square)
    # rank 2: if M = u v^T - v u^T then row_a ^ row_b = M_ab (u ^ v)
    (a, b), pivot = min(w.terms.items())
    u = Form(gens, {(j,): c for j, c in rows[a].items()})
    v = Form(gens, {(j,): c / pivot for j, c in rows[b].items()})
    assert wedge(u, v) == w
    return Decomposability(True, r, (u, v), square)


@dataclass(frozen=True)
class Fingerprint:
    """Invariants any isomorphic pair must share; equality is necessary only."""

    dimension: int
    lcs_quotients: tuple[int, ...]
    betti: tuple[int, ...]
    indecomposables: tuple[int, ...]


def fingerprint(L: LieAlgebra, max_indec_degree: int | None = None) -> Fingerprint:
    """Invariant tuple of a validated nilpotent Lie algebra, computed by
    ``Cohomology.of(L)``, whose model's weights give the LCS quotients.
    Indecomposables, in degrees 1..max_indec_degree (all when None), are counted
    before the Betti numbers, which then read the ranks of their eliminations."""
    if max_indec_degree is not None and max_indec_degree < 0:
        raise ValueError(f"the indecomposable degree bound must be >= 0, got {max_indec_degree}")
    H = Cohomology.of(L)
    weights = H.model.weights
    n = L.dimension
    top = n if max_indec_degree is None else min(n, max_indec_degree)
    indecomposables = tuple(H.indecomposables(p)[0] for p in range(1, top + 1))
    return Fingerprint(
        dimension=n,
        lcs_quotients=tuple(weights.count(w) for w in range(max(weights) + 1)),
        betti=H.betti_vector(),
        indecomposables=indecomposables,
    )


@dataclass(frozen=True)
class RingIsoResult:
    ok: bool
    stage: str = "ok"
    degree: int | None = None
    detail: str | None = None

    def __bool__(self):
        return self.ok


def _generator_products(degrees: list[int], target: int):
    """Multisets of generator positions with total degree equal to target.

    Odd-degree generators appear at most once, even-degree ones as often as
    the degree budget allows.
    """

    def rec(pos: int, remaining: int, chosen: list[int]):
        if remaining == 0:
            yield tuple(chosen)
            return
        if pos >= len(degrees):
            return
        d = degrees[pos]
        max_mult = 0 if d > remaining else (1 if d % 2 else remaining // d)
        for mult in range(max_mult + 1):
            yield from rec(pos + 1, remaining - mult * d, chosen + [pos] * mult)

    yield from rec(0, target, [])


def verify_cohomology_ring_iso(
    src: Cohomology, dst: Cohomology, pairs: list[tuple[Form, Form]]
) -> RingIsoResult:
    """Verify that generator images induce a ring isomorphism on cohomology.

    Checks, in order: images closed; the source classes generate the source
    ring degreewise; every linear relation among products of source classes
    holds among the image products (well-definedness, which also gives
    multiplicativity); and the induced map is bijective degreewise.
    """
    n = src.model.dimension
    src_forms, dst_forms, degrees = [], [], []
    for k, (sform, dform) in enumerate(pairs):
        dsf = apply_differential(src.model, sform)
        if not dsf.is_zero():
            return RingIsoResult(False, stage="source-not-closed", detail=f"generator {k}")
        ddf = apply_differential(dst.model, dform)
        if not ddf.is_zero():
            return RingIsoResult(False, stage="image-not-closed", detail=f"generator {k}")
        sdeg, ddeg = sform.degree(), dform.degree()
        if sdeg == 0 or ddeg == 0:
            raise ValueError(f"generator {k} has degree 0; class lines need positive degree")
        if sdeg is None or sdeg != ddeg:
            return RingIsoResult(False, stage="degree-mismatch", detail=f"generator {k}")
        src_forms.append(sform)
        dst_forms.append(dform)
        degrees.append(sdeg)

    # multiset -> its (source, image) products, each its prefix's times its last factor
    products = {(): (Form.unit(src.model.generators), Form.unit(dst.model.generators))}
    for p in range(1, n + 1):
        src_vecs, pair_vecs = [], []  # classes before b_p: then one elimination gives both
        for multiset in _generator_products(degrees, p):
            (sprefix, dprefix), g = products[multiset[:-1]], multiset[-1]
            sprod, dprod = wedge(sprefix, src_forms[g]), wedge(dprefix, dst_forms[g])
            products[multiset] = sprod, dprod
            u = src.class_coordinates(sprod, p).coordinates
            v = dst.class_coordinates(dprod, p).coordinates
            src_vecs.append(list(u))
            pair_vecs.append(list(u) + list(v))
        bs, bd = src.betti(p), dst.betti(p)
        if bs != bd:
            return RingIsoResult(False, stage="betti-mismatch", degree=p, detail=f"{bs} != {bd}")
        if bs == 0:
            continue
        rank_src = linalg.rank(src_vecs, bs)
        if rank_src != bs:
            return RingIsoResult(False, stage="not-generating", degree=p,
                                 detail=f"products span {rank_src} of {bs} dimensions")
        if linalg.rank(pair_vecs, bs + bd) != rank_src:
            return RingIsoResult(False, stage="not-well-defined", degree=p,
                                 detail="a vanishing product of source classes has nonzero image")
        dst_vecs = [v[bs:] for v in pair_vecs]
        if linalg.rank(dst_vecs, bd) != bd:
            return RingIsoResult(False, stage="not-surjective", degree=p)
    return RingIsoResult(True)
