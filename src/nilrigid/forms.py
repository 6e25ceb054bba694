"""Exterior algebra on odd degree-1 generators with rational coefficients.

Values are immutable; every operation returns a fresh Form, whose monomials
are strictly increasing tuples of generator indices (all generators are odd,
so a repeated index kills a monomial), ordered lexicographically wherever a
basis is enumerated, which keeps every downstream matrix deterministic.

Outside a Form a monomial is a bitmask, bit x for index x, and ``_masks(n, p)``
lists degree p in the order of the tuples.  Wedge, d and cup products share one
kernel on masks (``_mask_terms``): every sign is the parity of a popcount.  A
SullivanModel keeps d as an integer table: ``scale`` is the lcm D of the
denominators in the d v_i (1 for d = 0), ``table[i]`` holds (mask of v_a v_b,
parity mask of (i, a, b), D * c) for each term c v_a v_b of d v_i, and ``live``
masks the i with d v_i != 0.  ``_derive`` returns D * d(mask) as {index[mask]:
int}, ``index`` the row of each mask (``_mask_index``) or its tuple (``_Monomials``);
apply_differential and check_d_squared divide by D only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import DomainMismatchError, MixedDegreeError, ModelError

Monomial = tuple[int, ...]
Terms = list[tuple[int, int, Fraction | int]]  # a form as ``_kernel_terms``


@dataclass(frozen=True)
class Generator:
    """A degree-1 generator with a name and a lower-degree weight."""

    name: str
    index: int
    weight: int = 0


def _masks(n: int, p: int) -> list[int]:
    """The masks of degree p in n generators, in the lexicographic order of
    their index tuples; empty unless 0 <= p <= n."""
    return [sum(c) for c in combinations([1 << x for x in range(n)], p)] if 0 <= p <= n else []


def _mask_index(n: int, p: int) -> dict[int, int]:
    """The position of each mask in ``_masks(n, p)``, keyed by mask."""
    return {m: i for i, m in enumerate(_masks(n, p))}


def _mask_terms(pairs) -> Terms:
    """(mask, coefficient) pairs as the kernel terms of ``_multiply``: (mask,
    parity mask, coefficient), the parity mask the xor of low - 1 over the bits
    low of the mask, so bit y is set iff an odd number of the mask's bits exceed y."""
    out = []
    for m, c in pairs:
        parity, bits = 0, m
        while bits:
            low = bits & -bits
            bits ^= low
            parity ^= low - 1
        out.append((m, parity, c))
    return out


def _kernel_terms(pairs) -> Terms:
    """``_mask_terms`` of (index tuple, coefficient) pairs."""
    return _mask_terms((sum(1 << x for x in m), c) for m, c in pairs)


def _multiply(a: Terms, b: Terms, index) -> dict:
    """The product of two forms given as kernel term lists, as
    {index[mask]: coefficient}, ``index`` the ``_mask_index`` of its degree
    or a ``_Monomials``.

    Monomials ma and mb overlap, and their product is zero, iff ma & mb.
    Otherwise moving each index y of mb past the indices of ma above it
    gives the sign: -1 iff the count of such pairs is odd, that is iff
    mb & (parity mask of ma) has odd popcount.  Coefficients may be int or
    Fraction, and entries that cancel are dropped.
    """
    out: dict = {}
    for ma, pa, ca in a:
        for mb, _, cb in b:
            if not ma & mb:
                j = index[ma | mb]
                c = ca * cb
                out[j] = out.get(j, 0) + (-c if (pa & mb).bit_count() & 1 else c)
    return {j: c for j, c in out.items() if c}


class _Monomials(dict):
    """mask -> increasing index tuple, filled on lookup."""

    def __missing__(self, mask: int) -> Monomial:
        self[mask] = mono = tuple(x for x in range(mask.bit_length()) if mask >> x & 1)
        return mono


class Form:
    """A finite rational linear combination of exterior monomials."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: tuple[Generator, ...], terms=None):
        object.__setattr__(self, "gens", gens)
        clean: dict[Monomial, Fraction] = {}
        if terms:
            n = len(gens)
            for mono, coeff in dict(terms).items():
                mono, prev = tuple(mono), -1
                for i in mono:  # one pass; a range error is named before an order error
                    if not prev < i < n:
                        raise ValueError(f"monomial {mono} " + (
                            "references unknown generator index" if any(not 0 <= i < n for i in mono)
                            else "is not strictly increasing"))
                    prev = i
                coeff = coeff if type(coeff) is Fraction else Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, gens) -> "Form":
        return cls(gens)

    @classmethod
    def unit(cls, gens) -> "Form":
        return cls(gens, {(): Fraction(1)})

    @classmethod
    def generator(cls, gens, index: int) -> "Form":
        return cls(gens, {(index,): Fraction(1)})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common exterior degree, None for the zero form."""
        degrees = {len(m) for m in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise MixedDegreeError(f"form has mixed degrees {sorted(degrees)}")
        return degrees.pop()

    # -- arithmetic --------------------------------------------------------

    def _require_same_gens(self, other: "Form"):
        if self.gens != other.gens:
            raise DomainMismatchError("forms live over different generator sets")

    def __add__(self, other: "Form") -> "Form":
        self._require_same_gens(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return Form(self.gens, terms)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.gens, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        return wedge(self, other) if isinstance(other, Form) else NotImplemented

    def scale(self, c) -> "Form":
        c = Fraction(c)
        return Form(self.gens, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.gens == other.gens
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.gens, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "Form(0)"
        names = [g.name for g in self.gens]
        parts = []
        for m in sorted(self.terms):
            c = self.terms[m]
            mono = "^".join(names[i] for i in m) if m else "1"
            parts.append(f"{c} {mono}")
        return "Form(" + " + ".join(parts) + ")"


def monomial_weight(gens: tuple[Generator, ...], mono: Monomial) -> int:
    return sum(gens[i].weight for i in mono)


def wedge(a: Form, b: Form) -> Form:
    """Exterior product: one ``_multiply`` of the two forms' kernel terms."""
    a._require_same_gens(b)
    terms = _multiply(_kernel_terms(a.terms.items()), _kernel_terms(b.terms.items()), _Monomials())
    return Form(a.gens, terms)


def product(gens: tuple[Generator, ...], factors) -> Form:
    """Wedge of the factors, taken in order from the unit form; stops at zero."""
    out = Form.unit(gens)
    for f in factors:
        out = wedge(out, f)
        if out.is_zero():
            break
    return out


class SullivanModel:
    """Degree-1 generators with weights and a quadratic differential.

    The differential is given per generator; it extends to all of the
    exterior algebra as a derivation of degree +1.
    """

    __slots__ = ("generators", "differential", "scale", "table", "live")

    def __init__(self, generators, differential):
        generators = tuple(generators)
        differential = tuple(differential)
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ModelError("generator names are not unique")
        for pos, g in enumerate(generators):
            if g.index != pos:
                raise ModelError(f"generator {g.name} has index {g.index}, expected {pos}")
        if len(differential) != len(generators):
            raise ModelError("need exactly one differential form per generator")
        for g, df in zip(generators, differential):
            if df.gens != generators:
                raise ModelError(f"differential of {g.name} lives over a different generator set")
            if not df.is_zero() and df.degree() != 2:
                raise ModelError(f"differential of {g.name} is not quadratic")
        self.generators = generators
        self.differential = differential
        self.scale = scale = lcm(*(c.denominator for f in differential for c in f.terms.values()))
        self.table = tuple(  # the parity mask of (i, a, b) is that of (a, b) ^ ((1 << i) - 1)
            tuple((ab, q ^ ((1 << i) - 1), c.numerator * (scale // c.denominator))
                  for ab, q, c in _kernel_terms(f.terms.items()))
            for i, f in enumerate(differential)
        )
        self.live = sum(1 << i for i, terms in enumerate(self.table) if terms)

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(g.weight for g in self.generators)

    def index_of(self, name: str) -> int:
        for g in self.generators:
            if g.name == name:
                return g.index
        raise KeyError(name)

    def gen(self, name: str) -> Form:
        return Form.generator(self.generators, self.index_of(name))

    def form(self, terms) -> Form:
        return Form(self.generators, terms)

    def zero(self) -> Form:
        return Form.zero(self.generators)

    def d(self, f: Form) -> Form:
        return apply_differential(self, f)

    def __eq__(self, other):
        return (
            isinstance(other, SullivanModel)
            and self.generators == other.generators
            and self.differential == other.differential
        )

    def __hash__(self):
        return hash((self.generators, self.differential))

    def __repr__(self):
        gens = " ".join(f"{g.name}:{g.weight}" for g in self.generators)
        return f"SullivanModel({gens})"


def _derive(model: SullivanModel, mono: int, index) -> dict:
    """model.scale * d(mono) as {index[mask]: int}, ``index`` a ``_mask_index``, a
    ``_Monomials`` or a range; cancelled entries deleted, bits off ``model.live`` skipped.

    A term (ab, q, c) of d v_i, i a bit of mono, replaces v_i by v_a v_b in
    mono: zero if the rest of mono holds a or b, and otherwise of the sign
    (-1)^(pos + i' + j'), pos, i' and j' the counts of the rest's indices
    below i, a and b, which is the parity of the popcount of rest & q."""
    out, table, bits = {}, model.table, mono & model.live
    while bits:
        low = bits & -bits
        bits ^= low
        rest = mono ^ low
        for ab, q, c in table[low.bit_length() - 1]:
            if not rest & ab:
                j = index[rest | ab]
                if v := out.get(j, 0) + (-c if (rest & q).bit_count() & 1 else c):
                    out[j] = v
                else:
                    del out[j]
    return out


def apply_differential(model: SullivanModel, f: Form) -> Form:
    """Extend the generator differential to f as a degree +1 derivation."""
    if f.gens != model.generators:
        raise DomainMismatchError("form does not live over the model's generators")
    terms, monos = {}, _Monomials()
    for mask, _, coeff in _kernel_terms(f.terms.items()):
        for m, v in _derive(model, mask, monos).items():
            terms[m] = terms.get(m, 0) + coeff * v
    return Form(model.generators, {m: c / model.scale for m, c in terms.items()})


def check_d_squared(model: SullivanModel) -> list[tuple[Generator, Form]]:
    """Generators on which d^2 fails, with the nonzero defect form.

    Empty exactly when the model is a valid CDGA; checking on generators
    suffices because d^2 is again a derivation.  D^2 d^2 v_i is summed in ints
    as c * D d(v_a v_b) over the terms (mask of v_a v_b, q, c) of table[i];
    each pair is derived once and added into every d^2 v_i that uses it.
    """
    uses: dict[int, list[tuple[int, int]]] = {}
    for i, terms in enumerate(model.table):
        for ab, _, c in terms:
            uses.setdefault(ab, []).append((i, c))
    dd, masks = [{} for _ in model.table], range(1 << len(model.table))  # masks[m] is m
    for ab, targets in uses.items():
        derived = _derive(model, ab, masks)
        for i, c in targets:
            acc = dd[i]
            for m, v in derived.items():
                acc[m] = acc.get(m, 0) + c * v
    square, monos = model.scale**2, _Monomials()  # a valid model makes no tuple
    return [
        (g, Form(model.generators, {monos[m]: Fraction(v, square) for m, v in acc.items() if v}))
        for g, acc in zip(model.generators, dd)
        if any(acc.values())
    ]


def monomial_basis(model: SullivanModel, p: int) -> list[Monomial]:
    """Lexicographically ordered monomials of exterior degree p.

    Lambda^p = 0 for p < 0 and for p > n, so there the list is empty.
    """
    n = len(model.generators)
    return list(combinations(range(n), p)) if 0 <= p <= n else []
