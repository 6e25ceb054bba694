"""Line-oriented algebra files.

Grammar ('#' starts a comment, blank lines ignored):

    generators x1:0 x2:0 n1:1 m:2      weights optional (":0" may be dropped)
    bracket [x1,x2] = -1 n1 + 1/2 m    rational coefficients, p/q literals
    form x1^x2 + 3 x1^n1               for decomposability / class queries
    map n1 = n1 - 5 x2                 generator images (degree-1 forms)
    class a1^b^c -> a1^b^c             cohomology class pairs
    vector 1 0 -2/3                    rational coordinate rows

Each line is cut into tokens by one ``findall`` of ``_TOKEN`` and parsed on
a token index; an error's column is found by running ``_TOKEN`` over its line
again.  A parse builds one Fraction per distinct signed coefficient literal,
the sign folded into the numerator; emission is canonical so that
parse(emit(L)) reproduces L exactly.  ``model_basis`` holds the one rule for
a file's model: its own basis with the declared weights, else the adapted one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError
from .forms import Form, SullivanModel, product
from .lie import AdaptedBasis, LieAlgebra, adapted_basis, ce_model, trivial_basis

# one token after any spaces; a lone character of no other kind is an unexpected one
_TOKEN = re.compile(r"\s*(\d+(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*|->|[\^\+\-=\[\],:]|\S)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SYMBOLS = frozenset("^+-=[],:")

# a form as parsed: list of (coefficient, [generator names]); names in source order
RawTerm = tuple[Fraction, list[str]]
_UNIT = {1: Fraction(1), -1: Fraction(-1)}  # the coefficient of a bare name, by sign


@dataclass
class AlgebraFile:
    """Parsed declarations with their source lines, before name resolution."""

    generators: list[tuple[str, int | None, int]] = field(default_factory=list)
    brackets: list[tuple[str, str, list[RawTerm], int]] = field(default_factory=list)
    forms: list[tuple[list[RawTerm], int]] = field(default_factory=list)
    maps: list[tuple[str, list[RawTerm], int]] = field(default_factory=list)
    classes: list[tuple[list[RawTerm], list[RawTerm], int]] = field(default_factory=list)
    vectors: list[tuple[list[Fraction], int]] = field(default_factory=list)


class _Syntax(Exception):
    """A parse error of the line being parsed: its message and the index of
    the token it is at (None, or past the last token: no column)."""


def _expect(toks: list[str], i: int, want: str) -> str:
    """Token i, which must be the symbol ``want`` or, for 'name' and
    'number', a token of that kind."""
    if i >= len(toks):
        raise _Syntax("unexpected end of line", None)
    t = toks[i]
    if not (t[0] in _NAME_START if want == "name" else
            t[0].isdecimal() if want == "number" else t == want):
        raise _Syntax(f"expected {want!r}, got {t!r}", i)
    return t


def _done(toks: list[str], i: int) -> None:
    """Refuse any token from i on."""
    if i < len(toks):
        raise _Syntax(f"trailing input {toks[i]!r}", i)


def _int(text: str, i: int) -> int:
    """A digit string as an int; one longer than int() converts is a parse error."""
    try:
        return int(text)
    except ValueError:
        raise _Syntax(f"number of {len(text)} digits is too long", i) from None


def _fraction(t: str, sign: int, i: int, fractions: dict) -> Fraction:
    """The number token t, a p or p/q literal, times ``sign``; q = 0 is an
    error.  ``fractions`` holds those built so far by (sign, t)."""
    f = fractions.get((sign, t))
    if f is None:
        num, slash, den = t.partition("/")
        q = _int(den, i) if slash else 1
        if q == 0:
            raise _Syntax(f"zero denominator in {t!r}", i)
        f = fractions[sign, t] = Fraction(sign * _int(num, i), q)
    return f


def _terms(toks: list[str], i: int, fractions: dict) -> tuple[list[RawTerm], int]:
    """Sum of terms from token i, [sign] [coefficient] name(^name)*, or a bare
    number, up to '->' or the end; the terms and the index after them."""
    terms: list[RawTerm] = []
    end = len(toks)
    while i < end:
        t = toks[i]
        if t == "->":
            break
        sign = 1
        if t == "+" or t == "-":
            sign = -1 if t == "-" else 1
            i += 1
            t = toks[i] if i < end else " "  # " " begins no token
        elif terms:
            raise _Syntax(f"expected '+' or '-', got {t!r}", i)
        coeff = None
        if t[0].isdecimal():
            coeff = _fraction(t, sign, i, fractions)
            i += 1
            t = toks[i] if i < end else " "
        names: list[str] = []
        if t[0] in _NAME_START:
            names.append(t)
            i += 1
            while i < end and toks[i] == "^":
                names.append(_expect(toks, i + 1, "name"))
                i += 2
        elif coeff is None:
            raise _Syntax("expected a coefficient or generator name", i)
        terms.append((_UNIT[sign] if coeff is None else coeff, names))
    if not terms:
        raise _Syntax("empty expression", None)
    return terms, i


def _located(line: str, lineno: int, toks: list[str], message: str, i: int | None) -> ParseError:
    """The ParseError of ``message`` at token i of ``line``, its column found
    by running ``_TOKEN`` over the line again; but a character that begins no
    token is the error wherever it stands on the line."""
    columns = [m.start(1) + 1 for m in _TOKEN.finditer(line)]
    for j, t in enumerate(toks):
        if not (t[0].isdecimal() or t[0] in _NAME_START or t == "->" or t in _SYMBOLS):
            return ParseError(f"unexpected character {t!r}", lineno, columns[j])
    return ParseError(message, lineno, columns[i] if i is not None and i < len(toks) else None)


def parse_source(text: str) -> AlgebraFile:
    """Parse the full grammar; raises ParseError with line/column on failure."""
    af = AlgebraFile()
    fractions: dict[tuple[int, str], Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = _TOKEN.findall(line)
        if not toks:
            continue
        keyword, end = toks[0], len(toks)
        try:
            if keyword[0] not in _NAME_START:
                raise _Syntax(f"expected a keyword, got {keyword!r}", 0)
            if keyword == "generators":
                i = 1
                while i < end:
                    name, weight = _expect(toks, i, "name"), None
                    i += 1
                    if i < end and toks[i] == ":":
                        digits = _expect(toks, i + 1, "number")
                        if not digits.isdigit():
                            raise _Syntax(f"weight must be an integer, got {digits!r}", i + 1)
                        weight = _int(digits, i + 1)
                        i += 2
                    af.generators.append((name, weight, lineno))
            elif keyword == "bracket":
                _expect(toks, 1, "[")
                left = _expect(toks, 2, "name")
                _expect(toks, 3, ",")
                right = _expect(toks, 4, "name")
                _expect(toks, 5, "]")
                _expect(toks, 6, "=")
                terms, i = _terms(toks, 7, fractions)
                _done(toks, i)
                af.brackets.append((left, right, terms, lineno))
            elif keyword == "form":
                terms, i = _terms(toks, 1, fractions)
                _done(toks, i)
                af.forms.append((terms, lineno))
            elif keyword == "map":
                name = _expect(toks, 1, "name")
                _expect(toks, 2, "=")
                terms, i = _terms(toks, 3, fractions)
                _done(toks, i)
                af.maps.append((name, terms, lineno))
            elif keyword == "class":
                src, i = _terms(toks, 1, fractions)
                _expect(toks, i, "->")  # the terms end at '->' or at the end of the line
                dst, i = _terms(toks, i + 1, fractions)
                _done(toks, i)
                af.classes.append((src, dst, lineno))
            elif keyword == "vector":
                entries: list[Fraction] = []
                i = 1
                while i < end:
                    sign = -1 if toks[i] == "-" else 1
                    i += toks[i] in ("+", "-")
                    entries.append(_fraction(_expect(toks, i, "number"), sign, i, fractions))
                    i += 1
                if not entries:
                    raise _Syntax("empty vector", None)
                af.vectors.append((entries, lineno))
            else:
                raise _Syntax(f"unknown keyword {keyword!r}", 0)
        except _Syntax as err:
            raise _located(line, lineno, toks, *err.args) from None
    names = [g[0] for g in af.generators]
    for name, _, lineno in af.generators:
        if names.count(name) > 1:
            raise ParseError(f"duplicate generator {name!r}", lineno)
    return af


def lie_algebra(af: AlgebraFile) -> tuple[LieAlgebra, tuple[int, ...] | None]:
    """LieAlgebra plus declared weights (None when any weight was omitted)."""
    if not af.generators:
        raise ParseError("file declares no generators")
    names = [g[0] for g in af.generators]
    index = {n: i for i, n in enumerate(names)}
    weights = tuple(g[1] for g in af.generators)
    declared = None if any(w is None for w in weights) else weights
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    seen = set()
    for left, right, terms, lineno in af.brackets:
        for n in (left, right):
            if n not in index:
                raise ParseError(f"unknown generator {n!r}", lineno)
        l, k = index[left], index[right]
        if l == k:
            raise ParseError(f"bracket [{left},{right}] is not skew", lineno)
        sign = 1
        if l > k:
            l, k, sign = k, l, -1
        if (l, k) in seen:
            raise ParseError(f"bracket pair [{left},{right}] declared twice", lineno)
        seen.add((l, k))
        vec: dict[int, Fraction] = {}
        for coeff, mono_names in terms:
            if not mono_names and not coeff:  # a zero written as a bare number
                continue
            if len(mono_names) != 1:
                raise ParseError("bracket values must be linear in the generators", lineno)
            n = mono_names[0]
            if n not in index:
                raise ParseError(f"unknown generator {n!r}", lineno)
            i, c = index[n], (coeff if sign > 0 else -coeff)
            vec[i] = vec[i] + c if i in vec else c
        brackets[(l, k)] = vec
    return LieAlgebra(tuple(names), brackets), declared


def model_basis(af: AlgebraFile) -> tuple[LieAlgebra, AdaptedBasis]:
    """The file's algebra and the basis of its model: its own basis with the
    declared weights, or the adapted basis when any weight was omitted."""
    L, declared = lie_algebra(af)
    return L, adapted_basis(L) if declared is None else trivial_basis(L, declared)


def model(af: AlgebraFile) -> SullivanModel:
    """Sullivan model, ``ce_model`` of ``model_basis``."""
    return ce_model(*model_basis(af))


def build_form(terms: list[RawTerm], target: SullivanModel, lineno: int | None = None) -> Form:
    """Resolve a parsed term list to a Form over the model's generators."""
    out = Form.zero(target.generators)
    for coeff, names in terms:
        if len(set(names)) != len(names):
            raise ParseError(f"monomial {'^'.join(names)} repeats a generator", lineno)
        try:
            factors = [target.gen(n) for n in names]
        except KeyError as exc:
            raise ParseError(f"unknown generator {exc.args[0]!r}", lineno) from None
        out = out + product(target.generators, factors).scale(coeff)
    return out


def _signed_sum(terms) -> str:
    """Join (term's sign as a nonzero number, unsigned piece) pairs as
    'x + y - z'; a negative first term is written '- x'."""
    parts = []
    for c, piece in terms:
        sign = "- " if c < 0 else "+ " if parts else ""
        parts.append(sign + piece)
    return " ".join(parts)


def _magnitude(c: Fraction) -> str:
    """``str(abs(c))``, written from c's numerator and denominator ints."""
    return str(abs(c.numerator)) if c.denominator == 1 else f"{abs(c.numerator)}/{c.denominator}"


def form_to_str(f: Form) -> str:
    """Canonical rendering, re-parseable by the form grammar."""
    if f.is_zero():
        return "0"
    names = [g.name for g in f.gens]
    parts = []
    for mono in sorted(f.terms, key=lambda m: (len(m), m)):
        c = f.terms[mono]
        mag = _magnitude(c)
        body = "^".join(names[i] for i in mono)
        piece = (body if mag == "1" else f"{mag} {body}") if body else mag
        parts.append((c.numerator, piece))
    return _signed_sum(parts)


def emit_algebra(L: LieAlgebra, weights=None) -> str:
    """Canonical algebra file for a LieAlgebra (round-trips through parse)."""
    lines = []
    if weights is None:
        lines.append("generators " + " ".join(L.names))
    else:
        lines.append(
            "generators " + " ".join(f"{n}:{w}" for n, w in zip(L.names, weights))
        )
    for (l, k) in sorted(L.brackets):
        vec = L.brackets[(l, k)]
        rhs = _signed_sum((vec[i].numerator, f"{_magnitude(vec[i])} {L.names[i]}") for i in sorted(vec))
        lines.append(f"bracket [{L.names[l]},{L.names[k]}] = {rhs}")
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> LieAlgebra:
    """Convenience: parse a full file and return just the Lie algebra."""
    return lie_algebra(parse_source(text))[0]
