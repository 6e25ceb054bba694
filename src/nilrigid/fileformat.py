"""Line-oriented algebra files.

Grammar ('#' starts a comment, blank lines ignored):

    generators x1:0 x2:0 n1:1 m:2      weights optional (":0" may be dropped)
    bracket [x1,x2] = -1 n1 + 1/2 m    rational coefficients, p/q literals
    form x1^x2 + 3 x1^n1               for decomposability / class queries
    map n1 = n1 - 5 x2                 generator images (degree-1 forms)
    class a1^b^c -> a1^b^c             cohomology class pairs
    vector 1 0 -2/3                    rational coordinate rows

Parsing reports line and column and builds one Fraction per coefficient
literal, its sign folded into the numerator; emission is canonical so that
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

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)|(?P<sym>[\^\+\-=\[\],:])|(?P<bad>\S))"
)

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


class _Tokens:
    def __init__(self, text: str, lineno: int):
        self.items = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            col = m.start(kind) + 1
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group(kind)!r}", lineno, col)
            self.items.append((kind, m.group(kind), col))
        self.pos = 0
        self.lineno = lineno

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None, None)

    def next(self):
        item = self.peek()
        if item[0] is None:
            raise ParseError("unexpected end of line", self.lineno)
        self.pos += 1
        return item

    def expect(self, kind, value=None):
        got, text, col = self.next()
        if got != kind or (value is not None and text != value):
            want = value or kind
            raise ParseError(f"expected {want!r}, got {text!r}", self.lineno, col)
        return text

    def done(self) -> bool:
        return self.pos >= len(self.items)

    def require_done(self):
        if not self.done():
            _, text, col = self.peek()
            raise ParseError(f"trailing input {text!r}", self.lineno, col)


def _int(text: str, lineno: int, col: int) -> int:
    """A digit string as an int; one longer than int() converts is a parse error."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"number of {len(text)} digits is too long", lineno, col) from None


def _fraction(tk: _Tokens, sign: int = 1) -> Fraction:
    """The next token as a p or p/q literal times ``sign``; q = 0 is an error."""
    col = tk.peek()[2]
    text = tk.expect("number")
    num, slash, den = text.partition("/")
    q = _int(den, tk.lineno, col) if slash else 1
    if q == 0:
        raise ParseError(f"zero denominator in {text!r}", tk.lineno, col)
    return Fraction(sign * _int(num, tk.lineno, col), q)


def _sign(tk: _Tokens) -> int:
    """-1 after a '-' token, else 1; a '+' or '-' token is consumed."""
    kind, text, _ = tk.peek()
    if kind == "sym" and text in "+-":
        return -1 if tk.next()[1] == "-" else 1
    return 1


def _parse_terms(tk: _Tokens) -> list[RawTerm]:
    """Sum of terms: [sign] [coefficient] name(^name)*, or a bare number."""
    terms: list[RawTerm] = []
    while not tk.done():
        kind, text, col = tk.peek()
        if kind == "arrow":
            break
        if terms and not (kind == "sym" and text in "+-"):
            raise ParseError(f"expected '+' or '-', got {text!r}", tk.lineno, col)
        sign = _sign(tk)
        kind, text, col = tk.peek()
        has_coeff = kind == "number"
        coeff = _fraction(tk, sign) if has_coeff else _UNIT[sign]
        if has_coeff:
            kind, text, col = tk.peek()
        names: list[str] = []
        if kind == "name":
            tk.next()
            names.append(text)
            while True:
                kind, text, col = tk.peek()
                if kind == "sym" and text == "^":
                    tk.next()
                    names.append(tk.expect("name"))
                else:
                    break
        elif not has_coeff:
            raise ParseError("expected a coefficient or generator name", tk.lineno, col)
        terms.append((coeff, names))
    if not terms:
        raise ParseError("empty expression", tk.lineno)
    return terms


def parse_source(text: str) -> AlgebraFile:
    """Parse the full grammar; raises ParseError with line/column on failure."""
    af = AlgebraFile()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tk = _Tokens(line, lineno)
        kind, keyword, col = tk.next()
        if kind != "name":
            raise ParseError(f"expected a keyword, got {keyword!r}", lineno, col)
        if keyword == "generators":
            while not tk.done():
                name = tk.expect("name")
                weight = None
                k, t, _ = tk.peek()
                if k == "sym" and t == ":":
                    tk.next()
                    col = tk.peek()[2]
                    text = tk.expect("number")
                    if not text.isdigit():
                        raise ParseError(f"weight must be an integer, got {text!r}", lineno, col)
                    weight = _int(text, lineno, col)
                af.generators.append((name, weight, lineno))
        elif keyword == "bracket":
            tk.expect("sym", "[")
            left = tk.expect("name")
            tk.expect("sym", ",")
            right = tk.expect("name")
            tk.expect("sym", "]")
            tk.expect("sym", "=")
            terms = _parse_terms(tk)
            tk.require_done()
            af.brackets.append((left, right, terms, lineno))
        elif keyword == "form":
            terms = _parse_terms(tk)
            tk.require_done()
            af.forms.append((terms, lineno))
        elif keyword == "map":
            name = tk.expect("name")
            tk.expect("sym", "=")
            terms = _parse_terms(tk)
            tk.require_done()
            af.maps.append((name, terms, lineno))
        elif keyword == "class":
            src = _parse_terms(tk)
            k, _, c = tk.next()
            if k != "arrow":
                raise ParseError("expected '->'", lineno, c)
            dst = _parse_terms(tk)
            tk.require_done()
            af.classes.append((src, dst, lineno))
        elif keyword == "vector":
            entries: list[Fraction] = []
            while not tk.done():
                entries.append(_fraction(tk, _sign(tk)))
            if not entries:
                raise ParseError("empty vector", lineno)
            af.vectors.append((entries, lineno))
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, col)
    if not af.generators:
        raise ParseError("file declares no generators")
    names = [g[0] for g in af.generators]
    for name, _, lineno in af.generators:
        if names.count(name) > 1:
            raise ParseError(f"duplicate generator {name!r}", lineno)
    return af


def lie_algebra(af: AlgebraFile) -> tuple[LieAlgebra, tuple[int, ...] | None]:
    """LieAlgebra plus declared weights (None when any weight was omitted)."""
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
    """Join nonzero (coefficient, unsigned piece) pairs as 'x + y - z'; a
    negative first term is written '- x'."""
    parts = []
    for c, piece in terms:
        sign = "- " if c < 0 else "+ " if parts else ""
        parts.append(sign + piece)
    return " ".join(parts)


def form_to_str(f: Form) -> str:
    """Canonical rendering, re-parseable by the form grammar."""
    if f.is_zero():
        return "0"
    names = [g.name for g in f.gens]
    parts = []
    for mono in sorted(f.terms, key=lambda m: (len(m), m)):
        c = f.terms[mono]
        mag = abs(c)
        body = "^".join(names[i] for i in mono)
        if body and mag == 1:
            piece = body
        elif body:
            piece = f"{mag} {body}"
        else:
            piece = str(mag)
        parts.append((c, piece))
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
        rhs = _signed_sum((vec[i], f"{abs(vec[i])} {L.names[i]}") for i in sorted(vec))
        lines.append(f"bracket [{L.names[l]},{L.names[k]}] = {rhs}")
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> LieAlgebra:
    """Convenience: parse a full file and return just the Lie algebra."""
    return lie_algebra(parse_source(text))[0]
