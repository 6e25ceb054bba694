"""Grammar parsing, canonical emission, round trips, error positions."""

import ast
import contextlib
import io
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from nilrigid import (Form, Generator, LieAlgebra, ParseError, cli, lie_from_model, theorem1_family,
                      theorem2_family)
from nilrigid.fileformat import (
    build_form,
    emit_algebra,
    form_to_str,
    lie_algebra,
    model,
    parse_algebra,
    parse_source,
)
from helpers import form_of
from oracle import random_nilpotent


def test_parse_generators_with_and_without_weights():
    af = parse_source("generators x1:0 x2:0 n1:1 m:2")
    assert af.generators == [
        ("x1", 0, 1),
        ("x2", 0, 1),
        ("n1", 1, 1),
        ("m", 2, 1),
    ]
    af = parse_source("generators a b c")
    assert [w for _, w, _ in af.generators] == [None, None, None]


def test_parse_brackets_and_build():
    text = """
# the four-dimensional filiform algebra
generators x1:0 x2:0 n1:1 m:2
bracket [x1,x2] = - 1 n1
bracket [x1,n1] = - 1 m
"""
    L, weights = lie_algebra(parse_source(text))
    assert weights == (0, 0, 1, 2)
    assert L == lie_from_model(theorem1_family(1))


def test_model_uses_declared_weights():
    text = "generators x:1 y:0\n"
    A = model(parse_source(text))
    assert A.weights == (1, 0)


def test_model_computes_weights_when_omitted():
    text = "generators x1 x2 n1 m\nbracket [x1,x2] = - n1\nbracket [x1,n1] = - m\n"
    A = model(parse_source(text))
    assert A.weights == (0, 0, 1, 2)


def test_rational_coefficients():
    text = "generators a b c\nbracket [a,b] = 1/2 c\n"
    L = parse_algebra(text)
    assert L.brackets == {(0, 1): {2: Fraction(1, 2)}}


def test_reversed_pair_is_skew_extended():
    L1 = parse_algebra("generators a b c\nbracket [b,a] = c\n")
    L2 = parse_algebra("generators a b c\nbracket [a,b] = - c\n")
    assert L1 == L2


@pytest.mark.parametrize(
    "value, expected",
    [("0", {}), ("-0/3", {}), ("0 + c", {2: Fraction(1)}), ("c - 0", {2: Fraction(1)})],
)
def test_a_zero_written_as_a_bare_number_is_a_zero_term(value, expected):
    L = parse_algebra(f"generators a b c\nbracket [a,b] = {value}\n")
    assert L.brackets == ({(0, 1): expected} if expected else {})


@pytest.mark.parametrize("value", ["2", "c + 1/2", "-3"])
def test_a_nonzero_bare_number_in_a_bracket_is_refused(value):
    with pytest.raises(ParseError) as err:
        parse_algebra(f"generators a b c\nbracket [a,b] = {value}\n")
    assert str(err.value) == "line 2: bracket values must be linear in the generators"


NAMES = ("a", "b", "c", "d")
INDEX = st.sampled_from(range(len(NAMES)))
SIGNS = st.sampled_from((1, -1))
DENOMINATOR = st.one_of(st.none(), st.integers(1, 12))  # None: a literal without '/'
# (sign, (p, q) or None for no literal, name index or None for a bare zero)
TERMS = st.one_of(
    st.tuples(SIGNS, st.one_of(st.none(), st.tuples(st.integers(0, 12), DENOMINATOR)), INDEX),
    st.tuples(SIGNS, st.tuples(st.just(0), DENOMINATOR), st.none()),
)


@st.composite
def bracket_lines(draw):
    """Bracket lines over NAMES: distinct pairs, either way round, each value
    a sum of signed p or p/q literals (zeros, signed or not, and non-reduced
    ones included) times names, which may repeat, and bare zeros."""
    pairs = draw(st.lists(st.tuples(INDEX, INDEX).filter(lambda p: p[0] != p[1]),
                          unique_by=frozenset, max_size=6))
    return [(l, k, draw(st.lists(TERMS, min_size=1, max_size=6))) for l, k in pairs]


def render(lines) -> str:
    out = ["generators " + " ".join(NAMES)]
    for l, k, terms in lines:
        pieces = []
        for pos, (sign, literal, name) in enumerate(terms):
            words = ["-" if sign < 0 else "+"] if pos or sign < 0 else []
            if literal is not None:
                p, q = literal
                words.append(str(p) if q is None else f"{p}/{q}")
            if name is not None:
                words.append(NAMES[name])
            pieces.append(" ".join(words))
        out.append(f"bracket [{NAMES[l]},{NAMES[k]}] = " + " ".join(pieces))
    return "\n".join(out) + "\n"


def reference(lines):
    """(brackets, scale, table) of the lines, by plain Fraction arithmetic."""
    brackets = {}
    for l, k, terms in lines:
        vec = {}
        for sign, literal, name in terms:
            c = Fraction(sign) * (Fraction(literal[0], literal[1] or 1) if literal else 1)
            if name is not None:
                vec[name] = vec.get(name, Fraction(0)) + (c if l < k else -c)
        if vec := {i: c for i, c in vec.items() if c}:
            brackets[min(l, k), max(l, k)] = vec
    scale = lcm(*(c.denominator for vec in brackets.values() for c in vec.values()))
    table = {}
    for (l, k), vec in brackets.items():
        table[l, k] = [(i, int(c * scale)) for i, c in vec.items()]
        table[k, l] = [(i, -int(c * scale)) for i, c in vec.items()]
    return brackets, scale, table


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bracket_lines())
def test_parsed_brackets_match_plain_fraction_arithmetic(lines):
    L, _ = lie_algebra(parse_source(render(lines)))
    assert (L.brackets, L.scale, L.table) == reference(lines)
    assert all(type(c) is Fraction for vec in L.brackets.values() for c in vec.values())


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_source("generators a $\n")
    assert err.value.line == 1 and err.value.column == 14
    with pytest.raises(ParseError, match="file declares no generators"):
        lie_algebra(parse_source("bracket [a,b] = c\n"))  # the algebra needs generators
    with pytest.raises(ParseError):
        parse_source("generators a a\n")


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("generators a\t$\n", "unexpected character '$'", 1, 14),
        ("generators a \t \u00a0\u3000 b\t\t?", "unexpected character '?'", 1, 22),
        ("generators a\u2028 \t@\n", "unexpected character '@'", 2, 3),
        ("generators a b\nbracket [a,b] = 1/ a\n", "unexpected character '/'", 2, 18),
        ("generators a b\nform 1/2/3 a\n", "unexpected character '/'", 2, 9),
        ("generators a @ b\n", "unexpected character '@'", 1, 14),
        ("@\n", "unexpected character '@'", 1, 1),
    ],
    ids=["after-tab", "after-unicode-spaces", "after-line-separator", "dangling-slash",
         "second-slash", "at-sign", "first-column"],
)
def test_unexpected_character_message_and_column(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_source(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_name_resolution_errors():
    with pytest.raises(ParseError) as err:
        lie_algebra(parse_source("generators a b\nbracket [a,a] = b\n"))
    assert err.value.line == 2
    with pytest.raises(ParseError):
        lie_algebra(
            parse_source("generators a b c\nbracket [a,b] = c\nbracket [b,a] = c\n")
        )
    with pytest.raises(ParseError):
        lie_algebra(parse_source("generators a b\nbracket [a,q] = b\n"))


def test_emit_parse_round_trip_families():
    for A in [theorem1_family(1), theorem1_family(2), theorem2_family(2)]:
        L = lie_from_model(A)
        text = emit_algebra(L, weights=A.weights)
        Lp, weights = lie_algebra(parse_source(text))
        assert Lp == L and weights == A.weights


def test_emit_without_weights_round_trips():
    L = lie_from_model(theorem1_family(1))
    text = emit_algebra(L)
    assert lie_algebra(parse_source(text)) == (L, None)


def test_form_to_str_round_trip():
    A = theorem2_family(2)
    samples = [
        "x1^x2 + 1/2 n1^m",
        "- x1 + 3 x2",
        "- 2/3 x1^n1^m",
        "0",
    ]
    for text in samples:
        f = form_of(A, text) if text != "0" else A.zero()
        printed = form_to_str(f)
        again = form_of(A, printed) if printed != "0" else A.zero()
        assert again == f


def test_form_to_str_and_emit_algebra_text_is_pinned():
    # coefficient 1 is written bare on a monomial and as "1" in a bracket;
    # a negative first term is "- x"; a constant sorts first
    G = tuple(Generator(name, i) for i, name in enumerate("xyz"))
    half = Fraction(1, 2)
    cases = [
        ({(0,): 1, (1,): -1, (0, 1): 2, (0, 2): -2, (1, 2): half, (0, 1, 2): -half},
         "x - y + 2 x^y - 2 x^z + 1/2 y^z - 1/2 x^y^z"),
        ({(): Fraction(-7, 3), (2,): 1, (1, 2): Fraction(-7, 3)}, "- 7/3 + z - 7/3 y^z"),
        ({(): 1, (0, 1): -1}, "1 - x^y"),
        ({(): -1}, "- 1"),
        ({(): 2}, "2"),
        ({}, "0"),
    ]
    for terms, text in cases:
        assert form_to_str(Form(G, terms)) == text
    L = LieAlgebra(("x", "y", "z", "w"), {(0, 1): {2: 1, 3: Fraction(-7, 3)},
                                          (0, 2): {3: half}, (1, 2): {3: -1}})
    assert emit_algebra(L, (0, 0, 1, 2)) == (
        "generators x:0 y:0 z:1 w:2\nbracket [x,y] = 1 z - 7/3 w\n"
        "bracket [x,z] = 1/2 w\nbracket [y,z] = - 1 w\n")


def test_build_form_unknown_generator():
    A = theorem1_family(1)
    af = parse_source("generators x1 x2 n1 m\nform x1^zz\n")
    with pytest.raises(ParseError):
        build_form(af.forms[0][0], A, lineno=2)


def test_map_class_vector_lines():
    text = (
        "generators a b\n"
        "map a = a - 5 b\n"
        "class a^b -> a^b\n"
        "vector 1 0 -2/3\n"
    )
    af = parse_source(text)
    assert af.maps[0][0] == "a"
    assert af.classes[0][0] and af.classes[0][1]
    assert af.vectors[0][0] == [Fraction(1), Fraction(0), Fraction(-2, 3)]


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("generators a b\nbracket [a,b] = 1/" + "7" * 5000 + " a\n", 2, 17),
        ("generators a b\nbracket [a,b] = " + "7" * 5000 + " a\n", 2, 17),
        ("generators a:" + "9" * 5000 + "\n", 1, 14),
        ("generators a b\nvector 1 " + "1" * 5000 + "\n", 2, 10),
    ],
    ids=["denominator", "numerator", "weight", "vector"],
)
def test_overlong_number_is_a_parse_error(text, line, column):
    # more digits than int() converts: a ParseError at the literal, not a ValueError
    with pytest.raises(ParseError, match="digits is too long") as info:
        parse_source(text)
    assert (info.value.line, info.value.column) == (line, column)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_emit_parse_round_trips_random_nilpotent_algebras(seed, weighted):
    rng = random.Random(seed)
    L = random_nilpotent(rng)
    weights = tuple(rng.randrange(4) for _ in range(L.dimension)) if weighted else None
    assert lie_algebra(parse_source(emit_algebra(L, weights=weights))) == (L, weights)


# pieces of the grammar, so that drawn text also gets past the tokenizer
PIECES = ["generators", "bracket", "form", "map", "class", "vector", "x", "y", "z", "x1", "_",
          "[", "]", ",", "=", "+", "-", "^", ":", "->", "/", "#", "0", "1", "2", "1/2", "3/0",
          "00", "12345678901234567890", " ", "\n", "\t", "\r", "\u2028", "\u0663"]
texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
    st.lists(st.sampled_from(PIECES), max_size=40).map(lambda p: "generators x y z\n" + "".join(p)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(texts)
def test_arbitrary_text_parses_or_raises_parse_error(text):
    with contextlib.suppress(ParseError):
        parse_source(text)


def named_token(message: str) -> str | None:
    """The token that an error message names by its repr, if it names one."""
    for lead in ("unexpected character ", "trailing input "):
        if message.startswith(lead):
            return ast.literal_eval(message[len(lead):])
    if message.startswith("expected ") and ", got " in message:
        return ast.literal_eval(message.rsplit(", got ", 1)[1])
    return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(texts)
@example("generators a b\nbracket [a,b] = a ]\n")
@example("generators a\t \u3000$ b\n")
@example("generators a:x\n")
@example("generators a\nform 1/2 a  b # c\n")
@example("generators a\n  7 a\n")
def test_error_columns_fall_on_the_line_at_the_token_they_name(text):
    try:
        parse_source(text)
    except ParseError as err:
        if err.column is None:
            return
        line = text.splitlines()[err.line - 1]
        assert 1 <= err.column <= len(line) + 1
        token = named_token(str(err).split(": ", 1)[1])
        assert token is None or line[err.column - 1:].startswith(token), (line, str(err))


@pytest.fixture(scope="module")
def alg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn") / "drawn.alg"


@settings(derandomize=True, max_examples=150, deadline=None)
@given(texts)
def test_check_on_arbitrary_text_exits_0_1_or_2_without_traceback(alg_path, text):
    alg_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(alg_path)])
    assert code in (0, 1, 2)
    assert "Traceback (most recent call last)" not in out.getvalue() + err.getvalue()
    assert "error: internal" not in err.getvalue()
