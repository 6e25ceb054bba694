"""Shared test helpers: form construction from strings and published data."""

import random
from fractions import Fraction
from functools import lru_cache

from nilrigid import (AdaptedBasis, Cohomology, change_basis, free_nilpotent_lie, linalg,
                      section3_pair, verify_cohomology_ring_iso)
from nilrigid.fileformat import build_form, emit_algebra, parse_source


def form_of(model, text):
    """Build a Form over a model from the file-format expression grammar."""
    header = "generators " + " ".join(g.name for g in model.generators)
    af = parse_source(header + "\nform " + text)
    return build_form(af.forms[0][0], model)


def forms_of(model, texts):
    return [form_of(model, t) for t in texts]


def sign_conjugate(L, seed):
    """L in a basis drawn from ``seed`` with entries in {-1, 0, 1}, +-1 on the diagonal."""
    n = L.dimension
    rng = random.Random(seed)
    while True:
        cols = [[Fraction(rng.choice((-1, 1) if i == a else (-1, 0, 0, 0, 0, 1))) for i in range(n)]
                for a in range(n)]
        if linalg.rank(cols) == n:
            break
    return change_basis(L, AdaptedBasis(tuple(map(tuple, cols)), (0,) * n, L.names))


def dense_free_3_3(tmp_path):
    """free(3,3) in a fixed basis with entries in {-1, 0, 1}, every weight declared 0:
    d is dense in the file's basis and sparse in the generated one.  The file's path."""
    conj = sign_conjugate(free_nilpotent_lie(3, 3).algebra, "free(3,3)")
    path = tmp_path / "c_free3c3.alg"
    path.write_text(emit_algebra(conj, weights=(0,) * conj.dimension))
    return str(path)


# Previously published degree-3 class lists for the theorem2 family,
# keyed by (k, which differential).
LISTED_CLASSES = {
    (2, "d"): [
        "x4^x5^n2 + x1^n1^n2 - x2^x3^m",
        "x4^x5^n1 - x3^n1^n3 - x1^x2^m",
        "x3^n2^n3",
        "x3^n1^n2 + x1^x5^n3 - x1^x3^m",
        "x2^n1^n2",
        "x1^n1^n2 + x2^x5^n3 - x2^x3^m",
    ],
    (2, "bar"): [
        "x3^n2^n3",
        "x3^n1^n3 + x1^x2^m",
        "x3^n1^n2 - x1^x3^m",
        "x2^n1^n2",
        "- x1^n1^n2 + x2^x3^m",
    ],
    (3, "d"): [
        "x6^x7^n4 + x1^n1^n4 + x2^n2^n4 + x3^n3^n4 - x4^x5^m",
        "x6^x7^n3 + x1^n1^n3 + x2^n2^n3 - x5^n3^n5 - x3^x4^m",
        "x6^x7^n2 + x1^n1^n2 - x4^n2^n4 - x5^n2^n5 - x2^x3^m",
        "x6^x7^n1 - x3^n1^n3 - x4^n1^n4 - x5^n1^n5 - x1^x2^m",
        "x5^n4^n5",
        "x4^n3^n4",
        "x1^n1^n4 + x2^n2^n4 + x3^n3^n4 + x4^x7^n5 - x4^x5^m",
        "x3^n2^n3",
        "x2^n1^n2",
    ],
    (3, "bar"): [
        "x5^n4^n5",
        "- x1^n1^n3 - x2^n2^n3 + x5^n3^n5 + x3^x4^m",
        "- x1^n1^n2 + x4^n2^n4 + x5^n2^n5 + x2^x3^m",
        "x3^n1^n3 + x4^n1^n4 + x5^n1^n5 + x1^x2^m",
        "x4^n3^n4",
        "- x1^n1^n4 - x2^n2^n4 - x3^n3^n4 + x4^x5^m",
        "x3^n2^n3",
        "x2^n1^n2",
    ],
}

# Published degree-3 generator counts, keyed by (family, which differential).
# The theorem2 lists above were meant to support the theorem2 counts.
PUBLISHED_COUNTS = {
    ("theorem2(2)", "d"): 6,
    ("theorem2(2)", "bar"): 5,
    ("theorem2(3)", "d"): 9,
    ("theorem2(3)", "bar"): 8,
    ("theorem4", "d"): 31,
    ("theorem4", "bar"): 27,
}

# The displayed cohomology ring generator map for the five-dimensional pair,
# as (source class, image class) expression pairs.
SECTION3_RING_MAP = [
    ("a1", "a1"),
    ("a2", "a2"),
    ("a2^b", "a2^b"),
    ("b^c - a2^d", "b^c - a2^d"),
    ("a1^b^c", "a1^b^c"),
    ("a1^c^d", "a1^c^d - a2^b^d"),
    ("a1^b^c^d", "a1^b^c^d"),
]

# The same map completed by the omitted degree-2 generator [a1^d] (whose
# only closed representative in the second model is a1^d + a2^c).
SECTION3_RING_MAP_COMPLETED = SECTION3_RING_MAP[:4] + [
    ("a1^d", "a1^d + a2^c"),
] + SECTION3_RING_MAP[4:]


@lru_cache(maxsize=None)
def section3_ring_verdicts():
    """verify_cohomology_ring_iso results for the completed and the published
    section3 maps, computed once and shared by the tests that check them."""
    first, second = section3_pair()
    H1, H2 = Cohomology(first), Cohomology(second)

    def verify(table):
        pairs = [(form_of(first, s), form_of(second, d)) for s, d in table]
        return verify_cohomology_ring_iso(H1, H2, pairs)

    return verify(SECTION3_RING_MAP_COMPLETED), verify(SECTION3_RING_MAP)
