"""Free nilpotent Lie algebras on Lyndon-word bases.

Bracketings are expanded in the tensor algebra with int coefficients and
rewritten into the Lyndon basis by stripping, in place, the lexicographically
smallest word, which is the leading term, with coefficient 1, of its standard
bracketing; the Lyndon basis is a Z-basis of the free Lie ring (Chen, Fox &
Lyndon, 1958), so every coordinate is an int, and ``LieAlgebra`` makes the
Fractions.  Words of length m carry lower degree m - 1, so the algebras come
out Carnot-homogeneous.  The top words are central, so a Theorem 3 quotient
keeps each bracket's lower words and projects its top part onto the chosen
subspace along a standard complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from string import ascii_lowercase

from . import linalg
from .errors import SizeCapError
from .lie import LieAlgebra

TensorPoly = dict[str, int]


def is_lyndon(w: str) -> bool:
    """Strictly smaller than all proper rotations."""
    if not w:
        return False
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def lyndon_words(l: int, maxlen: int) -> dict[int, list[str]]:
    """Lyndon words over the first l letters, grouped by length (Duval)."""
    if l < 1 or maxlen < 1:
        raise ValueError("need at least one letter and length 1")
    alphabet = ascii_lowercase[:l]
    out: dict[int, list[str]] = {m: [] for m in range(1, maxlen + 1)}
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if w[-1] < l:
            out[m].append("".join(alphabet[c] for c in w))
            while len(w) < maxlen:
                w.append(w[-m])
        else:
            w.pop()
    for words in out.values():
        words.sort()
    return out


def standard_factorization(w: str) -> tuple[str, str]:
    """Split at the longest proper Lyndon suffix."""
    if len(w) < 2:
        raise ValueError("factorization needs length >= 2")
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise ValueError(f"{w!r} is not a Lyndon word")


def witt_dimension(l: int, n: int) -> int:
    """Dimension of the length-n component of the free Lie algebra on l letters."""
    if l < 1 or n < 1:
        raise ValueError("need at least one letter and length 1")

    def mobius(m: int) -> int:
        if m == 1:
            return 1
        result = 1
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                result = -result
            else:
                p += 1
        if m > 1:
            result = -result
        return result

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(d) * l ** (n // d)
    return total // n


def _poly_commutator(a: TensorPoly, b: TensorPoly, maxlen: int) -> TensorPoly:
    out: TensorPoly = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= maxlen:
                c = ca * cb
                out[wa + wb] = out.get(wa + wb, 0) + c
                out[wb + wa] = out.get(wb + wa, 0) - c
    return {w: c for w, c in out.items() if c}


class LyndonBasis:
    """Lyndon basis of the free Lie algebra, truncated at word length c."""

    def __init__(self, l: int, c: int):
        self.l = l
        self.c = c
        self.by_length = lyndon_words(l, c)
        self.words = [w for m in range(1, c + 1) for w in self.by_length[m]]
        self.index = {w: i for i, w in enumerate(self.words)}
        self._expansion: dict[str, TensorPoly] = {}

    def expansion(self, w: str) -> TensorPoly:
        """Tensor-algebra expansion of the standard bracketing of w."""
        if w in self._expansion:
            return self._expansion[w]
        if len(w) == 1:
            poly = {w: 1}
        else:
            u, v = standard_factorization(w)
            poly = _poly_commutator(self.expansion(u), self.expansion(v), self.c)
        self._expansion[w] = poly
        return poly

    def to_coordinates(self, poly: TensorPoly) -> dict[str, int]:
        """Lyndon coordinates of a Lie element given as a tensor polynomial,
        in increasing word order.

        Works because the expansion of a Lyndon bracketing is its word plus
        lexicographically larger rearrangements, so c times it strips the
        leading word w, of coefficient c, from a copy of ``poly`` in place.
        """
        poly = {w: c for w, c in poly.items() if len(w) <= self.c and c}
        coords: dict[str, int] = {}
        while poly:
            w = min(poly)
            if w not in self.index:
                raise ValueError(f"leading word {w!r} is not Lyndon; input is not a Lie element")
            c = coords[w] = poly[w]
            for u, x in self.expansion(w).items():
                if v := poly.get(u, 0) - c * x:
                    poly[u] = v
                else:
                    del poly[u]
        return coords


@dataclass(frozen=True)
class FreeNilpotentAlgebra:
    """Free nilpotent Lie algebra of the given class with its word basis."""

    l: int
    nilpotency_class: int
    words: tuple[str, ...]
    algebra: LieAlgebra

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(len(w) - 1 for w in self.words)


def free_nilpotent_lie(l: int, c: int, max_dim: int = 64) -> FreeNilpotentAlgebra:
    """Free nilpotent Lie algebra on l generators of class c."""
    if l < 1 or c < 1:
        raise ValueError("need l >= 1 and c >= 1")
    total = sum(witt_dimension(l, m) for m in range(1, c + 1))
    if total > max_dim:
        raise SizeCapError(f"dimension {total} exceeds the cap of {max_dim}")
    basis = LyndonBasis(l, c)
    words = basis.words
    brackets = {}
    for a, u in enumerate(words):
        for b in range(a + 1, len(words)):
            v = words[b]
            if len(u) + len(v) > c:
                continue
            poly = _poly_commutator(basis.expansion(u), basis.expansion(v), c)
            if coords := basis.to_coordinates(poly):
                brackets[(a, b)] = {basis.index[w]: cf for w, cf in coords.items()}
    return FreeNilpotentAlgebra(
        l=l,
        nilpotency_class=c,
        words=tuple(words),
        algebra=LieAlgebra(tuple(words), brackets),
    )


def theorem3_family(l: int, k: int, subspace, max_dim: int = 64) -> LieAlgebra:
    """Free-to-lower-degree-k algebra whose top component is a chosen subspace.

    The input spans a subspace S of the length-(k+2) Lyndon component; the
    algebra is the free nilpotent one of class k+2 with the top component
    quotiented down to S.  The top words are central, so each free bracket
    keeps its lower words, and its top part becomes its S coordinates: one
    ``ColumnSolver`` over (S | complement), the complement standard vectors
    completing S, whose coordinates are dropped.
    """
    free = free_nilpotent_lie(l, k + 2, max_dim=max_dim)
    top_words = [w for w in free.words if len(w) == k + 2]
    base = len(free.words) - len(top_words)
    width = len(top_words)
    svecs = [[Fraction(x) for x in vec] for vec in subspace]
    for vec in svecs:
        if len(vec) != width:
            raise ValueError(f"subspace vectors must have {width} coordinates")
    span: dict[int, dict[int, int]] = {}
    columns = [linalg.sparse(vec) for vec in svecs]
    for col in columns:
        if not linalg.integer_extend(span, col):
            raise ValueError("subspace vectors are linearly dependent")
    # complete S to the top component by standard coordinates
    columns += [{j: 1} for j in range(width) if linalg.integer_extend(span, {j: 1})]
    solver = linalg.ColumnSolver(columns, width)

    names = list(free.words[:base])
    used = set(names)
    for i, vec in enumerate(svecs):
        nonzero = [j for j, x in enumerate(vec) if x]
        if len(nonzero) == 1 and vec[nonzero[0]] == 1 and top_words[nonzero[0]] not in used:
            name = top_words[nonzero[0]]
        else:
            name = f"s{i + 1}"
            while name in used:
                name += "_"
        used.add(name)
        names.append(name)

    brackets = {}
    for (a, b), vec in free.algebra.brackets.items():
        out = {i: c for i, c in vec.items() if i < base}
        if top := {i - base: c for i, c in vec.items() if i >= base}:
            x = solver.solve(top)
            out.update((base + s, x[s]) for s in range(len(svecs)) if x[s])
        brackets[(a, b)] = out
    return LieAlgebra(tuple(names), brackets)
