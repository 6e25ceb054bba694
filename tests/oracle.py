"""Brute-force cohomology oracle and random algebra generators.

The oracle is written independently of the library pipeline: it builds the
Chevalley-Eilenberg differential straight from the structure constants with
its own sign bookkeeping and ranks the dense matrices with its own forward
elimination; its bracket, and the Jacobiator built on it, take dense vectors
of Fractions.  Where dense Fraction ranks are too slow (n >= 16),
``modular_ranks`` builds d as sparse columns from the structure constants
and ranks them modulo a large prime, with no code of ``nilrigid.linalg``.
Agreement with the library is therefore meaningful evidence.
"""

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb
import random

from nilrigid.lie import AdaptedBasis, LieAlgebra, change_basis, trivial_basis, jacobi_defect
from nilrigid.free_nilpotent import free_nilpotent_lie

ZERO = Fraction(0)
# pairwise coprime denominators, so that common denominators grow to ~1e30
DENOMINATORS = (1, 2, 3, 7, 999953, 999959, 999961, 999979, 999983)


def _sorted_sign(seq):
    """Sort a sequence of distinct indices, returning (tuple, parity sign)."""
    items = list(seq)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    return tuple(items), sign


def _forward_rank(rows, width):
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(width):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        inv = Fraction(1) / prow[col]
        support = [j for j in range(col, width) if prow[j]]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                f *= inv
                for j in support:
                    mat[i][j] -= f * prow[j]
        rank += 1
    return rank


def _differential_matrix(L, p):
    """Dense matrix of d: Lambda^p -> Lambda^(p+1) from structure constants."""
    n = L.dimension
    src = list(combinations(range(n), p))
    dst = {mono: i for i, mono in enumerate(combinations(range(n), p + 1))}
    rows = [[ZERO] * len(src) for _ in dst]
    for col, mono in enumerate(src):
        for pos, i in enumerate(mono):
            rest = mono[:pos] + mono[pos + 1 :]
            for (l, k), vec in L.brackets.items():
                c = vec.get(i)
                if not c:
                    continue
                if l in rest or k in rest:
                    continue
                merged, sign = _sorted_sign(rest + (l, k))
                value = Fraction((-1) ** pos) * (-c) * sign
                rows[dst[merged]][col] += value
    return rows, len(src)


def oracle_columns(L, p):
    """Sparse columns {row: coefficient} of the dense d_p above."""
    rows, width = _differential_matrix(L, p)
    return [{r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(width)]


def oracle_d_squared(L):
    """(i, {row: coefficient}) for every i with d_2 d_1 v_i != 0, rows over Lambda^3."""
    d1, d2 = oracle_columns(L, 1), oracle_columns(L, 2)
    out = []
    for i, column in enumerate(d1):
        dd = {}
        for j, c in column.items():
            for r, v in d2[j].items():
                dd[r] = dd.get(r, ZERO) + c * v
        dd = {r: v for r, v in dd.items() if v}
        if dd:
            out.append((i, dd))
    return out


def oracle_bracket(L, u, v):
    """[u, v] of dense Fraction vectors, straight from the structure constants."""
    out = [Fraction(0)] * L.dimension
    for (l, k), vec in L.brackets.items():
        f = u[l] * v[k] - u[k] * v[l]
        for i, c in vec.items():
            out[i] += f * c
    return out


def oracle_grading_rank(L) -> int:
    """The rank of the maximal diagonal grading of L in its own basis: n less
    the rank of the rows e_l + e_k - e_i, one per structure constant c^i_lk != 0."""
    n, rows = L.dimension, []
    for (l, k), vec in L.brackets.items():
        for i, c in vec.items():
            if c:
                row = [ZERO] * n
                row[l] += 1
                row[k] += 1
                row[i] -= 1
                rows.append(row)
    return n - _forward_rank(rows, n)


def oracle_lcs_dimensions(L):
    """(dimensions of g = g^(0) >= [g,g] >= ..., nilpotent), brute force.

    Each stage is spanned by the brackets [u, e_k] of a basis u of the one
    before with the basis vectors, kept greedily when they raise the dense
    rank.  The list ends at 0 or, once, at the dimension where it stabilizes.
    """
    n = L.dimension
    e = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    dims, stage = [n], e
    while True:
        nxt = []
        for u in stage:
            for x in e:
                b = oracle_bracket(L, u, x)
                if _forward_rank(nxt + [b], n) > len(nxt):
                    nxt.append(b)
        if len(nxt) == dims[-1]:
            return tuple(dims), False
        dims.append(len(nxt))
        if not nxt:
            return tuple(dims), True
        stage = nxt


def oracle_carnot(L, basis):
    """The Carnot associate of L in an adapted basis, cut on brackets: L
    changed to the basis, keeping the entries c e_i of each [e_a, e_b] with
    w_i = w_a + w_b + 1.  No model and no form is built."""
    M, w = change_basis(L, basis), basis.weights
    brackets = {}
    for (a, b), vec in M.brackets.items():
        if kept := {i: c for i, c in vec.items() if w[i] == w[a] + w[b] + 1}:
            brackets[a, b] = kept
    return LieAlgebra(M.names, brackets)


def jacobiator(L):
    """Jacobi defects computed straight from the structure constants."""
    n = L.dimension
    bracket = partial(oracle_bracket, L)
    e = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    defects = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = (
                    bracket(bracket(e[i], e[j]), e[k]),
                    bracket(bracket(e[j], e[k]), e[i]),
                    bracket(bracket(e[k], e[i]), e[j]),
                )
                defect = [sum(column) for column in zip(*terms)]
                if any(defect):
                    defects.append((i, j, k, defect))
    return defects


def oracle_betti(L) -> tuple:
    """Betti numbers of the Chevalley-Eilenberg complex, brute force.

    Every d_p is ranked, also where the library reads rank d_p off
    rank d_(n-1-p) by duality: this is the independent check of that."""
    n = L.dimension
    ranks = []
    for p in range(n):
        rows, width = _differential_matrix(L, p)
        ranks.append(_forward_rank(rows, width))
    ranks.append(0)
    out = []
    for p in range(n + 1):
        dim = comb(n, p)
        below = ranks[p - 1] if p else 0
        out.append(dim - ranks[p] - below)
    return tuple(out)


def oracle_betti_by_weight(L, weights, p) -> dict:
    """H^p split by weight, brute force: {weight: dimension}, nonzero only.

    ``weights[i]`` is that of the dual of basis vector i, and d must map
    weight s to weight s - 1, as in a Carnot-graded model.  Each weight block
    of every d_q (its columns of one weight) is ranked densely, also above
    the middle degree, where the library reads these ranks off pivots of the
    lower half: H^p at weight s is dim Lambda^p there less the rank of d_p on
    weight s and that of d_(p-1) on weight s + 1."""
    n = L.dimension
    if not 0 <= p <= n:
        return {}

    def weight(mono):
        return sum(weights[i] for i in mono)

    def block_ranks(q):  # weight s of Lambda^q -> rank of d_q on it
        if q < 0:
            return {}
        rows, _ = _differential_matrix(L, q)
        blocks = {}
        for j, mono in enumerate(combinations(range(n), q)):
            blocks.setdefault(weight(mono), []).append(j)
        return {s: _forward_rank([r for r in ([row[j] for j in cols] for row in rows) if any(r)],
                                 len(cols))
                for s, cols in blocks.items()}

    dims = Counter(weight(mono) for mono in combinations(range(n), p))
    dims.subtract(block_ranks(p))
    dims.subtract({s - 1: r for s, r in block_ranks(p - 1).items()})
    return {w: b for w, b in sorted(dims.items()) if b}


def oracle_extend(basis, row):
    """Gauss-Jordan step on Fractions: add the sparse row ``row`` ({column:
    value}, not modified) to the reduced echelon basis ``basis`` ({pivot:
    row}, each row 1 at its pivot and 0 at every other pivot) in place.
    Returns True iff the span grew."""
    r = {j: Fraction(x) for j, x in row.items() if x}
    for c, prow in basis.items():
        f = r.get(c)
        if f:
            r = {j: v for j in r.keys() | prow.keys()
                 if (v := r.get(j, ZERO) - f * prow.get(j, ZERO))}
    if not r:
        return False
    lead = min(r)
    r = {j: x / r[lead] for j, x in r.items()}
    for c, prow in basis.items():
        f = prow.get(lead)
        if f:
            basis[c] = {j: v for j in prow.keys() | r.keys()
                        if (v := prow.get(j, ZERO) - f * r.get(j, ZERO))}
    basis[lead] = r
    return True


def _nullspace(rows, width):
    """Basis of {v : rows . v = 0}, read off a reduced row echelon form."""
    mat = [list(r) for r in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != r and f:
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [ZERO] * width
        v[free] = Fraction(1)
        for row, col in zip(mat, pivots):
            v[col] = -row[free]
        basis.append(v)
    return basis


def _wedge(u, i, v, j, n):
    """Product of cochains u in Lambda^i and v in Lambda^j, as a dense vector."""
    index = {mono: r for r, mono in enumerate(combinations(range(n), i + j))}
    out = [ZERO] * len(index)
    left = [(a, c) for a, c in zip(combinations(range(n), i), u) if c]
    right = [(b, c) for b, c in zip(combinations(range(n), j), v) if c]
    for a, ca in left:
        for b, cb in right:
            if set(a) & set(b):
                continue
            merged, sign = _sorted_sign(a + b)
            out[index[merged]] += sign * ca * cb
    return out


def _coboundaries(L, p):
    """Rows spanning d(Lambda^(p-1)) inside Lambda^p; none for B^0 = 0."""
    if p == 0:
        return []
    d_prev, _ = _differential_matrix(L, p - 1)
    return [list(col) for col in zip(*d_prev)]


def _coboundaries_and_products(L, p):
    """Rows spanning d(Lambda^(p-1)) + sum_{0<i<p} Z^i ^ Z^(p-i) in Lambda^p.

    A product of cocycles with one factor exact is itself exact, so the span
    of these rows modulo coboundaries is H^+ . H^+ inside H^p.
    """
    n = L.dimension
    rows = _coboundaries(L, p)
    cocycles = {}
    for i in range(1, p):
        d_i, width = _differential_matrix(L, i)
        cocycles[i] = _nullspace(d_i, width)
    for i in range(1, p // 2 + 1):
        for u in cocycles[i]:
            for v in cocycles[p - i]:
                rows.append(_wedge(u, i, v, p - i, n))
    return rows


def oracle_indecomposables(L, p) -> int:
    """dim H^p / (H^+ . H^+), brute force: dim Z^p - dim(B^p + products)."""
    if p < 1 or p > L.dimension:
        return 0
    width = comb(L.dimension, p)
    d_p, _ = _differential_matrix(L, p)
    cocycle_dim = width - _forward_rank(d_p, width)
    return cocycle_dim - _forward_rank(_coboundaries_and_products(L, p), width)


def oracle_class_rank(L, p, cochains, modulo_products=False) -> int:
    """Rank of closed p-cochains modulo coboundaries, and with
    ``modulo_products`` also modulo products of cocycles.

    Each cochain is a mapping from increasing index tuples to coefficients.
    Raises ValueError on a cochain that is not closed.
    """
    monos = list(combinations(range(L.dimension), p))
    width = len(monos)
    d_p, _ = _differential_matrix(L, p)
    vectors = [[Fraction(c.get(m, 0)) for m in monos] for c in cochains]
    for v in vectors:
        support = [(j, c) for j, c in enumerate(v) if c]
        if any(sum(row[j] * c for j, c in support if row[j]) for row in d_p):
            raise ValueError("cochain is not closed")
    base = _coboundaries_and_products(L, p) if modulo_products else _coboundaries(L, p)
    return _forward_rank(base + vectors, width) - _forward_rank(base, width)


# -- ranks modulo a prime ----------------------------------------------------

# the Mersenne prime 2^61 - 1: over F_P a rank is at most the rational rank
# and equal to it for all but finitely many primes, so at a prime this large
# a rank that differs from the engine's flags a bug on either side
PRIME = 2**61 - 1


def modular_columns(L, p, prime=PRIME):
    """d: Lambda^p -> Lambda^(p+1) as sparse columns {mask: value mod prime},
    one per degree-p mask (bit i: generator i), straight from L.brackets:
    d v^i = -sum_(l<k) c^i_lk v^l v^k, and d of v^(i_0) ... v^(i_(p-1)) is
    sum_pos (-1)^pos (d v^(i_pos)) ^ rest, whose sign is that of moving v^l,
    then v^k, behind rest: (-1)^(#rest above l + #rest above k)."""
    n = L.dimension
    terms = [[] for _ in range(n)]  # terms[i]: (l, k, -c^i_lk mod prime)
    for (l, k), vec in L.brackets.items():
        for i, c in vec.items():
            terms[i].append((l, k, -c.numerator * pow(c.denominator, -1, prime) % prime))
    columns = []
    for mono in combinations(range(n), p):
        mask = sum(1 << i for i in mono)
        col = {}
        for pos, i in enumerate(mono):
            rest = mask ^ (1 << i)
            for l, k, c in terms[i]:
                if rest >> l & 1 or rest >> k & 1:
                    continue
                flips = pos + (rest >> l + 1).bit_count() + (rest >> k + 1).bit_count()
                target = rest | 1 << l | 1 << k
                col[target] = (col.get(target, 0) + (-c if flips % 2 else c)) % prime
        columns.append({m: x for m, x in col.items() if x})
    return columns


def modular_rank(columns, prime=PRIME) -> int:
    """Rank modulo prime of sparse columns: each is reduced at its least
    row by the stored column with that leading row, scaled to 1 there, until
    it is zero or leads at a new row, where it is stored."""
    stored = {}
    for column in columns:
        r = dict(column)
        while r:
            lead = min(r)
            prow = stored.get(lead)
            if prow is None:
                inv = pow(r[lead], -1, prime)
                stored[lead] = {j: x * inv % prime for j, x in r.items()}
                break
            f = r[lead]
            for j, x in prow.items():
                v = (r.get(j, 0) - f * x) % prime
                if v:
                    r[j] = v
                else:
                    r.pop(j, None)
    return len(stored)


def modular_ranks(L, prime=PRIME) -> tuple:
    """rank d_p modulo prime for p = 0..n-1, every degree eliminated."""
    return tuple(modular_rank(modular_columns(L, p, prime), prime) for p in range(L.dimension))


# -- random algebra generation ----------------------------------------------


def abelian(n):
    return LieAlgebra(tuple(f"e{i}" for i in range(1, n + 1)), {})


def heisenberg():
    return LieAlgebra(("x1", "x2", "z"), {(0, 1): {2: Fraction(1)}})


def filiform4():
    return LieAlgebra(
        ("x1", "x2", "n1", "m"),
        {(0, 1): {2: Fraction(-1)}, (0, 2): {3: Fraction(-1)}},
    )


def direct_sum(a, b):
    names = tuple(n + "A" for n in a.names) + tuple(n + "B" for n in b.names)
    shift = a.dimension
    brackets = {pair: dict(vec) for pair, vec in a.brackets.items()}
    for (l, k), vec in b.brackets.items():
        brackets[(l + shift, k + shift)] = {i + shift: c for i, c in vec.items()}
    return LieAlgebra(names, brackets)


def base_algebras():
    """Known-valid nilpotent algebras of dimension at most 6."""
    return [
        abelian(3),
        abelian(6),
        heisenberg(),
        filiform4(),
        free_nilpotent_lie(2, 3).algebra,
        free_nilpotent_lie(3, 2).algebra,
        direct_sum(heisenberg(), abelian(2)),
        direct_sum(filiform4(), abelian(2)),
    ]


def random_invertible(rng, n, bound=2):
    while True:
        cols = tuple(
            tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
            for _ in range(n)
        )
        if _forward_rank(cols, n) == n:
            return cols


def random_nilpotent(rng):
    """A validated nilpotent algebra: a known one in a random rational basis."""
    L = rng.choice(base_algebras())
    basis = trivial_basis(L)
    cols = random_invertible(rng, L.dimension)
    conjugated = change_basis(
        L,
        type(basis)(columns=cols, weights=basis.weights, names=L.names),
    )
    assert not jacobi_defect(conjugated)
    return conjugated


def rational_conjugate(rng, L):
    """L in a random basis whose entries are small integers over DENOMINATORS."""
    n = L.dimension
    while True:
        cols = tuple(
            tuple(Fraction(rng.randint(-2, 2), rng.choice(DENOMINATORS)) for _ in range(n))
            for _ in range(n)
        )
        if _forward_rank(cols, n) == n:
            break
    basis = trivial_basis(L)
    return change_basis(L, type(basis)(columns=cols, weights=basis.weights, names=L.names))


def corrupt(rng, L):
    """Perturb one structure constant; may or may not break Jacobi."""
    n = L.dimension
    l = rng.randrange(n - 1)
    k = rng.randrange(l + 1, n)
    i = rng.randrange(n)
    brackets = {pair: dict(vec) for pair, vec in L.brackets.items()}
    vec = brackets.setdefault((l, k), {})
    vec[i] = vec.get(i, ZERO) + Fraction(rng.randint(1, 3))
    return LieAlgebra(L.names, brackets)


def oracle_theorem3(l, k, subspace):
    """``theorem3_family`` by a change of basis of the whole free algebra to
    (lower words | S | standard complement of S), dropping the complement,
    which is central, so the quotient is a restriction.  Ranks are dense
    ``_forward_rank``s; the validation and the names of the S vectors are
    ``theorem3_family``'s."""
    free = free_nilpotent_lie(l, k + 2)
    top_words = [w for w in free.words if len(w) == k + 2]
    dim, width = len(free.words), len(top_words)
    base = dim - width
    svecs = [[Fraction(x) for x in vec] for vec in subspace]
    if any(len(vec) != width for vec in svecs):
        raise ValueError(f"subspace vectors must have {width} coordinates")
    if _forward_rank(svecs, width) < len(svecs):
        raise ValueError("subspace vectors are linearly dependent")
    rows, comp = list(svecs), []
    for j in range(width):
        unit = [Fraction(int(i == j)) for i in range(width)]
        if _forward_rank(rows + [unit], width) > len(rows):
            rows.append(unit)
            comp.append(j)

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

    def unit(j):
        return tuple(Fraction(int(i == j)) for i in range(dim))

    columns = [unit(j) for j in range(base)]
    columns += [(ZERO,) * base + tuple(vec) for vec in svecs]
    columns += [unit(base + j) for j in comp]
    full = change_basis(free.algebra, AdaptedBasis(
        tuple(columns), (0,) * dim, tuple(names) + tuple(top_words[j] for j in comp)))
    n = len(names)
    brackets = {(a, b): {i: c for i, c in vec.items() if i < n}
                for (a, b), vec in full.brackets.items() if b < n}
    return LieAlgebra(tuple(names), brackets)
