"""Pinned answers the benchmark checks every job against.

Betti vectors were computed by nilrigid and confirmed by the independent
dense oracle ``tests/oracle.py::oracle_betti`` (run ``verify_pins.py``).
They, the LCS dimensions and the indecomposable counts are basis
invariants, so they hold for every seeded conjugate.
"""

BETTI = {
    "t1k2": (1, 4, 10, 13, 12, 13, 10, 4, 1),
    "t1k3": (1, 6, 23, 52, 84, 94, 88, 94, 84, 52, 23, 6, 1),
    "t2k2": (1, 5, 14, 23, 25, 25, 23, 14, 5, 1),
    "t2k3": (1, 7, 29, 75, 136, 178, 182, 182, 178, 136, 75, 29, 7, 1),
    "t4": (1, 4, 16, 38, 55, 60, 55, 38, 16, 4, 1),
    "free2c4": (1, 2, 6, 13, 16, 13, 6, 2, 1),
    "s3a": (1, 2, 3, 3, 2, 1),
    "s3b": (1, 2, 3, 3, 2, 1),
}

# degree -> number of indecomposable classes (H^p modulo products)
INDECOMPOSABLES = {
    "t2k2": {3: 3},
    "t2k3": {3: 4},
    "t4": {3: 23, 4: 18, 5: 8},
    "t1k3": {3: 4, 4: 1},
}

# b_6 of theorem1(3) split by Carnot weight
T1K3_DEGREE6_BY_WEIGHT = {3: 44, 4: 44}

# dimensions of the lower central series, ending in 0
LCS = {
    "free3c3": (14, 11, 8, 0),
    "free2c5": (14, 12, 11, 9, 6, 0),
    "t4": (10, 6, 1, 0),
    "t2k3": (13, 6, 1, 0),
}

# Witt dimensions of the free nilpotent algebras, by weight
WITT = {
    "free3c3": (3, 3, 8),
    "free2c6": (2, 1, 2, 3, 6, 9),
}

# The published seven-class ring map for the five-dimensional pair, and the
# same map completed by the omitted degree-2 generator [a1^d].  Copies of
# ``tests/helpers.py``; the self-test keeps them equal.
SECTION3_RING_MAP = [
    ("a1", "a1"),
    ("a2", "a2"),
    ("a2^b", "a2^b"),
    ("b^c - a2^d", "b^c - a2^d"),
    ("a1^b^c", "a1^b^c"),
    ("a1^c^d", "a1^c^d - a2^b^d"),
    ("a1^b^c^d", "a1^b^c^d"),
]
SECTION3_RING_MAP_COMPLETED = SECTION3_RING_MAP[:4] + [
    ("a1^d", "a1^d + a2^c"),
] + SECTION3_RING_MAP[4:]
