"""Seeded benchmark inputs, built without srgpq so the program never shapes its own inputs.

Graphs are adjacency rows (Python ints used as bitsets).  Both witnesses are
linear representations: Cayley graphs on GF(4)^m whose connection set is
every nonzero multiple of a point set K of PG(m-1, 4).  K is the hyperoval
{(1, c, c^2)} + {(0,1,0), (0,0,1)} for GQ(3,5) (m = 3, 64 vertices) and the
elliptic quadric x0*x1 + x2^2 + x2*x3 + w*x3^2 = 0 for the n = 3 witness
(m = 4, 256 vertices).  Vector (x_0, ..., x_{m-1}) is vertex sum x_i 4^(m-1-i),
so addition is xor and gq35 keeps the labelling of ``srgpq build gq35``.
"""

from __future__ import annotations

import random
from itertools import product

# GF(4) = {0, 1, w, w^2} encoded as 0..3; addition is xor, w^2 = w + 1.
GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
W = 2

GQ35_PARAMS = (64, 18, 2, 6)
OVOID256_PARAMS = (256, 51, 2, 12)


def _vertex_id(vector) -> int:
    number = 0
    for coordinate in vector:
        number = number << 2 | coordinate
    return number


def linear_representation(points, m: int) -> list[int]:
    """Rows of the Cayley graph on GF(4)^m connected by the multiples of points."""
    connection = {
        _vertex_id(GF4_MUL[scale][x] for x in point) for point in points for scale in (1, 2, 3)
    }
    return [sum(1 << (x ^ d) for d in connection) for x in range(4**m)]


def gq35_rows() -> list[int]:
    """GQ(3,5) collinearity graph, SRG(64, 18, 2, 6): the hyperoval cone in GF(4)^3."""
    conic = [(1, c, GF4_MUL[c][c]) for c in range(4)]
    return linear_representation(conic + [(0, 1, 0), (0, 0, 1)], 3)


def _elliptic_quadric(x0: int, x1: int, x2: int, x3: int) -> int:
    mul = GF4_MUL
    return mul[x0][x1] ^ mul[x2][x2] ^ mul[x2][x3] ^ mul[W][mul[x3][x3]]


def ovoid_points() -> list[tuple[int, int, int, int]]:
    """The 17 points of the elliptic quadric in PG(3,4), first nonzero coordinate 1."""
    points = []
    for vector in product(range(4), repeat=4):
        leading = next((x for x in vector if x), None)
        if leading == 1 and _elliptic_quadric(*vector) == 0:
            points.append(vector)
    return points


def ovoid256_rows() -> list[int]:
    """The n = 3 witness, diamond-free SRG(256, 51, 2, 12): the ovoid cone in GF(4)^4."""
    return linear_representation(ovoid_points(), 4)


def shrikhande_rows() -> list[int]:
    """Cayley graph on Z4 x Z4, SRG(16, 6, 2, 2) and not diamond-free."""
    steps = ((1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3))
    return [
        sum(1 << (4 * ((a + da) % 4) + (b + db) % 4) for da, db in steps)
        for a in range(4)
        for b in range(4)
    ]


def rook4_rows() -> list[int]:
    """4x4 rook graph, SRG(16, 6, 2, 2), diamond-free but outside the family."""
    return [
        sum(1 << (4 * i + jj) for jj in range(4) if jj != j)
        | sum(1 << (4 * ii + j) for ii in range(4) if ii != i)
        for i in range(4)
        for j in range(4)
    ]


def seeded_permutation(nu: int, rng: random.Random, identity: bool = False) -> list[int]:
    images = list(range(nu))
    if not identity:
        rng.shuffle(images)
    return images


def relabel(rows: list[int], images: list[int]) -> list[int]:
    """Rows of the same graph with vertex v renamed images[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        renamed = 0
        for w in _bits(row):
            renamed |= 1 << images[w]
        out[images[v]] = renamed
    return out


def two_switch(rows: list[int], rng: random.Random) -> list[int]:
    """Replace edges ab, cd by ac, bd where a !~ c and b !~ d: every degree is kept.

    On an SRG with mu > lam + 2 the result is never an SRG: a and b become
    non-adjacent with at most lam + 2 common neighbours.
    """
    nu = len(rows)
    while True:
        a, c = rng.randrange(nu), rng.randrange(nu)
        b = rng.choice(list(_bits(rows[a])))
        d = rng.choice(list(_bits(rows[c])))
        if len({a, b, c, d}) == 4 and not rows[a] >> c & 1 and not rows[b] >> d & 1:
            break
    out = list(rows)
    for x, y in ((a, b), (c, d), (a, c), (b, d)):
        out[x] ^= 1 << y
        out[y] ^= 1 << x
    return out


def toggle(rows: list[int], rng: random.Random) -> list[int]:
    """Add or remove one seeded edge: two degrees change, so the graph is not regular."""
    u, v = rng.sample(range(len(rows)), 2)
    out = list(rows)
    out[u] ^= 1 << v
    out[v] ^= 1 << u
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def srg_params(rows: list[int]):
    """(nu, k, lam, mu) when rows form a strongly regular graph, else None."""
    nu = len(rows)
    degrees = {row.bit_count() for row in rows}
    if len(degrees) != 1:
        return None
    common = {True: set(), False: set()}
    for u in range(nu):
        for v in range(u + 1, nu):
            common[bool(rows[u] >> v & 1)].add((rows[u] & rows[v]).bit_count())
    if len(common[True]) != 1 or len(common[False]) != 1:
        return None
    return (nu, degrees.pop(), common[True].pop(), common[False].pop())


def diamond_free(rows: list[int]) -> bool:
    """Every edge's common neighbourhood is a clique (no induced K4 minus an edge)."""
    for u, row in enumerate(rows):
        for v in _bits(row >> (u + 1) << (u + 1)):
            common = row & rows[v]
            if any((rows[x] | 1 << x) & common != common for x in _bits(common)):
                return False
    return True


def graph6(rows: list[int]) -> str:
    """graph6 text: upper triangle column by column, six bits a byte, offset 63."""
    nu = len(rows)
    if nu <= 62:
        prefix = [nu]
    else:
        prefix = [63, nu >> 12 & 63, nu >> 6 & 63, nu & 63]
    bits = "".join(format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, nu))
    bits += "0" * (-len(bits) % 6)
    chunks = [int(bits[i : i + 6], 2) for i in range(0, len(bits), 6)]
    return "".join(chr(63 + value) for value in prefix + chunks)
