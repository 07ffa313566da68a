"""Incidence structures, partial-quadrangle axiom checking, and witness graphs.

The built-in witnesses are the Shrikhande graph (not diamond-free, used as a
negative control) and three linear representations over GF(4): the 4x4 rook
graph, with the Shrikhande graph's parameters, whose connection directions are
the two points of PG(1,4); the 64-vertex collinearity graph of GQ(3,5), whose
directions form a hyperoval of PG(2,4); and the 256-vertex n = 3 family member,
whose directions form the elliptic quadric of PG(3,4).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

from srgpq.graphcore import (
    Graph,
    _bit_field_rows,
    bits,
    is_srg_report,
    maximal_cliques_via_edges,
    row_zero_counts,
)
from srgpq.params import ParameterError, PqParams


class GeometryError(ValueError):
    """Malformed incidence data or a failed construction self-check."""


# GF(4) = {0, 1, w, w^2} encoded as 0..3; addition is xor, w^2 = w + 1.
GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..num_points-1 and lines given as point-id tuples."""

    num_points: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[tuple[int, ...]] = set()
        for line in self.lines:
            if any(not 0 <= p < self.num_points for p in line):
                raise GeometryError(f"line {line} has a point outside 0..{self.num_points - 1}")
            if len(set(line)) != len(line):
                raise GeometryError(f"line {line} repeats a point")
            key = tuple(sorted(line))
            if key in seen:
                raise GeometryError(f"duplicate line {line}")
            seen.add(key)

    @classmethod
    def from_lines(cls, num_points: int, lines: Sequence[Sequence[int]]) -> "IncidenceStructure":
        return cls(num_points, tuple(tuple(sorted(line)) for line in lines))


@dataclass(frozen=True)
class PqAxiomReport:
    """Outcome of the four partial-quadrangle axioms on a structure.

    params is set exactly when all axioms hold; otherwise violated_axiom names
    the first failure and witness carries the offending configuration.
    """

    params: Optional[PqParams]
    is_generalized_quadrangle: bool
    violated_axiom: Optional[str]
    witness: Optional[dict]

    @property
    def ok(self) -> bool:
        return self.params is not None


def _incidence_masks(inc: IncidenceStructure) -> tuple[list[int], list[int], list[int], Optional[dict]]:
    """The line masks, point degrees and collinearity masks, from one pass over the lines.

    The fourth value is the axiom (ii) witness: the first pair of points
    on two lines, in line order and then in the pair order of the sorted
    line, or None.  Before a line is added, coll[a] & mask holds the
    points of the line that share an earlier line with a; at the least
    such a these are all above a, and exactly one earlier line holds a
    and the least of them.
    """
    line_masks: list[int] = []
    degree = [0] * inc.num_points
    coll = [0] * inc.num_points
    repeated = None
    for index, line in enumerate(inc.lines):
        mask = 0
        for p in line:
            mask |= 1 << p
        for a in sorted(line):
            shared = coll[a] & mask
            if shared and repeated is None:
                b = (shared & -shared).bit_length() - 1
                both = 1 << a | 1 << b
                first = next(j for j, earlier in enumerate(line_masks) if earlier & both == both)
                repeated = {"points": [a, b], "lines": [first, index]}
            coll[a] |= mask ^ 1 << a
            degree[a] += 1
        line_masks.append(mask)
    return line_masks, degree, coll, repeated


def _off_line_witness(line_masks: Sequence[int], coll: Sequence[int]) -> Optional[dict]:
    """The first line, and its least point off it, collinear with two or more of its points.

    Per line, ones holds the points collinear with some point of the line
    so far and twos those collinear with at least two of them, so twos
    minus the line is every offending point at once.
    """
    for index, mask in enumerate(line_masks):
        ones = twos = 0
        for q in bits(mask):
            twos |= ones & coll[q]
            ones |= coll[q]
        off = twos & ~mask
        if off:
            p = (off & -off).bit_length() - 1
            return {"point": p, "line": index, "collinear_points": list(bits(coll[p] & mask))}
    return None


def _mu_witness(lines: Sequence[Sequence[int]], coll: Sequence[int], mu: int) -> Optional[dict]:
    """The first non-collinear pair a < b with other than mu common collinear points, or None.

    Needs axioms (i) to (iii).  A point a at a time: give every point b its
    own field of width bits and let F_c be the fields of coll[c].  By (ii)
    the lines through a meet only in a, so the sum over them of the F_c of
    their points has |coll[a] & coll[b]| in field b for every b not
    collinear with a: each line L through a adds |L & coll[b]|, and a
    itself is not in coll[b].  A field is at most the points on the lines
    through a, which the width holds, as it holds mu, so no field carries
    into the next.  The fields of the points not collinear with a, a left
    out, must each read mu: one comparison of two integers.  The count is
    symmetric in a and b, so at the first failing point a every pair
    (b, a) with b < a passed in row b, and the lowest differing field is
    the first failing b of row a.
    """
    count = len(coll)
    reach = [0] * count  # per point, the points on the lines through it, with repeats
    for line in lines:
        for p in line:
            reach[p] += len(line)
    width = 8 * max(1, -(-max([mu, *reach]).bit_length() // 8))
    fields = _bit_field_rows(coll, count, width)
    sums = [0] * count  # per point a, the sum over the lines through a
    for line in lines:
        line_sum = sum([fields[p] for p in line])
        for p in line:
            sums[p] += line_sum
    ones = sum(1 << b * width for b in range(count))
    field = (1 << width) - 1
    for a, row_sum in enumerate(sums):
        apart = ones - fields[a] - (1 << a * width)
        common = row_sum & apart * field
        if common != mu * apart:
            differ = common ^ mu * apart
            b = ((differ & -differ).bit_length() - 1) // width
            return {"points": [a, b], "common": common >> b * width & field, "expected": mu}
    return None


def verify_pq_axioms(inc: IncidenceStructure) -> PqAxiomReport:
    """Check the four PQ axioms; report parameters or the first violation."""
    if not inc.lines:
        raise GeometryError("need at least one line")

    def violation(axiom: str, witness: dict) -> PqAxiomReport:
        return PqAxiomReport(
            params=None,
            is_generalized_quadrangle=False,
            violated_axiom=axiom,
            witness=witness,
        )

    # (i) constant line size s+1 and constant point degree t+1
    s_plus_one = len(inc.lines[0])
    for index, line in enumerate(inc.lines):
        if len(line) != s_plus_one:
            return violation(
                "i", {"line": index, "size": len(line), "expected": s_plus_one}
            )
    line_masks, degree, coll, repeated = _incidence_masks(inc)
    t_plus_one = degree[0] if degree else 0  # no points: mu stays undefined below
    for p, d in enumerate(degree):
        if d != t_plus_one:
            return violation("i", {"point": p, "degree": d, "expected": t_plus_one})

    # (ii) two points on at most one common line
    if repeated is not None:
        return violation("ii", repeated)

    # (iii) a point off a line is collinear with at most one of its points
    witness = _off_line_witness(line_masks, coll)
    if witness is not None:
        return violation("iii", witness)

    # (iv) every non-collinear pair sees exactly mu common collinear points.
    # By (i) and (ii) every point is collinear with s(t + 1) others, so
    # point 0 has a non-collinear point iff some point has, and mu is read there.
    _, mu = row_zero_counts(coll)
    if mu is None:
        return violation("degenerate", {"detail": "no non-collinear point pair; mu undefined"})
    witness = _mu_witness(inc.lines, coll, mu)
    if witness is not None:
        return violation("iv", witness)

    try:
        params = PqParams(s_plus_one - 1, t_plus_one - 1, mu)
    except ParameterError as exc:
        return violation("degenerate", {"detail": str(exc)})
    return PqAxiomReport(
        params=params,
        is_generalized_quadrangle=params.is_generalized_quadrangle,
        violated_axiom=None,
        witness=None,
    )


def collinearity_graph(inc: IncidenceStructure) -> Graph:
    """Graph on the points, adjacent iff co-incident with some line."""
    return Graph(_incidence_masks(inc)[2])


def graph_to_pq(g: Graph) -> IncidenceStructure:
    """Points = vertices, lines = maximal cliques, for a diamond-free SRG."""
    params, witness = is_srg_report(g)
    if params is None:
        raise GeometryError(f"input is not a nontrivial SRG: {witness}")
    return IncidenceStructure.from_lines(g.nu, maximal_cliques_via_edges(g))


def build_shrikhande() -> Graph:
    """Cayley graph on Z4 x Z4 with connection set {(+-1,0), (0,+-1), +-(1,1)}."""
    connection = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a in range(4):
        for b in range(4):
            for da, db in connection:
                u = 4 * a + b
                v = 4 * ((a + da) % 4) + (b + db) % 4
                if u < v:
                    edges.append((u, v))
    return Graph.from_edges(16, edges)


def hyperoval_points() -> tuple[tuple[int, int, int], ...]:
    """The conic {(1, c, c^2)} + (0,0,1) of PG(2,4) and its nucleus (0,1,0)."""
    conic = tuple((1, c, GF4_MUL[c][c]) for c in range(4))
    return conic + ((0, 1, 0), (0, 0, 1))


def elliptic_quadric_points() -> tuple[tuple[int, int, int, int], ...]:
    """The 17 points of x0*x1 + x2^2 + x2*x3 + w*x3^2 = 0 in PG(3,4), an ovoid."""
    mul = GF4_MUL
    return tuple(
        (x0, x1, x2, x3)
        for x0, x1, x2, x3 in product(range(4), repeat=4)
        if next((x for x in (x0, x1, x2, x3) if x), None) == 1
        and mul[x0][x1] ^ mul[x2][x2] ^ mul[x2][x3] ^ mul[2][mul[x3][x3]] == 0
    )


def linear_representation(points: Sequence[Sequence[int]], m: int) -> Graph:
    """Cayley graph on GF(4)^m connected by every nonzero multiple of a point of K.

    Vector (x_0, ..., x_{m-1}) is vertex sum x_i 4^(m-1-i), so vector addition
    is xor on the labels.  Raises GeometryError unless the points are distinct
    projective points of PG(m-1, 4) forming a cap (no three collinear), which
    makes the graph diamond-free with lam = 2.
    """
    connection = set()
    for point in points:
        if len(point) != m or not all(0 <= x < 4 for x in point):
            raise GeometryError(f"{point} is not a vector of GF(4)^{m}")
        for scale in (1, 2, 3):
            vertex = 0
            for x in point:
                vertex = vertex << 2 | GF4_MUL[scale][x]
            connection.add(vertex)
    if len(connection) != 3 * len(points):
        raise GeometryError("the points are not distinct nonzero projective points")
    rows = [sum(1 << (x ^ d) for d in connection) for x in range(4**m)]
    # 0 ~ x has the two other multiples of x as common neighbours; any further
    # common neighbour a q = x + b r puts x's point on the line through q and r.
    for x in sorted(connection):
        if (rows[0] & rows[x]).bit_count() != 2:
            raise GeometryError(f"not a cap: the point of vertex {x} lies on a secant")
    return Graph(rows)


def build_rook4() -> Graph:
    """4x4 rook graph, SRG(16, 6, 2, 2): the cone over the two points of PG(1,4) in GF(4)^2.

    Vertex 4i+j is (i, j); two vertices are adjacent iff they share a row or a column.
    """
    return linear_representation(((1, 0), (0, 1)), 2)


def build_gq35() -> Graph:
    """Collinearity graph of GQ(3,5), SRG(64, 18, 2, 6): the hyperoval cone in GF(4)^3."""
    return linear_representation(hyperoval_points(), 3)


def build_ovoid256() -> Graph:
    """The n = 3 witness, diamond-free SRG(256, 51, 2, 12): the ovoid cone in GF(4)^4."""
    return linear_representation(elliptic_quadric_points(), 4)


def parse_incidence(text: str) -> IncidenceStructure:
    """Parse the incidence text format: header "P L", then L lines of point ids.

    Blank lines and lines starting with '#' are skipped.
    """
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise GeometryError("empty incidence file")
    header = rows[0].split()
    if len(header) != 2:
        raise GeometryError(f"header must be 'P L', got {rows[0]!r}")
    try:
        num_points, num_lines = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GeometryError(f"non-integer header {rows[0]!r}") from exc
    if len(rows) - 1 != num_lines:
        raise GeometryError(f"expected {num_lines} lines, found {len(rows) - 1}")
    lines = []
    for row in rows[1:]:
        try:
            lines.append(tuple(int(tok) for tok in row.split()))
        except ValueError as exc:
            raise GeometryError(f"non-integer point id in line {row!r}") from exc
    return IncidenceStructure.from_lines(num_points, lines)


def format_incidence(inc: IncidenceStructure) -> str:
    """Serialize to the incidence text format, lines in canonical order."""
    out = [f"{inc.num_points} {len(inc.lines)}"]
    for line in sorted(tuple(sorted(l)) for l in inc.lines):
        out.append(" ".join(str(p) for p in line))
    return "\n".join(out) + "\n"
