"""Command-line front end: graph6 and incidence I/O plus JSON reporting.

Every analysis subcommand is one row of ANALYSES, run by one driver that
writes one JSON document to stdout and exits 0 when no asserted check
failed, 1 when one did, 2 on usage errors (malformed arguments or input
files, an out-of-range --vertex or --base, a --cap or --max below 1) and 3
on an internal error (any other exception, a fault of srgpq itself).  Exits
2 and 3 never emit partial JSON; stderr gets one "error: ..." line.
The producers `build` and `graph-to-pq` emit raw graph6 and incidence text.

Reports are byte-identical across runs for the same input; wall-clock
timing is only included when requested with --timing.
"""

from __future__ import annotations

import argparse
import base64
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional, Sequence

from srgpq.automorphism import (
    SIGMA_ERRORS,
    ClosureCapError,
    Permutation,
    RelatedSetError,
    _verified_sigmas,
    canonical_sigma_family,
    generate_gamma,
    related_set,
    verify_inverse_law,
    verify_involution_property,
)
from srgpq.geometry import (
    GeometryError,
    build_gq35,
    build_ovoid256,
    build_rook4,
    build_shrikhande,
    format_incidence,
    graph_to_pq,
    parse_incidence,
    verify_pq_axioms,
)
from srgpq.graphcore import (
    Graph,
    GraphError,
    is_diamond_free,
    is_srg_report,
    orbit_rows,
    row_zero_counts,
)
from srgpq.localstats import (
    FamilyPreconditionError,
    PartitionError,
    check_condition_con,
    m_spectrum_histogram,
    verify_eq_pq,
    verify_inv_formula,
    verify_psi_regularity,
    verify_star,
)
from srgpq.params import (
    FamilyInfo,
    ParameterError,
    PqParams,
    SrgParams,
    detect_family,
    fixed_point_bound,
    pq_to_srg,
    solve_diophantine_17,
    spectrum_of,
    srg_to_pq_params,
)
from srgpq.certificates import pq_3_35_20_certificate
from srgpq.reports import ASSERTED_FAIL, CheckReport

GRAPH6_HEADER = ">>graph6<<"
MAX_GRAPH6_VERTICES = 1 << 14

DIOPHANTINE_REFERENCE = ((1, 1), (2, 3), (3, 4), (10, 7))


class UsageError(ValueError):
    """An argument that _analyze rejects before the analysis runs."""


class Graph6Error(ValueError):
    """Malformed graph6 data, with the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _decode_bigendian(data: bytes) -> int:
    number = 0
    for char in data:
        number = number << 6 | char - 63
    return number


# graph6 packs six bits a character as 63 + value, as base64 does with its own
# alphabet, so a translation turns one into the other.  base64 is big-endian
# within a byte, so each byte is bit-reversed: bit t of the little-endian
# stream is then graph6 bit t, and column j of the upper triangle is the j
# bits from offset j(j-1)/2.
_GRAPH6_CHARS = bytes(range(63, 127))
_BASE64_CHARS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6_CHARS, _BASE64_CHARS)
_FROM_BASE64 = bytes.maketrans(_BASE64_CHARS, _GRAPH6_CHARS)
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def _graph6_bytes(raw: str, offset: int) -> bytes:
    """raw as bytes, once every character is known to lie in 63..126."""
    if raw.isascii():
        data = raw.encode("ascii")
        if not data.translate(None, _GRAPH6_CHARS):
            return data
    index, char = next((i, c) for i, c in enumerate(raw) if not 63 <= ord(c) <= 126)
    raise Graph6Error(f"invalid graph6 character {char!r}", offset + index)


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 string (optional >>graph6<< header) into a Graph."""
    raw = text.strip()
    offset = 0
    if raw.startswith(GRAPH6_HEADER):
        offset = len(GRAPH6_HEADER)
        raw = raw[offset:]
    if not raw:
        raise Graph6Error("empty graph6 string", offset)
    data = _graph6_bytes(raw, offset)

    if data[0] - 63 <= 62:
        nu = data[0] - 63
        position = 1
    elif len(data) >= 2 and data[1] == 126:
        if len(data) < 8:
            raise Graph6Error("truncated 8-byte vertex count", offset + len(data))
        nu = _decode_bigendian(data[2:8])
        position = 8
    else:
        if len(data) < 4:
            raise Graph6Error("truncated 4-byte vertex count", offset + len(data))
        nu = _decode_bigendian(data[1:4])
        position = 4
    if nu > MAX_GRAPH6_VERTICES:
        raise Graph6Error(f"vertex count {nu} exceeds the supported {MAX_GRAPH6_VERTICES}", offset)

    bit_count = nu * (nu - 1) // 2
    needed = (bit_count + 5) // 6
    have = len(data) - position
    if have != needed:
        raise Graph6Error(
            f"expected {needed} data characters for {nu} vertices, found {have}",
            offset + position,
        )
    # trailing padding bits must be zero
    if bit_count % 6 and (data[-1] - 63) & ((1 << (6 - bit_count % 6)) - 1):
        raise Graph6Error("nonzero padding bits", offset + len(data) - 1)

    encoded = data[position:].translate(_TO_BASE64)
    stream = base64.b64decode(encoded + b"A" * (-len(encoded) % 4)).translate(_REVERSED_BITS)
    # Row j below the diagonal is column j of the upper triangle.  The
    # columns are read sixteen at a time, from the whole bytes of each block
    # that serialize_graph6 writes.
    lower = [0] if nu else []
    for first in range(1, nu, 16):
        end = min(first + 16, nu)
        start = first * (first - 1) >> 4  # the block's first byte
        length = ((first + end - 1) * (end - first) // 2 + 7) >> 3
        block = int.from_bytes(stream[start:start + length], "little")
        for j in range(first, end):
            lower.append(block & ((1 << j) - 1))
            block >>= j
    return Graph.from_lower(lower)


def _size_prefix(nu: int) -> list[int]:
    """The shortest graph6 vertex-count prefix for nu, as 6-bit values."""
    if nu <= 62:
        return [nu]
    if nu <= 258047:
        return [63, nu >> 12 & 63, nu >> 6 & 63, nu & 63]
    return [63, 63] + [nu >> shift & 63 for shift in (30, 24, 18, 12, 6, 0)]


def serialize_graph6(g: Graph) -> str:
    """Canonical graph6 encoding of a graph (no header)."""
    nu = g.nu
    rows = g.rows
    # Column j starts at bit j(j-1)/2, a byte boundary when j % 16 == 1, so
    # the columns are concatenated sixteen at a time, each block whole bytes
    # but the last.
    blocks = []
    for first in range(1, nu, 16):
        end = min(first + 16, nu)
        block = 0
        for j in range(end - 1, first - 1, -1):
            block = block << j | rows[j] & ((1 << j) - 1)
        blocks.append(block.to_bytes(((first + end - 1) * (end - first) // 2 + 7) >> 3, "little"))
    stream = b"".join(blocks).translate(_REVERSED_BITS)
    data = base64.b64encode(stream + bytes(-len(stream) % 3))[:(nu * (nu - 1) // 2 + 5) // 6]
    prefix = "".join(chr(63 + value) for value in _size_prefix(nu))
    return prefix + data.translate(_FROM_BASE64).decode("ascii")


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (SrgParams, PqParams)):
        return list(value.as_tuple())
    return value


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as handle:
        return handle.read()


def _graph6_line(path: str) -> str:
    """The first line of the input that is neither blank nor a comment, stripped."""
    for line in _read_text(path).splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return stripped
    raise Graph6Error("no graph6 line found in input", 0)


def _canonical_sha256(g: Graph, line: str) -> str:
    """SHA-256 of the canonical graph6 encoding of g, parsed from line.

    A line without header whose size prefix is the shortest one for its
    vertex count is that encoding already: parse_graph6 accepted every data
    character and checked the padding bits are zero.  Any other line is
    re-encoded.
    """
    canonical_length = len(_size_prefix(g.nu)) + (g.nu * (g.nu - 1) // 2 + 5) // 6
    if line.startswith(GRAPH6_HEADER) or len(line) != canonical_length:
        line = serialize_graph6(g)
    return hashlib.sha256(line.encode()).hexdigest()


def _spectrum_results(params: SrgParams) -> dict:
    spectrum = spectrum_of(params)
    family = detect_family(params)
    try:
        bound = asdict(fixed_point_bound(params))
    except ParameterError:
        bound = None
    return {
        "srg_params": params,
        "spectrum": asdict(spectrum),
        "family": None if family is None else asdict(family),
        "pq_params": srg_to_pq_params(params),
        "fixed_point_bound": bound,
    }


def _spectrum_consistency_check(params: SrgParams) -> CheckReport:
    report = spectrum_of(params)
    details = {"f_plus_g": None, "trace": None}
    passed = True
    if report.f is not None and report.g is not None:
        details["f_plus_g"] = report.f + report.g
        passed = report.f + report.g == params.nu - 1
        if report.r is not None and passed:
            trace = params.k + report.f * report.r + report.g * report.s_eig
            details["trace"] = trace
            passed = trace == 0
    return CheckReport(
        name="spectrum-consistency", passed=passed, asserted=True, details=details
    )


def _parameter_report(parse) -> tuple[list[CheckReport], dict]:
    """Checks and results for parse() -> (SrgParams, validity details); it may raise ParameterError."""
    try:
        params, details = parse()
    except ParameterError as exc:
        failure = CheckReport(
            name="parameters-valid",
            passed=False,
            asserted=True,
            witness={"error": str(exc)},
        )
        return [failure], {}
    checks = [
        CheckReport(name="parameters-valid", passed=True, asserted=True, details=details),
        _spectrum_consistency_check(params),
    ]
    return checks, _spectrum_results(params)


def _error_check(name: str, asserted: bool, details: dict, exc: Exception) -> CheckReport:
    """A failed check whose witness is the exception that stopped the computation."""
    return CheckReport(
        name=name,
        passed=False,
        asserted=asserted,
        details=details,
        witness={"error_type": type(exc).__name__, "error": str(exc)},
    )


def _not_applicable(name: str, reason: str, **details) -> CheckReport:
    """A diagnostic check for an analysis whose hypotheses the input does not meet."""
    details = {"not_applicable": reason, **details}
    return CheckReport(name=name, passed=False, asserted=False, details=details)


@dataclass(frozen=True)
class FamilyContext:
    """A family member and the sigmas verified on the input, built once per call.

    orbits and sigmas are what verified_sigmas returns for the member: the
    vertex orbits of the group the sigmas generate, and each sigma by the
    vertex it was built at.  failed is the error of its first build, at
    vertex 0, when that build raised, so that the sigma family at base 0
    reports it without building there again.
    """

    family: FamilyInfo
    orbits: tuple[tuple[int, ...], ...]
    sigmas: dict[int, Permutation]
    failed: Optional[Exception] = None


def _proposed_family(g: Graph) -> Optional[FamilyInfo]:
    """The family member of the parameters read at row 0 of a regular graph, or None.

    lam and mu are those of row_zero_counts.  On a strongly regular graph
    these are its parameters.
    """
    rows = g.rows
    lam, mu = row_zero_counts(rows)
    if lam is None or mu is None or any(row.bit_count() != rows[0].bit_count() for row in rows):
        return None
    try:
        return detect_family(SrgParams(g.nu, rows[0].bit_count(), lam, mu))
    except ParameterError:
        return None


def _family_context(g: Graph) -> tuple[CheckReport, Optional[FamilyContext]]:
    """The preconditions check of the family analyses, and the member's context or None.

    The context comes first, for the member proposed from row 0: the orbits
    of its verified sigmas cut both precondition checks to one row per
    orbit, and the analysis reuses the orbits and the sigmas.  The proposal
    changes only the speed, never a verdict: every kept sigma passed
    build_sigma's automorphism check, so the orbits keep
    graphcore.orbit_rows' contract.  Without a proposal the orbits are
    None, and the checks visit every vertex.  The preconditions
    pass only on a strongly regular graph, whose parameters are those read
    at row 0, so the member is then the proposal.
    """
    proposal = _proposed_family(g)
    context = None if proposal is None else FamilyContext(proposal, *_verified_sigmas(g, proposal))
    orbits = None if context is None else context.orbits
    params, witness = is_srg_report(g, orbits)
    passed = False
    details = {"requirement": "strongly-regular"}
    if params is not None:
        ok, diamond = is_diamond_free(g, orbits)
        details = {"params": params}
        if not ok:
            details["requirement"] = "diamond-free"
            witness = {"induced_diamond": list(diamond)}
        elif context is None:
            details["requirement"] = "family-member"
            witness = {"error": "mu is not of the form n(n+1) matching nu and k"}
        else:
            details["family"] = asdict(context.family)
            passed = True
    check = CheckReport(
        name="preconditions", passed=passed, asserted=True, details=details, witness=witness
    )
    return check, context if passed else None


# Analyses: (args, input, FamilyContext or None) -> (checks, results).  They
# call the library through this module's globals at call time, so perfbench's
# tracer, which patches those names, sees every call.


def _feasibility(args, _input, _context):
    def parse():
        params = SrgParams(args.nu, args.k, args.lam, args.mu)
        return params, {"params": params}

    return _parameter_report(parse)


def _pq_params(args, _input, _context):
    def parse():
        pq = PqParams(args.s, args.t, args.mu)
        return pq_to_srg(pq), {"pq_params": pq, "generalized_quadrangle": pq.is_generalized_quadrangle}

    return _parameter_report(parse)


def _check_srg(args, g: Graph, _context):
    params, witness = is_srg_report(g)
    check = CheckReport(
        name="strongly-regular",
        passed=params is not None,
        asserted=True,
        details={} if params is None else {"params": params},
        witness=witness,
    )
    return [check], {"srg_params": None} if params is None else _spectrum_results(params)


def _check_diamond_free(args, g: Graph, _context):
    ok, witness = is_diamond_free(g)
    check = CheckReport(
        name="diamond-free",
        passed=ok,
        asserted=True,
        witness=None if ok else {"induced_diamond": list(witness)},
    )
    return [check], {"diamond_free": ok}


def _local_stats(args, g: Graph, context: FamilyContext):
    family = context.family
    if family.n <= 0 or family.lam > family.n:
        return [_not_applicable("m-spectrum", "needs n > 0 and lam <= n", n=family.n)], {}
    orbits = context.orbits if args.vertex is None else ((args.vertex,),)
    sweep = m_spectrum_histogram(g, family, orbits)
    m0_values = [counts[0] for counts in sweep.histogram]
    results = {
        "m_spectrum_histogram": {
            " ".join(map(str, counts)): count for counts, count in sorted(sweep.histogram.items())
        },
        "m0_range": [min(m0_values), max(m0_values)] if m0_values else [None, None],
    }
    check = CheckReport(
        name="m-spectrum",
        passed=sweep.failure is None,
        asserted=family.n >= 3,
        details={"pairs_checked": sweep.pairs_checked},
        witness=sweep.failure,
    )
    return [check], results


def _check_con(args, g: Graph, context: FamilyContext):
    report = check_condition_con(g, context.orbits)
    return [report], {"m0_min": report.details["m0_min"], "m0_max": report.details["m0_max"]}


def _check_eq_pq(args, g: Graph, context: FamilyContext):
    try:
        report = verify_eq_pq(g, context.family, context.orbits)
    except FamilyPreconditionError as exc:
        return [_not_applicable("eq-pq", str(exc))], {}
    return [report], {"triples_checked": report.details.get("triples_checked")}


def _vertex_checks(failures: dict, checked: dict, asserted: bool) -> list[CheckReport]:
    """One report per name: its (orbit size, failure) list over checked[name] vertices."""
    return [
        CheckReport(
            name=name,
            passed=not found and checked[name] > 0,
            asserted=asserted,
            details={"vertices_checked": checked[name], "failures": sum(size for size, _ in found)},
            witness=found[0][1] if found else None,
        )
        for name, found in failures.items()
    ]


def _check_star(args, g: Graph, context: FamilyContext):
    family = context.family
    failures = {"inv-formula": [], "star-identity": []}  # (orbit size, failure)
    try:
        for u, size, _ in orbit_rows(g.nu, context.orbits):
            for report in (verify_inv_formula(g, family, u), verify_star(g, family, u)):
                if not report.passed:
                    failures[report.name].append((size, {"u": u, "witness": report.witness}))
    except FamilyPreconditionError as exc:
        return [_not_applicable("star-identity", str(exc))], {}
    checked = dict.fromkeys(failures, g.nu)
    return _vertex_checks(failures, checked, family.in_resolvent_regime), {"vertices_checked": g.nu}


def _check_psi(args, g: Graph, context: FamilyContext):
    family = context.family
    failures = {"psi-partition": [], "psi-regularity": []}  # (orbit size, failure)
    r_distribution: dict[str, int] = {}
    for u, size, _ in orbit_rows(g.nu, context.orbits):
        try:
            report = verify_psi_regularity(g, family, u)
        except PartitionError as exc:
            failures["psi-partition"].append((size, {"u": u, "error": str(exc)}))
            continue
        if not report.passed:
            failures["psi-regularity"].append((size, {"u": u, "witness": report.witness}))
        for r, count in report.details["r_distribution"].items():
            r_distribution[r] = r_distribution.get(r, 0) + size * count
    # the regularity check runs only where the cells formed
    unpartitioned = sum(size for size, _ in failures["psi-partition"])
    checked = {"psi-partition": g.nu, "psi-regularity": g.nu - unpartitioned}
    return _vertex_checks(failures, checked, family.in_triple_regime), {"r_distribution": r_distribution}


GAMMA_RESULTS = ("order", "abelian", "transitive", "orbit_sizes", "element_order_histogram",
                 "fixed_point_histogram", "order_power_of_two")


def _sigma_family(g: Graph, context: FamilyContext, base: int):
    """canonical_sigma_family at base, or at base 0 the context's failed build's error."""
    if base == 0 and context.failed is not None:
        raise context.failed
    return canonical_sigma_family(g, context.family, context.sigmas, z=base)


def _sigma(args, g: Graph, context: FamilyContext):
    asserted = context.family.in_triple_regime
    try:
        sigma_family = _sigma_family(g, context, args.base)
    except SIGMA_ERRORS as exc:
        return [_error_check("sigma-family", asserted, {"base": args.base}, exc)], {}
    orders = sorted({sigma.order() for sigma in sigma_family.values()})
    fixed_counts = sorted({len(sigma.fixed_points()) for sigma in sigma_family.values()})
    checks = [
        CheckReport(
            name="sigma-family",
            passed=orders == [3] and fixed_counts == [1],
            asserted=asserted,
            details={"base": args.base, "orders": orders, "fixed_point_counts": fixed_counts},
        ),
        verify_inverse_law(sigma_family, asserted=asserted),
        verify_involution_property(sigma_family, asserted=asserted),
    ]
    # one line per permutation: the image array of sigma_u at index u
    images = [" ".join(map(str, sigma_family[u].images)) for u in range(g.nu)]
    return checks, {"sigma_images": images}


def _group(args, g: Graph, context: FamilyContext):
    family = context.family
    asserted = family.in_triple_regime
    try:
        sigma_family = _sigma_family(g, context, args.base)
        report = generate_gamma(sigma_family, family, cap=args.cap)
    except SIGMA_ERRORS + (ClosureCapError,) as exc:
        return [_error_check("gamma-closure", asserted, {}, exc)], {}
    results = {name: getattr(report, name) for name in GAMMA_RESULTS}
    base = family.n * family.n + 3 * family.n - family.lam
    results["sqrt_nu"] = base
    results["sqrt_nu_power_of_two"] = base > 0 and base & (base - 1) == 0
    checks = [
        CheckReport(
            name="gamma-properties",
            passed=report.abelian and report.transitive,
            asserted=asserted,
            details={"order": report.order},
        ),
        CheckReport(
            name="fixed-point-bound",
            passed=report.bound_satisfied,
            asserted=True,  # the spectral bound holds for any nontrivial automorphism
            details={
                "bound": report.bound,
                "max_nonidentity_fixed_points": report.max_nonidentity_fixed_points,
            },
        ),
    ]
    return checks, results


def _related(args, g: Graph, context: FamilyContext):
    """The partition of the pairs into related 4-sets, from the rows of graphcore.orbit_rows.

    An automorphism maps related sets to related sets, so by Lemma 2 of
    orbit_rows every pair passes related_set iff the pairs of the rows do.
    On a pass the sets partition the pairs, and a clique set holds 6 edges
    and an independent one 6 non-edges, so the counts follow from the edge
    count.  On a failure the rows are every vertex, in order: that is the
    loop over all pairs in combinations order, which names the first
    failing pair and counts the sets before it.  With singleton orbits the
    first pass already is that loop.
    """
    family = context.family
    kinds, witness = _related_rows(g, family, context.orbits)
    if witness is None:
        edges, pairs = g.edge_count, g.nu * (g.nu - 1) // 2
        kinds = {"clique": edges // 6, "independent-with-M0": (pairs - edges) // 6}
    elif len(context.orbits) < g.nu:
        kinds, witness = _related_rows(g, family, None)
    sets = sum(kinds.values())
    check = CheckReport(
        name="related-partition",
        passed=witness is None,
        asserted=family.in_triple_regime,
        details={"sets": sets, "by_kind": kinds},
        witness=witness,
    )
    return [check], {"related_sets": sets, "by_kind": kinds}


def _related_rows(g: Graph, family: FamilyInfo, orbits: Optional[Sequence[Sequence[int]]]):
    """Set counts by kind and the first failure, from related_set at each row x of orbit_rows.

    It is called at every y outside earlier that is not covered: covered[x]
    holds the y whose pair with x lies in a verified set, which
    related_set has regenerated from each of its pairs.
    """
    kinds = {"clique": 0, "independent-with-M0": 0}
    covered = [0] * g.nu
    for x, _, earlier in orbit_rows(g.nu, orbits):
        todo = ((1 << g.nu) - 1) & ~earlier
        while todo := todo & ~covered[x]:
            y = (todo & -todo).bit_length() - 1
            todo ^= 1 << y
            try:
                result = related_set(g, family, x, y)
            except RelatedSetError as exc:
                return kinds, {"pair": [x, y], "error": str(exc)}
            kinds[result.kind] += 1
            mask = sum(1 << m for m in result.members)
            for m in result.members:
                covered[m] |= mask
    return kinds, None


def _pq_axioms(args, incidence, _context):
    report = verify_pq_axioms(incidence)
    results = {
        "points": incidence.num_points,
        "lines": len(incidence.lines),
        "pq_params": report.params,
        "generalized_quadrangle": report.is_generalized_quadrangle,
    }
    check = CheckReport(
        name="pq-axioms",
        passed=report.ok,
        asserted=True,
        details={} if report.ok else {"violated_axiom": report.violated_axiom},
        witness=report.witness,
    )
    return [check], results


def _diophantine(args, _input, _context):
    solutions = solve_diophantine_17(args.max)
    expected = [pair for pair in DIOPHANTINE_REFERENCE if pair[0] <= args.max]
    check = CheckReport(
        name="reference-solution-set",
        passed=solutions == expected,
        asserted=True,
        details={"n_max": args.max, "solutions": solutions},
        witness=None if solutions == expected else {"solutions": solutions, "expected": expected},
    )
    return [check], {"solutions": solutions}


def _certificate(args, _input, _context):
    system = pq_3_35_20_certificate()
    results = {
        "unknowns": list(system.unknowns),
        "equations": [
            {"coefficients": list(coefficients), "rhs": rhs}
            for coefficients, rhs in system.equations
        ],
        "parametric_solution": {
            name: system.parametric_solution[name].render() for name in system.unknowns
        },
        "free_unknowns": list(system.free_unknowns),
        "feasible": system.feasible,
    }
    checks = [
        CheckReport(
            name="back-substitution",
            passed=system.substitution_is_identical(),
            asserted=True,
        ),
        CheckReport(
            name="nonexistence-certificate",
            passed=system.feasible is False,
            asserted=True,
            details={"conclusion": "no diamond-free SRG(676, 108, 2, 20), no PQ(3, 35, 20)"},
        ),
    ]
    return checks, results


# Input kinds: what the driver loads before the analysis runs.  FAMILY is a
# graph that must also pass the diamond-free family-member preconditions.
GRAPH, FAMILY, INCIDENCE = "graph", "family", "incidence"

# Integer options: flag -> (default, help).  Any other argument name in the
# table is a required positional integer.
OPTIONS = {
    "--vertex": (None, "restrict to one base vertex"),
    "--base": (0, "normalization base vertex"),
    "--cap": (1 << 16, "closure element cap"),
    "--max": (10**6, "largest n searched"),
}

# (name, analysis, input kind or None, help, integer arguments)
ANALYSES = (
    ("feasibility", _feasibility, None, "spectrum/family/bound calculus for SRG parameters",
     ("nu", "k", "lam", "mu")),
    ("pq-params", _pq_params, None, "collinearity parameters of a partial quadrangle",
     ("s", "t", "mu")),
    ("check-srg", _check_srg, GRAPH, "strong regularity with parameters", ()),
    ("check-diamond-free", _check_diamond_free, GRAPH, "diamond-freeness with witness", ()),
    ("check-con", _check_con, FAMILY, "the non-neighbor condition m_0 >= 1", ()),
    ("check-eq-pq", _check_eq_pq, FAMILY, "the p/q identity over all triples", ()),
    ("check-star", _check_star, FAMILY, "the exact resolvent and rank identities", ()),
    ("check-psi", _check_psi, FAMILY, "independent-triple cells and the regularity of their pairs",
     ()),
    ("related", _related, FAMILY, "the partition into related 4-sets", ()),
    ("local-stats", _local_stats, FAMILY, "m-spectrum distributions over non-adjacent pairs",
     ("--vertex",)),
    ("sigma", _sigma, FAMILY, "build and verify the canonical automorphism family", ("--base",)),
    ("group", _group, FAMILY, "generate and analyze the quotient group closure", ("--base", "--cap")),
    ("pq-axioms", _pq_axioms, INCIDENCE,
     "verify the partial-quadrangle axioms of an incidence file", ()),
    ("diophantine", _diophantine, None, "solve (2n+3)^2 = 2^(t+2) + 17 for n up to --max",
     ("--max",)),
    ("certificate-pq-3-35-20", _certificate, None, "the exact nonexistence certificate", ()),
)


def _analyze(args) -> int:
    """Run one JSON subcommand: load and check its input, analyze, emit the report.

    Under --timing the report gives the wall time of the whole call and of
    its input stage: reading, parsing and validating the input and options.
    """
    started = time.perf_counter()
    source = None
    if args.kind == INCIDENCE:
        source = parse_incidence(_read_text(args.incidence_file))
    elif args.kind is not None:
        line = _graph6_line(args.graph)
        source = parse_graph6(line)
        for vertex in (getattr(args, "vertex", None), getattr(args, "base", None)):
            if vertex is not None:
                try:
                    source.check_vertex(vertex)
                except GraphError as exc:
                    raise UsageError(str(exc)) from exc
    for option in ("cap", "max"):
        if getattr(args, option, 1) < 1:
            raise UsageError(f"--{option} must be at least 1, got {getattr(args, option)}")
    input_seconds = time.perf_counter() - started
    checks: list[CheckReport] = []
    results: dict = {}
    context = None
    if args.kind == FAMILY:
        precondition, context = _family_context(source)
        checks.append(precondition)
    if args.kind != FAMILY or context is not None:
        found, results = args.analysis(args, source, context)
        checks.extend(found)

    document = {"command": args._argv, "results": _jsonable(results)}
    if isinstance(source, Graph):
        document["input"] = {
            "vertices": source.nu,
            "edges": source.edge_count,
            "sha256": _canonical_sha256(source, line),
        }
    document["checks"] = [
        {
            "name": report.name,
            "severity": report.severity,
            "passed": report.passed,
            "details": _jsonable(report.details),
            "witness": _jsonable(report.witness),
        }
        for report in checks
    ]
    if args.timing:
        document["timing"] = {
            "seconds": round(time.perf_counter() - started, 6),
            "input_seconds": round(input_seconds, 6),
        }
    print(json.dumps(document, indent=2, sort_keys=True))
    return 1 if any(report.severity == ASSERTED_FAIL for report in checks) else 0


BUILDERS = {"rook4": build_rook4, "shrikhande": build_shrikhande, "gq35": build_gq35,
            "ovoid256": build_ovoid256}


def _build(args) -> int:
    print(serialize_graph6(BUILDERS[args.name]()))
    return 0


def _graph_to_pq(args) -> int:
    g = parse_graph6(_graph6_line(args.graph))
    try:
        incidence = graph_to_pq(g)
    except (GeometryError, GraphError) as exc:  # not an SRG, or not diamond-free
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(format_incidence(incidence))
    return 0


def _add_graph_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("graph", nargs="?", default="-", help="graph6 file, or - for stdin")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and kept for the process.

    parse_args leaves the parser unchanged and gives each call a fresh
    namespace, so one parser serves every call of run().
    """
    parser = argparse.ArgumentParser(
        prog="srgpq",
        description="Exact checks for diamond-free strongly regular graphs and partial quadrangles",
    )
    parser.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    sub = subparsers.add_parser("build", help="emit a built-in witness graph as graph6")
    sub.add_argument("name", choices=list(BUILDERS))
    sub.set_defaults(handler=_build)
    sub = subparsers.add_parser(
        "graph-to-pq", help="emit the incidence structure of a diamond-free SRG")
    _add_graph_argument(sub)
    sub.set_defaults(handler=_graph_to_pq)

    for name, analysis, kind, help_text, arguments in ANALYSES:
        sub = subparsers.add_parser(name, help=help_text)
        if kind == INCIDENCE:
            sub.add_argument("incidence_file")
        elif kind is not None:
            _add_graph_argument(sub)
        for argument in arguments:
            if argument in OPTIONS:
                default, option_help = OPTIONS[argument]
                sub.add_argument(argument, type=int, default=default, help=option_help)
            else:
                sub.add_argument(argument, type=int)
        sub.set_defaults(handler=_analyze, analysis=analysis, kind=kind)
    return parser


# What a user can get wrong: a missing or unreadable file, malformed input
# text or parameters, and an argument that _analyze rejects.
USAGE_ERRORS = (OSError, UnicodeDecodeError, Graph6Error, ParameterError, GeometryError, UsageError)


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        return args.handler(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of srgpq itself, not of its input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
