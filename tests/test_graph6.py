"""Differential tests of the graph6 codec.

The bulk decoder and encoder of srgpq.cli are held to the bit loops in
tests/oracles.py (equal graphs, equal strings, equal Graph6Error messages and
offsets) and to networkx's independent implementation.  The large round trips
assert exact equality only.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srgpq import graphcore
from srgpq.cli import (
    GRAPH6_HEADER,
    MAX_GRAPH6_VERTICES,
    Graph6Error,
    _size_prefix,
    parse_graph6,
    serialize_graph6,
)
from srgpq.geometry import build_gq35
from srgpq.graphcore import Graph
from tests import oracles


def _random_graph(nu: int, density: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(i, j) for j in range(nu) for i in range(j) if rng.random() < density]
    return Graph.from_edges(nu, edges)


def _sparse_graph(nu: int, edges: int, seed: int) -> Graph:
    rng = random.Random(seed)
    pairs = (rng.sample(range(nu), 2) for _ in range(edges))
    return Graph.from_edges(nu, pairs)


def _outcome(parse, text: str):
    """The graph parse returns, or the message and offset of its Graph6Error."""
    try:
        return parse(text)
    except Graph6Error as exc:
        return str(exc), exc.offset


def _prefix(nu: int) -> str:
    return "".join(chr(63 + value) for value in _size_prefix(nu))


@settings(max_examples=40, deadline=None)
@given(
    nu=st.integers(min_value=0, max_value=300),
    density=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(nu=62, density=0.5, seed=1)  # the last one-character prefix
@example(nu=63, density=0.5, seed=2)  # the first four-character prefix
@example(nu=64, density=1.0, seed=3)
@example(nu=0, density=0.5, seed=4)
@example(nu=300, density=0.5, seed=5)
def test_round_trip_matches_the_oracle_and_networkx(nu, density, seed):
    g = _random_graph(nu, density, seed)
    encoded = serialize_graph6(g)
    assert encoded == oracles.serialize_graph6(g)
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(nu))
    nx_graph.add_edges_from(g.edges())
    assert nx.to_graph6_bytes(nx_graph, header=False) == encoded.encode() + b"\n"
    for text in (encoded, GRAPH6_HEADER + encoded, f" {GRAPH6_HEADER}{encoded}\n"):
        assert parse_graph6(text) == g == oracles.parse_graph6(text)
    decoded = nx.from_graph6_bytes(encoded.encode())
    assert decoded.number_of_nodes() == nu
    assert sorted(map(sorted, decoded.edges())) == sorted(map(list, g.edges()))


@pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("nu", [0, 1, 2, 15, 16, 17, 18, 33, 63, 64, 65, 66, 129, 255, 256, 257])
def test_parse_matches_the_oracle_and_networkx_at_block_edges(nu, density):
    # the decoder reads sixteen columns a block: sizes on both sides of each
    # block edge, of the 64-row transpose and of the four-character prefix
    g = _random_graph(nu, density, seed=nu)
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(nu))
    nx_graph.add_edges_from(g.edges())
    encoded = nx.to_graph6_bytes(nx_graph, header=False).decode("ascii").strip()
    assert parse_graph6(encoded) == g == oracles.parse_graph6(encoded)


@pytest.mark.parametrize("nu", [17, 64, 65, 300])
def test_one_parse_transposes_once(monkeypatch, nu):
    encoded = serialize_graph6(_random_graph(nu, 0.5, nu))
    expected = oracles.parse_graph6(encoded)
    widths = []
    transpose = graphcore.transpose_packed
    monkeypatch.setattr(
        graphcore, "transpose_packed", lambda data, width: widths.append(width) or transpose(data, width)
    )
    assert parse_graph6(encoded) == expected
    assert widths == [(nu + 7) >> 3]


GQ35 = serialize_graph6(build_gq35())
PADDED = serialize_graph6(_random_graph(65, 0.5, 0))  # 2080 bits: two padding bits
FOREIGN = ["\x00", "\x19", " ", ">", "\x7f", "\xe9", "　", "\U0001f4a5"]


def _replace(text: str, index: int, char: str) -> str:
    return text[:index] + char + text[index + 1:]


MALFORMED = {
    "empty": "",
    "blank": " \n\t",
    "header-only": GRAPH6_HEADER,
    "header-then-blank": GRAPH6_HEADER + "  \n",
    "header-then-space": GRAPH6_HEADER + " A_",
    "truncated-4-byte-1": "~",
    "truncated-4-byte-2": "~?",
    "truncated-4-byte-3": "~??",
    "truncated-4-byte-header": GRAPH6_HEADER + "~?A",
    "truncated-8-byte-2": "~~",
    "truncated-8-byte-5": "~~????",
    "truncated-8-byte-7": "~~?????",
    "too-many-4-byte": "~C?@" + "?" * 10,  # 4 * 4096 + 1 vertices
    "too-many-4-byte-largest": "~}~~",
    "too-many-8-byte": "~~???C?@",
    "too-many-8-byte-largest": "~~~~~~~~",
    "max-without-data": _prefix(MAX_GRAPH6_VERTICES),
    "one-short": GQ35[:-1],
    "one-long": GQ35 + "?",
    "long-prefix-one-short": "~~????@?" + GQ35[4:-1],
    "data-for-none": "??",
    "data-for-one": "@?",
    "missing-k2-data": "A",
    "k2-padding": "AW",
    "k2-padding-lowest": "A@",
    "k3-padding": "B" + chr(63 + 0b000001),
    "k5-padding": "D" + "?" + chr(63 + 0b000010),
    "nu65-padding": _replace(PADDED, len(PADDED) - 1, chr(63 + (ord(PADDED[-1]) - 63 | 1))),
}
for char_index, char in enumerate(FOREIGN):
    for position in (0, 1, 3, 4, 57, len(GQ35) - 1):
        MALFORMED[f"char-{char_index}-at-{position}"] = _replace(GQ35, position, char)
    MALFORMED[f"char-{char_index}-after-header"] = GRAPH6_HEADER + char + "A_"
    MALFORMED[f"char-{char_index}-appended"] = "A_" + char + "x"


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_matches_the_oracle(name):
    text = MALFORMED[name]
    outcome = _outcome(parse_graph6, text)
    assert isinstance(outcome, tuple)  # every entry is malformed
    assert outcome == _outcome(oracles.parse_graph6, text)


@settings(max_examples=150, deadline=None)
@given(
    nu=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=2**32),
    edit=st.sampled_from(["replace", "insert", "delete", "truncate"]),
    where=st.integers(min_value=0, max_value=10**6),
    char=st.one_of(st.characters(), st.integers(min_value=0, max_value=130).map(chr)),
)
def test_edited_strings_match_the_oracle(nu, seed, edit, where, char):
    text = serialize_graph6(_random_graph(nu, 0.5, seed))
    index = where % (len(text) + 1)
    if edit == "replace":
        text = _replace(text, min(index, len(text) - 1), char)
    elif edit == "insert":
        text = text[:index] + char + text[index:]
    elif edit == "delete":
        text = text[:index] + text[index + 1:]
    else:
        text = text[:index]
    assert _outcome(parse_graph6, text) == _outcome(oracles.parse_graph6, text)


def _spot_check(encoded: str, g: Graph, rng: random.Random) -> None:
    """Read the bits of a sample of pairs straight from the string."""
    start = len(_prefix(g.nu))
    pairs = [tuple(sorted(rng.sample(range(g.nu), 2))) for _ in range(300)]
    pairs += [tuple(sorted(edge)) for edge in rng.sample(list(g.edges()), 300)]
    for i, j in pairs:
        t = j * (j - 1) // 2 + i
        bit = (ord(encoded[start + t // 6]) - 63) >> (5 - t % 6) & 1
        assert bit == g.adjacent(i, j)


def test_round_trip_at_4096_vertices():
    g = _sparse_graph(4096, 40000, seed=11)
    encoded = serialize_graph6(g)
    assert len(encoded) == 4 + (4096 * 4095 // 2 + 5) // 6
    _spot_check(encoded, g, random.Random(12))
    assert parse_graph6(encoded) == g
    assert serialize_graph6(parse_graph6(GRAPH6_HEADER + encoded)) == encoded


@pytest.mark.slow
def test_round_trip_at_16384_vertices():
    g = _sparse_graph(MAX_GRAPH6_VERTICES, 60000, seed=13)
    encoded = serialize_graph6(g)
    assert len(encoded) == 4 + (MAX_GRAPH6_VERTICES * (MAX_GRAPH6_VERTICES - 1) // 2 + 5) // 6
    _spot_check(encoded, g, random.Random(14))
    assert parse_graph6(encoded) == g
