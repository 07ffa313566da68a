"""The package's export list."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import srgpq
from srgpq import automorphism, geometry, graphcore, localstats


def test_all_names_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(srgpq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(srgpq.__all__) == sorted(public)
    assert len(srgpq.__all__) == len(public) == 53


def test_the_cells_are_plain_tuples():
    # phi_partition and psi_partition return sorted tuples of sorted cells,
    # and no module wraps them in a partition class
    for info in pkgutil.iter_modules(srgpq.__path__):
        module = importlib.import_module(f"srgpq.{info.name}")
        assert "TriplePartition" not in vars(module), info.name
    assert "TriplePartition" not in vars(srgpq)


def test_only_graphcore_knows_the_packed_bit_matrix_format():
    helpers = {"pack_rows", "transpose_packed", "unpack_row"}
    for info in pkgutil.iter_modules(srgpq.__path__):
        if info.name != "graphcore":
            module = importlib.import_module(f"srgpq.{info.name}")
            assert not helpers & set(vars(module)), info.name


def test_geometry_builds_no_line_sums_of_its_own():
    # PQ axioms (iii) and (iv) run graphcore's line-sum pass, with its fields and width
    assert not {"_bit_field_rows", "_width"} & set(vars(geometry))
    assert geometry._line_sum_failure is graphcore._line_sum_failure


def test_build_sigma_runs_the_one_matched_pair_kernel():
    # the (phi cell, psi cell) matching lives in localstats.matched_pairs;
    # its per-pair table is a test oracle
    assert automorphism.matched_pairs is localstats.matched_pairs
    names = ["srgpq"] + [f"srgpq.{info.name}" for info in pkgutil.iter_modules(srgpq.__path__)]
    for name in names:
        module = importlib.import_module(name)
        assert not {"MatchedPairTable", "_matchings"} & set(vars(module)), name


def _package_imports(tree: ast.Module, modules: set[str]) -> set[str]:
    """The modules of srgpq that a module imports at its top level (srgpq imports absolutely)."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("srgpq.")} & modules


def test_imports_sit_at_module_level_and_form_a_dag():
    # a function-local import is how a cycle between modules hides; localstats
    # takes its orbits from the caller and never reaches automorphism
    files = {path.stem: path for path in Path(srgpq.__file__).parent.glob("*.py")}
    graph = {}
    for name, path in files.items():
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [
                    node.lineno
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
                assert not nested, (name, function.name, nested)
        graph[name] = _package_imports(tree, set(files))
    assert "automorphism" not in graph["localstats"]
    done: set[str] = set()
    while len(done) < len(graph):  # peel off the modules whose imports are all peeled
        ready = {name for name, imports in graph.items() if name not in done and imports <= done}
        assert ready, sorted(set(graph) - done)
        done |= ready


# The one orbit loop, and automorphism's construction of the orbits themselves.
ORBIT_LOOPS = {"orbit_rows", "_orbits", "verified_sigmas", "generate_gamma"}
SWEEPS = {
    "graphcore": ("is_srg_report", "is_diamond_free"),
    "localstats": ("check_condition_con", "m_spectrum_histogram", "verify_eq_pq"),
    "cli": ("_check_star", "_check_psi", "_related_rows"),
}


def _iterated(node: ast.expr) -> list[ast.expr]:
    """What a loop over node walks: node, the branches of a conditional, the argument of a wrapper."""
    if isinstance(node, ast.IfExp):
        return _iterated(node.body) + _iterated(node.orelse)
    wrappers = {"enumerate", "sorted", "reversed", "zip", "list", "tuple", "iter"}
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in wrappers:
        return [item for arg in node.args for item in _iterated(arg)]
    return [node]


def _orbit_loops(function: ast.AST) -> list[str]:
    """The loops over orbits or context.orbits and the orbit[0] subscripts in function."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, (ast.For, ast.comprehension)):
            for item in _iterated(node.iter):
                if isinstance(item, ast.Name) and item.id == "orbits" or (
                    isinstance(item, ast.Attribute) and item.attr == "orbits"
                ):
                    found.append(f"loop over {ast.unparse(item)}")
        elif isinstance(node, ast.Subscript) and ast.unparse(node) == "orbit[0]":
            found.append("orbit[0]")
    return found


def test_the_sweeps_take_their_orbits_from_the_one_engine():
    # graphcore.orbit_rows states the orbit contract and owns the representatives,
    # sizes and earlier masks; a loop over the vertices of the orbits, as
    # m_spectrum_histogram's ordered replay has, takes no representative
    calls = {}
    for path in Path(srgpq.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if function.name not in ORBIT_LOOPS:
                    assert not _orbit_loops(function), (path.stem, function.name, _orbit_loops(function))
                calls[path.stem, function.name] = {
                    node.func.id
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                }
    for module, names in SWEEPS.items():
        for name in names:
            assert "orbit_rows" in calls[module, name], (module, name)
