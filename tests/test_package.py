"""The package's export list."""

from __future__ import annotations

import importlib
import pkgutil
import types

import srgpq


def test_all_names_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(srgpq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(srgpq.__all__) == sorted(public)
    assert len(srgpq.__all__) == len(public) == 55


def test_only_graphcore_knows_the_packed_bit_matrix_format():
    helpers = {"pack_rows", "transpose_packed", "unpack_row"}
    for info in pkgutil.iter_modules(srgpq.__path__):
        if info.name != "graphcore":
            module = importlib.import_module(f"srgpq.{info.name}")
            assert not helpers & set(vars(module)), info.name


def test_only_localstats_binds_the_matched_pair_table():
    # build_sigma reads the matchings from automorphism._matchings' masks,
    # never from the table
    for info in pkgutil.iter_modules(srgpq.__path__):
        if info.name != "localstats":
            module = importlib.import_module(f"srgpq.{info.name}")
            assert "matched_pairs" not in vars(module), info.name
