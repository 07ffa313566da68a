"""The package's export list."""

from __future__ import annotations

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
