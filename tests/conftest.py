"""Shared fixtures: the witness graphs and derived family data, built once."""

from __future__ import annotations

import pytest

from srgpq.geometry import build_gq35, build_rook4, build_shrikhande
from srgpq.params import FamilyInfo


@pytest.fixture
def trivial_orbits(monkeypatch):
    """Make build_sigma raise: verified_sigmas keeps none, and sweeps visit every vertex."""
    from srgpq.automorphism import SigmaConstructionError

    def refuse(g, fam, u):
        raise SigmaConstructionError(f"no sigma at {u}: orbit reduction switched off")

    monkeypatch.setattr("srgpq.automorphism.build_sigma", refuse)


@pytest.fixture(scope="session")
def rook():
    return build_rook4()


@pytest.fixture(scope="session")
def shrikhande():
    return build_shrikhande()


@pytest.fixture(scope="session")
def gq35():
    return build_gq35()


@pytest.fixture(scope="session")
def fam_gq35():
    return FamilyInfo.from_n_lam(2, 2)


@pytest.fixture(scope="session")
def fam_rook():
    return FamilyInfo.from_n_lam(-2, 2)


@pytest.fixture(scope="session")
def sigma_family(gq35, fam_gq35):
    from srgpq.automorphism import canonical_sigma_family, verified_sigmas

    return canonical_sigma_family(gq35, fam_gq35, verified_sigmas(gq35, fam_gq35)[1], z=0)


@pytest.fixture(scope="session")
def sigma_family_n3():
    """The canonical sigma family of the n = 3 witness (about 0.02 s); copy it before mutating."""
    from srgpq.automorphism import canonical_sigma_family, verified_sigmas
    from srgpq.geometry import build_ovoid256

    g, fam = build_ovoid256(), FamilyInfo.from_n_lam(3, 2)
    return canonical_sigma_family(g, fam, verified_sigmas(g, fam)[1])
