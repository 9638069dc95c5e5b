import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tangleforge.fixtures import FIXTURES, doubled_bridge_ring, triangle_ring  # noqa: E402
from tangleforge.profiles import (  # noqa: E402
    efficient_distinguishers,
    enumerate_k_profiles,
    pipeline_profiles,
)

# Every property test draws the same examples on every run and writes no
# example database; each test sets only its own max_examples.
settings.register_profile("tangleforge", deadline=None, derandomize=True, database=None)
settings.load_profile("tangleforge")


@pytest.fixture(scope="session")
def graphs():
    return {name: fx.graph for name, fx in FIXTURES.items()}


@pytest.fixture(scope="session")
def triring():
    return triangle_ring()


@pytest.fixture(scope="session")
def triring_profiles(triring):
    """The four regular robust 3-profiles of the triangle ring (slow to
    compute, shared across the corner/separator tests)."""
    robust = pipeline_profiles(triring, enumerate_k_profiles(triring, 3, max_sk=128))
    assert len(robust) == 4
    return robust


@pytest.fixture(scope="session")
def triring_pendant():
    return triangle_ring(pendant=True)


@pytest.fixture(scope="session")
def triring_pendant_profiles(triring_pendant):
    profs = enumerate_k_profiles(triring_pendant, 3, max_sk=160)
    return tuple(p for p in profs if p.is_regular(triring_pendant))


@pytest.fixture(scope="session")
def k5ring():
    return doubled_bridge_ring()


@pytest.fixture(scope="session")
def k5ring_profiles(k5ring):
    """Pairwise distinguishable mix of the two K5 4-profiles and the two
    triangle 3-profiles (the third 3-profile is the shared restriction of
    the K5 profiles and drops out)."""
    g = k5ring
    four = [p for p in enumerate_k_profiles(g, 4, max_sk=900, max_n=16, max_k=4) if p.is_regular(g)]
    assert len(four) == 2
    three = [p for p in enumerate_k_profiles(g, 3, max_sk=256, max_n=16, max_k=4) if p.is_regular(g)]
    mixed = list(four)
    for q in three:
        if all(efficient_distinguishers(g, p, q).order is not None for p in mixed):
            mixed.append(q)
    assert [p.k for p in mixed] == [4, 4, 3, 3]
    return tuple(mixed)
