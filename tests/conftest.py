import math

import pytest

from alexkit.domains import DomainSpec, generate
from alexkit.spaces import DiscreteLengthSpace


@pytest.fixture(scope="session")
def convex_cap():
    return generate(DomainSpec(kind="cap", resolution=0.09, cap_radius=0.4 * math.pi), seed=0)


@pytest.fixture(scope="session")
def wide_cap():
    return generate(DomainSpec(kind="cap", resolution=0.09, cap_radius=0.9 * math.pi), seed=0)


@pytest.fixture(scope="session")
def full_square():
    return generate(DomainSpec(kind="punctured", resolution=1 / 48), seed=0)


@pytest.fixture(scope="session")
def punctured_square():
    return generate(
        DomainSpec(kind="punctured", resolution=1 / 48, removed_points=((0.5, 0.5),)),
        seed=0,
    )


@pytest.fixture(scope="session")
def slit_square():
    return generate(
        DomainSpec(
            kind="punctured",
            resolution=1 / 24,
            removed_segments=((0.5, 0.0, 0.5, 0.6),),
        ),
        seed=0,
    )


@pytest.fixture(scope="session")
def dense_square():
    return generate(
        DomainSpec(kind="dense_square", resolution=1 / 64, delta=0.2, num_segments=200),
        seed=0,
    )


@pytest.fixture(scope="session")
def dense_square_cut(dense_square):
    """``dense_square`` with one edge dropped and its ``meta`` kept: no longer a complete lattice."""
    sp = dense_square
    return DiscreteLengthSpace(sp.coords, sp.in_U, sp.edges[1:], sp.weights[1:], meta=sp.meta)
