import pytest

from sl3shear.surface import MarkedSurfaceSpec, build


@pytest.fixture(scope="session")
def triangle():
    return build(MarkedSurfaceSpec.polygon(3))


@pytest.fixture(scope="session")
def polygon4():
    return build(MarkedSurfaceSpec.polygon(4))


@pytest.fixture(scope="session")
def polygon5():
    return build(MarkedSurfaceSpec.polygon(5))


@pytest.fixture(scope="session")
def annulus11():
    return build(MarkedSurfaceSpec.annulus(1, 1))


@pytest.fixture(scope="session")
def torus():
    return build(MarkedSurfaceSpec.once_punctured_torus())


@pytest.fixture(scope="session")
def two_triangles():
    return build(
        MarkedSurfaceSpec.table([("T0", ("a0", "a1", "a2")), ("T1", ("b0", "b1", "b2"))])
    )


@pytest.fixture(scope="session")
def two_pentagons():
    """Two disjoint pentagons, L and R, each a fan of three triangles."""
    return build(MarkedSurfaceSpec.table([
        (f"{p}{n}", sides)
        for p in "LR"
        for n, sides in (
            (1, (f"{p}b0", f"{p}b1", f"{p}d2")),
            (2, (f"{p}d2", f"{p}b2", f"{p}d3")),
            (3, (f"{p}d3", f"{p}b3", f"{p}b4")),
        )
    ]))
