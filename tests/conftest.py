import numpy as np
import pytest

from neckflow import (SolveConfig, build_symmetric_disc_example, generate,
                      solve)
from neckflow.geometry import (CappedGraphCurve, Circle, GapProfile, Geometry,
                               LinearPotential, MirroredCurve, NegatedProfile,
                               ParabolaProfile, _c2_bound)


def asymmetric_noses(eps=0.0):
    """Parabola noses of different curvature (a=0.3 above, 0.5 below) at
    separation eps: a geometry whose mesh has no mirror map, so the lower
    far-field region is relaxed, not reflected."""
    up, lo = ParabolaProfile(0.3), ParabolaProfile(0.5)
    gap = GapProfile(h1=up, h2=NegatedProfile(lo), c1=0.79,
                     c2=_c2_bound(lo, 1.0), chart=1.0)
    geom = Geometry(outer=Circle((0, 0), 5.0),
                    inclusion1=CappedGraphCurve(up, 0.999),
                    inclusion2=MirroredCurve(CappedGraphCurve(lo, 0.999)),
                    eps=eps, gap=gap, phi=LinearPotential(), name="asym")
    geom.validate()
    assert not geom.is_mirror_symmetric()
    return geom


@pytest.fixture(scope="session")
def disc_geom():
    return build_symmetric_disc_example(scale=1.0)


@pytest.fixture(scope="session")
def disc_mesh_1e2(disc_geom):
    return generate(disc_geom.with_eps(1e-2), 0.12, 6, seed=0)


@pytest.fixture(scope="session")
def disc_solutions_1e2(disc_mesh_1e2):
    """Solved states for p in {1.3, 2, 3} on the eps=1e-2 disc fixture."""
    return {p: solve(disc_mesh_1e2, SolveConfig(p=p))
            for p in (1.3, 2.0, 3.0)}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
