import os

import numpy as np
import pytest
from hypothesis import settings

from manifold_cs import geometry, gmra

# CI runs property tests with a fixed example order, so a failure there
# reproduces locally with CI=1.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def circle_cloud():
    return geometry.gen_sphere(512, 1, seed=11)


@pytest.fixture(scope="session")
def circle_dict(circle_cloud):
    return gmra.build_dictionary(circle_cloud, local_dim=1, max_scale=5)


@pytest.fixture(scope="session")
def swiss_cloud():
    return geometry.gen_swiss_roll(2000, seed=7)


@pytest.fixture(scope="session")
def swiss_dict(swiss_cloud):
    return gmra.build_dictionary(swiss_cloud, local_dim=2, max_scale=5)


@pytest.fixture(scope="session")
def plane_cloud():
    # points exactly on a 2-plane in R^4
    rng = np.random.default_rng(3)
    u = rng.standard_normal((200, 2))
    basis = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    pts = u @ basis + np.array([0.0, 0.0, 1.0, 2.0])
    return geometry.PointCloud(pts, 4, label="plane")
