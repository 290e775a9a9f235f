import os

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

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


@pytest.fixture(scope="session")
def mixed_dict():
    # a curve and a plane patch in R^4: the adaptive build fits 1- and 2-planes
    rng = np.random.default_rng(4)
    t = rng.uniform(0, 1, 300)
    curve = np.zeros((300, 4))
    curve[:, 0] = t
    curve[:, 2] = 3.0
    patch = np.zeros((300, 4))
    patch[:, :2] = rng.uniform(0, 1, (300, 2))
    pts = np.vstack([curve, patch]) + rng.standard_normal((600, 4)) * 1e-3
    cloud = geometry.PointCloud(pts, 4)
    return cloud, gmra.build_dictionary(cloud, max_local_dim=3, max_scale=4)


def curved_cloud(seed, n, dim, intrinsic):
    """n points near an intrinsic-dimensional curved sheet, mapped into R^dim at a random scale and offset."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, (n, intrinsic))
    features = np.hstack([u, u**2, np.sin(3.0 * u)])
    pts = features @ rng.standard_normal((3 * intrinsic, dim)) + 0.01 * rng.standard_normal((n, dim))
    return geometry.PointCloud(10.0 ** rng.uniform(-2, 3) * pts + rng.uniform(-50, 50, dim), dim)


@st.composite
def fit_tables(draw):
    """A cloud and a dictionary built on it, in R^2 to R^40, with a fixed or an adaptive local dimension."""
    dim, intrinsic = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    cloud = curved_cloud(draw(st.integers(0, 2**32 - 1)), draw(st.integers(40, 300)), dim, intrinsic)
    max_scale = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return cloud, gmra.build_dictionary(cloud, max_local_dim=min(3, dim), max_scale=max_scale)
    return cloud, gmra.build_dictionary(cloud, local_dim=min(intrinsic, dim), max_scale=max_scale)
