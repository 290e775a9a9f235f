"""The package loads numpy only: scipy is imported inside the calls that use it.

Each check runs in a fresh interpreter, since this test session itself has
scipy loaded long before.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCIPY_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def fresh_run(code, cwd):
    """Run code in a new interpreter with the package's source on the path; return its last output line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("code", [
    "import manifold_cs",
    "from manifold_cs import cli",
    "from manifold_cs import cli\n"
    "cli.main(['generate', '--kind', 'swiss-roll', '--n', '300', '--seed', '1', '--out', 'roll.csv'])\n"
    "cli.main(['bounds', '--d', '2', '--v', '10', '--reach', '1', '--ambient-dim', '100'])",
], ids=["import", "cli", "generate-bounds"])
def test_a_cold_start_loads_no_scipy(tmp_path, code):
    assert json.loads(fresh_run(code + SCIPY_LOADED, tmp_path)) == []


def test_the_calls_that_use_scipy_still_work_after_a_cold_import(tmp_path):
    code = """
import sys

import numpy as np
from manifold_cs import geometry, gmra, measurement

assert not any(m.startswith("scipy") for m in sys.modules)
rng = np.random.default_rng(5)
a, b = rng.normal(size=(2000, 3)), rng.normal(size=(128, 3))  # past every tree threshold
near = geometry.nearest_rows(a, b)
assert np.array_equal(near, np.argmin(((a[:, None, :] - b[None]) ** 2).sum(axis=2), axis=1))
matrix = measurement.gaussian_matrix(8, 3, 2)
report = measurement.verify_distortion(matrix, a[:50], 0.9)
assert report.pairs_checked == 50 * 49 // 2
cloud = geometry.gen_swiss_roll(500, 3)
check = gmra.validate_structure(gmra.build_dictionary(cloud, local_dim=2, max_scale=4), cloud)
lo, hi = check.decay_slope_ci
assert np.isfinite(check.decay_slope) and lo < hi
"""
    loaded = json.loads(fresh_run(code + SCIPY_LOADED, tmp_path))
    assert {"scipy.spatial", "scipy.spatial.distance", "scipy.special"} <= set(loaded)
    assert "scipy.stats" not in loaded
