import warnings

import numpy as np
import pytest
from scipy import stats

from manifold_cs import geometry, gmra, measurement, recovery, storage
from manifold_cs.errors import FileFormatError


def one_cell_dictionary(center, basis):
    """A dictionary whose only cell, at scale 0, has the given center and basis."""
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    return gmra.MultiscaleDictionary(
        [1], [center], [basis], [basis.shape[0]], [0], sep_constant=1.0, root_radius=1.0,
        provenance={},
    )


def apply_projector(d, x):
    """The affine projection of the point x on the scale-0 cell of d."""
    return gmra.project_at_scale(d, 0, np.asarray(x, dtype=float)[None])[0]


def two_scale_dictionary(centers1):
    """Scale 0 holds one root cell; scale 1 holds the given centers, each cell with its own fit."""
    dim = len(centers1[0])
    k = len(centers1)
    return gmra.MultiscaleDictionary(
        [1, k], [np.zeros(dim)] + list(centers1), [np.eye(dim)[:1]] * (k + 1), [1] * (k + 1),
        list(range(k + 1)), sep_constant=0.25, root_radius=4.0, provenance={},
    )


def test_apply_projector_center_fixed_point():
    proj = one_cell_dictionary([1.0, 2.0, 3.0], [[1.0, 0.0, 0.0]])
    out = apply_projector(proj, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, [1.0, 2.0, 3.0])


def test_apply_projector_in_plane_fixed_point():
    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    center = rng.standard_normal(4)
    u = rng.standard_normal(2)
    x = center + basis.T @ u
    proj = one_cell_dictionary(center, basis)
    assert np.linalg.norm(apply_projector(proj, x) - x) <= 1e-12 * (1 + np.linalg.norm(x))


def test_apply_projector_axis_case():
    proj = one_cell_dictionary([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])
    x = np.array([0.3, -1.2, 2.5])
    assert np.allclose(apply_projector(proj, x), [0.3, 0.0, 0.0])


def test_apply_projector_dimension_mismatch():
    proj = one_cell_dictionary([0.0, 0.0], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        apply_projector(proj, np.zeros(3))


def test_build_circle_structure(circle_cloud, circle_dict):
    counts = circle_dict.counts()
    assert all(counts[j] <= counts[j + 1] for j in range(len(counts) - 1))
    # exhaustive separation check against the recorded constant
    for j in range(circle_dict.max_scale + 1):
        centers = circle_dict.centers(j)
        if centers.shape[0] < 2:
            continue
        pair = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        np.fill_diagonal(pair, np.inf)
        assert pair.min() > circle_dict.sep_constant * 2.0**-j


def test_build_exact_flat_fit():
    basis = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 2)))[0].T
    u = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts = u @ basis + 0.5
    cloud = geometry.PointCloud(pts, 5)
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=0)
    assert d.counts() == [1]
    for x in pts:
        out = apply_projector(d, x)
        assert np.linalg.norm(out - x) <= 1e-10


def test_build_swiss_roll_decay(swiss_cloud, swiss_dict):
    errors = gmra.mean_error_per_scale(swiss_dict, swiss_cloud)
    mid = errors[1:5]
    xs = np.arange(1, 5)
    slope = np.polyfit(xs, np.log2(mid), 1)[0]
    assert slope <= -1.5


def test_build_requires_enough_points():
    cloud = geometry.PointCloud(np.eye(2), 2)
    with pytest.raises(ValueError):
        gmra.build_dictionary(cloud, local_dim=2, max_scale=1)


def test_degenerate_branch_copies_forward():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((4, 3)) * 0.1
    cloud = geometry.PointCloud(pts, 3)
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=3)
    assert d.counts()[0] == 1
    # the branch stops refining: deeper scales reuse or copy, never refit fresh
    stalls = [
        r + c
        for r, c in zip(d.provenance["reused_per_scale"], d.provenance["copied_per_scale"])
    ]
    assert sum(stalls) > 0
    errors = gmra.mean_error_per_scale(d, cloud)
    for j in range(len(errors) - 1):
        assert errors[j + 1] <= errors[j] + 1e-12


def test_adaptive_local_dim(plane_cloud):
    d = gmra.build_dictionary(plane_cloud, local_dim=None, max_local_dim=3, max_scale=2)
    # data is exactly planar: 2 directions hold all the energy
    assert d.local_dims(0)[0] == 2


def test_nearest_center_exact_and_ties():
    d = two_scale_dictionary([np.array([0.0, 0.0]), np.array([2.0, 0.0])])
    assert gmra.nearest_center(d, 1, np.array([2.0, 0.0])) == 1
    # equidistant between centers 0 and 1: lowest index wins
    assert gmra.nearest_center(d, 1, np.array([1.0, 0.0])) == 0
    with pytest.raises(ValueError):
        gmra.nearest_center(d, 7, np.array([0.0, 0.0]))


def test_nearest_center_matches_scan_oracle(circle_dict):
    rng = np.random.default_rng(2)
    probes = rng.standard_normal((1000, 2)) * 1.5
    j = 3
    centers = circle_dict.centers(j)
    for x in probes:
        want = int(np.argmin([np.linalg.norm(x - c) for c in centers]))
        assert gmra.nearest_center(circle_dict, j, x) == want == gmra._nearest_rows(x[None], centers)[0]


def test_nearest_rows_blocks_match_single_rows():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((300, 4)) + 1e6
    a = rng.standard_normal((2000, 4)) + 1e6  # several blocks of rows, the last one partial
    assert gmra._BLOCK_ENTRIES // len(b) < len(a)
    got = gmra._nearest_rows(a, b)
    assert got.tolist() == [gmra._nearest_rows(row[None], b)[0] for row in a]


@pytest.fixture(scope="module")
def roll3k():
    cloud = geometry.gen_swiss_roll(3000, seed=7)
    return cloud, gmra.build_dictionary(cloud, local_dim=2, max_scale=8, min_points=6)


@pytest.mark.parametrize("shift", [1e6, 1e8])
def test_dictionary_is_exact_under_translation(roll3k, shift):
    cloud, d = roll3k
    moved = geometry.PointCloud(cloud.points + shift, 3)
    dm = gmra.build_dictionary(moved, local_dim=2, max_scale=8, min_points=6)
    assert dm.counts() == d.counts()
    for name in ("cell_fit", "fit_dims"):
        assert np.array_equal(getattr(dm, name), getattr(d, name)), name
    assert np.abs(dm.fit_centers - (d.fit_centers + shift)).max() <= 1e-6
    report = gmra.validate_structure(dm, moved)
    assert report.passed, report.failures
    M = measurement.gaussian_matrix(3, 3, seed=4)
    for j in (3, 8, "auto"):
        want = recovery.recover_batch(M.apply(cloud.points), M, d, j).chosen_centers
        assert np.array_equal(recovery.recover_batch(M.apply(moved.points), M, dm, j).chosen_centers, want)
    probes = moved.points[::6]
    for j in (3, 8):
        batch = gmra._nearest_rows(probes, dm.centers(j))
        assert [gmra.nearest_center(dm, j, x) for x in probes] == batch.tolist()


def test_validate_structure_passes_on_circle(circle_cloud, circle_dict):
    report = gmra.validate_structure(circle_dict, circle_cloud)
    assert report.passed
    assert report.separation_ok and report.orthonormal_ok and report.idempotent_ok
    assert report.orthonormal_worst < 1e-10
    assert report.idempotent_worst < 1e-10
    assert report.monotone_refinement_ok
    assert np.isfinite(report.decay_slope)


@pytest.mark.parametrize("scale", [2000.0, 1e4, 1e-4])
def test_validate_structure_does_not_depend_on_the_cloud_scale(scale):
    cloud = geometry.gen_swiss_roll(1500, seed=1)
    scaled = geometry.PointCloud(cloud.points * scale, 3)
    want, got = (
        gmra.validate_structure(gmra.build_dictionary(c, local_dim=2, max_scale=6, min_points=6), c)
        for c in (cloud, scaled)
    )
    assert got.passed, got.failures
    assert (got.counts, got.separation_worst_pair, got.parent_worst) == (
        want.counts, want.separation_worst_pair, want.parent_worst)
    # the margins are 1 - nearest / second nearest and closest pair / (C1 2^-j) - 1: compare those ratios
    assert abs((1.0 - got.parent_margin) / (1.0 - want.parent_margin) - 1.0) <= 1e-12
    assert abs((1.0 + got.separation_margin) / (1.0 + want.separation_margin) - 1.0) <= 1e-12


def test_parent_margin_is_the_nearest_coarser_centers_lead(roll3k):
    _, d = roll3k
    worst = np.inf
    for j in range(2, d.max_scale + 1):  # scale 0 has one center: no second nearest
        dists = np.linalg.norm(d.centers(j)[:, None] - d.centers(j - 1)[None], axis=2)
        dists.sort(axis=1)
        worst = min(worst, ((dists[:, 1] - dists[:, 0]) / dists[:, 1]).min())
    assert abs(gmra._check_parents(d)[0] - worst) <= 1e-12


def reference_near_center_constants(dictionary, cloud, budget, rng_seed):
    """The per-scale loop that recomputes each near (probe, center) residual at every scale."""
    rng = np.random.default_rng(rng_seed)
    pts = cloud.points
    if pts.shape[0] > budget:
        pts = pts[rng.choice(pts.shape[0], size=budget, replace=False)]
    c16 = 0.0
    c8 = 0.0
    for j in range(dictionary.max_scale + 1):
        centers, fits = dictionary.centers(j), dictionary.cell_fits(j)
        floor = dictionary.sep_constant * 2.0 ** (-j - 1)
        block = max(1, gmra._BLOCK_ENTRIES // centers.size)
        for lo in range(0, len(pts), block):
            x = pts[lo : lo + block]
            dists = np.sqrt(gmra.sq_dists(x, centers))
            base = np.maximum(dists.min(axis=1), floor)
            rows, near = np.nonzero(dists <= 16.0 * base[:, None])
            rel = x[rows] - centers[near]
            ratio = np.linalg.norm(rel - gmra.in_plane_rows(dictionary, fits[near], rel), axis=1) * 2.0**j
            c16 = max(c16, float(ratio.max()))
            c8 = max(c8, float(ratio[dists[rows, near] <= 8.0 * base[rows]].max(initial=0.0)))
    return c16, c8


def test_near_center_constants_equal_the_per_scale_loop(roll3k, circle_cloud, circle_dict):
    rng = np.random.default_rng(6)
    basis = np.linalg.qr(rng.standard_normal((40, 3)))[0].T
    padded = geometry.PointCloud(roll3k[0].points[:1200] @ basis + 1e3, 40)
    cases = [
        (circle_cloud, circle_dict, 200),
        (*roll3k, 300),
        (padded, gmra.build_dictionary(padded, local_dim=None, max_local_dim=3, max_scale=6), 150),
    ]
    for cloud, d, budget in cases:
        want = reference_near_center_constants(d, cloud, budget, 0)
        assert gmra._estimate_near_center_constants(d, cloud, budget, 0) == want


def test_load_refuses_a_version_3_container(tmp_path, circle_dict):
    # version 3 stored a parent per cell; a v3 file is refused, not read
    path = tmp_path / "v3.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    manifest, blob = storage.read_container(path, storage.DICT_MAGIC)
    parents = [-1] + [0] * (len(manifest["cell_fit"]) - 1)
    storage.write_container(path, storage.DICT_MAGIC, dict(manifest, version=3, parent=parents), blob)
    with pytest.raises(FileFormatError, match="version 3"):
        gmra.load_dictionary(path)


def test_validate_structure_names_planted_coincident_pair():
    d = two_scale_dictionary([np.array([0.0, 0.0]), np.array([0.0, 0.0]), np.array([2.0, 0.0])])
    cloud = geometry.PointCloud(np.array([[0.0, 0.0], [2.0, 0.0]]), 2)
    report = gmra.validate_structure(d, cloud)
    assert not report.separation_ok
    assert report.separation_worst_pair == (1, 0, 1)
    assert any("scale 1" in f for f in report.failures)


def test_validate_reports_decay_interval_on_sphere():
    cloud = geometry.gen_sphere(1500, 2, seed=8)
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=4)
    report = gmra.validate_structure(d, cloud)
    lo, hi = report.decay_slope_ci
    assert lo <= report.decay_slope <= hi


def test_validate_reports_decay_interval_on_nine_sphere():
    # high intrinsic dimension: cells saturate almost immediately, but the
    # fitted exponent and its interval are still reported
    cloud = geometry.gen_sphere(3000, 9, seed=8)
    d = gmra.build_dictionary(cloud, local_dim=9, max_scale=3)
    report = gmra.validate_structure(d, cloud, probe_budget=50)
    assert np.isfinite(report.decay_slope)
    lo, hi = report.decay_slope_ci
    assert lo <= report.decay_slope <= hi
    assert report.passed


def test_fit_decay_constant_errors_give_zero_width_interval():
    # carried-forward fine scales: scale 0 is ignored, scales 1..3 are equal
    errors = [1.0, 0.05786956700853218, 0.05786956700853218, 0.05786956700853218]
    assert gmra._fit_decay(errors) == (0.0, (0.0, 0.0))


def test_fit_decay_exact_power_law():
    errors = [2.0 ** (-2 * j) for j in range(6)]
    slope, (lo, hi) = gmra._fit_decay(errors)
    assert slope == -2.0
    assert lo == hi == -2.0


def test_fit_decay_matches_linregress_on_noisy_errors():
    rng = np.random.default_rng(3)
    js = np.arange(7)
    errors = list(2.0 ** (-1.3 * js + rng.normal(0.0, 0.4, js.size)))
    slope, (lo, hi) = gmra._fit_decay(errors)
    fit = stats.linregress(js[1:].astype(float), np.log2(errors[1:]))
    half = stats.t.ppf(0.975, js.size - 3) * fit.stderr
    assert abs(slope - fit.slope) <= 1e-12
    assert abs(lo - (fit.slope - half)) <= 1e-12
    assert abs(hi - (fit.slope + half)) <= 1e-12
    assert lo < slope < hi


def test_fit_decay_too_few_scales():
    slope, (lo, hi) = gmra._fit_decay([1.0, 0.5])
    assert np.isnan(slope) and np.isnan(lo) and np.isnan(hi)
    # a zero error is unusable, leaving one scale
    slope, _ = gmra._fit_decay([1.0, 0.5, 0.0])
    assert np.isnan(slope)
    slope, (lo, hi) = gmra._fit_decay([1.0, 0.5, 0.125])
    assert slope == -2.0
    assert lo == -np.inf and hi == np.inf


def test_save_load_round_trip(tmp_path, circle_dict):
    path = tmp_path / "circle.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    back = gmra.load_dictionary(path)
    assert back.counts() == circle_dict.counts()
    assert back.sep_constant == circle_dict.sep_constant
    assert back.root_radius == circle_dict.root_radius
    for j in range(circle_dict.max_scale + 1):
        assert back.centers(j).tobytes() == circle_dict.centers(j).tobytes()
        assert back.bases(j).tobytes() == circle_dict.bases(j).tobytes()
        assert np.array_equal(back.local_dims(j), circle_dict.local_dims(j))
        assert np.array_equal(back.origin_scales(j), circle_dict.origin_scales(j))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FileFormatError, match="bad header"):
        gmra.load_dictionary(path)


def test_load_rejects_truncated(tmp_path, circle_dict):
    path = tmp_path / "trunc.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 200])
    with pytest.raises(FileFormatError):
        gmra.load_dictionary(path)


def test_load_rejects_decreasing_counts(tmp_path):
    # hand-build a container whose counts decrease across scales
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
    bases = np.tile([[[1.0, 0.0]]], (4, 1, 1))
    manifest = {
        "version": gmra.DICT_FORMAT_VERSION,
        "ambient_dim": 2,
        "counts": [3, 1],
        "max_local_dim": 1,
        "fit_local_dim": [1, 1, 1, 1],
        "cell_fit": [0, 1, 2, 3],
        "sep_constant": 0.5,
        "root_radius": 3.0,
        "provenance": {},
    }
    path = tmp_path / "bad.mcsdict"
    blob = centers.astype("<f8").tobytes() + bases.astype("<f8").tobytes()
    storage.write_container(path, storage.DICT_MAGIC, manifest, blob)
    with pytest.raises(FileFormatError, match="invariant"):
        gmra.load_dictionary(path)


def rewrite_container(path, manifest=None, floats=None):
    """Rewrite a saved dictionary container with a new manifest and/or blob."""
    old_manifest, blob = storage.read_container(path, storage.DICT_MAGIC)
    manifest = old_manifest if manifest is None else manifest
    blob = blob if floats is None else floats.astype("<f8").tobytes()
    storage.write_container(path, storage.DICT_MAGIC, manifest, blob)


@pytest.mark.parametrize("where", ["center", "basis"])
def test_load_rejects_non_finite_blob(tmp_path, circle_dict, where):
    path = tmp_path / "nan.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    floats = np.frombuffer(storage.read_container(path, storage.DICT_MAGIC)[1], dtype="<f8").copy()
    floats[0 if where == "center" else circle_dict.fit_centers.size] = np.nan
    rewrite_container(path, floats=floats)
    with pytest.raises(FileFormatError, match="finite"):
        gmra.load_dictionary(path)


def test_load_rejects_non_object_manifest(tmp_path, circle_dict):
    path = tmp_path / "list.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    rewrite_container(path, manifest=[1, 2, 3])
    with pytest.raises(FileFormatError, match="not an object"):
        gmra.load_dictionary(path)


@pytest.mark.parametrize("key", ["counts", "ambient_dim", "max_local_dim", "fit_local_dim", "cell_fit",
                                 "sep_constant", "root_radius"])
def test_load_rejects_missing_manifest_key(tmp_path, circle_dict, key):
    path = tmp_path / "missing.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    manifest = storage.read_container(path, storage.DICT_MAGIC)[0]
    del manifest[key]
    rewrite_container(path, manifest=manifest)
    with pytest.raises(FileFormatError, match=key):
        gmra.load_dictionary(path)


def test_load_rejects_non_orthonormal_basis(tmp_path, circle_dict):
    path = tmp_path / "skew.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    floats = np.frombuffer(storage.read_container(path, storage.DICT_MAGIC)[1], dtype="<f8").copy()
    floats[circle_dict.fit_centers.size:] *= 1.5
    rewrite_container(path, floats=floats)
    with pytest.raises(FileFormatError, match="non-orthonormal"):
        gmra.load_dictionary(path)


def test_load_rejects_huge_basis_entry_before_any_product(tmp_path, circle_dict):
    # a finite entry far outside [-1, 1] must be rejected, not multiplied into inf
    path = tmp_path / "huge.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    floats = np.frombuffer(storage.read_container(path, storage.DICT_MAGIC)[1], dtype="<f8").copy()
    floats[circle_dict.fit_centers.size] = 1e200
    rewrite_container(path, floats=floats)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FileFormatError, match=r"\[-1, 1\]"):
            gmra.load_dictionary(path)


def test_constructor_rejects_non_finite_cells():
    with pytest.raises(ValueError, match="finite"):
        one_cell_dictionary([np.inf, 0.0], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        one_cell_dictionary([0.0, 0.0], [[np.nan, 0.0]])


def test_constructor_rejects_carried_cell_that_is_not_a_copy():
    # scales of 1, 2 and 2 cells; fit 0 serves the root and is carried to cell 0 of scales 1 and 2
    axis = np.eye(2)[:1]
    centers = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    def build(cell_fit, fits=3):
        return gmra.MultiscaleDictionary(
            [1, 2, 2], centers[:fits], [axis] * fits, [1] * fits, cell_fit, 1.0, 1.0, {}
        )

    d = build([0, 0, 1, 0, 2])
    assert [d.origin_scales(j).tolist() for j in range(3)] == [[0], [0, 1], [0, 2]]
    assert d.centers(2).tolist() == [[0.0, 0.0], [0.0, 1.0]]
    assert [d.first_cell(f) for f in range(3)] == [(0, 0), (1, 1), (2, 1)]
    # carried cell 0 of scale 2 takes fit 0, while the same cell one scale up has fit 1
    with pytest.raises(ValueError, match="not the fit of the cell above"):
        build([0, 1, 2, 0, 1])
    # cell 1 of scale 1 takes the root's fit, but scale 0 has no cell 1 to carry it from
    with pytest.raises(ValueError, match="not the fit of the cell above"):
        build([0, 1, 0, 1, 2])
    with pytest.raises(ValueError, match="serve no cell"):
        build([0, 0, 1, 0, 1])
    for bad in (-1, 3, 99):
        with pytest.raises(ValueError, match="names fit"):
            build([0, 0, 1, 0, bad])
    with pytest.raises(ValueError, match="zero basis rows"):
        gmra.MultiscaleDictionary([1], [[0.0, 0.0]], [np.eye(2)], [1], [0], 1.0, 1.0, {})


def test_load_rejects_wrong_version(tmp_path, circle_dict):
    path = tmp_path / "v.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    manifest, blob = storage.read_container(path, storage.DICT_MAGIC)
    manifest["version"] = 99
    storage.write_container(path, storage.DICT_MAGIC, manifest, blob)
    with pytest.raises(FileFormatError, match="version"):
        gmra.load_dictionary(path)


def test_monotone_refinement_on_held_out(swiss_dict):
    held_out = geometry.gen_swiss_roll(800, seed=99)
    errors = gmra.mean_error_per_scale(swiss_dict, held_out)
    for j in range(len(errors) - 1):
        assert errors[j + 1] <= errors[j] * 1.05


def near_overflow_cloud(seed, dim=5):
    """300 N(0, 1) points in R^5, zero-padded to R^dim, scaled to a box diagonal of 4.5e153.

    That is just under the 4.7e153 that ``PointCloud`` accepts.
    """
    pts = np.zeros((300, dim))
    pts[:, :5] = np.random.default_rng(seed).standard_normal((300, 5))
    return geometry.PointCloud(pts * (4.5e153 / np.linalg.norm(np.ptp(pts, axis=0))), dim)


@pytest.mark.parametrize("seed", [2, 3, 5, 6, 7])
def test_adaptive_build_does_not_overflow_near_the_cloud_bound(seed):
    cloud = near_overflow_cloud(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = gmra.build_dictionary(cloud, local_dim=None, max_local_dim=3)
        report = gmra.validate_structure(d, cloud)
    assert report.passed, report.failures
    unit = gmra.build_dictionary(geometry.PointCloud(cloud.points / 4.5e153, 5), local_dim=None, max_local_dim=3)
    assert d.counts() == unit.counts()
    assert np.array_equal(d.fit_dims, unit.fit_dims)


def test_validate_structure_does_not_overflow_near_the_cloud_bound_at_high_dimension():
    cloud = near_overflow_cloud(2, dim=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = gmra.validate_structure(gmra.build_dictionary(cloud, local_dim=2), cloud)
    assert report.passed, report.failures
    assert report.idempotent_worst < gmra.IDEMPOTENCY_TOL
