import dataclasses
import gc
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from conftest import fit_tables
from manifold_cs import geometry, gmra, measurement, recovery
from manifold_cs.errors import ParameterError


def test_least_squares_overdetermined():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([3.0, 4.0, 9.0])
    assert np.allclose(measurement._truncated_pinv(a)[0] @ b, [3.0, 4.0])


def test_least_squares_zero_rhs():
    a = np.random.default_rng(0).standard_normal((5, 3))
    assert np.array_equal(measurement._truncated_pinv(a)[0] @ np.zeros(5), np.zeros(3))


def test_least_squares_duplicate_columns_min_norm():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([2.0, 2.0])
    u = measurement._truncated_pinv(a)[0] @ b
    assert np.allclose(u, [1.0, 1.0])
    # grid oracle: no grid point achieves a smaller residual, and among the
    # near-minimal ones none has smaller norm than the returned solution
    grid = np.linspace(-3, 3, 121)
    uu, vv = np.meshgrid(grid, grid)
    res = np.hypot(uu + vv - 2.0, uu + vv - 2.0)
    best = res.min()
    assert np.linalg.norm(a @ u - b) <= best + 1e-6
    near = res <= best + 1e-9
    norms = np.hypot(uu, vv)
    assert np.linalg.norm(u) <= norms[near].min() + 1e-9


def test_recover_center_fixed_point(circle_dict):
    M = measurement.gaussian_matrix(4, 2, seed=5)
    c = circle_dict.centers(3)[2]
    out = recovery.recover_batch(M.apply(c)[None], M, circle_dict, 3)
    assert out.chosen_centers.tolist() == [2]
    assert np.array_equal(out.reconstructions, [c])
    assert not out.coefficients.any()


def test_recover_exact_on_plane(swiss_dict):
    rng = np.random.default_rng(3)
    M = measurement.gaussian_matrix(8, 3, seed=17)
    j = 3
    sep = swiss_dict.sep_constant * 2.0**-j
    for case in range(50):
        k = int(rng.integers(len(swiss_dict.centers(j))))
        u = rng.standard_normal(swiss_dict.local_dims(j)[k])
        u *= 0.02 * sep / np.linalg.norm(u)
        x = swiss_dict.centers(j)[k] + swiss_dict.bases(j)[k].T @ u
        out = recovery.recover_batch(M.apply(x)[None], M, swiss_dict, j)
        assert out.chosen_centers[0] == k
        assert np.linalg.norm(out.reconstructions[0] - x) <= 1e-8 * np.linalg.norm(x)
        assert not out.ill_conditioned[0]


def test_recover_full_rank_matches_uncompressed(swiss_cloud, swiss_dict):
    M = measurement.orthoprojection_matrix(3, 3, seed=23)
    comp = M.apply(swiss_cloud.points)
    for j in (0, 2, 4):
        batch = recovery.recover_batch(comp[:200], M, swiss_dict, j)
        for i in range(200):
            x = swiss_cloud.points[i]
            k = gmra.nearest_center(swiss_dict, j, x)
            c, basis = swiss_dict.centers(j)[k], swiss_dict.bases(j)[k]
            px = c + basis.T @ (basis @ (x - c))
            assert batch.chosen_centers[i] == k
            assert np.linalg.norm(batch.reconstructions[i] - px) <= 1e-10


def assert_rows_match_single(batch, comp, M, d, j):
    """Row i of the n-row batch equals the 1-row call on row i, field for field."""
    for i in range(comp.shape[0]):
        single = recovery.recover_batch(comp[i : i + 1], M, d, j)
        assert single.searched_scale == batch.searched_scale == (d.max_scale if j == "auto" else j)
        for name in ("reconstructions", "chosen_scales", "chosen_centers", "coefficients", "residuals",
                     "ill_conditioned"):
            assert np.array_equal(getattr(single, name), getattr(batch, name)[i : i + 1]), name
        assert single.coefficients.shape == (1, d.fit_bases.shape[1])
        dim = d.local_dims(single.searched_scale)[single.chosen_centers[0]]
        assert not batch.coefficients[i, dim:].any()


def test_recover_batch_matches_single(swiss_cloud, swiss_dict):
    M = measurement.gaussian_matrix(10, 3, seed=29)
    comp = M.apply(swiss_cloud.points[:50])
    for j in list(range(swiss_dict.max_scale + 1)) + ["auto"]:
        batch = recovery.recover_batch(comp, M, swiss_dict, j)
        assert_rows_match_single(batch, comp, M, swiss_dict, j)
    origin = swiss_dict.origin_scales(swiss_dict.max_scale)[batch.chosen_centers]
    assert np.array_equal(batch.chosen_scales, origin)


def grouped_recover_batch(measurements, matrix, dictionary, j):
    """The per-local-dimension recovery: for each d, one stacked SVD of the m x d systems of the fits touched.

    Its coefficients are zero-padded to the fit table's width, as recover_batch's are.
    """
    y = np.asarray(measurements, dtype=np.float64)
    auto = j == "auto"
    scale = dictionary.max_scale if auto else int(j)
    comp_centers = dictionary.centers(scale) @ matrix.entries.T
    cells = geometry.nearest_rows(y, comp_centers)
    rhs = y - comp_centers[cells]
    fits = dictionary.cell_fits(scale)[cells]
    dims = dictionary.fit_dims[fits]
    n = y.shape[0]
    coeffs = np.zeros((n, dictionary.fit_bases.shape[1]))
    residuals = np.empty(n)
    ill = np.empty(n, dtype=bool)
    for d in np.unique(dims):
        rows = np.nonzero(dims == d)[0]
        group, slot = np.unique(fits[rows], return_inverse=True)
        a_sub = matrix.entries @ dictionary.fit_bases[group, :d].swapaxes(1, 2)
        pinv, rank, _ = measurement._truncated_pinv(a_sub)
        c = (pinv[slot] @ rhs[rows, :, None])[:, :, 0]
        coeffs[rows, :d] = c
        residuals[rows] = np.linalg.norm((a_sub[slot] @ c[:, :, None])[:, :, 0] - rhs[rows], axis=1)
        ill[rows] = rank[slot] < d
    return recovery.BatchRecovery(
        reconstructions=gmra.plane_rows(dictionary, fits, coeffs) + dictionary.fit_centers[fits],
        searched_scale=scale,
        chosen_scales=dictionary.origin_scales(scale)[cells] if auto else np.full(n, scale),
        chosen_centers=cells,
        coefficients=coeffs,
        residuals=residuals,
        ill_conditioned=ill,
    )


def assert_matches_grouped_reference(cloud, d, M):
    """recover_batch against grouped_recover_batch at every scale and "auto".

    Where every fit of the searched scale has the fit table's width, as on a fixed-d dictionary, the two are the
    same bit for bit. Elsewhere they agree within 1e-12 of the cloud's scale, or of the values' own where a nearly singular
    system makes them larger: a 1 x 2 system [a, b] gives coefficients near 1/|(a, b)|.
    """
    comp = M.apply(cloud.points)
    scale = np.abs(cloud.points).max()
    for j in list(range(d.max_scale + 1)) + ["auto"]:
        got, want = recovery.recover_batch(comp, M, d, j), grouped_recover_batch(comp, M, d, j)
        for name in ("searched_scale", "chosen_scales", "chosen_centers", "ill_conditioned"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        dims = d.fit_dims[d.cell_fits(got.searched_scale)[got.chosen_centers]]
        assert not got.coefficients[np.arange(got.coefficients.shape[1]) >= dims[:, None]].any()
        exact = np.all(d.local_dims(got.searched_scale) == d.fit_bases.shape[1])
        for name in ("reconstructions", "coefficients", "residuals"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape, name
            assert np.array_equal(a, b) if exact else np.abs(a - b).max() <= 1e-12 * max(scale, np.abs(b).max()), name


@settings(max_examples=40, deadline=None)
@given(fit_tables(), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_recover_batch_matches_the_grouped_reference(case, haar, seed, data):
    cloud, d = case
    m = data.draw(st.integers(1, d.ambient_dim))
    draw = measurement.orthoprojection_matrix if haar else measurement.gaussian_matrix
    assert_matches_grouped_reference(cloud, d, draw(m, d.ambient_dim, seed))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_recover_batch_matches_the_grouped_reference_on_mixed_local_dims(mixed_dict, m):
    cloud, d = mixed_dict
    assert_matches_grouped_reference(cloud, d, measurement.gaussian_matrix(m, 4, seed=60 + m))


def test_mixed_local_dims_share_one_batch(mixed_dict):
    cloud, d = mixed_dict
    M = measurement.gaussian_matrix(3, 4, seed=53)
    probes = cloud.points[::6]
    comp = M.apply(probes)
    x_opt = probes + 1e-3
    for j in [2, d.max_scale, "auto"]:
        batch = recovery.recover_batch(comp, M, d, j)
        dims = {d.local_dims(s)[k] for s, k in zip(batch.chosen_scales, batch.chosen_centers)}
        assert dims == {1, 2}
        assert_rows_match_single(batch, comp, M, d, j)
        for opt in (None, x_opt):
            columns = recovery.certify_batch(probes, M, d, batch, 0.3, x_opt=opt)
            assert tuple(columns) == recovery.CERT_COLUMNS[: 4 if opt is None else 9]
            for i in range(probes.shape[0]):
                single = recovery.recover_batch(comp[i : i + 1], M, d, j)
                row = recovery.certify_batch(probes[i : i + 1], M, d, single, 0.3,
                                             x_opt=None if opt is None else opt[i : i + 1])
                assert row.keys() == columns.keys()
                for name, column in columns.items():
                    assert row[name][0] == column[i], name


def test_auto_certificates_equal_the_finest_scale_ones():
    # "auto" searches the finest layer, so line 3's best center comes from that layer too,
    # even for rows whose fit was made at a coarser scale
    train = geometry.add_noise(geometry.gen_swiss_roll(2000, seed=1), 0.05, 2)
    query = geometry.add_noise(geometry.gen_swiss_roll(2000, seed=3), 0.05, 4).points
    d = gmra.build_dictionary(train, local_dim=2, max_scale=8, min_points=6)
    M = measurement.gaussian_matrix(8, 3, seed=1)
    comp = M.apply(query)
    auto = recovery.recover_batch(comp, M, d, "auto")
    finest = recovery.recover_batch(comp, M, d, 8)
    assert np.array_equal(auto.reconstructions, finest.reconstructions)
    coarser = np.nonzero(auto.chosen_scales < 8)[0]
    assert coarser.size > 100
    x_opt = query + 0.01
    columns = recovery.certify_batch(query, M, d, auto, 0.3, x_opt=x_opt)
    want = recovery.certify_batch(query, M, d, finest, 0.3, x_opt=x_opt)
    assert columns.keys() == want.keys()
    for name in columns:
        assert np.array_equal(columns[name], want[name]), name
    for i in coarser[:20]:
        single = recovery.recover_batch(comp[i : i + 1], M, d, "auto")
        row = recovery.certify_batch(query[i : i + 1], M, d, single, 0.3, x_opt=x_opt[i : i + 1])
        for name, column in columns.items():
            assert row[name][0] == column[i], name


def test_recover_centers_exactly_in_mixed_dictionary(mixed_dict):
    # measuring a center gives a zero right-hand side: zero coefficients and
    # the exact center, in 1- and 2-plane cells alike
    _, d = mixed_dict
    M = measurement.gaussian_matrix(3, 4, seed=53)
    j = d.max_scale
    batch = recovery.recover_batch(M.apply(d.centers(j)), M, d, j)
    assert np.array_equal(batch.chosen_centers, np.arange(len(d.centers(j))))
    assert not batch.coefficients.any()
    assert np.array_equal(batch.reconstructions, d.centers(j))


def assert_same_batch(got, want):
    for name in ("reconstructions", "searched_scale", "chosen_scales", "chosen_centers", "coefficients", "residuals",
                 "ill_conditioned"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("mode", ["fixed", "adaptive"])
def test_recover_batch_is_the_same_in_any_scale_order(mode, swiss_cloud, swiss_dict, mixed_dict):
    # the solves cached per matrix must give each scale the answer of a cold cache, whichever scales ran before
    cloud, d = (swiss_cloud, swiss_dict) if mode == "fixed" else mixed_dict
    M = measurement.gaussian_matrix(2, d.ambient_dim, seed=71)
    comp = M.apply(cloud.points[::3])
    scales = list(range(d.max_scale + 1)) + ["auto"]

    def fresh():
        return measurement.MeasurementMatrix(M.entries, M.ensemble, M.seed)

    want = {j: recovery.recover_batch(comp, fresh(), d, j) for j in scales}
    for order in (scales, scales[::-1], ["auto"] + scales[:-1]):
        shared = fresh()
        for j in order:
            assert_same_batch(recovery.recover_batch(comp, shared, d, j), want[j])
    for j in scales:
        assert_same_batch(recovery.recover_batch(comp, M, d, j), want[j])


def test_the_solve_cache_releases_its_matrix_and_dictionary():
    cloud = geometry.gen_swiss_roll(300, seed=2)
    M = measurement.gaussian_matrix(4, 3, seed=3)
    comp = M.apply(cloud.points)
    kept, dropped = (gmra.build_dictionary(cloud, local_dim=2, max_scale=3) for _ in range(2))
    recovery.recover_batch(comp, M, kept, 3)
    recovery.recover_batch(comp, M, dropped, 3)
    assert len(measurement._SOLVES[M]) == 2
    refs = [weakref.ref(dropped)]
    del dropped
    gc.collect()
    assert refs[0]() is None and len(measurement._SOLVES[M]) == 1
    refs += [weakref.ref(M), weakref.ref(kept)]
    del M, kept
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_recover_batch_refuses_non_finite_measurements(swiss_dict):
    M = measurement.gaussian_matrix(4, 3, seed=11)
    comp = M.apply(np.ones((6, 3)))
    comp[4, 0] = np.inf
    comp[3, 2] = np.nan
    with pytest.raises(ValueError, match="^measurements must be finite in row 3, got nan$"):
        recovery.recover_batch(comp, M, swiss_dict, 2)
    with pytest.raises(ValueError, match="^measurements must be finite in row 0, got inf$"):
        recovery.recover_batch(comp[4:5], M, swiss_dict, "auto")


def test_certify_batch_refuses_points_of_another_shape(swiss_cloud, swiss_dict):
    M = measurement.gaussian_matrix(4, 3, seed=12)
    pts = swiss_cloud.points[:10]
    batch = recovery.recover_batch(M.apply(pts), M, swiss_dict, 3)
    for bad in (pts[:9], np.vstack([pts, pts[:1]]), pts[:, :2], pts.ravel()):
        with pytest.raises(ParameterError, match=r"^points must be shaped \(10, 3\), got %s$" % re.escape(str(bad.shape))):
            recovery.certify_batch(bad, M, swiss_dict, batch, 0.3)


def test_certify_batch_refuses_coefficients_narrower_or_wider_than_the_fit_table(swiss_cloud, swiss_dict):
    M = measurement.gaussian_matrix(4, 3, seed=12)
    pts = swiss_cloud.points[:10]
    batch = recovery.recover_batch(M.apply(pts), M, swiss_dict, 3)
    assert batch.coefficients.shape == (10, 2)
    for bad in (batch.coefficients[:, :1], np.hstack([batch.coefficients, np.zeros((10, 1))]), batch.coefficients[:9]):
        with pytest.raises(ParameterError, match=r"^batch must be a recovery whose coefficients are shaped \(10, 2\), "
                                                 r"the fit table's width, got %s$" % re.escape(str(bad.shape))):
            recovery.certify_batch(pts, M, swiss_dict, dataclasses.replace(batch, coefficients=bad), 0.3)


@pytest.mark.parametrize("j", [2, "auto"])
def test_the_1_row_calls_are_the_batch_calls_on_one_row(mixed_dict, j):
    # recover and certify stay as 1-row calls: recover(y) is recover_batch(y[None]) and certify(x, ...) is
    # certify_batch(x[None], ...), field for field and column for column
    cloud, d = mixed_dict
    M = measurement.gaussian_matrix(3, 4, seed=53)
    for x in cloud.points[::50]:
        y = M.apply(x)
        got, want = recovery.recover(y, M, d, j), recovery.recover_batch(y[None], M, d, j)
        assert_same_batch(got, want)
        for x_opt in (None, x + 1e-3):
            row = recovery.certify(x, M, d, got, 0.3, x_opt=x_opt)
            columns = recovery.certify_batch(x[None], M, d, want, 0.3, x_opt=None if x_opt is None else x_opt[None])
            assert row.keys() == columns.keys()
            for name, column in columns.items():
                assert row[name].shape == (1,) and row[name].tobytes() == column.tobytes(), name


@pytest.mark.parametrize("rhs", [0.0, 1.0, -3.0, 2.5e6])
def test_holds_allows_1e_12_times_one_plus_the_bound_and_no_more(rhs):
    edge = rhs + 1e-12 * (1.0 + abs(rhs))
    past = np.nextafter(edge, np.inf)
    assert edge > rhs
    assert recovery.holds(rhs, rhs) and recovery.holds(edge, rhs)
    assert not recovery.holds(past, rhs)
    lhs = np.array([rhs - 1.0, rhs, edge, past])
    assert recovery.holds(lhs, np.full(4, rhs)).tolist() == [True, True, True, False]
    assert recovery.holds(lhs, rhs).tolist() == [True, True, True, False]


def test_recover_dimension_mismatch(circle_dict):
    M = measurement.gaussian_matrix(4, 2, seed=5)
    with pytest.raises(ValueError):
        recovery.recover_batch(np.zeros((1, 5)), M, circle_dict, 1)
    with pytest.raises(ValueError):
        recovery.recover_batch(np.zeros((1, 4)), M, circle_dict, 99)


def test_recover_flags_rank_deficiency(swiss_dict):
    # one measurement row cannot determine two plane coefficients
    M = measurement.gaussian_matrix(1, 3, seed=7)
    out = recovery.recover_batch(np.zeros((1, 1)), M, swiss_dict, 2)
    assert out.ill_conditioned.tolist() == [True]


def test_recover_auto_scale_reports_fresh_fit():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((4, 3)) * 0.1
    cloud = geometry.PointCloud(pts, 3)
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=3)
    M = measurement.orthoprojection_matrix(3, 3, seed=1)
    out = recovery.recover_batch(M.apply(pts[:1]), M, d, "auto")
    # every scale past 0 is a stalled copy for this tiny cloud
    assert np.array_equal(out.chosen_scales, d.origin_scales(d.max_scale)[out.chosen_centers])


def test_scale_invariance_of_center_choice(swiss_cloud):
    d1 = gmra.build_dictionary(swiss_cloud, local_dim=2, max_scale=4)
    scaled = geometry.PointCloud(swiss_cloud.points * 3.0, 3)
    d3 = gmra.build_dictionary(scaled, local_dim=2, max_scale=4)
    assert d1.counts() == d3.counts()
    M = measurement.gaussian_matrix(6, 3, seed=31)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = swiss_cloud.points[int(rng.integers(swiss_cloud.n))] + rng.standard_normal(3) * 0.1
        a = recovery.recover_batch(M.apply(x)[None], M, d1, 3)
        b = recovery.recover_batch(M.apply(3.0 * x)[None], M, d3, 3)
        assert np.array_equal(a.chosen_centers, b.chosen_centers)


def test_least_squares_local_minimality(swiss_dict):
    rng = np.random.default_rng(11)
    M = measurement.gaussian_matrix(8, 3, seed=37)
    j = 2
    for _ in range(100):
        x = rng.standard_normal(3) * 5.0
        out = recovery.recover_batch(M.apply(x)[None], M, swiss_dict, j)
        k = out.chosen_centers[0]
        dim = swiss_dict.local_dims(j)[k]
        a_sub = M.entries @ swiss_dict.bases(j)[k].T
        rhs = M.apply(x) - M.apply(swiss_dict.centers(j)[k])
        base = np.linalg.norm(a_sub @ out.coefficients[0, :dim] - rhs)
        for i in range(dim):
            for step in (1e-4, -1e-4):
                u = out.coefficients[0, :dim].copy()
                u[i] += step
                assert np.linalg.norm(a_sub @ u - rhs) >= base - 1e-12


def test_certify_isometric_case(swiss_cloud, swiss_dict):
    M = measurement.orthoprojection_matrix(3, 3, seed=41)
    x = swiss_cloud.points[5]
    out = recovery.recover_batch(M.apply(x)[None], M, swiss_dict, 3)
    cert = recovery.certify_batch(x[None], M, swiss_dict, out, eps=0.01)
    # the chosen center is the true nearest center, so the ratio is exactly 1
    assert cert["line3_lhs"][0] <= cert["line3_rhs"][0]
    assert cert["line4_lhs"][0] <= 1e-10
    assert recovery.holds(cert["line3_lhs"], cert["line3_rhs"]).all()
    assert recovery.holds(cert["line4_lhs"], cert["line4_rhs"]).all()


def test_certify_monte_carlo_circle(circle_cloud, circle_dict):
    eps = 0.3
    M = measurement.gaussian_matrix(715, 2, seed=3)
    rng = np.random.default_rng(13)
    angles = rng.uniform(0, 2 * np.pi, size=100)
    probes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for x in probes:
        out = recovery.recover_batch(M.apply(x)[None], M, circle_dict, 3)
        cert = recovery.certify_batch(x[None], M, circle_dict, out, eps=eps)
        assert recovery.holds(cert["line3_lhs"], cert["line3_rhs"]).all()
        assert recovery.holds(cert["line4_lhs"], cert["line4_rhs"]).all()


def test_certify_with_oracle_point(circle_cloud, circle_dict):
    M = measurement.gaussian_matrix(200, 2, seed=19)
    x = np.array([1.05, 0.02])
    x_opt = recovery.nearest_point_oracle(x, "sphere")
    out = recovery.recover_batch(M.apply(x)[None], M, circle_dict, 4)
    cert = recovery.certify_batch(x[None], M, circle_dict, out, eps=0.3, x_opt=x_opt[None])
    assert tuple(cert) == recovery.CERT_COLUMNS
    assert cert["optimal_error_bound"][0] == pytest.approx(100.3 * np.linalg.norm(x - x_opt))
    assert np.isfinite(cert["optimal_error_excess"]).all() and np.isfinite(cert["tube_lhs"]).all()
    assert cert["line3_set2_rhs"][0] >= cert["line3_rhs"][0]
    # the distance to the nearest finest-scale center, whatever scale the recovery searched
    assert cert["tube_rhs"][0] == np.linalg.norm(x - circle_dict.centers(circle_dict.max_scale), axis=1).min()
    with pytest.raises(ValueError):
        recovery.certify_batch(x[None], M, circle_dict, out, eps=0.7)


def test_optimal_error_excess_negative_at_fine_scales(circle_dict):
    # off-circle probes with the radial oracle: the 100.3x comparison leaves
    # plenty of room at fine scales, so the reported excess is negative
    M = measurement.gaussian_matrix(200, 2, seed=47)
    rng = np.random.default_rng(17)
    for _ in range(50):
        ang = rng.uniform(0, 2 * np.pi)
        radius = 1.0 + rng.uniform(0.02, 0.3) * rng.choice([-1.0, 1.0])
        x = radius * np.array([np.cos(ang), np.sin(ang)])
        x_opt = recovery.nearest_point_oracle(x, "sphere")
        out = recovery.recover_batch(M.apply(x)[None], M, circle_dict, 5)
        cert = recovery.certify_batch(x[None], M, circle_dict, out, eps=0.3, x_opt=x_opt[None])
        assert cert["optimal_error_excess"][0] < 0


def test_reconstruction_assembles_from_parts(circle_dict):
    M = measurement.gaussian_matrix(6, 2, seed=43)
    x = np.array([0.4, 0.9])
    out = recovery.recover_batch(M.apply(x)[None], M, circle_dict, 4)
    k = out.chosen_centers[0]
    coeffs = out.coefficients[0, : circle_dict.local_dims(4)[k]]
    manual = circle_dict.bases(4)[k].T @ coeffs + circle_dict.centers(4)[k]
    assert np.linalg.norm(manual - out.reconstructions[0]) <= 1e-12


def test_certify_rejects_a_center_outside_its_scale(circle_dict):
    # fits are looked up by flat cell index: an index past K_j must not reach the next scale's cells
    M = measurement.gaussian_matrix(6, 2, seed=43)
    x = np.array([0.4, 0.9])
    out = recovery.recover_batch(M.apply(x)[None], M, circle_dict, 2)
    for k in (-1, len(circle_dict.centers(2))):
        out.chosen_centers[0] = k
        with pytest.raises(ParameterError, match=r"^batch must be .*outside its scale .*, got \[%d\]$" % k):
            recovery.certify_batch(x[None], M, circle_dict, out, eps=0.3)


def test_sphere_oracle():
    x = np.zeros(6)
    x[0] = 2.0
    out = recovery.nearest_point_oracle(x, "sphere")
    want = np.zeros(6)
    want[0] = 1.0
    assert np.array_equal(out, want)
    with pytest.raises(ValueError):
        recovery.nearest_point_oracle(np.zeros(4), "sphere")


def test_dense_cloud_oracle_orders():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((300, 4))
    cloud = geometry.PointCloud(pts, 4)
    shuffled = geometry.PointCloud(pts[rng.permutation(300)], 4)
    for _ in range(20):
        x = rng.standard_normal(4)
        a = recovery.nearest_point_oracle(x, cloud)
        b = recovery.nearest_point_oracle(x, shuffled)
        assert np.array_equal(a, b)


def test_swiss_roll_oracle_beats_grid():
    rng = np.random.default_rng(23)
    ts = np.linspace(geometry.SWISS_ROLL_T_MIN, geometry.SWISS_ROLL_T_MAX, 100000)
    spiral = np.stack([ts * np.cos(ts), ts * np.sin(ts)], axis=1)
    for _ in range(100):
        x = rng.uniform([-15, -3, -15], [15, 24, 15])
        opt = recovery.nearest_point_oracle(x, "swiss-roll")
        h = np.clip(x[1], 0.0, geometry.SWISS_ROLL_HEIGHT)
        grid_best = np.sqrt(
            ((spiral - np.array([x[0], x[2]])) ** 2).sum(axis=1).min() + (h - x[1]) ** 2
        )
        assert np.linalg.norm(opt - x) <= grid_best + 1e-12


def test_unknown_manifold_descriptor():
    with pytest.raises(ParameterError) as refused:
        recovery.nearest_point_oracle(np.zeros(3), "torus")
    assert refused.value.name == "manifold"


def test_line4_lhs_exact_far_from_origin():
    # one cell centered near 1e6 (1, 1, 1): the line-4 distance is ~1e-5, so
    # subtracting two points of norm ~1.7e6 would leave ~1e-5 relative error
    rng = np.random.default_rng(61)
    basis = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    center = 1e6 * np.ones(3) + rng.standard_normal(3)
    d = gmra.MultiscaleDictionary([1], [center], [basis], [2], [0], 1.0, 1.0, {})
    M = measurement.gaussian_matrix(3, 3, seed=67)
    x = center + basis.T @ rng.standard_normal(2) + 1e-5 * np.cross(basis[0], basis[1])
    batch = recovery.recover_batch(M.apply(x[None]), M, d, 0)
    lhs = recovery.certify_batch(x[None], M, d, batch, 0.3)["line4_lhs"][0]
    # exact reference: P x = c + B^T B (x - c) and x' = c + B^T u', in rationals
    c, xq, u = ([Fraction(float(v)) for v in a] for a in (center, x, batch.coefficients[0]))
    b = [[Fraction(float(v)) for v in row] for row in basis]
    coef = [sum(bt[i] * (xq[i] - c[i]) for i in range(3)) - ut for bt, ut in zip(b, u)]
    gap = [sum(b[t][i] * coef[t] for t in range(2)) for i in range(3)]
    want = math.sqrt(sum(g * g for g in gap))
    assert want > 1e-6
    assert abs(lhs - want) <= 1e-10 * want


def test_swiss_roll_oracle_block_matches_rows():
    # more rows than one 256-row grid block, some far off the roll
    pts = geometry.add_noise(geometry.gen_swiss_roll(300, seed=71), 0.5, 73).points
    block = recovery.nearest_point_oracle(pts, "swiss-roll")
    assert block.shape == pts.shape
    for i in range(0, 300, 7):
        assert np.array_equal(block[i], recovery.nearest_point_oracle(pts[i], "swiss-roll"))
    # no point of a fine parameter grid is nearer than the oracle's answer
    ts = np.linspace(geometry.SWISS_ROLL_T_MIN, geometry.SWISS_ROLL_T_MAX, 20001)
    curve = np.stack([ts * np.cos(ts), ts * np.sin(ts)], axis=1)
    best = np.sqrt(((pts[:, None, [0, 2]] - curve[None]) ** 2).sum(axis=2).min(axis=1))
    got = np.linalg.norm((pts - block)[:, [0, 2]], axis=1)
    assert np.all(got <= best + 1e-12)
    heights = np.clip(pts[:, 1], 0.0, geometry.SWISS_ROLL_HEIGHT)
    assert np.array_equal(block[:, 1], heights)


def test_sphere_and_cloud_oracles_take_blocks(circle_cloud):
    rng = np.random.default_rng(79)
    pts = rng.standard_normal((20, 4))
    for manifold in ("sphere", circle_cloud):
        probes = pts[:, :2] if manifold is circle_cloud else pts
        block = recovery.nearest_point_oracle(probes, manifold)
        rows = [recovery.nearest_point_oracle(x, manifold) for x in probes]
        assert np.array_equal(block, np.array(rows))


def reference_nearest_on_swiss_roll(x, grid_size=4096, block=256):
    """The per-row oracle: a blocked grid argmin, then brentq or a bounded minimize_scalar per row."""
    ts = np.linspace(geometry.SWISS_ROLL_T_MIN, geometry.SWISS_ROLL_T_MAX, grid_size)
    seeds = np.empty(x.shape[0], dtype=np.intp)
    for start in range(0, x.shape[0], block):
        chunk = x[start : start + block]
        seeds[start : start + block] = np.argmin(recovery._roll_fval(ts, chunk[:, :1], chunk[:, 2:]), axis=1)
    out = np.empty_like(x)
    for r, (a, height, b) in enumerate(x):
        lo = ts[max(0, seeds[r] - 1)]
        hi = ts[min(grid_size - 1, seeds[r] + 1)]
        if recovery._roll_fgrad(lo, a, b) < 0 < recovery._roll_fgrad(hi, a, b):
            t_star = brentq(recovery._roll_fgrad, lo, hi, args=(a, b), xtol=1e-13)
        else:
            res = minimize_scalar(
                recovery._roll_fval, bounds=(lo, hi), args=(a, b), method="bounded", options={"xatol": 1e-13}
            )
            t_star = float(res.x)
            for edge in (geometry.SWISS_ROLL_T_MIN, geometry.SWISS_ROLL_T_MAX):
                if recovery._roll_fval(edge, a, b) < recovery._roll_fval(t_star, a, b):
                    t_star = edge
        out[r] = geometry.swiss_roll_point(t_star, float(np.clip(height, 0.0, geometry.SWISS_ROLL_HEIGHT)))
    return out


def roll_probe(t, radial, height):
    """A point at the spiral's angle t, radius t + radial: on the roll at 0, between arms at about +-pi."""
    return np.array([(t + radial) * np.cos(t), height, (t + radial) * np.sin(t)])


roll_probes = st.one_of(
    # on, near and far from the roll, between its arms, past both spiral ends, heights outside [0, 21]
    st.builds(
        roll_probe,
        st.floats(geometry.SWISS_ROLL_T_MIN - 2.0, geometry.SWISS_ROLL_T_MAX + 2.0),
        st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6), st.floats(-12.0, 12.0)),
        st.floats(-30.0, 50.0),
    ),
    # anywhere in a box around the roll, the spiral's inner end included
    st.builds(lambda p: np.array(p), st.tuples(*[st.floats(-25.0, 25.0)] * 3)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(roll_probes, min_size=1, max_size=12))
def test_swiss_roll_oracle_matches_the_per_row_reference(probes):
    x = np.array(probes)
    got = recovery.nearest_point_oracle(x, "swiss-roll")
    want = reference_nearest_on_swiss_roll(x)
    assert np.array_equal(got[:, 1], want[:, 1])
    got_dist, want_dist = np.linalg.norm(x - got, axis=1), np.linalg.norm(x - want, axis=1)
    assert np.all(np.abs(got_dist - want_dist) <= 1e-12 * (1.0 + want_dist))


def test_swiss_roll_oracle_agrees_by_distance_on_planted_grid_ties():
    # points equidistant from two neighbouring points of the oracle's 4,096-point spiral grid: the kernel's
    # rounding picks either seed, and may pick differently in a 1-row and an n-row call, so every answer is
    # compared by distance
    ts = np.linspace(geometry.SWISS_ROLL_T_MIN, geometry.SWISS_ROLL_T_MAX, 4096)
    grid = np.stack([ts * np.cos(ts), ts * np.sin(ts)], axis=1)
    k = np.random.default_rng(83).choice(len(ts) - 1, size=300)
    chord = grid[k + 1] - grid[k]
    normal = np.stack([-chord[:, 1], chord[:, 0]], axis=1) / np.linalg.norm(chord, axis=1)[:, None]
    ab = 0.5 * (grid[k] + grid[k + 1]) + np.linspace(-0.5, 0.5, len(k))[:, None] * normal
    x = np.stack([ab[:, 0], np.linspace(-3.0, 24.0, len(k)), ab[:, 1]], axis=1)
    block = recovery.nearest_point_oracle(x, "swiss-roll")
    rows = np.array([recovery.nearest_point_oracle(row, "swiss-roll") for row in x])
    want = reference_nearest_on_swiss_roll(x)
    want_dist = np.linalg.norm(x - want, axis=1)
    for got in (block, rows):
        assert np.array_equal(got[:, 1], want[:, 1])
        got_dist = np.linalg.norm(x - got, axis=1)
        assert np.all(np.abs(got_dist - want_dist) <= 1e-12 * (1.0 + want_dist))


def test_swiss_roll_oracle_picks_the_nearer_arm_where_two_arms_tie():
    # on the ray at angle 7, both arms' nearest points (t ~ 7.04 and t ~ 13.26) are equally near at radius
    # 10.14669176...; within ~1e-6 of it the 4,096-point grid's argmin can lie on the farther arm.  The per-row
    # reference shares that seeding, so the judge is a 400,001-point grid over the whole spiral
    radius = 10.146691762085252 + np.linspace(-1e-5, 1e-5, 201)
    x = np.stack([radius * np.cos(7.0), np.linspace(-2.0, 23.0, len(radius)), radius * np.sin(7.0)], axis=1)
    got = np.linalg.norm(x - recovery.nearest_point_oracle(x, "swiss-roll"), axis=1)
    ts = np.linspace(geometry.SWISS_ROLL_T_MIN, geometry.SWISS_ROLL_T_MAX, 400_001)
    spiral_a, spiral_b = ts * np.cos(ts), ts * np.sin(ts)
    height = x[:, 1] - np.clip(x[:, 1], 0.0, geometry.SWISS_ROLL_HEIGHT)
    for row, dist, h in zip(x, got, height):
        plane = ((spiral_a - row[0]) ** 2 + (spiral_b - row[2]) ** 2).min()
        assert dist <= np.sqrt(plane + h**2) + 1e-12
