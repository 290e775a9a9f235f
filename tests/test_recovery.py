import math
from fractions import Fraction

import numpy as np
import pytest

from manifold_cs import geometry, gmra, measurement, recovery


def test_least_squares_overdetermined():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([3.0, 4.0, 9.0])
    assert np.allclose(recovery._truncated_pinv(a)[0] @ b, [3.0, 4.0])


def test_least_squares_zero_rhs():
    a = np.random.default_rng(0).standard_normal((5, 3))
    assert np.array_equal(recovery._truncated_pinv(a)[0] @ np.zeros(5), np.zeros(3))


def test_least_squares_duplicate_columns_min_norm():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([2.0, 2.0])
    u = recovery._truncated_pinv(a)[0] @ b
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
    out = recovery.recover(M.apply(c), M, circle_dict, 3)
    assert out.chosen_center == 2
    assert np.array_equal(out.reconstruction, c)
    assert np.array_equal(out.coefficients, np.zeros_like(out.coefficients))


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
        out = recovery.recover(M.apply(x), M, swiss_dict, j)
        assert out.chosen_center == k
        assert np.linalg.norm(out.reconstruction - x) <= 1e-8 * np.linalg.norm(x)
        assert not out.ill_conditioned


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
    for i in range(comp.shape[0]):
        single = recovery.recover(comp[i], M, d, j)
        k = single.chosen_center
        assert k == batch.chosen_centers[i]
        assert single.chosen_scale == batch.chosen_scales[i]
        assert single.searched_scale == batch.searched_scale == (d.max_scale if j == "auto" else j)
        assert np.array_equal(single.reconstruction, batch.reconstructions[i])
        dim = d.local_dims(single.chosen_scale)[k]
        assert single.coefficients.shape == (dim,)
        assert np.array_equal(single.coefficients, batch.coefficients[i, :dim])
        assert not batch.coefficients[i, dim:].any()
        assert single.compressed_residual == batch.residuals[i]
        assert single.ill_conditioned == batch.ill_conditioned[i]


def test_recover_batch_matches_single(swiss_cloud, swiss_dict):
    M = measurement.gaussian_matrix(10, 3, seed=29)
    comp = M.apply(swiss_cloud.points[:50])
    for j in list(range(swiss_dict.max_scale + 1)) + ["auto"]:
        batch = recovery.recover_batch(comp, M, swiss_dict, j)
        assert_rows_match_single(batch, comp, M, swiss_dict, j)
    origin = swiss_dict.origin_scales(swiss_dict.max_scale)[batch.chosen_centers]
    assert np.array_equal(batch.chosen_scales, origin)


@pytest.fixture(scope="module")
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
            columns = recovery.certify_batch(probes, M, d, batch, 0.3, x_opt=opt, tube_delta=0.01)
            assert len(columns) == (4 if opt is None else 9)
            for i in range(probes.shape[0]):
                single = recovery.recover(comp[i], M, d, j)
                bundle = recovery.certify(
                    probes[i], M, d, single, 0.3, x_opt=None if opt is None else opt[i], tube_delta=0.01
                )
                for name, column in columns.items():
                    assert getattr(bundle, name) == column[i], name


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
        bundle = recovery.certify(query[i], M, d, recovery.recover(comp[i], M, d, "auto"), 0.3, x_opt=x_opt[i])
        for name, column in columns.items():
            assert getattr(bundle, name) == column[i], name


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


def test_recover_dimension_mismatch(circle_dict):
    M = measurement.gaussian_matrix(4, 2, seed=5)
    with pytest.raises(ValueError):
        recovery.recover(np.zeros(5), M, circle_dict, 1)
    with pytest.raises(ValueError):
        recovery.recover(np.zeros(4), M, circle_dict, 99)


def test_recover_flags_rank_deficiency(swiss_dict):
    # one measurement row cannot determine two plane coefficients
    M = measurement.gaussian_matrix(1, 3, seed=7)
    out = recovery.recover(np.zeros(1), M, swiss_dict, 2)
    assert out.ill_conditioned


def test_recover_auto_scale_reports_fresh_fit():
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((4, 3)) * 0.1
    cloud = geometry.PointCloud(pts, 3)
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=3)
    M = measurement.orthoprojection_matrix(3, 3, seed=1)
    out = recovery.recover(M.apply(pts[0]), M, d, "auto")
    # every scale past 0 is a stalled copy for this tiny cloud
    assert out.chosen_scale == d.origin_scales(d.max_scale)[out.chosen_center]


def test_scale_invariance_of_center_choice(swiss_cloud):
    d1 = gmra.build_dictionary(swiss_cloud, local_dim=2, max_scale=4)
    scaled = geometry.PointCloud(swiss_cloud.points * 3.0, 3)
    d3 = gmra.build_dictionary(scaled, local_dim=2, max_scale=4)
    assert d1.counts() == d3.counts()
    M = measurement.gaussian_matrix(6, 3, seed=31)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = swiss_cloud.points[int(rng.integers(swiss_cloud.n))] + rng.standard_normal(3) * 0.1
        a = recovery.recover(M.apply(x), M, d1, 3)
        b = recovery.recover(M.apply(3.0 * x), M, d3, 3)
        assert a.chosen_center == b.chosen_center


def test_least_squares_local_minimality(swiss_dict):
    rng = np.random.default_rng(11)
    M = measurement.gaussian_matrix(8, 3, seed=37)
    j = 2
    for _ in range(100):
        x = rng.standard_normal(3) * 5.0
        out = recovery.recover(M.apply(x), M, swiss_dict, j)
        k = out.chosen_center
        a_sub = M.entries @ swiss_dict.bases(j)[k].T
        rhs = M.apply(x) - M.apply(swiss_dict.centers(j)[k])
        base = np.linalg.norm(a_sub @ out.coefficients - rhs)
        for i in range(swiss_dict.local_dims(j)[k]):
            for step in (1e-4, -1e-4):
                u = out.coefficients.copy()
                u[i] += step
                assert np.linalg.norm(a_sub @ u - rhs) >= base - 1e-12


def test_certify_isometric_case(swiss_cloud, swiss_dict):
    M = measurement.orthoprojection_matrix(3, 3, seed=41)
    x = swiss_cloud.points[5]
    out = recovery.recover(M.apply(x), M, swiss_dict, 3)
    cert = recovery.certify(x, M, swiss_dict, out, eps=0.01)
    # the chosen center is the true nearest center, so the ratio is exactly 1
    assert cert.line3_lhs <= cert.line3_rhs
    assert cert.line4_lhs <= 1e-10
    assert cert.line3_holds and cert.line4_holds


def test_certify_monte_carlo_circle(circle_cloud, circle_dict):
    eps = 0.3
    M = measurement.gaussian_matrix(715, 2, seed=3)
    rng = np.random.default_rng(13)
    angles = rng.uniform(0, 2 * np.pi, size=100)
    probes = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    for x in probes:
        out = recovery.recover(M.apply(x), M, circle_dict, 3)
        cert = recovery.certify(x, M, circle_dict, out, eps=eps)
        assert cert.line3_holds
        assert cert.line4_holds


def test_certify_with_oracle_point(circle_cloud, circle_dict):
    M = measurement.gaussian_matrix(200, 2, seed=19)
    x = np.array([1.05, 0.02])
    x_opt = recovery.nearest_point_oracle(x, "sphere")
    out = recovery.recover(M.apply(x), M, circle_dict, 4)
    cert = recovery.certify(x, M, circle_dict, out, eps=0.3, x_opt=x_opt, tube_delta=0.1)
    assert cert.optimal_error_bound == pytest.approx(100.3 * np.linalg.norm(x - x_opt))
    assert cert.optimal_error_excess is not None
    assert cert.line3_set2_rhs >= cert.line3_rhs
    assert cert.tube_lhs is not None and cert.tube_rhs >= 0.1
    with pytest.raises(ValueError):
        recovery.certify(x, M, circle_dict, out, eps=0.7)


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
        out = recovery.recover(M.apply(x), M, circle_dict, 5)
        cert = recovery.certify(x, M, circle_dict, out, eps=0.3, x_opt=x_opt)
        assert cert.optimal_error_excess < 0


def test_reconstruction_assembles_from_parts(circle_dict):
    M = measurement.gaussian_matrix(6, 2, seed=43)
    x = np.array([0.4, 0.9])
    out = recovery.recover(M.apply(x), M, circle_dict, 4)
    k = out.chosen_center
    manual = circle_dict.bases(4)[k].T @ out.coefficients + circle_dict.centers(4)[k]
    assert np.linalg.norm(manual - out.reconstruction) <= 1e-12


def test_certify_rejects_a_center_outside_its_scale(circle_dict):
    # fits are looked up by flat cell index: an index past K_j must not reach the next scale's cells
    M = measurement.gaussian_matrix(6, 2, seed=43)
    x = np.array([0.4, 0.9])
    out = recovery.recover(M.apply(x), M, circle_dict, 2)
    for k in (-1, len(circle_dict.centers(2))):
        out.chosen_center = k
        with pytest.raises(ValueError, match="outside its scale"):
            recovery.certify(x, M, circle_dict, out, eps=0.3)


def test_sphere_oracle():
    x = np.zeros(6)
    x[0] = 2.0
    out = recovery.nearest_point_oracle(x, "sphere")
    want = np.zeros(6)
    want[0] = 1.0
    assert np.array_equal(out, want)
    padded = recovery.nearest_point_oracle(np.array([0.0, 3.0, 0.0, 4.0, 9.9]), "sphere", intrinsic_dim=3)
    assert np.allclose(padded, [0.0, 0.6, 0.0, 0.8, 0.0])
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
    with pytest.raises(ValueError):
        recovery.nearest_point_oracle(np.zeros(3), "torus")


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
    for manifold, dim in (("sphere", None), ("sphere", 1), (circle_cloud, None)):
        probes = pts[:, :2] if manifold is circle_cloud else pts
        block = recovery.nearest_point_oracle(probes, manifold, dim)
        rows = [recovery.nearest_point_oracle(x, manifold, dim) for x in probes]
        assert np.array_equal(block, np.array(rows))
