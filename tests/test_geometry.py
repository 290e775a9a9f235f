import re
import warnings

import numpy as np
import pytest

from manifold_cs import geometry, gmra
from manifold_cs.errors import CsvParseError, ResourceLimitError


def test_swiss_roll_shape_and_surface():
    cloud = geometry.gen_swiss_roll(200, seed=7)
    assert cloud.points.shape == (200, 3)
    # radius in the (x, z) plane equals the spiral parameter t
    t = np.hypot(cloud.points[:, 0], cloud.points[:, 2])
    assert np.all(t >= geometry.SWISS_ROLL_T_MIN - 1e-9)
    assert np.all(t <= geometry.SWISS_ROLL_T_MAX + 1e-9)
    assert np.all((cloud.points[:, 1] >= 0) & (cloud.points[:, 1] <= geometry.SWISS_ROLL_HEIGHT))


def test_swiss_roll_single_point():
    cloud = geometry.gen_swiss_roll(1, seed=0)
    assert cloud.points.shape == (1, 3)
    assert np.all(np.isfinite(cloud.points))


def test_swiss_roll_deterministic():
    a = geometry.gen_swiss_roll(100, seed=3)
    b = geometry.gen_swiss_roll(100, seed=3)
    assert a.points.tobytes() == b.points.tobytes()


def test_swiss_roll_rejects_empty():
    with pytest.raises(ValueError):
        geometry.gen_swiss_roll(0, seed=1)


def test_sphere_unit_norms():
    cloud = geometry.gen_sphere(40000, 9, seed=1)
    assert cloud.points.shape == (40000, 10)
    norms = np.linalg.norm(cloud.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    # Monte Carlo concentration: the empirical mean vector is tiny
    assert np.linalg.norm(cloud.points.mean(axis=0)) < 0.02


def test_sphere_circle_case():
    cloud = geometry.gen_sphere(5, 1, seed=2)
    assert cloud.points.shape == (5, 2)
    assert np.max(np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0)) <= 1e-12


def test_sphere_rejects_bad_dims():
    with pytest.raises(ValueError):
        geometry.gen_sphere(10, 0, seed=1)
    with pytest.raises(ValueError):
        geometry.gen_sphere(0, 2, seed=1)


def test_add_noise_zero_sigma_identity():
    cloud = geometry.gen_sphere(50, 2, seed=4)
    noisy = geometry.add_noise(cloud, 0.0, seed=9)
    assert noisy.points.tobytes() == cloud.points.tobytes()


def test_add_noise_magnitude():
    cloud = geometry.gen_sphere(40000, 9, seed=5)
    sigma = 0.05
    noisy = geometry.add_noise(cloud, sigma, seed=9)
    disp = np.linalg.norm(noisy.points - cloud.points, axis=1)
    # mean displacement of a chi_D variable scaled to total variance sigma^2
    assert abs(disp.mean() - sigma) / sigma < 0.10
    per_coord_var = np.var(noisy.points - cloud.points)
    assert abs(per_coord_var - sigma**2 / 10) / (sigma**2 / 10) < 0.05


def test_add_noise_deterministic_per_point():
    cloud = geometry.gen_sphere(30, 2, seed=4)
    a = geometry.add_noise(cloud, 0.1, seed=9)
    b = geometry.add_noise(cloud, 0.1, seed=9)
    assert a.points.tobytes() == b.points.tobytes()
    # the block is drawn row by row, so a prefix of the cloud gets a prefix of the noise
    sub = geometry.PointCloud(cloud.points[:7], 3)
    c = geometry.add_noise(sub, 0.1, seed=9)
    assert np.array_equal(c.points, a.points[:7])


@pytest.mark.parametrize("n, dim, seed", [(30, 3, 9), (5, 200, 0), (1, 1, 2**40)])
def test_add_noise_draws_one_block_from_the_seeds_child_stream(n, dim, seed):
    cloud = geometry.PointCloud(np.random.default_rng(1).standard_normal((n, dim)), dim)
    stream = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    want = cloud.points + 0.3 / np.sqrt(dim) * stream.standard_normal((n, dim))
    assert np.array_equal(geometry.add_noise(cloud, 0.3, seed).points, want)


def test_add_noise_keeps_the_old_first_row():
    # row 0 comes from SeedSequence(9, spawn_key=(0,)), the stream point 0 had when each point drew its own
    noise = geometry.add_noise(geometry.PointCloud(np.zeros((4, 3)), 3), np.sqrt(3), 9).points
    assert noise[0].tolist() == [-0.2788945804052137, -1.1400292264929155, 1.2414956440631864]
    assert noise[1].tolist() != [-0.4671803383576705, -0.5382782228370679, 1.8030863535847332]


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_add_noise_does_not_reuse_the_generators_stream(seed):
    # gen_swiss_roll and the matrix draws read default_rng(seed); the noise of the same seed must not
    clean = geometry.gen_swiss_roll(500, seed)
    noise = (geometry.add_noise(clean, 0.05, seed).points - clean.points) * np.sqrt(3) / 0.05
    same = np.random.default_rng(seed).standard_normal((500, 3))
    assert not np.allclose(noise, same, atol=1e-6)
    assert abs(np.corrcoef(noise.ravel(), same.ravel())[0, 1]) < 0.1


def test_add_noise_rejects_negative():
    cloud = geometry.gen_sphere(5, 2, seed=4)
    with pytest.raises(ValueError):
        geometry.add_noise(cloud, -0.1, seed=1)


def test_cover_radius_exceeding_diameter_gives_one_center(circle_cloud):
    small = geometry.PointCloud(circle_cloud.points[:100], 2)
    order = geometry.farthest_point_ordering(small.points, stop_radius=10.0)[0]
    assert order.tolist() == [0]


def test_cover_and_packing_properties(circle_cloud):
    order = geometry.farthest_point_ordering(circle_cloud.points, stop_radius=0.1)[0]
    centers = circle_cloud.points[order]
    dists = np.linalg.norm(circle_cloud.points[:, None, :] - centers[None, :, :], axis=2)
    assert dists.min(axis=1).max() <= 0.1 + 1e-12
    pair = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    np.fill_diagonal(pair, np.inf)
    assert pair.min() > 0.1
    # covering-number bound for the circle: 2 pi 1.5^1.5 / (2^0.5 * 0.1)
    assert len(order) <= 82


def test_cover_packing_on_larger_cloud():
    cloud = geometry.gen_swiss_roll(10000, seed=2)
    delta = 3.0
    order = geometry.farthest_point_ordering(cloud.points, stop_radius=delta)[0]
    centers = cloud.points[order]
    best = np.full(cloud.n, np.inf)
    for c in centers:
        np.minimum(best, np.linalg.norm(cloud.points - c, axis=1), out=best)
    assert best.max() <= delta + 1e-12
    pair = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    np.fill_diagonal(pair, np.inf)
    assert pair.min() > delta


def test_fps_ends_at_radius_zero_and_rejects_negative_stop_radius():
    pts = np.array([[0.0], [1.0], [1.0], [3.0]])
    order, radii, (rows, picks) = geometry.farthest_point_ordering(pts)
    assert order.tolist() == [0, 3, 1] and radii.tolist() == [3.0, 1.0, 0.0]
    # row 3 moves to pick 1 (itself), rows 1 and 2 to pick 2 (row 1); row 0 stays with pick 0
    assert rows.tolist() == [3, 1, 2] and picks.tolist() == [1, 2, 2]
    with pytest.raises(ValueError):
        geometry.farthest_point_ordering(pts, stop_radius=-1.0)


@pytest.mark.parametrize("shift", [0.0, 1e8])
def test_fps_settles_an_exact_tie_on_the_lowest_index(shift):
    # rows 1-4 lie on the unit circle about row 0 and stay exactly 1 from the picked prefix until picked
    pts = np.array([[0.0, 0.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]) + shift
    order, radii, (rows, picks) = geometry.farthest_point_ordering(pts)
    assert order.tolist() == [0, 1, 2, 3, 4] and radii.tolist() == [1.0, 1.0, 1.0, 1.0, 0.0]
    # each pick is the strictly nearest pick of itself alone: row 0 stays exactly 1 from every later one
    assert rows.tolist() == [1, 2, 3, 4] and picks.tolist() == [1, 2, 3, 4]


def test_fps_screens_low_rank_clouds_in_few_coordinates_and_full_rank_ones_at_full_width():
    rng = np.random.default_rng(5)
    frame = np.linalg.qr(rng.standard_normal((200, 3)))[0]
    clouds = {
        "roll in R^3": geometry.gen_swiss_roll(1500, seed=5).points,
        "roll rotated into R^200": geometry.gen_swiss_roll(1500, seed=5).points @ frame.T,
        "Gaussian in R^17": rng.standard_normal((1500, 17)),
        "Gaussian in R^200": rng.standard_normal((1500, 200)),
    }
    widths = {}
    for name, pts in clouds.items():
        coords, _, _ = geometry._screen_coordinates(pts)
        widths[name] = "full" if np.array_equal(coords, pts - pts.mean(axis=0)) else coords.shape[1]
    assert widths == {
        "roll in R^3": "full",
        "roll rotated into R^200": geometry._SCREEN_RANK + 1,
        "Gaussian in R^17": "full",
        "Gaussian in R^200": "full",
    }


def test_cover_sizes_below_covering_number_up_to_dim_three():
    # unit d-sphere: V * (d/2+1)^(d/2+1) / (2^(d/2) delta^d) caps the greedy size
    volumes = {1: 2 * np.pi, 2: 4 * np.pi, 3: 2 * np.pi**2}
    for d, volume in volumes.items():
        cloud = geometry.gen_sphere(3000, d, seed=6)
        for delta in (0.3, 0.5):
            size = len(geometry.farthest_point_ordering(cloud.points, stop_radius=delta)[0])
            bound = volume * (d / 2 + 1) ** (d / 2 + 1) / (2 ** (d / 2) * delta**d)
            assert size < bound, (d, delta, size, bound)


def test_point_cloud_refuses_coordinates_whose_squared_distances_overflow():
    g = np.random.default_rng(0).standard_normal((300, 5))
    with pytest.raises(ValueError, match="too large"):
        geometry.PointCloud(g * 1e160, 5)
    # no spread at all, but the mean of the two rows sums past the largest float
    with pytest.raises(ValueError, match="too large"):
        geometry.PointCloud(np.full((2, 1), 1e308), 1)
    cloud = geometry.PointCloud(g * 1e150, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = gmra.build_dictionary(cloud, local_dim=2, max_scale=6)
        report = gmra.validate_structure(d, cloud)
    assert report.passed, report.failures


def test_point_cloud_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        geometry.PointCloud(np.zeros((0, 2)), 2)
    with pytest.raises(ValueError):
        geometry.PointCloud(np.array([[np.nan, 0.0]]), 2)


def test_epsilon_net_interval():
    net = geometry.epsilon_net_ball(1, 0.4)
    assert np.allclose(net[0], 0.0)
    assert net.shape[0] <= 31
    probes = np.linspace(-1.0, 1.0, 401)[:, None]
    gaps = np.abs(probes - net.T).min(axis=1)
    assert gaps.max() <= 0.1 + 1e-12


def test_epsilon_net_disk_coverage():
    net = geometry.epsilon_net_ball(2, 0.48)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((1000, 2))
    r = rng.uniform(size=1000) ** 0.5
    probes = g / np.linalg.norm(g, axis=1, keepdims=True) * r[:, None]
    d = np.sqrt(((probes[:, None, :] - net[None, :, :]) ** 2).sum(-1)).min(axis=1)
    assert d.max() <= 0.12


def test_epsilon_net_budget_guard():
    with pytest.raises(ResourceLimitError):
        geometry.epsilon_net_ball(20, 0.3)
    with pytest.raises(ValueError):
        geometry.epsilon_net_ball(2, 0.75)


def test_csv_basic_parse(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("0,1\n1,0\n0,0\n")
    cloud = geometry.load_csv(path)
    assert cloud.points.shape == (3, 2)
    assert np.array_equal(cloud.points, [[0, 1], [1, 0], [0, 0]])


def test_csv_header_row(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x,y\n0.5,1.5\n")
    cloud = geometry.load_csv(path)
    assert cloud.points.shape == (1, 2)


def test_csv_byte_order_mark_is_not_a_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_bytes(b"\xef\xbb\xbf0.5,1.5\n2,3\n")
    assert geometry.load_csv(path).points.tolist() == [[0.5, 1.5], [2.0, 3.0]]


def test_csv_round_trip(tmp_path):
    cloud = geometry.gen_sphere(10, 2, seed=4)
    path = tmp_path / "sphere.csv"
    geometry.save_csv(cloud, path)
    back = geometry.load_csv(path)
    assert np.array_equal(back.points, cloud.points)


def test_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1\n")
    with pytest.raises(CsvParseError) as err:
        geometry.load_csv(path)
    assert err.value.row == 2


def test_csv_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,zap\n")
    with pytest.raises(CsvParseError) as err:
        geometry.load_csv(path)
    assert err.value.row == 2


def test_csv_names_the_row_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2,3\n\xff\xfe,1,2\n")
    with pytest.raises(CsvParseError, match="row 2 is not UTF-8 text") as err:
        geometry.load_csv(path)
    assert err.value.row == 2


def test_csv_counts_rows_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf1,2\n\xff,3\n")
    with pytest.raises(CsvParseError, match="row 2 is not UTF-8 text") as err:
        geometry.load_csv(path)
    assert err.value.row == 2


def test_csv_names_a_bad_row_read_before_a_later_row_that_is_not_utf8(tmp_path):
    # the stream decodes 8 KiB at a time: row 2 is read before the chunk holding the bad byte
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2\n1,zap\n" + b"3,4\n" * 3000 + b"\xff\n")
    with pytest.raises(CsvParseError, match="^%s: non-numeric value at row 2$" % re.escape(str(path))):
        geometry.load_csv(path)
    path.write_bytes(b"1,2\n" + b"3,4\n" * 3000 + b"5,\xff\n")
    with pytest.raises(CsvParseError, match="^%s: row 3002 is not UTF-8 text$" % re.escape(str(path))):
        geometry.load_csv(path)


@pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11"])
def test_csv_refuses_numbers_float_reads_but_csv_never_writes(tmp_path, value):
    # underscores between digits, an Arabic-Indic one, a fullwidth one
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,%s\n" % value, encoding="utf-8")
    with pytest.raises(CsvParseError) as err:
        geometry.load_csv(path)
    assert err.value.row == 2


def test_csv_refuses_a_cloud_too_large_for_squared_distances(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("0,0\n1e300,0\n")
    with pytest.raises(CsvParseError, match="too large"):
        geometry.load_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_csv_non_finite_names_line(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,1\n1,%s\n" % value)
    with pytest.raises(CsvParseError) as err:
        geometry.load_csv(path)
    assert err.value.row == 3
