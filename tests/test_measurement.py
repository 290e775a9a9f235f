import numpy as np
import pytest

from manifold_cs import geometry, gmra, measurement, storage
from manifold_cs.errors import FileFormatError, ResourceLimitError


def test_gaussian_deterministic():
    a = measurement.gaussian_matrix(4, 8, seed=1)
    b = measurement.gaussian_matrix(4, 8, seed=1)
    assert a.entries.tobytes() == b.entries.tobytes()


def test_gaussian_column_normalization():
    M = measurement.gaussian_matrix(200, 50, seed=3)
    col_sq = (M.entries**2).sum(axis=0)
    assert abs(col_sq.mean() - 1.0) < 0.10


def test_gaussian_concentration():
    M = measurement.gaussian_matrix(100, 1000, seed=6)
    rng = np.random.default_rng(0)
    v = rng.standard_normal((100, 1000))
    ratios = np.linalg.norm(M.apply(v), axis=1) / np.linalg.norm(v, axis=1)
    assert ratios.min() >= 0.5 and ratios.max() <= 1.5


def test_gaussian_rejects_zero_dims():
    with pytest.raises(ValueError):
        measurement.gaussian_matrix(0, 5, seed=1)
    with pytest.raises(ValueError):
        measurement.gaussian_matrix(5, 0, seed=1)


def test_orthoprojection_full_rank_isometry():
    M = measurement.orthoprojection_matrix(6, 6, seed=2)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((50, 6))
    dev = np.abs(np.linalg.norm(M.apply(v), axis=1) - np.linalg.norm(v, axis=1))
    assert dev.max() <= 1e-10


def test_orthoprojection_row_gram():
    M = measurement.orthoprojection_matrix(5, 20, seed=4)
    gram = M.entries @ M.entries.T
    assert np.max(np.abs(gram - 4.0 * np.eye(5))) <= 1e-10


def test_orthoprojection_unbiased_norm():
    M = measurement.orthoprojection_matrix(20, 200, seed=7)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((1000, 200))
    ratios = (np.linalg.norm(M.apply(v), axis=1) / np.linalg.norm(v, axis=1)) ** 2
    assert abs(ratios.mean() - 1.0) < 0.05


def test_orthoprojection_rejects_m_above_dim():
    with pytest.raises(ValueError):
        measurement.orthoprojection_matrix(7, 6, seed=1)


def test_distortion_identity_matrix():
    M = measurement.MeasurementMatrix(np.eye(5), "haar-orthoprojection", 0)
    rng = np.random.default_rng(3)
    probes = rng.standard_normal((20, 5))
    report = measurement.verify_distortion(M, probes, 1e-9)
    assert report.passed
    assert report.max_distortion <= 1e-12


def test_distortion_planted_stretch_names_pair():
    entries = np.eye(4)
    entries[0, 0] = 2.0  # stretches the first coordinate beyond 1+eps
    M = measurement.MeasurementMatrix(entries, "gaussian", 0)
    probes = np.vstack([np.zeros(4), np.eye(4)])
    report = measurement.verify_distortion(M, probes, 0.3)
    assert not report.passed
    assert report.worst_pair == (0, 1)
    assert report.max_distortion == pytest.approx(3.0)


def test_distortion_probe_order_and_translation_invariance():
    M = measurement.gaussian_matrix(30, 10, seed=9)
    rng = np.random.default_rng(4)
    probes = rng.standard_normal((15, 10))
    base = measurement.verify_distortion(M, probes, 0.5)
    perm = rng.permutation(15)
    shuffled = measurement.verify_distortion(M, probes[perm], 0.5)
    assert shuffled.max_distortion == pytest.approx(base.max_distortion, rel=1e-12)
    translated = measurement.verify_distortion(M, probes + 7.5, 0.5)
    assert translated.max_distortion == pytest.approx(base.max_distortion, rel=1e-9)


def test_distortion_rejects_degenerate_probe_sets():
    M = measurement.gaussian_matrix(3, 4, seed=0)
    with pytest.raises(ValueError):
        measurement.verify_distortion(M, np.zeros((1, 4)), 0.3)
    with pytest.raises(ValueError):
        measurement.verify_distortion(M, np.zeros((5, 4)), 0.3)


def test_jl_sizing_small_case():
    # m = ceil(8 eps^-2 ln|S|) keeps the distortion of a small Gaussian set
    rng = np.random.default_rng(12)
    probes = rng.standard_normal((40, 300))
    eps = 0.4
    m = int(np.ceil(8 * eps**-2 * np.log(40)))
    M = measurement.gaussian_matrix(m, 300, seed=21)
    assert measurement.verify_distortion(M, probes, eps).passed


def test_rip_orthoprojection_full_rank_passes_everything():
    M = measurement.orthoprojection_matrix(6, 6, seed=5)
    for d in (1, 2, 3):
        report = measurement.rip_check_bruteforce(M, d, 1e-8)
        assert report.passed


def test_rip_reproducible_per_seed():
    a = measurement.rip_check_bruteforce(measurement.gaussian_matrix(10, 12, seed=5), 2, 0.75)
    b = measurement.rip_check_bruteforce(measurement.gaussian_matrix(10, 12, seed=5), 2, 0.75)
    assert a.worst_deviation == b.worst_deviation
    assert a.worst_support == b.worst_support


def test_rip_zero_column_fails_with_support():
    entries = measurement.orthoprojection_matrix(6, 6, seed=3).entries.copy()
    entries[:, 4] = 0.0
    M = measurement.MeasurementMatrix(entries, "gaussian", 3)
    report = measurement.rip_check_bruteforce(M, 2, 0.9)
    assert not report.passed
    assert 4 in report.worst_support
    assert report.min_sq_singular == 0.0


def test_rip_budget_guard():
    M = measurement.gaussian_matrix(5, 50, seed=1)
    with pytest.raises(ResourceLimitError):
        measurement.rip_check_bruteforce(M, 10, 0.5)


def test_e_m_bound_values():
    assert measurement.e_m_bound(np.zeros(6), 0.3, 2) == 0.0
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert measurement.e_m_bound(e1, 0.0, 4) == pytest.approx(1.5)


def test_e_m_bound_homogeneous_and_monotone():
    rng = np.random.default_rng(8)
    y = rng.standard_normal(10)
    base = measurement.e_m_bound(y, 0.2, 3)
    assert measurement.e_m_bound(2.5 * y, 0.2, 3) == pytest.approx(2.5 * base)
    assert measurement.e_m_bound(y, 0.4, 3) > base
    with pytest.raises(ValueError):
        measurement.e_m_bound(y, 0.6, 3)
    with pytest.raises(ValueError):
        measurement.e_m_bound(y, 0.2, 0)


def test_rip_consistent_with_subspace_net_distortion():
    # cross-oracle check: a passing restricted isometry certificate implies
    # the pairwise distortion on every coordinate-subspace net also passes,
    # and a planted zero column breaks both
    import itertools

    from manifold_cs.geometry import epsilon_net_ball

    eps = 0.45
    net = epsilon_net_ball(2, eps)
    M = measurement.gaussian_matrix(200, 6, seed=8)
    assert measurement.rip_check_bruteforce(M, 2, eps).passed
    for support in itertools.combinations(range(6), 2):
        probes = np.zeros((net.shape[0], 6))
        probes[:, support] = net
        assert measurement.verify_distortion(M, probes, eps).passed

    broken = M.entries.copy()
    broken[:, 3] = 0.0
    Mb = measurement.MeasurementMatrix(broken, "gaussian", 8)
    assert not measurement.rip_check_bruteforce(Mb, 2, eps).passed
    probes = np.zeros((net.shape[0], 6))
    probes[:, (3, 4)] = net
    assert not measurement.verify_distortion(Mb, probes, eps).passed


def test_e_m_bound_dominates_rip_verified_matrix():
    M = measurement.gaussian_matrix(300, 12, seed=0)
    assert measurement.rip_check_bruteforce(M, 2, 0.3).passed
    rng = np.random.default_rng(5)
    ys = rng.standard_normal((1000, 12))
    lhs = np.linalg.norm(M.apply(ys), axis=1)
    rhs = np.array([measurement.e_m_bound(y, 0.3, 2) for y in ys])
    assert np.all(lhs <= rhs)


def test_assumption_sets_pass_at_full_rank(circle_cloud, circle_dict):
    M = measurement.orthoprojection_matrix(2, 2, seed=6)
    x = np.array([0.3, -1.1])
    rep1 = measurement.verify_assumption_set(M, circle_dict, x=x, which=1, eps=0.05)
    assert rep1.passed, [(i.name, i.margin) for i in rep1.items]
    rep2 = measurement.verify_assumption_set(
        M, circle_dict, which=2, eps=0.05, cloud=circle_cloud, budget=300
    )
    assert rep2.passed, [(i.name, i.margin) for i in rep2.items]


def test_assumption_set_one_passes_at_sized_m(circle_dict):
    # Gaussian rows at the sufficient count for per-query recovery (leading
    # constant 8, eps 0.3) satisfy the set-1 items for most seeds
    rng = np.random.default_rng(14)
    passes = 0
    for s in range(10):
        M = measurement.gaussian_matrix(715, 2, seed=1000 + s)
        x = rng.standard_normal(2)
        report = measurement.verify_assumption_set(M, circle_dict, x=x, which=1, eps=0.3)
        passes += report.passed
    assert passes >= 8


def test_assumption_set_one_needs_query(circle_dict):
    M = measurement.orthoprojection_matrix(2, 2, seed=6)
    with pytest.raises(ValueError):
        measurement.verify_assumption_set(M, circle_dict, which=1, eps=0.1)


def test_assumption_set_two_needs_cloud(circle_dict):
    M = measurement.orthoprojection_matrix(2, 2, seed=6)
    with pytest.raises(ValueError):
        measurement.verify_assumption_set(M, circle_dict, which=2, eps=0.1)


def adaptive_roll_dict():
    base = geometry.gen_swiss_roll(600, seed=3)
    padded = np.zeros((600, 4))
    padded[:, :3] = base.points
    cloud = geometry.add_noise(geometry.PointCloud(padded, 4), 0.05, seed=4)
    return cloud, gmra.build_dictionary(cloud, local_dim=None, max_local_dim=3, max_scale=5)


@pytest.mark.parametrize("adaptive", [False, True])
def test_item_a_over_fits_matches_the_per_cell_probe_lists(swiss_cloud, swiss_dict, adaptive):
    cloud, d = adaptive_roll_dict() if adaptive else (swiss_cloud, swiss_dict)
    assert len(d.fit_dims) < len(d.cell_fit)  # some cells are carried and share a fit
    cloud = geometry.PointCloud(cloud.points[::5], cloud.ambient_dim)
    x = cloud.points[3] + 0.1
    # reference: the probe lists with one entry per cell of every scale, carried copies included
    per_cell = [np.zeros((1, d.ambient_dim))]
    for j in range(d.max_scale + 1):
        offsets = x - d.centers(j)
        per_cell += [offsets, gmra.in_plane_rows(d, d.cell_fits(j), offsets)]
    per_cell = np.vstack(per_cell)
    vectors = measurement.assumption_set_vectors(d, x)
    assert vectors.shape == (1 + 2 * len(d.fit_dims), d.ambient_dim)
    assert set(map(bytes, vectors)) == set(map(bytes, per_cell))
    centers = np.vstack([d.centers(j) for j in range(d.max_scale + 1)])
    for M in (measurement.gaussian_matrix(2, d.ambient_dim, seed=5),
              measurement.orthoprojection_matrix(3, d.ambient_dim, seed=6)):
        item1 = measurement.verify_assumption_set(M, d, x=x, which=1, eps=0.3).item("a-distortion-query-set")
        item2 = measurement.verify_assumption_set(
            M, d, which=2, eps=0.3, cloud=cloud, budget=cloud.n
        ).item("a-distortion-manifold-and-centers")
        for item, probes in ((item1, per_cell), (item2, np.vstack([cloud.points, centers]))):
            want = measurement.verify_distortion(M, probes, 0.3)
            assert item.margin == pytest.approx(0.3 - want.max_distortion, abs=1e-12)
            assert item.passed == want.passed


def test_rank_deficient_compression_fails_subspace_item(swiss_cloud, swiss_dict):
    # duplicate measurement rows collapse every 2-plane image to a line
    row = measurement.gaussian_matrix(1, 3, seed=2).entries
    M = measurement.MeasurementMatrix(np.vstack([row, row]), "gaussian", 2)
    x = swiss_cloud.points[0]
    report = measurement.verify_assumption_set(M, swiss_dict, x=x, which=1, eps=0.3)
    assert not report.item("c-subspace-isometry").passed


def test_subspace_margin_is_the_exact_singular_value_slack(swiss_cloud, swiss_dict, circle_dict):
    # an orthogonal 2 x 2 matrix has every singular value 1: the slack is eps on every plane
    M = measurement.orthoprojection_matrix(2, 2, seed=6)
    report = measurement.verify_assumption_set(M, circle_dict, x=np.ones(2), which=1, eps=0.05)
    item = report.item("c-subspace-isometry")
    assert item.passed and item.margin == pytest.approx(0.05, abs=1e-12)
    x = swiss_cloud.points[0]
    for m in (1, 40):
        M = measurement.gaussian_matrix(m, 3, seed=9)
        want = np.inf
        for basis, d in zip(swiss_dict.fit_bases, swiss_dict.fit_dims):
            image = M.entries @ basis[:d].T
            low = np.linalg.norm(image, ord=-2) if m >= d else 0.0
            want = min(want, low - 0.7, 1.3 - np.linalg.norm(image, ord=2))
        item = measurement.verify_assumption_set(M, swiss_dict, x=x, which=1, eps=0.3).item("c-subspace-isometry")
        assert item.margin == pytest.approx(want, abs=1e-12)
        assert item.passed == (want >= 0.0)


def test_matrix_save_load_round_trip(tmp_path):
    M = measurement.gaussian_matrix(7, 9, seed=13)
    path = tmp_path / "m.mcsmtrx"
    measurement.save_matrix(M, path)
    back = measurement.load_matrix(path)
    assert back.entries.tobytes() == M.entries.tobytes()
    assert back.ensemble == M.ensemble
    assert back.seed == M.seed
    manifest, _ = storage.read_container(path, storage.MATRIX_MAGIC)
    assert manifest == {"version": 2, "m": 7, "ambient_dim": 9, "ensemble": "gaussian", "seed": 13}


def test_matrix_load_refuses_a_version_1_container(tmp_path):
    path = tmp_path / "m.mcsmtrx"
    measurement.save_matrix(measurement.gaussian_matrix(3, 4, seed=1), path)
    manifest, blob = storage.read_container(path, storage.MATRIX_MAGIC)
    old = dict(manifest, version=1, target_epsilon=0.3, entries_offset=0)
    storage.write_container(path, storage.MATRIX_MAGIC, old, blob)
    with pytest.raises(FileFormatError, match="unsupported matrix version 1"):
        measurement.load_matrix(path)


@pytest.mark.parametrize("change", [-8, -1, 1, 8])
def test_matrix_load_refuses_a_blob_of_the_wrong_length(tmp_path, change):
    path = tmp_path / "m.mcsmtrx"
    measurement.save_matrix(measurement.gaussian_matrix(3, 4, seed=1), path)
    manifest, blob = storage.read_container(path, storage.MATRIX_MAGIC)
    blob = blob[:change] if change < 0 else blob + bytes(change)
    storage.write_container(path, storage.MATRIX_MAGIC, manifest, blob)
    with pytest.raises(FileFormatError, match="a 3 x 4 matrix needs 96 blob bytes, have %d" % (96 + change)):
        measurement.load_matrix(path)


def test_matrix_load_rejects_dictionary_container(tmp_path, circle_dict):
    path = tmp_path / "d.mcsdict"
    gmra.save_dictionary(circle_dict, path)
    with pytest.raises(FileFormatError, match="bad header"):
        measurement.load_matrix(path)


def test_matrix_load_rejects_hostile_manifests(tmp_path):
    path = tmp_path / "m.mcsmtrx"
    measurement.save_matrix(measurement.gaussian_matrix(3, 4, seed=1), path)
    manifest, blob = storage.read_container(path, storage.MATRIX_MAGIC)
    for key in ("m", "ambient_dim", "ensemble", "seed"):
        broken = dict(manifest)
        del broken[key]
        storage.write_container(path, storage.MATRIX_MAGIC, broken, blob)
        with pytest.raises(FileFormatError, match=key):
            measurement.load_matrix(path)
    storage.write_container(path, storage.MATRIX_MAGIC, [manifest], blob)
    with pytest.raises(FileFormatError, match="not an object"):
        measurement.load_matrix(path)
    storage.write_container(path, storage.MATRIX_MAGIC, dict(manifest, ensemble="bernoulli"), blob)
    with pytest.raises(FileFormatError, match="bernoulli"):
        measurement.load_matrix(path)
    nan_blob = np.full(12, np.nan).astype("<f8").tobytes()
    storage.write_container(path, storage.MATRIX_MAGIC, manifest, nan_blob)
    with pytest.raises(FileFormatError, match="non-finite"):
        measurement.load_matrix(path)


def test_condensed_to_pair_inverts_the_condensed_index():
    for n in range(2, 65):
        rows, cols = np.triu_indices(n, 1)
        pairs = [measurement._condensed_to_pair(k, n) for k in range(rows.size)]
        assert pairs == list(zip(rows.tolist(), cols.tolist()))
