import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.spatial.distance
from scipy.spatial.distance import pdist
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fit_tables
from manifold_cs import cli, geometry, gmra, measurement, recovery, storage
from manifold_cs.errors import FileFormatError, ParameterError, ResourceLimitError


def test_gaussian_deterministic():
    a = measurement.gaussian_matrix(4, 8, seed=1)
    b = measurement.gaussian_matrix(4, 8, seed=1)
    assert a.entries.tobytes() == b.entries.tobytes()


def test_matrix_owns_its_entries():
    # a later write to the caller's array must not reach the checked entries, nor may the matrix lock that array
    entries = measurement.orthoprojection_matrix(3, 5, seed=2).entries
    for base in (entries.copy(), np.asfortranarray(entries)):
        M = measurement.MeasurementMatrix(base[:, :], "haar-orthoprojection", 2)
        base[0, 0] = 123.0
        assert np.array_equal(M.entries, entries)
        assert base.flags.writeable and not M.entries.flags.writeable


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
    with pytest.raises(ParameterError) as refused:
        measurement.verify_assumption_set(M, circle_dict, which=1, eps=0.1)
    assert refused.value.name == "x"


def test_assumption_set_two_needs_cloud(circle_dict):
    M = measurement.orthoprojection_matrix(2, 2, seed=6)
    with pytest.raises(ParameterError) as refused:
        measurement.verify_assumption_set(M, circle_dict, which=2, eps=0.1)
    assert refused.value.name == "cloud"


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
        per_cell += [offsets, gmra.plane_rows(d, d.cell_fits(j), gmra.plane_coeffs(d, d.cell_fits(j), offsets))]
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


@pytest.mark.parametrize("adaptive", [False, True])
def test_the_compressed_fit_table_is_built_once_per_width(monkeypatch, swiss_cloud, swiss_dict, adaptive):
    cloud, d = adaptive_roll_dict() if adaptive else (swiss_cloud, swiss_dict)
    scales = list(range(d.max_scale + 1))
    widths = {d.max_local_dim(j) for j in scales}
    assert widths == ({3, 2} if adaptive else {2}) and d.fit_bases.shape[1] == max(widths)
    M, eps = measurement.gaussian_matrix(3, d.ambient_dim, seed=8), 0.3
    calls = []
    solve = measurement._truncated_pinv
    monkeypatch.setattr(measurement, "_truncated_pinv", lambda a: calls.append(a.shape) or solve(a))
    set1 = measurement.verify_assumption_set(M, d, x=cloud.points[0], which=1, eps=eps)
    set2 = measurement.verify_assumption_set(M, d, which=2, eps=eps, cloud=cloud, budget=200)
    comp = M.apply(cloud.points[:100])
    for j in scales + ["auto"]:
        recovery.recover_batch(comp, M, d, j)
    # one stacked solve of every fit per width in use
    assert sorted(calls) == sorted((len(d.fit_dims), M.m, width) for width in widths)
    # the subspace item's margin is the one the cached singular values give
    svals = measurement._SOLVES[M][d][d.fit_bases.shape[1]].svals
    dims = d.fit_dims
    low = np.where(dims <= M.m, svals[np.arange(len(dims)), np.minimum(dims, M.m) - 1], 0.0)
    want = float(np.minimum(low - (1.0 - eps), (1.0 + eps) - svals[:, 0]).min())
    assert set1.item("c-subspace-isometry").margin == set2.item("c-subspace-isometry").margin == want


def test_item_a_holds_over_no_pairs_on_a_vector_set_that_coincides(swiss_cloud, tmp_path, capsys):
    # a scale-0 dictionary has one fit: its center as the query, or as the one cloud point, makes every vector equal
    d0 = gmra.build_dictionary(swiss_cloud, local_dim=2, max_scale=0)
    center = d0.fit_centers[0]
    M = measurement.gaussian_matrix(4, 3, seed=9)
    item1 = measurement.verify_assumption_set(M, d0, x=center, which=1, eps=0.3).item("a-distortion-query-set")
    assert (item1.passed, item1.margin, item1.detail) == (True, 0.3, "max pairwise distortion 0 over 0 pairs")
    one = geometry.PointCloud(center[None], 3)
    item2 = measurement.verify_assumption_set(M, d0, which=2, eps=0.3, cloud=one).item(
        "a-distortion-manifold-and-centers")
    assert (item2.passed, item2.margin, item2.detail) == (True, 0.3, "max pairwise distortion 0 over 0 pairs (sampled)")
    # probes a caller hands in must still hold two distinct vectors
    with pytest.raises(ParameterError, match="^probes must be at least two distinct vectors, got 1$"):
        measurement.verify_distortion(M, [center, center], 0.3)
    # the CLI no longer names a --probes that was never given
    paths = {name: str(tmp_path / name) for name in ("M.mtx", "d0.dict", "q.csv")}
    measurement.save_matrix(measurement.orthoprojection_matrix(3, 3, seed=9), paths["M.mtx"])
    gmra.save_dictionary(d0, paths["d0.dict"])
    geometry.save_csv(geometry.PointCloud(center[None], 3), paths["q.csv"])
    assert np.array_equal(geometry.load_csv(paths["q.csv"]).points[0], center)
    capsys.readouterr()
    assert cli.main(["measure", "verify", "--matrix", paths["M.mtx"], "--dict", paths["d0.dict"],
                     "--assumption-set", "1", "--query", paths["q.csv"], "--eps", "0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "set 1 item a-distortion-query-set: margin 0.3 -> PASS (max pairwise distortion 0 over 0 pairs)"


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


def reference_subspace_item(matrix, dictionary, eps):
    """The per-local-dimension subspace item: for each d, one stacked SVD of the unpadded M B^T."""
    dims = dictionary.fit_dims
    margins = np.empty(len(dims))
    for d in np.unique(dims):
        idx = np.nonzero(dims == d)[0]
        svals = np.linalg.svd(matrix.entries @ dictionary.fit_bases[idx, :d].swapaxes(1, 2), full_matrices=False)[1]
        low = svals[:, -1] if matrix.m >= d else 0.0
        margins[idx] = np.minimum(low - (1.0 - eps), (1.0 + eps) - svals[:, 0])
    worst = int(np.argmin(margins))
    return measurement.ItemCheck(
        "c-subspace-isometry",
        bool(margins[worst] >= 0.0),
        float(margins[worst]),
        "min two-sided slack of the singular values of M B^T, worst at cell %s" % (dictionary.first_cell(worst),),
    )


def assert_subspace_item_matches_the_reference(d, M, eps):
    """Equal to the reference where every fit has the widest local dimension, else margins within 1e-12."""
    got, want = measurement._subspace_item(M, d, eps), reference_subspace_item(M, d, eps)
    if np.all(d.fit_dims == d.fit_bases.shape[1]):
        assert got == want
    else:
        assert abs(got.margin - want.margin) <= 1e-12
        assert got.passed == want.passed or abs(want.margin) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(fit_tables(), st.booleans(), st.integers(0, 2**32 - 1), st.floats(0.05, 0.45), st.data())
def test_subspace_item_matches_the_per_dimension_reference(case, haar, seed, eps, data):
    _, d = case
    m = data.draw(st.integers(1, d.ambient_dim))
    draw = measurement.orthoprojection_matrix if haar else measurement.gaussian_matrix
    assert_subspace_item_matches_the_reference(d, draw(m, d.ambient_dim, seed), eps)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_subspace_item_matches_the_per_dimension_reference_on_mixed_local_dims(mixed_dict, m):
    _, d = mixed_dict
    assert len(set(d.fit_dims)) > 1
    assert_subspace_item_matches_the_reference(d, measurement.gaussian_matrix(m, 4, seed=70 + m), 0.3)


def reference_item_d_margin(matrix, dictionary, pts, eps):
    """The per-fit loop of set-2 item d: each fit's projection of every point, then both residuals."""
    slack = 2.0 ** -dictionary.max_scale
    margin_d = np.inf
    m_pts = matrix.apply(pts)
    for center, basis, d in zip(dictionary.fit_centers, dictionary.fit_bases, dictionary.fit_dims):
        basis = basis[:d]
        projected = center + ((pts - center) @ basis.T) @ basis
        resid = np.linalg.norm(pts - projected, axis=1)
        m_resid = np.linalg.norm(m_pts - matrix.apply(projected), axis=1)
        upper = (1.0 + eps) * resid + slack
        lower = (1.0 - eps) * resid - slack
        margin_d = min(margin_d, float((upper - m_resid).min()), float((m_resid - lower).min()))
    return margin_d


def block_loop_item_d_margin(matrix, dictionary, pts, eps):
    """Set-2 item d as one pass over every block of fits, each about 2^15 offsets, with no screen."""
    centers, bases = dictionary.fit_centers, dictionary.fit_bases
    block = max(1, geometry._BLOCK_ENTRIES // pts.size)
    slack = 2.0 ** -dictionary.max_scale
    margin_d = np.inf
    for fits in (slice(lo, lo + block) for lo in range(0, len(centers), block)):
        rel = pts - centers[fits, None]
        off = rel - (rel @ bases[fits].swapaxes(1, 2)) @ bases[fits]
        resid = np.linalg.norm(off, axis=2)
        m_resid = np.linalg.norm(matrix.apply(off), axis=2)
        upper = (1.0 + eps) * resid + slack
        lower = (1.0 - eps) * resid - slack
        margin_d = min(margin_d, float((upper - m_resid).min()), float((m_resid - lower).min()))
    return margin_d


@settings(max_examples=40, deadline=None)
@given(fit_tables(), st.booleans(), st.integers(0, 2**32 - 1), st.floats(0.05, 0.45), st.data())
def test_item_d_matches_the_per_fit_loop(case, haar, seed, eps, data):
    cloud, d = case
    m = data.draw(st.integers(1, d.ambient_dim))
    draw = measurement.orthoprojection_matrix if haar else measurement.gaussian_matrix
    M = draw(m, d.ambient_dim, seed)
    item = measurement.verify_assumption_set(M, d, which=2, eps=eps, cloud=cloud).item("d-residual-embedding")
    assert item.margin == block_loop_item_d_margin(M, d, cloud.points, eps)
    want = reference_item_d_margin(M, d, cloud.points, eps)
    assert abs(item.margin - want) <= 1e-12 * (1.0 + abs(want))
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


def pdist_pair_distortion(matrix, vectors):
    """_pair_distortion's answer from two full pdist arrays: the first maximum in condensed order."""
    d2 = pdist(vectors, metric="sqeuclidean")
    md2 = pdist(matrix.apply(vectors), metric="sqeuclidean")
    alive = d2 > 0.0
    checked = int(alive.sum())
    if not checked:
        return 0.0, None, 0, len(d2)
    ratios = np.where(alive, np.abs(md2 / np.where(alive, d2, 1.0) - 1.0), -np.inf)
    worst = int(np.argmax(ratios))
    rows, cols = np.triu_indices(len(vectors), 1)
    return float(ratios[worst]), (int(rows[worst]), int(cols[worst])), checked, len(d2) - checked


@st.composite
def probe_sets(draw):
    """(matrix, probes): Gaussian, near-duplicate, duplicated, underflowing or 1e150-sized rows in R^D."""
    dim = draw(st.sampled_from([1, 3, 17, 200]))
    n = draw(st.integers(2, 120 if dim == 200 else 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "duplicates", "near-duplicates", "underflow", "huge"]))
    probes = rng.standard_normal((n, dim)) * {"underflow": 1e-170, "huge": 1e150}.get(kind, 1.0)
    if kind in ("duplicates", "near-duplicates"):
        probes = probes[rng.integers(0, max(1, n // 3), n)]
    if kind == "near-duplicates":
        probes = probes + rng.standard_normal((n, dim)) * 1e-12
    if kind == "underflow":
        probes[rng.random(n) < 0.5] = 0.0  # differences whose squares underflow to 0, which pdist skips
    isometry = draw(st.booleans())
    m = dim if isometry else draw(st.integers(1, dim))
    seed = draw(st.integers(0, 2**32 - 1))
    haar = isometry or draw(st.booleans())
    return (measurement.orthoprojection_matrix if haar else measurement.gaussian_matrix)(m, dim, seed), probes


@settings(max_examples=80, deadline=None)
@given(probe_sets(), st.booleans())
def test_pair_distortion_is_pdists_bit_for_bit(case, screen_every_width):
    # with the dimension floor lowered, the screen also runs in R^1, R^3 and R^17
    M, probes = case
    floor = -1 if screen_every_width else measurement._PAIR_SCREEN_MIN_DIMS
    with mock.patch.object(measurement, "_PAIR_SCREEN_MIN_DIMS", floor):
        got = measurement._pair_distortion(M, probes)
    with np.errstate(all="ignore"):
        want = pdist_pair_distortion(M, probes)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1:] == want[1:]


def test_pair_distortion_screens_above_the_dimension_floor_and_computes_every_row_of_an_isometry(monkeypatch):
    # in R^200 the screen runs: a Gaussian matrix leaves few rows to compute; an exact isometry keeps every row of
    # its first block, which ends the screen
    rows, screens = [], []
    cdist, screen_rows = scipy.spatial.distance.cdist, measurement._screen_rows
    monkeypatch.setattr(scipy.spatial.distance, "cdist", lambda a, b, metric: rows.append(len(a)) or cdist(a, b, metric))
    monkeypatch.setattr(measurement, "_screen_rows", lambda *args: screens.append(args[1]) or screen_rows(*args))
    probes = np.random.default_rng(2).standard_normal((300, 200))
    for M, at_most in ((measurement.gaussian_matrix(8, 200, seed=3), 30), (measurement.orthoprojection_matrix(200, 200, 4), 299)):
        rows.clear()
        screens.clear()
        assert measurement._pair_distortion(M, probes) == pdist_pair_distortion(M, probes)
        assert sum(rows) // 2 <= at_most
    assert sum(rows) // 2 == 299
    assert screens == [0]


def test_distortion_and_item_d_peak_below_one_condensed_distance_array():
    # one condensed float64 array at n = 1,000 is 4 MB; pdist's check held three
    cloud = geometry.gen_swiss_roll(1500, seed=1)
    padded = np.zeros((1500, 200))
    padded[:, :3] = cloud.points
    cloud = geometry.add_noise(geometry.PointCloud(padded, 200), 0.05, seed=2)
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=6, min_points=6)
    for M in (measurement.orthoprojection_matrix(8, 200, seed=3), measurement.gaussian_matrix(32, 200, seed=4)):
        measurement._fit_solves(M, d, d.fit_bases.shape[1])  # the table item c builds first
        for run in (lambda: measurement.verify_distortion(M, cloud.points[:1000], 0.3),
                    lambda: measurement._residual_item(M, d, cloud.points[:200], 0.3)):
            tracemalloc.start()
            run()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 4 * 10**6
