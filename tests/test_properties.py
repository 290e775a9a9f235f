"""Property tests: bit-exact container round trips, typed errors on damage and fuzzed CSV, the distance kernel, FPS,
build accounting."""

import json
import os
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from manifold_cs import geometry, gmra, measurement, storage
from manifold_cs.errors import CsvParseError, FileFormatError

DICT_ARRAYS = ("offsets", "fit_centers", "fit_bases", "fit_dims", "cell_fit")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def load_bytes(data, loader):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "container")
        with open(path, "wb") as fh:
            fh.write(data)
        return loader(path)


@pytest.fixture(scope="module")
def saved_containers():
    """Bytes of one saved dictionary and one saved matrix, with their loaders and magics."""
    cloud = geometry.add_noise(geometry.gen_swiss_roll(200, seed=5), 0.05, 6)
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=3)
    with tempfile.TemporaryDirectory() as tmp:
        gmra.save_dictionary(d, os.path.join(tmp, "d"))
        measurement.save_matrix(measurement.gaussian_matrix(4, 3, seed=7), os.path.join(tmp, "m"))
        return {
            name: (Path(tmp, name).read_bytes(), loader, magic)
            for name, loader, magic in (
                ("d", gmra.load_dictionary, storage.DICT_MAGIC),
                ("m", measurement.load_matrix, storage.MATRIX_MAGIC),
            )
        }


def split(data):
    (mlen,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16 : 16 + mlen]), data[16 + mlen :]


def join(magic, manifest, blob):
    text = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return magic + struct.pack("<Q", len(text)) + text + blob


def loads_or_rejects(data, loader):
    try:
        load_bytes(data, loader)
    except FileFormatError:
        pass


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 60),
    dim=st.integers(1, 4),
    max_scale=st.integers(0, 4),
    local_dim=st.one_of(st.none(), st.integers(1, 4)),
    threshold=st.floats(0.5, 0.99),
)
def test_dictionary_round_trip_is_bit_exact(seed, n, dim, max_scale, local_dim, threshold):
    cloud = geometry.PointCloud(np.random.default_rng(seed).standard_normal((n, dim)), dim)
    if local_dim is None:
        options = {"local_dim": None, "max_local_dim": dim, "energy_threshold": threshold}
    else:
        options = {"local_dim": min(local_dim, dim)}
    d = gmra.build_dictionary(cloud, max_scale=max_scale, **options)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.mcsdict")
        gmra.save_dictionary(d, path)
        back = gmra.load_dictionary(path)
    for name in DICT_ARRAYS:
        a, b = getattr(d, name), getattr(back, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert struct.pack("<2d", d.sep_constant, d.root_radius) == struct.pack("<2d", back.sep_constant, back.root_radius)
    assert back.provenance == d.provenance
    assert back.counts() == d.counts()


@pytest.mark.parametrize("name", ["d", "m"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_truncated_container_is_rejected(saved_containers, name, data):
    raw, loader, _ = saved_containers[name]
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(FileFormatError):
        load_bytes(raw[:cut], loader)


@pytest.mark.parametrize("name", ["d", "m"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bit_flipped_container_loads_or_is_rejected(saved_containers, name, data):
    raw, loader, _ = saved_containers[name]
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 7)), min_size=1, max_size=3))
    damaged = bytearray(raw)
    for pos, bit in flips:
        damaged[pos] ^= 1 << bit
    loads_or_rejects(bytes(damaged), loader)


@pytest.mark.parametrize("name", ["d", "m"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mangled_manifest_loads_or_is_rejected(saved_containers, name, data):
    raw, loader, magic = saved_containers[name]
    manifest, blob = split(raw)
    if data.draw(st.booleans()):
        manifest = data.draw(json_values)
    else:
        key = data.draw(st.sampled_from(sorted(manifest)))
        if data.draw(st.booleans()):
            del manifest[key]
        else:
            manifest[key] = data.draw(json_values)
    loads_or_rejects(join(magic, manifest, blob), loader)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nearest_rows_matches_difference_scan(data):
    # The kernel may pick a different row than the difference-form scan only
    # when the two squared distances lie within its rounding bound, a few ulps
    # of the squared distances from b's mean: the bound, like the kernel, does
    # not grow when the rows are shifted far from the origin.
    dim = data.draw(st.integers(1, 5), label="dim")
    coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    a = data.draw(arrays(np.float64, (data.draw(st.integers(1, 30)), dim), elements=coords), label="a")
    b = data.draw(arrays(np.float64, (data.draw(st.integers(1, 300)), dim), elements=coords), label="b")
    shift = data.draw(st.sampled_from([0.0, 1e4, -1e6, 1e8]), label="shift")
    # repeating a's rows up to the tree's query-row pair count reaches the tree when b has enough rows
    reps = data.draw(st.sampled_from([1, -(-gmra._TREE_MIN_PAIRS // (len(a) * len(b)))]), label="reps")
    a, b = np.tile(a, (reps, 1)) + shift, b + shift
    got = gmra._nearest_rows(a, b)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    ref = b.mean(axis=0)
    spread = ((a - ref) ** 2).sum(axis=1) + ((b - ref) ** 2).sum(axis=1).max()
    bound = 16 * (dim + 2) * np.finfo(np.float64).eps * spread
    assert np.all(d2[np.arange(len(a)), got] <= d2.min(axis=1) + bound)


def flat_nearest_rows(a, b):
    """Reference search: the blocked argmin of the kernel over every row of b, ties to the lowest index."""
    terms = gmra._centered(b)
    block = max(1, gmra._BLOCK_ENTRIES // len(b))
    out = np.empty(len(a), dtype=np.intp)
    for lo in range(0, len(a), block):
        out[lo : lo + block] = np.argmin(gmra._sq_dists_centered(a[lo : lo + block], *terms), axis=1)
    return out


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.one_of(st.integers(1, gmra._TREE_MIN_ROWS - 1), st.integers(gmra._TREE_MIN_ROWS, 300)),
    n=st.integers(1, 30),
    bulk=st.booleans(),
    nudge=st.sampled_from([0.0, 1e-7]),
    dim=st.sampled_from([1, 2, 3, 8, 9, 32]),
    lattice=st.booleans(),
    duplicates=st.booleans(),
    apart=st.sampled_from([0.0, 1e6]),
    shift=st.sampled_from([0.0, 1e8]),
)
def test_nearest_rows_equals_the_flat_scan_bit_for_bit(seed, k, n, bulk, nudge, dim, lattice, duplicates, apart, shift):
    # Lattice coordinates and rows of b drawn with replacement give exact ties.  Each random query comes with a
    # planted one: a point near a random row of b moved onto the bisector of its two nearest rows, then nudged
    # towards one of them by `nudge` of their gap.  Two clusters `apart` make the kernel's rounding far coarser
    # than the distances inside a cluster, so near-ties that a tree could settle wrongly are not rare.  `bulk`
    # plants queries up to the tree's query-row pair count, so the call reaches the tree when b has enough rows.
    # The nudge is one per call: a single tie the slack leaves open sends its whole scan block to the kernel, so
    # only a call without exact ties shows whether the slack certifies a near-tie that the kernel decides apart.
    # A 1-row call must equal the reference's 1-row call: BLAS may round a one-row product differently from a
    # block, so on such near-ties the kernel's own 1-row and n-row answers can differ, and both must be kept.
    rng = np.random.default_rng(seed)
    n_planted = n + (-(-gmra._TREE_MIN_PAIRS // k) if bulk else 0)
    a, b = rng.standard_normal((n, dim)), rng.standard_normal((k, dim))
    if lattice:
        a, b = np.round(a * 2.0) / 2.0, np.round(b * 2.0) / 2.0
    b[1::2, 0] += apart
    if duplicates:
        b = b[rng.integers(0, k, size=k)]
    x = b[rng.integers(0, k, size=n_planted)] + 0.5 * rng.standard_normal((n_planted, dim))
    if k > 1:
        near = cKDTree(b).query(x, k=2)[1]
        first, second = b[near[:, 0]], b[near[:, 1]]
        gap = first - second
        gap_sq = np.einsum("ij,ij->i", gap, gap)
        along = np.einsum("ij,ij->i", x - (first + second) / 2.0, gap) / np.where(gap_sq > 0.0, gap_sq, 1.0)
        x += (nudge - along)[:, None] * gap
    a, b = np.vstack([a, x]) + shift, b + shift
    got = gmra._nearest_rows(a, b)
    assert got.tolist() == flat_nearest_rows(a, b).tolist()
    for row in a[: 2 * n]:
        assert gmra._nearest_rows(row[None], b).tolist() == flat_nearest_rows(row[None], b).tolist()


def difference_form_fps(pts, stop_radius=0.0, stop_fraction=None):
    """Reference ordering: every row's distance recomputed as np.linalg.norm(x - p) at every pick."""
    order = [0]
    dist = np.linalg.norm(pts - pts[0], axis=1)
    radii = [float(dist.max())]
    if stop_fraction is not None:
        stop_radius = max(stop_radius, radii[0] * stop_fraction)
    while radii[-1] > stop_radius:
        nxt = int(np.argmax(dist))
        order.append(nxt)
        np.minimum(dist, np.linalg.norm(pts - pts[nxt], axis=1), out=dist)
        radii.append(float(dist.max()))
    return np.array(order, dtype=np.intp), np.array(radii)


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    dim=st.sampled_from([1, 2, 3, 17, 200]),
    lattice=st.booleans(),
    shift=st.sampled_from([0.0, 1e8]),
    scale=st.sampled_from([1.0, 1e-6, 1e6]),
    apart=st.sampled_from([0.0, 1e6]),
    stop=st.one_of(
        st.just({"stop_radius": 0.0}),
        st.floats(0.0, 3.0).map(lambda r: {"stop_radius": r}),
        st.floats(0.0, 1.0).map(lambda f: {"stop_fraction": f}),
        st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 1.0)).map(lambda t: {"stop_radius": t[0], "stop_fraction": t[1]}),
    ),
)
def test_fps_equals_the_difference_form_loop_bit_for_bit(seed, n, dim, lattice, shift, scale, apart, stop):
    # The lattice gives duplicate points and exact distance ties.  The shift, the scale and two clusters
    # `apart` (whose Gram values round far coarser than their in-cluster distances) stress the Gram screen.
    pts = np.random.default_rng(seed).standard_normal((n, dim))
    if lattice:
        pts = np.round(pts * 2.0) / 2.0
    pts[1::2, 0] += apart
    pts = pts * scale + shift
    stop = {k: v * scale if k == "stop_radius" else v for k, v in stop.items()}
    order, radii = geometry.farthest_point_ordering(pts, **stop)
    want_order, want_radii = difference_form_fps(pts, **stop)
    assert order.tolist() == want_order.tolist()
    assert radii.tobytes() == want_radii.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    dim=st.sampled_from([17, 200, 1000]),
    rank=st.sampled_from([1, 2, 3, 8, 12, None]),
    noise=st.sampled_from([0.0, 1e-3, 0.1]),
    lattice=st.booleans(),
    shift=st.sampled_from([0.0, 1e8]),
    scale=st.sampled_from([1.0, 1e-6, 1e6]),
    stop=st.one_of(
        st.just({"stop_radius": 0.0}),
        st.floats(0.0, 1.0).map(lambda f: {"stop_fraction": f}),
    ),
)
def test_fps_on_rotated_low_rank_clouds_equals_the_difference_form_loop_bit_for_bit(
    seed, n, dim, rank, noise, lattice, shift, scale, stop
):
    # A cloud of `rank` coordinates (all of them for None: full rank), padded into R^dim and rotated by a Haar
    # matrix (the first `rank` columns of one are a uniform orthonormal frame), plus ambient noise of norm about
    # `noise`.  Low ranks take the low-rank screen, high ranks and strong noise the full-width one.
    rng = np.random.default_rng(seed)
    rank = dim if rank is None else rank
    base = rng.standard_normal((n, rank))
    if lattice:
        base = np.round(base * 2.0) / 2.0
    frame, signs = np.linalg.qr(rng.standard_normal((dim, rank)))
    pts = base @ (frame * np.sign(np.diag(signs))).T + noise / np.sqrt(dim) * rng.standard_normal((n, dim))
    pts = pts * scale + shift
    order, radii = geometry.farthest_point_ordering(pts, **stop)
    want_order, want_radii = difference_form_fps(pts, **stop)
    assert order.tolist() == want_order.tolist()
    assert radii.tobytes() == want_radii.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=300),
        st.lists(st.sampled_from([b"0", b"1", b"7", b".", b",", b"e", b"-", b"+", b"_", b"\n", b"\r", b" ", b"\xff",
                                  b"\xc3", b"nan", b"inf", b"1e300", b"x"]), max_size=80).map(b"".join),
    )
)
def test_fuzzed_csv_bytes_give_a_cloud_or_a_csv_parse_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            cloud = geometry.load_csv(path)
        except CsvParseError:
            return
    assert isinstance(cloud, geometry.PointCloud) and np.isfinite(cloud.points).all()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 150),
    dim=st.integers(1, 4),
    max_scale=st.integers(0, 6),
    local_dim=st.one_of(st.none(), st.integers(1, 3)),
    min_points=st.one_of(st.none(), st.integers(2, 12)),
    grid=st.booleans(),
)
def test_build_accounts_for_every_cell_and_stops_fps_at_the_finest_net(
    seed, n, dim, max_scale, local_dim, min_points, grid
):
    # grid=True rounds the cloud to a coarse lattice, so duplicate points and exact distance ties occur
    pts = np.random.default_rng(seed).standard_normal((n, dim))
    cloud = geometry.PointCloud(np.round(pts * 2.0) / 2.0 if grid else pts, dim)
    if local_dim is None:
        options = {"local_dim": None, "max_local_dim": dim}
    else:
        options = {"local_dim": min(local_dim, dim)}
    orderings = []
    fps = gmra.farthest_point_ordering

    def recorded(*args, **kwargs):
        orderings.append(fps(*args, **kwargs))
        return orderings[-1]

    with mock.patch.object(gmra, "farthest_point_ordering", recorded):
        d = gmra.build_dictionary(cloud, max_scale=max_scale, min_points=min_points, **options)
    prov = d.provenance
    for j, count in enumerate(d.counts()):
        assert prov["fresh_per_scale"][j] + prov["reused_per_scale"][j] + prov["copied_per_scale"][j] == count
        assert prov["fresh_per_scale"][j] == np.count_nonzero(d.origin_scales(j) == j)
    # the table holds each fresh fit once: carried cells share their fit's row
    assert len(d.fit_dims) == len(d.fit_centers) == len(d.fit_bases) == sum(prov["fresh_per_scale"])
    [(order, radii)] = orderings
    finest = d.root_radius * 2.0**-max_scale
    assert len(order) == len(radii) == len(np.unique(order))
    assert radii[-1] <= finest and np.all(radii[:-1] > finest)
