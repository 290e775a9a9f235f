"""Property tests: bit-exact container round trips, typed errors on damage and fuzzed CSV, the distance kernel, FPS,
build accounting."""

import json
import math
import os
import struct
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from conftest import curved_cloud
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
    reps = data.draw(st.sampled_from([1, -(-geometry._TREE_MIN_PAIRS // (len(a) * len(b)))]), label="reps")
    a, b = np.tile(a, (reps, 1)) + shift, b + shift
    got = geometry.nearest_rows(a, b)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    ref = b.mean(axis=0)
    spread = ((a - ref) ** 2).sum(axis=1) + ((b - ref) ** 2).sum(axis=1).max()
    bound = 16 * (dim + 2) * np.finfo(np.float64).eps * spread
    assert np.all(d2[np.arange(len(a)), got] <= d2.min(axis=1) + bound)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 40),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    place=st.sampled_from([(1.0, 0.0), (1.0, 1e8), (1e-160, 0.0)]),
    apart=st.sampled_from([0.0, 1e4]),
)
def test_the_gram_kernel_is_within_half_its_slack_of_the_exact_squared_distance(seed, dim, n, k, place, apart):
    # The one bound every Gram screen rests on: in a gram_frame about b's mean, |g - ||x - y||^2| <= (h_x + h_y) / 2
    # with h from gram_slack, against the exact value in rationals.  Rows of mixed magnitudes, a copy of a row of b
    # among the queries (distance 0), rows far from the mean (`apart`, the odd rows of b), shifted by 1e8 or scaled
    # to about 1e-160, where the squared norms underflow.
    scale, shift = place
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    b = rng.standard_normal((k, dim)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
    b[1::2, 0] += apart
    a, b = np.vstack([a, b[:1]]) * scale + shift, b * scale + shift
    ref, b_rel, b_sq = geometry.gram_frame(b)
    _, a_rel, a_sq = geometry.gram_frame(a, ref)
    g = geometry.gram_sq_dists(a_rel, a_sq, b_rel, b_sq)
    h_a, h_b = geometry.gram_slack(a_sq, dim), geometry.gram_slack(b_sq, dim)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            exact = sum((Fraction(p) - Fraction(q)) ** 2 for p, q in zip(x.tolist(), y.tolist()))
            assert abs(Fraction(g[i, j]) - exact) <= (Fraction(h_a[i]) + Fraction(h_b[j])) / 2


def flat_nearest_rows(a, b):
    """Reference search: the blocked argmin of the kernel over every row of b, ties to the lowest index.

    A block holds max(_BLOCK_ENTRIES // len(b), D // 8) rows of a, each block taken into the frame of b's mean on
    its own.
    """
    ref, b_rel, b_sq = geometry.gram_frame(b)
    block = max(1, geometry._BLOCK_ENTRIES // len(b), b.shape[1] // 8)
    out = np.empty(len(a), dtype=np.intp)
    for lo in range(0, len(a), block):
        _, a_rel, a_sq = geometry.gram_frame(a[lo : lo + block], ref)
        out[lo : lo + block] = np.argmin(geometry.gram_sq_dists(a_rel, a_sq, b_rel, b_sq), axis=1)
    return out


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.one_of(st.integers(1, geometry._TREE_MIN_ROWS - 1), st.integers(geometry._TREE_MIN_ROWS, 300)),
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
    n_planted = n + (-(-geometry._TREE_MIN_PAIRS // k) if bulk else 0)
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
    got = geometry.nearest_rows(a, b)
    assert got.tolist() == flat_nearest_rows(a, b).tolist()
    for row in a[: 2 * n]:
        assert geometry.nearest_rows(row[None], b).tolist() == flat_nearest_rows(row[None], b).tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.one_of(st.integers(1, geometry._TREE_MIN_ROWS - 1), st.integers(geometry._TREE_MIN_ROWS, 300)),
    n=st.integers(1, 60),
    bulk=st.booleans(),
    dim=st.sampled_from([1, 2, 3, 8, 9, 32]),
    shift=st.sampled_from([0.0, 1e8]),
)
def test_nearest_rows_does_not_depend_on_the_block_budget(seed, k, n, bulk, dim, shift):
    # Gaussian rows plant no near-tie, and a draw whose two nearest rows of b lie within twice the kernel's rounding
    # bound of each other is discarded; then the scan gives the nearest row whatever its blocks, from 2 MB down to
    # one query row each (four in R^32, the wide-row floor), and so does the tree, which `bulk` reaches when b has
    # enough rows of few coordinates.
    rng = np.random.default_rng(seed)
    if bulk and k >= geometry._TREE_MIN_ROWS:
        n += -(-geometry._TREE_MIN_PAIRS // k)
    a, b = rng.standard_normal((n, dim)) + shift, rng.standard_normal((k, dim)) + shift
    d2 = sum((a[:, t, None] - b[None, :, t]) ** 2 for t in range(dim))
    if k > 1:
        ref = b.mean(axis=0)
        spread = ((a - ref) ** 2).sum(axis=1) + ((b - ref) ** 2).sum(axis=1).max()
        first, second = np.partition(d2, 1, axis=1)[:, :2].T
        assume(np.all(second - first > 32 * (dim + 2) * np.finfo(np.float64).eps * spread))
    answers = []
    for entries in (1 << 18, 1 << 15, 5):
        with mock.patch.object(geometry, "_BLOCK_ENTRIES", entries):
            answers.append(geometry.nearest_rows(a, b).tolist())
    assert answers == [d2.argmin(axis=1).tolist()] * 3


def difference_form_fps(pts, stop_radius=0.0, stop_fraction=None):
    """Reference ordering: every row's distance recomputed as np.linalg.norm(x - p) at every pick.

    Also returns, per pick after the first, the rows it is the strictly nearest pick of.
    """
    order = [0]
    dist = np.linalg.norm(pts - pts[0], axis=1)
    radii = [float(dist.max())]
    moved = []
    if stop_fraction is not None:
        stop_radius = max(stop_radius, radii[0] * stop_fraction)
    while radii[-1] > stop_radius:
        nxt = int(np.argmax(dist))
        order.append(nxt)
        near = np.linalg.norm(pts - pts[nxt], axis=1)
        moved.append(np.flatnonzero(near < dist).tolist())
        np.minimum(dist, near, out=dist)
        radii.append(float(dist.max()))
    return np.array(order, dtype=np.intp), np.array(radii), moved


def check_fps_moves(order, moves, want_moved):
    """The FPS moves are the reference's, per pick in pick order."""
    rows, picks = moves
    assert picks.tolist() == sorted(picks.tolist()) and set(picks.tolist()) <= set(range(1, len(order)))
    assert [rows[picks == k].tolist() for k in range(1, len(order))] == want_moved


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
    order, radii, moves = geometry.farthest_point_ordering(pts, **stop)
    want_order, want_radii, want_moved = difference_form_fps(pts, **stop)
    assert order.tolist() == want_order.tolist()
    assert radii.tobytes() == want_radii.tobytes()
    check_fps_moves(order, moves, want_moved)


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
    order, radii, moves = geometry.farthest_point_ordering(pts, **stop)
    want_order, want_radii, want_moved = difference_form_fps(pts, **stop)
    assert order.tolist() == want_order.tolist()
    assert radii.tobytes() == want_radii.tobytes()
    check_fps_moves(order, moves, want_moved)


def fps_with_pair_passes(pts, round_rows=None, block_entries=None, **stop):
    """farthest_point_ordering's output and how many passes of difference-form norms it made, at other sizes if given."""
    pair_norms, passes = geometry._pair_norms, []

    def counted(*args):
        passes.append(1)
        return pair_norms(*args)

    sizes = {"_FPS_ROUND_ROWS": round_rows or geometry._FPS_ROUND_ROWS,
             "_BLOCK_ENTRIES": block_entries or geometry._BLOCK_ENTRIES}
    with mock.patch.multiple(geometry, _pair_norms=counted, **sizes):
        out = geometry.farthest_point_ordering(pts, **stop)
    return out, len(passes)


def check_fps_against_the_loop(pts, out, **stop):
    order, radii, moves = out
    want_order, want_radii, want_moved = difference_form_fps(pts, **stop)
    assert order.tolist() == want_order.tolist()
    assert radii.tobytes() == want_radii.tobytes()
    check_fps_moves(order, moves, want_moved)


class TreeSourceOnly:
    """Stands in for scipy's cKDTree where a test requires the dense pair source."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("the k-d tree pair source ran")


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 500),
    dim=st.sampled_from([1, 2, 3]),
    side=st.sampled_from([None, 2, 3, 5]),
    round_rows=st.sampled_from([None, 1, 3, 5, 8]),
    shift=st.sampled_from([0.0, 1e8]),
    stop=st.one_of(st.just({}), st.floats(0.0, 1.0).map(lambda f: {"stop_fraction": f})),
)
def test_fps_rounds_on_the_tree_source_equal_the_difference_form_loop_bit_for_bit(
    seed, n, dim, side, round_rows, shift, stop
):
    # Integer lattices of `side` values per axis hold far more rows tied at the largest distance than a round
    # has candidates, so a round's first pick can lie outside them.
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, dim)) if side is None else rng.integers(0, side, (n, dim)).astype(float)
    out, _ = fps_with_pair_passes(pts + shift, round_rows, **stop)
    check_fps_against_the_loop(pts + shift, out, **stop)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(100, 300),
    lattice=st.booleans(),
    shift=st.sampled_from([0.0, 1e8]),
)
def test_fps_rounds_on_the_dense_source_equal_the_difference_form_loop_bit_for_bit(seed, n, lattice, shift):
    # A full-rank cloud in R^17 keeps the full-width screen, whose pairs come from one Gram product per round.
    # Blocks of 7 gathered rows split most rounds' norms into many blocks.
    pts = np.random.default_rng(seed).standard_normal((n, 17))
    if lattice:
        pts = np.round(pts * 2.0) / 2.0
    with mock.patch("scipy.spatial.cKDTree", TreeSourceOnly):
        out, passes = fps_with_pair_passes(pts + shift)
        blocked, _ = fps_with_pair_passes(pts + shift, block_entries=7 * 17)
    check_fps_against_the_loop(pts + shift, out)
    check_fps_against_the_loop(pts + shift, blocked)
    assert 2 * passes < len(out[0])  # at most two passes of norms per round, so rounds settle several picks


def test_fps_memory_does_not_grow_with_the_round_pairs():
    # Row 0 and 24 rows far out on axes of their own, the rest a blob about the origin: the first round accepts
    # the 24 far rows, and about half the blob's rows pass the screen at each of them.  Taking those pairs'
    # norms at once would gather about 12 n x D entries; in blocks the peak stays that of the set-up.
    pts = np.random.default_rng(5).standard_normal((1000, 256))
    pts[0] = 0.0
    pts[0, 24] = -100.0
    pts[1:25] = 100.0 * np.eye(256)[:24]
    tracemalloc.start()
    try:
        order, _, _ = geometry.farthest_point_ordering(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert order[1:25].tolist() == list(range(1, 25))
    assert peak < 5 * pts.nbytes


def test_fps_tree_reach_keeps_a_move_that_ties_the_radius_within_the_centering_rounding():
    # Row 3 is 60 degrees from row 2 about row 0, turned until its distance to row 2 rounds just below its distance
    # to row 0: row 2's pick moves it.  Far from the rows' mean the tree's coordinates round by more than that gap,
    # so a tree radius of the bare round radius misses the move.  One pick per round makes that radius row 2's.
    pts = np.array([[0.0, 0.0], [28756220908.444614, 0.0], [1.1999049779393502, 0.0],
                    [0.5999524889696752, 1.0391481930228836]])
    out, _ = fps_with_pair_passes(pts, round_rows=1)
    check_fps_against_the_loop(pts, out)
    assert out[2][0].tolist() == [1, 2, 3, 3] and out[2][1].tolist() == [1, 2, 2, 3]


def test_fps_rounds_on_a_grid_roll3_sized_roll_equal_the_difference_form_loop_bit_for_bit():
    pts = geometry.gen_swiss_roll(2000, seed=1).points
    queries = []

    class CountingTree(cKDTree):
        def query_ball_point(self, *args, **kwargs):
            queries.append(1)
            return super().query_ball_point(*args, **kwargs)

    with mock.patch("scipy.spatial.cKDTree", CountingTree):
        out, passes = fps_with_pair_passes(pts, stop_fraction=2.0**-8)
    check_fps_against_the_loop(pts, out, stop_fraction=2.0**-8)
    assert len(out[0]) > 1900 and 10 * len(queries) < len(out[0]) and 2 * passes < len(out[0])


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


def line_by_line_load_csv(path, label=None):
    """load_csv as one loop over the lines, checking and converting each in turn: the bulk parse's reference."""
    try:
        return line_by_line_parse(path, label)
    except CsvParseError as exc:
        raise CsvParseError("%s: %s" % (path, exc), row=exc.row) from None


def line_by_line_parse(path, label):
    """The cloud of line_by_line_load_csv, or its CsvParseError without the file name."""
    rows = []
    width = None
    for lineno, line in enumerate(geometry.csv_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        try:
            values = [float(f) for f in fields]
        except ValueError:
            values = None
        if values is None or not geometry._plain(line):
            if lineno == 1:
                continue  # header row
            raise CsvParseError("non-numeric value at row %d" % lineno, row=lineno)
        if not all(map(math.isfinite, values)):
            raise CsvParseError("non-finite value at row %d" % lineno, row=lineno)
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise CsvParseError(
                "ragged row %d: expected %d columns, got %d" % (lineno, width, len(values)),
                row=lineno,
            )
        rows.append(values)
    if not rows:
        raise CsvParseError("no data rows")
    try:
        return geometry.PointCloud(np.array(rows, dtype=np.float64), width, label=label)
    except ValueError as exc:
        raise CsvParseError(str(exc)) from None


def load_outcome(load, path):
    """What load(path) gives: the cloud's width and bytes, or its CsvParseError's message and row."""
    try:
        cloud = load(path, label="c")
    except CsvParseError as exc:
        return "refused", str(exc), exc.row
    return "cloud", cloud.ambient_dim, cloud.label, cloud.points.shape, cloud.points.tobytes()


CSV_BLOCK_LINES = geometry._CSV_BLOCK_LINES
CSV_FIELDS = ["0", "1", "-2.5", "-0", "1e-5", "3.0000000000000004", "1e300", " 7", "8\t", "\t9 ", "", "x",
              "nan", "inf", "-inf", "1e999", "1_0", "\u0661"]
# file iteration ends a line only at \n, \r and \r\n; str.splitlines also splits at the others
CSV_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_csv_equals_the_line_by_line_reference(data):
    width = data.draw(st.integers(1, 4), label="width")
    numbers = st.lists(st.sampled_from(CSV_FIELDS[:10]), min_size=width, max_size=width)
    line = st.one_of(
        numbers.map(",".join),
        st.lists(st.sampled_from(CSV_FIELDS), min_size=1, max_size=5).map(",".join),  # ragged or bad fields
        numbers.map(lambda f: ",".join(f) + ","),  # a trailing comma
        st.sampled_from(["", " ", "\t \t", "x,y", "x", "\ufeff1"]),  # blank, whitespace-only, headers
    )
    lines = data.draw(st.lists(line, max_size=14), label="lines")
    text = [s + data.draw(st.sampled_from(CSV_BREAKS), label="break") for s in lines]
    # a long valid run puts what follows it past the stream's first decoded chunk (8 KiB)
    run = data.draw(st.sampled_from([0, 3, 2500]), label="valid run lines")
    text.insert(data.draw(st.integers(0, len(text)), label="run at"), (",".join(["0.5"] * width) + "\n") * run)
    text = "".join(text)
    if data.draw(st.booleans(), label="no final newline"):
        text = text.rstrip("".join(CSV_BREAKS))
    if data.draw(st.booleans(), label="byte-order mark"):
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if data.draw(st.booleans(), label="bad byte"):
        at = data.draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))), label="bad byte at")
        raw = raw[:at] + b"\xff" + raw[at:]
    block = data.draw(st.sampled_from([1, 2, 3, 7, CSV_BLOCK_LINES]), label="block lines")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.csv")
        with open(path, "wb") as fh:
            fh.write(raw)
        want = load_outcome(line_by_line_load_csv, path)
        with mock.patch.object(geometry, "_CSV_BLOCK_LINES", block):
            assert load_outcome(geometry.load_csv, path) == want


def per_value_save_csv(cloud, path):
    """save_csv formatting one value at a time: the bulk writer's reference."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in cloud.points:
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")


TINY = np.finfo(np.float64).smallest_subnormal
CSV_EDGE_VALUES = [0.0, -0.0, TINY, -TINY, 3 * TINY, np.finfo(np.float64).tiny / 3, 1e-5, 1e-4, 1e16, 1e17, 1e150,
                   -1e150, 0.1, 1 / 3, -2.5]
CSV_EDGE_VALUES += [np.nextafter(v, w) for v in (1e-5, 1e-4, 1e16, 1e17) for w in (0.0, np.inf)]


@settings(max_examples=150, deadline=None)
@given(
    dim=st.sampled_from([1, 3, 8, 200]),
    n=st.integers(1, 9),
    block=st.sampled_from([1, 2, 4, CSV_BLOCK_LINES]),
    data=st.data(),
)
def test_save_csv_writes_the_per_value_bytes_and_loads_back_bit_for_bit(dim, n, block, data):
    values = st.one_of(st.sampled_from(CSV_EDGE_VALUES), st.floats(-1e150, 1e150))
    points = data.draw(arrays(np.float64, (n, dim), elements=values), label="points")
    cloud = geometry.PointCloud(points, dim)
    with tempfile.TemporaryDirectory() as tmp:
        want, got = os.path.join(tmp, "want.csv"), os.path.join(tmp, "got.csv")
        per_value_save_csv(cloud, want)
        with mock.patch.object(geometry, "_CSV_BLOCK_LINES", block):
            geometry.save_csv(cloud, got)
            back = geometry.load_csv(got)
        assert Path(got).read_bytes() == Path(want).read_bytes()
    assert back.points.shape == points.shape and back.points.tobytes() == points.tobytes()


@pytest.mark.parametrize("n", [CSV_BLOCK_LINES - 1, CSV_BLOCK_LINES, CSV_BLOCK_LINES + 1])
def test_save_csv_and_load_csv_agree_with_the_references_around_one_block(tmp_path, n):
    points = np.random.default_rng(n).standard_normal((n, 2)) * 10.0 ** np.arange(-6, 18, 12)
    cloud = geometry.PointCloud(points, 2)
    per_value_save_csv(cloud, tmp_path / "want.csv")
    geometry.save_csv(cloud, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    with open(tmp_path / "got.csv", "a") as fh:
        fh.write("1,nan\n")
    cause = "%s: non-finite value at row %d" % (tmp_path / "got.csv", n + 1)
    assert load_outcome(geometry.load_csv, tmp_path / "got.csv") == ("refused", cause, n + 1)
    assert load_outcome(geometry.load_csv, tmp_path / "want.csv")[4] == points.tobytes()


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
    [(order, radii, _)] = orderings
    finest = d.root_radius * 2.0**-max_scale
    assert len(order) == len(radii) == len(np.unique(order))
    assert radii[-1] <= finest and np.all(radii[:-1] > finest)


def two_pass_cells(pts, max_scale, min_points):
    """The reference for the FPS-read cells: the build's two full kernel scans per scale.

    Per scale, one ``nearest_rows`` scan of every row against every net point (the accepted seeds, then the
    others in net order) gives the first populations that accept a new seed, and a second one against the
    accepted seeds, in acceptance order, gives the cells.  Returns (cell of every row, cell count) per scale.
    """
    order, radii = geometry.farthest_point_ordering(pts, stop_fraction=2.0**-max_scale)[:2]
    seeds, cells = np.empty(0, dtype=np.intp), []
    for j in range(max_scale + 1):
        net = order[: np.argmax(radii <= radii[0] * 2.0**-j) + 1]
        new = net[~np.isin(net, seeds)]
        if j > 0 and new.size:
            pool = np.concatenate([seeds, new])
            first_pops = np.bincount(geometry.nearest_rows(pts, pts[pool]), minlength=len(pool))
            new = new[first_pops[len(seeds) :] >= min_points]
        seeds = np.concatenate([seeds, new])
        cells.append((geometry.nearest_rows(pts, pts[seeds]), len(seeds)))
    return cells


def stated_rule_cells(pts, max_scale, min_points):
    """The stated cell rule read off a full table of difference-form distances from every row to every pick.

    A row's cell is seeded by its nearest net point, ties to the earliest pick, when that point was accepted;
    a row whose nearest net point was rejected goes to its nearest accepted seed by ``nearest_rows`` over the
    seeds in pick order.  Returns (cell of every row, cell count) per scale.
    """
    order, radii = geometry.farthest_point_ordering(pts, stop_fraction=2.0**-max_scale)[:2]
    dists = np.stack([np.linalg.norm(pts - pts[p], axis=1) for p in order], axis=1)
    cell_of, cells = np.full(len(order), -1, dtype=np.intp), []
    for j in range(max_scale + 1):
        size = int(np.argmax(radii <= radii[0] * 2.0**-j)) + 1
        nearest = np.argmin(dists[:, :size], axis=1)  # the first of equal distances: the earliest pick
        new = np.flatnonzero(cell_of[:size] < 0)
        if j > 0:
            new = new[np.bincount(nearest, minlength=size)[new] >= min_points]
        cell_of[new] = cell_of.max() + 1 + np.arange(len(new))
        assign, seeds = cell_of[nearest], np.flatnonzero(cell_of[:size] >= 0)
        orphans = np.flatnonzero(assign < 0)
        if orphans.size:
            assign[orphans] = cell_of[seeds[geometry.nearest_rows(pts[orphans], pts[order[seeds]])]]
        cells.append((assign, len(seeds)))
    return cells


def cell_table(pts, cells, min_points):
    """(counts, cell_fit, fit_centers) of a build with the given cells.

    A cell whose population did not change keeps its fit, and so does one left with fewer than min_points
    points; every other cell, and every new one, gets a fresh fit centered on the mean of its rows.
    """
    pops, row, rows, centers = np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), [], []
    for assign, count in cells:
        new_pops = np.bincount(assign, minlength=count)
        old = len(pops)
        refit = np.concatenate([(new_pops[:old] != pops) & (new_pops[:old] >= min_points), np.ones(count - old, bool)])
        row = np.concatenate([row, np.empty(count - old, dtype=np.intp)])
        for k in np.flatnonzero(refit):
            row[k] = len(centers)
            centers.append(pts[assign == k].mean(axis=0))
        rows.append(row)
        pops = new_pops
    return [len(r) for r in rows], np.concatenate(rows), np.array(centers)


def check_cells(d, pts, cells):
    counts, cell_fit, centers = cell_table(pts, cells, d.provenance["min_points"])
    assert d.counts() == counts
    assert d.cell_fit.tolist() == cell_fit.tolist()
    assert d.fit_centers.tobytes() == centers.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 250),
    dim=st.sampled_from(list(range(1, 13)) + [200]),
    curved=st.booleans(),
    shift=st.sampled_from([0.0, 1e4, 1e8]),
    max_scale=st.integers(0, 6),
    local_dim=st.one_of(st.none(), st.integers(1, 3)),
    min_points=st.one_of(st.none(), st.integers(2, 12)),
)
def test_fps_read_cells_equal_the_two_pass_kernel_scans_bit_for_bit(
    seed, n, dim, curved, shift, max_scale, local_dim, min_points
):
    # A generic cloud has no two distances within rounding of each other, so the kernel's Gram values and the FPS
    # difference-form distances rank every row's seeds alike: counts, cells and centers agree bit for bit.
    if curved:
        pts = curved_cloud(seed, n, dim, min(2, dim)).points + shift
    else:
        pts = np.random.default_rng(seed).standard_normal((n, dim)) * 10.0 ** np.linspace(0, -1, dim) + shift
    options = {"local_dim": None, "max_local_dim": min(3, dim)} if local_dim is None else {"local_dim": local_dim}
    d = gmra.build_dictionary(geometry.PointCloud(pts, dim), max_scale=max_scale, min_points=min_points, **options)
    check_cells(d, pts, two_pass_cells(pts, max_scale, d.provenance["min_points"]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 150),
    dim=st.sampled_from([1, 2, 3, 4, 12]),
    duplicates=st.booleans(),
    shift=st.sampled_from([0.0, 1e8]),
    max_scale=st.integers(0, 6),
    local_dim=st.one_of(st.none(), st.integers(1, 2)),
    min_points=st.one_of(st.none(), st.integers(2, 8)),
)
def test_lattice_and_duplicate_clouds_build_cells_by_the_stated_tie_rule(
    seed, n, dim, duplicates, shift, max_scale, local_dim, min_points
):
    # A coarse lattice has exact distance ties, and repeated rows put several rows on one point: each row's
    # cell is its nearest net point with ties to the earliest pick, or for an orphan the kernel's nearest seed
    rng = np.random.default_rng(seed)
    pts = np.round(rng.standard_normal((n, dim)) * 2.0) / 2.0
    if duplicates:
        pts = pts[rng.integers(0, n, n)]
    pts = pts + shift
    cloud = geometry.PointCloud(pts, dim)
    options = {"local_dim": None, "max_local_dim": min(2, dim)} if local_dim is None else {"local_dim": local_dim}
    try:
        d = gmra.build_dictionary(cloud, max_scale=max_scale, min_points=min_points, **options)
    except ValueError:
        assert n < (local_dim or 1) + 1
        return
    report = gmra.validate_structure(d, cloud)
    assert report.orthonormal_ok and report.idempotent_ok
    if not report.separation_ok:
        # a carried fit can share its center with a new cell's (rows stacked on lattice points): the recorded
        # separation constant is then 0, and the check fails on a coincident pair
        j, k1, k2 = report.separation_worst_pair
        assert d.sep_constant == 0 and np.array_equal(d.centers(j)[k1], d.centers(j)[k2])
    check_cells(d, pts, stated_rule_cells(pts, max_scale, d.provenance["min_points"]))


def svd_cell_fit(points, d_max, threshold):
    """The thin-SVD plane fit: every cell's fit before the Gram-matrix path, and its k = D branch bit for bit."""
    mean = points.mean(axis=0)
    centered = points - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if threshold is None:
        d = d_max
    else:
        if svals[0] == 0.0:
            d = 1
        else:
            energy = (svals / svals[0]) ** 2
            frac = np.cumsum(energy) / energy.sum()
            d = int(np.searchsorted(frac, threshold - 1e-12) + 1)
        d = min(d, d_max, points.shape[1])
    return mean, vt[: min(d, vt.shape[0])]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_k=st.integers(2, 80),
    dim=st.sampled_from([3, 4, 5, 8, 12, 40, 200]),
    rank=st.sampled_from([0, 1, 2, 3, 5, None]),
    decay=st.floats(1e-3, 1.0),
    noise=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
    scale=st.sampled_from([1.0, 1e-100, 1e100]),
    shift=st.sampled_from([0.0, 1e4]),
    d_max=st.integers(1, 3),
    threshold=st.none() | st.floats(0.5, 0.99),
)
def test_gram_planes_lie_within_rounding_of_the_thin_svd_planes(seed, n_k, dim, rank, decay, noise, scale, shift,
                                                                 d_max, threshold):
    # A cell of `rank` directions (all for None, none for 0: every row the same point) with singular values
    # falling by `decay`, plus isotropic noise.  Below k = D the Gram path's top-i subspace, for each i up to the
    # plane's dimension, lies within 1e-12 s_0^2 / (s_{i-1}^2 - s_i^2) of the thin SVD's: rounding of the Gram
    # matrix is about u s_0^2, and its eigengap is s_{i-1}^2 - s_i^2.  Directions whose singular values lie under
    # about sqrt(u) s_0 are set by that rounding, as is any direction of a zero or collinear cell past its rank.
    rng = np.random.default_rng(seed)
    rank = dim if rank is None else min(rank, dim)
    frame = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :rank]
    cell = (rng.standard_normal((n_k, rank)) * decay ** np.arange(rank)) @ frame.T
    cell = (cell + noise * rng.standard_normal((n_k, dim)) + shift) * scale
    mean, basis = gmra._cell_fit(cell, d_max, threshold)
    want_mean, want = svd_cell_fit(cell, d_max, threshold)
    assert mean.tobytes() == want_mean.tobytes()
    if min(d_max + 2, n_k, dim) == dim:
        assert basis.tobytes() == want.tobytes()
        return
    assert np.abs(basis @ basis.T - np.eye(len(basis))).max() <= 1e-13
    _, svals, vt = np.linalg.svd(cell - mean, full_matrices=False)
    svals = np.append(svals / svals[0], 0.0) if svals[0] > 0 else np.zeros(len(svals) + 1)
    if threshold is not None and svals[0] > 0:
        # away from the threshold, the Gram eigenvalues pick the SVD's dimension
        frac = np.cumsum(svals**2) / np.sum(svals**2)
        if np.abs(frac - threshold).min() > 1e-9:
            assert len(basis) == len(want)
    else:
        assert len(basis) == len(want)
    for i in range(1, len(basis) + 1):
        gap = svals[i - 1] ** 2 - svals[i] ** 2
        if gap > 0:
            top = vt[:i]
            assert np.linalg.norm(top - (top @ basis.T) @ basis, 2) <= 1e-12 / gap
