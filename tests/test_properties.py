"""Property tests: bit-exact container round trips, typed errors on damage, the distance kernel, build accounting."""

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

from manifold_cs import geometry, gmra, measurement, storage
from manifold_cs.errors import FileFormatError

DICT_ARRAYS = ("offsets", "fit_centers", "fit_bases", "fit_dims", "cell_fit", "all_parents")

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
    b = data.draw(arrays(np.float64, (data.draw(st.integers(1, 30)), dim), elements=coords), label="b")
    shift = data.draw(st.sampled_from([0.0, 1e4, -1e6, 1e8]), label="shift")
    a, b = a + shift, b + shift
    got = gmra._nearest_rows(a, b)
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    ref = b.mean(axis=0)
    spread = ((a - ref) ** 2).sum(axis=1) + ((b - ref) ** 2).sum(axis=1).max()
    bound = 16 * (dim + 2) * np.finfo(np.float64).eps * spread
    assert np.all(d2[np.arange(len(a)), got] <= d2.min(axis=1) + bound)


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
