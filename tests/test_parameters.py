"""Every public entry point refuses an out-of-range parameter, or a misshapen array, with a ParameterError naming it."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_cs import bounds, geometry, gmra, harness, measurement, recovery
from manifold_cs.errors import ParameterError

# values no numeric parameter takes
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.complex_numbers(), st.lists(st.integers(), max_size=2))


def bad_integers(low, high=None):
    """What an integer parameter in [low, high] refuses: integers outside it, Python or numpy, any float, junk."""
    outside = st.integers(max_value=low - 1)
    if high is not None:
        outside |= st.integers(min_value=high + 1)
    as_numpy = outside.filter(lambda v: -2**63 <= v < 2**63).map(np.int64)
    return outside | as_numpy | st.floats() | JUNK


def bad_reals(inside):
    """What a real parameter refuses: the floats (nan and the infinities among them) that inside rejects, junk."""
    return st.floats().filter(lambda v: not inside(v)) | JUNK


def positive(v):
    return 0 < v < math.inf


def make_world():
    """A 200-point roll, its dictionary of scales 0..3, a 5 x 3 matrix, the roll measured by it, a recovery."""
    cloud = geometry.gen_swiss_roll(200, 3)
    dictionary = gmra.build_dictionary(cloud, local_dim=2, max_scale=3)
    matrix = measurement.gaussian_matrix(5, 3, 1)
    meas = matrix.apply(cloud.points)
    return cloud, dictionary, matrix, meas, recovery.recover_batch(meas, matrix, dictionary, 2)


def cases(world):
    """{case: (call taking the bad value, the parameter's name, the values it refuses)}."""
    cloud, dictionary, matrix, meas, batch = world
    pts, x = cloud.points, cloud.points[0]
    build = gmra.build_dictionary
    params = dict(d=2, V=1.0, eps=0.3, reach=1.0, D=3, J=2, C1=1.0, big_o_constant=1.0, j0=1)
    out = {
        "gen_swiss_roll n": (lambda v: geometry.gen_swiss_roll(v, 0), "n", bad_integers(1)),
        "gen_swiss_roll seed": (lambda v: geometry.gen_swiss_roll(5, v), "seed", bad_integers(0)),
        "gen_sphere n": (lambda v: geometry.gen_sphere(v, 2, 0), "n", bad_integers(1)),
        "gen_sphere d": (lambda v: geometry.gen_sphere(5, v, 0), "d", bad_integers(1)),
        "gen_sphere seed": (lambda v: geometry.gen_sphere(5, 2, v), "seed", bad_integers(0)),
        "add_noise sigma": (lambda v: geometry.add_noise(cloud, v, 0), "sigma", bad_reals(lambda v: 0 <= v < math.inf)),
        "add_noise seed": (lambda v: geometry.add_noise(cloud, 0.1, v), "seed", bad_integers(0)),
        "build max_scale": (lambda v: build(cloud, local_dim=2, max_scale=v), "max_scale", bad_integers(0, 1023)),
        "build local_dim": (lambda v: build(cloud, local_dim=v), "local_dim",
                            bad_integers(1).filter(lambda v: v is not None)),
        "build max_local_dim": (lambda v: build(cloud, max_local_dim=v), "max_local_dim", bad_integers(1)),
        "build energy_threshold": (lambda v: build(cloud, max_local_dim=2, energy_threshold=v), "energy_threshold",
                                   bad_reals(lambda v: 0 < v <= 1)),
        "build min_points": (lambda v: build(cloud, local_dim=2, min_points=v), "min_points",
                             bad_integers(1).filter(lambda v: v is not None)),
        "verify_distortion eps": (lambda v: measurement.verify_distortion(matrix, pts[:5], v), "eps",
                                  bad_reals(lambda v: 0 <= v < math.inf)),
        "verify_assumption_set eps": (lambda v: measurement.verify_assumption_set(matrix, dictionary, x=x, eps=v),
                                      "eps", bad_reals(lambda v: 0 <= v < 0.5)),
        "verify_assumption_set budget": (lambda v: measurement.verify_assumption_set(
            matrix, dictionary, which=2, cloud=cloud, budget=v), "budget", bad_integers(1)),
        "rip_check_bruteforce eps": (lambda v: measurement.rip_check_bruteforce(matrix, 2, v), "eps",
                                     bad_reals(lambda v: 0 <= v < math.inf)),
        "certify_batch eps": (lambda v: recovery.certify_batch(pts, matrix, dictionary, batch, v), "eps",
                              bad_reals(lambda v: 0 < v < 0.5)),
        "cover_bound delta": (lambda v: bounds.cover_bound(bounds.BoundParams(**params), v), "delta",
                              bad_reals(lambda v: 0 < v < 1.0)),
        "center_count_bound j": (lambda v: bounds.center_count_bound(bounds.BoundParams(**params), v), "j",
                                 bad_integers(2)),  # j0 = 1
        "scales_for_precision delta": (lambda v: bounds.scales_for_precision(v, 1.0), "delta", bad_reals(positive)),
        "scales_for_precision reach": (lambda v: bounds.scales_for_precision(0.1, v), "reach", bad_reals(positive)),
        "scales_for_precision constant": (lambda v: bounds.scales_for_precision(0.1, 1.0, v), "constant",
                                          bad_reals(positive)),
        "farthest_point_ordering stop_radius": (lambda v: geometry.farthest_point_ordering(pts[:3], stop_radius=v),
                                                "stop_radius", bad_reals(lambda v: v >= 0)),
        "farthest_point_ordering stop_fraction": (lambda v: geometry.farthest_point_ordering(pts[:3], stop_fraction=v),
                                                  "stop_fraction",
                                                  bad_reals(lambda v: 0 <= v <= 1).filter(lambda v: v is not None)),
        "cell_fits j": (dictionary.cell_fits, "j", bad_integers(0, 3)),
        "project_at_scale j": (lambda v: gmra.project_at_scale(dictionary, v, pts), "j", bad_integers(0, 3)),
        "nearest_center j": (lambda v: gmra.nearest_center(dictionary, v, x), "j", bad_integers(0, 3)),
        "recover_batch j": (lambda v: recovery.recover_batch(meas, matrix, dictionary, v), "j", bad_integers(0, 3)),
        "recover j": (lambda v: recovery.recover(meas[0], matrix, dictionary, v), "j", bad_integers(0, 3)),
    }
    for ensemble, draw in (("gaussian", measurement.gaussian_matrix), ("haar", measurement.orthoprojection_matrix)):
        out[ensemble + " m"] = (lambda v, draw=draw: draw(v, 3, 0), "m", bad_integers(1, 3 if ensemble == "haar" else None))
        out[ensemble + " dim"] = (lambda v, draw=draw: draw(1, v, 0), "dim", bad_integers(1))
        out[ensemble + " seed"] = (lambda v, draw=draw: draw(1, 3, v), "seed", bad_integers(0))
    nullable = {"reach", "D", "j0"}
    for name, values in (("d", bad_integers(1)), ("V", bad_reals(positive)), ("eps", bad_reals(lambda v: 0 < v <= 0.5)),
                         ("reach", bad_reals(positive)), ("D", bad_integers(1)), ("J", bad_integers(0)),
                         ("C1", bad_reals(positive)), ("big_o_constant", bad_reals(positive)), ("j0", bad_integers(0))):
        values = values.filter(lambda v: v is not None) if name in nullable else values
        out["BoundParams " + name] = (lambda v, name=name: bounds.BoundParams(**(params | {name: v})), name, values)
    return out


WORLD = make_world()
CASES = cases(WORLD)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_each_entry_point_refuses_an_out_of_range_value_by_name(case, data):
    call, name, values = CASES[case]
    value = data.draw(values, label=name)
    with pytest.raises(ParameterError) as exc:
        call(value)
    assert exc.value.name == name
    assert str(exc.value).startswith(name + " must be ") and str(exc.value).endswith(", got %r" % (value,))


def test_the_adaptive_mode_needs_max_local_dim():
    with pytest.raises(ParameterError, match="^max_local_dim must be an integer >= 1 when local_dim is None, got None$"):
        gmra.build_dictionary(WORLD[0], max_scale=2)


@pytest.mark.parametrize("j", [-1, 4, 99, 1.5, True, np.float64(2.0), "2"])
def test_a_scale_outside_the_dictionary_is_refused_by_every_accessor(j):
    cloud, dictionary, matrix, meas, _ = WORLD
    for call in (lambda: gmra.project_at_scale(dictionary, j, cloud.points), lambda: dictionary.centers(j),
                 lambda: dictionary.max_local_dim(j), lambda: recovery.recover_batch(meas, matrix, dictionary, j)):
        with pytest.raises(ParameterError, match=r"^j must be an integer in \[0, 3\], got "):
            call()


def test_numpy_integers_pass_wherever_python_integers_do():
    cloud, dictionary, matrix, meas, _ = WORLD
    assert np.array_equal(geometry.gen_swiss_roll(np.int64(50), np.uint64(3)).points,
                          geometry.gen_swiss_roll(50, 3).points)
    assert np.array_equal(geometry.add_noise(cloud, 0.1, np.int32(4)).points, geometry.add_noise(cloud, 0.1, 4).points)
    assert np.array_equal(measurement.orthoprojection_matrix(np.int32(2), np.int64(3), np.uint64(9)).entries,
                          measurement.orthoprojection_matrix(2, 3, 9).entries)
    built = gmra.build_dictionary(cloud, local_dim=np.int64(2), max_scale=np.int64(3), min_points=np.int16(3))
    assert built.counts() == dictionary.counts()
    assert np.array_equal(built.fit_centers, dictionary.fit_centers)
    for j in (np.int64(2), np.uint8(2)):
        got = recovery.recover_batch(meas, matrix, dictionary, j)
        assert got.searched_scale == 2 and type(got.searched_scale) is int
        assert np.array_equal(got.reconstructions, recovery.recover_batch(meas, matrix, dictionary, 2).reconstructions)
    assert recovery.recover_batch(meas, matrix, dictionary, "auto").searched_scale == 3


@pytest.mark.parametrize("call, name", [
    # a fractional or boolean dimension used to build 1-d planes, a deep scale to overflow 2.0**j
    (lambda c: gmra.build_dictionary(c, local_dim=1.5, max_scale=2), "local_dim"),
    (lambda c: gmra.build_dictionary(c, local_dim=True, max_scale=2), "local_dim"),
    (lambda c: gmra.build_dictionary(c, local_dim=2, max_scale=1024), "max_scale"),
    (lambda c: gmra.build_dictionary(c, local_dim=2, max_scale=3, min_points=2.5), "min_points"),
    (lambda c: geometry.gen_swiss_roll(10, -1), "seed"),
    (lambda c: geometry.gen_swiss_roll(10, 1.5), "seed"),
    (lambda c: geometry.gen_swiss_roll(1.5, 0), "n"),
    (lambda c: geometry.add_noise(c, 0.1, -1), "seed"),
    (lambda c: geometry.add_noise(c, math.inf, 0), "sigma"),
    (lambda c: measurement.gaussian_matrix(1.5, 3, 0), "m"),
    (lambda c: measurement.gaussian_matrix(2, 3, -1), "seed"),
    (lambda c: measurement.orthoprojection_matrix(2, 3, 1.5), "seed"),
    (lambda c: bounds.BoundParams(d=2, V=1.0, big_o_constant=math.inf), "big_o_constant"),
    (lambda c: bounds.BoundParams(d=2, V=1.0, C1=math.nan), "C1"),
    (lambda c: bounds.BoundParams(d=2, V=math.nan), "V"),
    # a budget of 0 divided by zero, -3 asked numpy for negative dimensions, 1.5 and True raised TypeError
    *((lambda c, b=b: measurement.verify_assumption_set(WORLD[2], WORLD[1], which=2, cloud=c, budget=b), "budget")
      for b in (0, -3, 1.5, True)),
    # a nan eps passed every matrix
    (lambda c: measurement.rip_check_bruteforce(WORLD[2], 2, math.nan), "eps"),
    # a NaN stop radius raised a ValueError with no name; -0.5 and NaN fractions ran to radius 0
    (lambda c: geometry.farthest_point_ordering(c.points[:3], stop_radius=math.nan), "stop_radius"),
    (lambda c: geometry.farthest_point_ordering(c.points[:3], stop_fraction=-0.5), "stop_fraction"),
    (lambda c: geometry.farthest_point_ordering(c.points[:3], stop_fraction=math.nan), "stop_fraction"),
    # an empty block raised a bare ValueError, and a 1-D array numpy's einsum error
    (lambda c: geometry.farthest_point_ordering(np.zeros((0, 3))), "pts"),
    (lambda c: geometry.farthest_point_ordering(c.points[0]), "pts"),
    # a NaN or infinite input crashed in math.ceil or math.log2; a negative or fractional scale got a bound
    (lambda c: bounds.scales_for_precision(math.nan, 1.0), "delta"),
    (lambda c: bounds.scales_for_precision(0.1, math.inf), "reach"),
    (lambda c: bounds.scales_for_precision(0.1, 1.0, math.nan), "constant"),
    (lambda c: bounds.center_count_bound(bounds.BoundParams(d=2, V=1.0), -3), "j"),
    (lambda c: bounds.center_count_bound(bounds.BoundParams(d=2, V=1.0), 1.5), "j"),
    # a bound that needs a parameter left out names it
    (lambda c: bounds.cover_bound(bounds.BoundParams(d=2, V=1.0), 0.1), "reach"),
    (lambda c: bounds.m_uniform(bounds.BoundParams(d=2, V=1.0, reach=1.0)), "D"),
    (lambda c: bounds.m_uniform(bounds.BoundParams(d=2, V=1.0, D=3)), "reach"),
    # an empty block raised "attempt to get argmax of an empty sequence"; 1-D arrays a numpy einsum error
    (lambda c: harness.rel_mse(np.zeros((0, 3)), np.zeros((0, 3))), "points"),
    (lambda c: harness.rel_mse(c.points[0], c.points[0]), "points"),
    # points past float64's range gave nan, and reconstructions far enough from them inf
    (lambda c: harness.rel_mse(np.full((2, 3), 1e200), np.zeros((2, 3))), "points"),
    (lambda c: harness.rel_mse(c.points[:2], np.full((2, 3), 1e200)), "reconstructions"),
    # a cloud given as its points array raised AttributeError
    (lambda c: geometry.add_noise(c.points, 0.1, 0), "cloud"),
    (lambda c: gmra.build_dictionary(c.points, local_dim=2, max_scale=2), "cloud"),
    (lambda c: gmra.validate_structure(WORLD[1], c.points), "cloud"),
    (lambda c: gmra.mean_error_per_scale(WORLD[1], c.points), "cloud"),
    (lambda c: measurement.verify_assumption_set(WORLD[2], WORLD[1], which=2, cloud=c.points), "cloud"),
    # a 0-d y raised numpy's AxisError
    (lambda c: measurement.e_m_bound(np.float64(1.0), 0.3, 2), "y"),
    (lambda c: measurement.e_m_bound(np.zeros((2, 2, 3)), 0.3, 2), "y"),
])
def test_hostile_values_that_used_to_slip_through_are_refused(call, name):
    with pytest.raises(ParameterError) as exc:
        call(WORLD[0])
    assert exc.value.name == name


@pytest.mark.parametrize("eps", [math.nan, 0.7])
def test_the_assumption_checks_refuse_eps_themselves(eps):
    cloud, dictionary, matrix, _, _ = WORLD
    with pytest.raises(ParameterError, match="^eps must be in"):
        measurement.verify_assumption_set(matrix, dictionary, x=cloud.points[0], eps=eps)
    if math.isnan(eps):
        with pytest.raises(ParameterError, match="^eps must be a finite number >= 0, got nan$"):
            measurement.verify_distortion(matrix, cloud.points[:5], eps)


def test_the_rip_audit_still_judges_a_large_eps():
    # eps = 5 is a finite level >= 0 like any other: it passes a matrix whose squared singular values stay below 6
    matrix = WORLD[2]
    assert measurement.rip_check_bruteforce(matrix, 2, 5.0).passed
    assert not measurement.rip_check_bruteforce(measurement.MeasurementMatrix(3.0 * matrix.entries, "gaussian", 0),
                                                2, 5.0).passed


def dictionary_in(dim):
    """A dictionary of a 60-point line segment, or of the roll padded with zeros, in R^dim."""
    if dim == 1:
        cloud = geometry.PointCloud(np.linspace(0.0, 1.0, 60)[:, None], 1)
    else:
        cloud = geometry.PointCloud(np.pad(geometry.gen_swiss_roll(60, 2).points, ((0, 0), (0, dim - 3))), dim)
    return gmra.build_dictionary(cloud, local_dim=1, max_scale=2)


OTHER_DICTIONARIES = {1: dictionary_in(1), 4: dictionary_in(4), 5: dictionary_in(5)}


@st.composite
def misshapen(draw, good, variants):
    """A finite float array whose shape differs from good as a drawn variant says.

    "width": another last length (2 to 7); "width 1": a last length of 1;
    "ndim": 0 to 3 axes, other than good's; "rows": a first length of 0 to
    12 other than good's (0 or 1 for a shape whose rows are free but must be
    at least two, given as good[0] = 2).
    """
    variant = draw(st.sampled_from(variants))
    *rows, width = good
    if variant == "width":
        shape = (*rows, draw(st.integers(2, 7).filter(lambda w: w != width)))
    elif variant == "width 1":
        shape = (*rows, 1)
    elif variant == "ndim":
        ndim = draw(st.integers(0, 3).filter(lambda k: k != len(good)))
        shape = good[len(good) - ndim:] if ndim < len(good) else (1,) * (ndim - len(good)) + good
    else:
        shape = (draw(st.integers(0, 12 if good[0] > 2 else 1).filter(lambda r: r != good[0])), width)
    return np.random.default_rng(draw(st.integers(0, 99))).standard_normal(shape)


def as_cloud(points):
    return geometry.PointCloud(points, points.shape[1])


def shape_cases(world):
    """{case: (call taking the misshapen argument, the argument's name, its misshapen values)}."""
    cloud, dictionary, matrix, meas, batch = world
    pts, x = cloud.points, cloud.points[0]
    every = ("width", "ndim", "width 1")
    return {
        "recover_batch matrix": (lambda v: recovery.recover_batch(meas, v, dictionary, 2), "matrix",
                                 misshapen((5, 3), ("width", "width 1")).map(
                                     lambda a: measurement.MeasurementMatrix(a, "gaussian", 0))),
        "recover_batch measurements": (lambda v: recovery.recover_batch(v, matrix, dictionary, 2), "measurements",
                                       misshapen(meas.shape, every)),
        "recover measurements": (lambda v: recovery.recover(v, matrix, dictionary, 2), "measurements",
                                 misshapen(meas[0].shape, every)),
        "certify_batch points": (lambda v: recovery.certify_batch(v, matrix, dictionary, batch, 0.3), "points",
                                 misshapen(pts.shape, every + ("rows",))),
        "certify_batch x_opt": (lambda v: recovery.certify_batch(pts, matrix, dictionary, batch, 0.3, x_opt=v),
                                "x_opt", misshapen(pts.shape, every + ("rows",))),
        "verify_assumption_set dictionary": (lambda v: measurement.verify_assumption_set(matrix, v, x=x),
                                             "dictionary", st.sampled_from(sorted(OTHER_DICTIONARIES)).map(
                                                 OTHER_DICTIONARIES.get)),
        "verify_assumption_set x": (lambda v: measurement.verify_assumption_set(matrix, dictionary, x=v), "x",
                                    misshapen(x.shape, every)),
        "verify_assumption_set cloud": (lambda v: measurement.verify_assumption_set(
            matrix, dictionary, which=2, cloud=v), "cloud", misshapen((20, 3), ("width", "width 1")).map(as_cloud)),
        "validate_structure cloud": (lambda v: gmra.validate_structure(dictionary, v), "cloud",
                                     misshapen((20, 3), ("width", "width 1")).map(as_cloud)),
        # a 3-D x raised numpy's einsum or broadcast error, or got a (3, 1) answer on the sphere; a 0-d x a (1,)
        # answer (a D-vector is an x, so the 1-axis shape is left out)
        "nearest_point_oracle x": (lambda v: recovery.nearest_point_oracle(*v), "x",
                                   st.tuples(misshapen(pts.shape, ("ndim",)).filter(lambda a: a.ndim != 1),
                                             st.sampled_from(["sphere", "swiss-roll", cloud]))),
        "nearest_point_oracle manifold": (lambda v: recovery.nearest_point_oracle(pts, v), "manifold",
                                          misshapen((20, 3), ("width", "width 1")).map(as_cloud)),
        # the swiss roll lives in R^3: points of another width are refused as a mismatch of the manifold
        "nearest_point_oracle swiss-roll": (lambda v: recovery.nearest_point_oracle(v, "swiss-roll"), "manifold",
                                            misshapen((20, 3), ("width", "width 1"))),
        "verify_distortion probes": (lambda v: measurement.verify_distortion(matrix, v, 0.3), "probes",
                                     misshapen((2, 3), every + ("rows",))),
        "project_at_scale pts": (lambda v: gmra.project_at_scale(dictionary, 2, v), "pts",
                                 misshapen(pts.shape, every)),
        "nearest_center x": (lambda v: gmra.nearest_center(dictionary, 2, v), "x", misshapen(x.shape, every)),
        "rel_mse points": (lambda v: harness.rel_mse(v, v), "points", misshapen(pts.shape, ("ndim",))),
        "rel_mse reconstructions": (lambda v: harness.rel_mse(pts, v), "reconstructions",
                                    misshapen(pts.shape, every + ("rows",))),
    }


SHAPE_CASES = shape_cases(WORLD)


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_each_entry_point_refuses_a_misshapen_array_by_name(case, data):
    call, name, values = SHAPE_CASES[case]
    value = data.draw(values, label=name)
    with pytest.raises(ParameterError) as exc:
        call(value)
    assert exc.value.name == name
    assert str(exc.value).startswith(name + " must be ")


def test_a_query_of_width_1_no_longer_broadcasts_against_every_center():
    cloud, dictionary, matrix, _, _ = WORLD
    with pytest.raises(ParameterError, match=r"^x must be shaped \(3,\), got \(1,\)$"):
        measurement.verify_assumption_set(matrix, dictionary, x=np.array([1.0]), which=1)


def test_an_n_by_1_x_opt_no_longer_broadcasts_into_the_tube_and_set_2_columns():
    cloud, dictionary, matrix, _, batch = WORLD
    with pytest.raises(ParameterError, match=r"^x_opt must be shaped \(200, 3\), got \(200, 1\)$"):
        recovery.certify_batch(cloud.points, matrix, dictionary, batch, 0.3, x_opt=cloud.points[:, :1])


def test_a_noisy_cloud_past_float64_is_refused_as_sigma():
    with pytest.raises(ParameterError, match="^sigma must be small enough for the noisy cloud's squared distances, "
                                             "got 1e[+]300$"):
        geometry.add_noise(WORLD[0], 1e300, 0)


def finite_cases(world):
    """{case: (call taking the query array, the argument's name, a finite value of it)}."""
    cloud, dictionary, matrix, meas, batch = world
    pts, x = cloud.points, cloud.points[0]
    return {
        "nearest_center x": (lambda v: gmra.nearest_center(dictionary, 2, v), "x", x),
        "project_at_scale pts": (lambda v: gmra.project_at_scale(dictionary, 2, v), "pts", pts),
        "certify_batch points": (lambda v: recovery.certify_batch(v, matrix, dictionary, batch, 0.3), "points", pts),
        "certify_batch x_opt": (lambda v: recovery.certify_batch(pts, matrix, dictionary, batch, 0.3, x_opt=v),
                                "x_opt", pts),
        "nearest_point_oracle swiss-roll": (lambda v: recovery.nearest_point_oracle(v, "swiss-roll"), "x", pts),
        "nearest_point_oracle sphere": (lambda v: recovery.nearest_point_oracle(v, "sphere"), "x", x),
        "nearest_point_oracle cloud": (lambda v: recovery.nearest_point_oracle(v, cloud), "x", pts[:20]),
        # a NaN or infinite row got a one-pick ordering, with only RuntimeWarnings
        "farthest_point_ordering pts": (lambda v: geometry.farthest_point_ordering(v), "pts", pts[:20]),
        "verify_assumption_set x": (lambda v: measurement.verify_assumption_set(matrix, dictionary, x=v), "x", x),
        "verify_distortion probes": (lambda v: measurement.verify_distortion(matrix, v, 0.3), "probes", pts[:20]),
        "recover_batch measurements": (lambda v: recovery.recover_batch(v, matrix, dictionary, 2), "measurements",
                                       meas[:20]),
        # rel_mse returned nan or inf, and e_m_bound nan or inf, for these
        "rel_mse points": (lambda v: harness.rel_mse(v, pts[:20]), "points", pts[:20]),
        "rel_mse reconstructions": (lambda v: harness.rel_mse(pts[:20], v), "reconstructions", pts[:20]),
        "e_m_bound y": (lambda v: measurement.e_m_bound(v, 0.3, 2), "y", pts[:20]),
        "e_m_bound y vector": (lambda v: measurement.e_m_bound(v, 0.3, 2), "y", x),
    }


FINITE_CASES = finite_cases(WORLD)


@pytest.mark.parametrize("case", sorted(FINITE_CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_each_query_array_refuses_a_nan_or_infinity_by_name_and_row(case, data):
    call, name, good = FINITE_CASES[case]
    value = np.array(good)
    rows = value.reshape(len(value), -1)
    row = data.draw(st.integers(0, len(rows) - 1), label="row")
    cells = data.draw(st.sets(st.integers(0, rows.shape[1] - 1), min_size=1), label="entries")
    for k in cells:
        rows[row, k] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="bad")
    rows[row + 1 :, 0] = math.nan  # a later bad row is not the one named
    with pytest.raises(ParameterError) as exc:
        call(value)
    assert exc.value.name == name
    where = "at entry" if value.ndim == 1 else "in row"
    assert re.fullmatch(r"%s must be finite %s %d, got (nan|inf|-inf)" % (name, where, row), str(exc.value))


def test_non_finite_queries_that_used_to_pass_are_refused_by_name():
    cloud, dictionary, matrix, _, _ = WORLD
    with pytest.raises(ParameterError, match=r"^x must be finite at entry 0, got nan$"):
        gmra.nearest_center(dictionary, 2, [math.nan, 0.0, 1.0])
    with pytest.raises(ParameterError, match=r"^x must be finite in row 1, got inf$"):
        recovery.nearest_point_oracle([[1.0, 2.0, 3.0], [0.0, math.inf, 1.0]], "swiss-roll")
    # the sphere oracle used to blame the origin for a NaN row
    with pytest.raises(ParameterError, match=r"^x must be finite at entry 2, got nan$"):
        recovery.nearest_point_oracle([1.0, 0.0, math.nan], "sphere")
    # an empty block has nothing to refuse
    assert gmra.project_at_scale(dictionary, 2, np.zeros((0, 3))).shape == (0, 3)
    assert recovery.nearest_point_oracle(np.zeros((0, 3)), "swiss-roll").shape == (0, 3)
    # assumption set 1 used to blame its own vector set, as probes
    with pytest.raises(ParameterError, match=r"^x must be finite at entry 1, got nan$"):
        measurement.verify_assumption_set(matrix, dictionary, x=[0.0, math.nan, 0.0], which=1)
