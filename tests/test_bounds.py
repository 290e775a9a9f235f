import numpy as np
import pytest

from manifold_cs import bounds, geometry
from manifold_cs.errors import BoundOverflowError


CIRCLE = bounds.BoundParams(d=1, V=2 * np.pi, eps=0.3, reach=1.0, C1=1.0)


def test_cover_bound_circle_values():
    assert bounds.cover_bound(CIRCLE, 0.1) == pytest.approx(81.6209713905, rel=1e-9)
    # limit toward the reach hypothesis boundary
    assert bounds.cover_bound(CIRCLE, 1.0 - 1e-12) == pytest.approx(8.16209713906, rel=1e-6)


def test_cover_bound_delta_scaling():
    params = bounds.BoundParams(d=2, V=4 * np.pi, eps=0.3, reach=1.0)
    assert bounds.cover_bound(params, 0.2) == pytest.approx(bounds.cover_bound(params, 0.1) / 4.0)


def test_cover_bound_rejects_delta_at_reach():
    with pytest.raises(ValueError):
        bounds.cover_bound(CIRCLE, 1.0)
    with pytest.raises(ValueError):
        bounds.cover_bound(CIRCLE, 0.0)


def test_center_count_bound_values():
    params = bounds.BoundParams(d=1, V=2 * np.pi, eps=0.3, J=5, C1=1.0)
    assert bounds.center_count_bound(params, 0) == pytest.approx(32.648388556, rel=1e-9)
    # one scale deeper doubles the bound at d=1, quadruples it at d=2
    assert bounds.center_count_bound(params, 3) == pytest.approx(
        8 * bounds.center_count_bound(params, 0)
    )
    params2 = bounds.BoundParams(d=2, V=1.0, eps=0.3, J=5, C1=1.0)
    assert bounds.center_count_bound(params2, 4) == pytest.approx(
        4 * bounds.center_count_bound(params2, 3)
    )


def test_center_count_bound_checks_tube_scale_when_known():
    params = bounds.BoundParams(d=1, V=2 * np.pi, eps=0.3, J=5, C1=1.0, j0=2)
    with pytest.raises(ValueError):
        bounds.center_count_bound(params, 1)
    bounds.center_count_bound(params, 3)


def test_m_nonuniform_reference_value():
    params = bounds.BoundParams(d=2, V=10.0, eps=0.5, J=5)
    assert bounds.m_nonuniform(params) == 61


def test_m_nonuniform_eps_scaling():
    base = bounds.BoundParams(d=3, V=50.0, eps=0.4, J=4)
    half = bounds.BoundParams(d=3, V=50.0, eps=0.2, J=4)
    # halving eps quadruples the leading term (interval check, logs shift too)
    lead_base = 3 * 0.4**-2 * (4 + np.log(3 / 0.4))
    lead_half = 3 * 0.2**-2 * (4 + np.log(3 / 0.2))
    assert lead_half > 4 * lead_base
    assert bounds.m_nonuniform(half) > bounds.m_nonuniform(base)


def test_m_nonuniform_independent_of_ambient_dim():
    a = bounds.BoundParams(d=2, V=10.0, eps=0.5, J=5, D=10)
    b = bounds.BoundParams(d=2, V=10.0, eps=0.5, J=5, D=100000)
    assert bounds.m_nonuniform(a) == bounds.m_nonuniform(b)


def test_m_uniform_reference_value():
    params = bounds.BoundParams(d=2, V=10.0, eps=0.5, J=5, D=100, reach=1.0)
    assert bounds.m_uniform(params) == 92


def test_m_uniform_grows_logarithmically_in_ambient_dim():
    values = [
        bounds.m_uniform(bounds.BoundParams(d=2, V=10.0, eps=0.5, J=5, D=D, reach=1.0))
        for D in (100, 1000, 10000)
    ]
    assert values[0] < values[1] < values[2]
    assert values[2] - values[1] == pytest.approx(values[1] - values[0], abs=2)


def test_m_uniform_requires_ambient_and_reach():
    with pytest.raises(ValueError):
        bounds.m_uniform(bounds.BoundParams(d=2, V=10.0, eps=0.5, J=5))


def test_m_uniform_dominates_nonuniform_when_log_ratio_bigger():
    for d, D, reach, eps in [(2, 100, 1.0, 0.5), (3, 1000, 0.5, 0.4), (1, 50, 1.0, 0.3)]:
        if D / (eps * reach) >= d / eps:
            pn = bounds.BoundParams(d=d, V=10.0, eps=eps, J=4)
            pu = bounds.BoundParams(d=d, V=10.0, eps=eps, J=4, D=D, reach=reach)
            assert bounds.m_uniform(pu) >= bounds.m_nonuniform(pn)


def test_monotone_in_volume_and_scales():
    for V in (1.0, 10.0, 100.0):
        for J in (1, 3, 6):
            p_small = bounds.BoundParams(d=2, V=V, eps=0.4, J=J)
            p_bigger_v = bounds.BoundParams(d=2, V=V * 10, eps=0.4, J=J)
            p_deeper = bounds.BoundParams(d=2, V=V, eps=0.4, J=J + 1)
            assert bounds.m_nonuniform(p_bigger_v) >= bounds.m_nonuniform(p_small)
            assert bounds.m_nonuniform(p_deeper) >= bounds.m_nonuniform(p_small)


def test_monotone_in_eps_and_delta():
    eps_grid = [0.1, 0.2, 0.3, 0.4]
    ms = [bounds.m_nonuniform(bounds.BoundParams(d=2, V=10.0, eps=e, J=4)) for e in eps_grid]
    assert all(ms[i] >= ms[i + 1] for i in range(len(ms) - 1))
    deltas = [0.05, 0.1, 0.2, 0.4]
    cs = [bounds.cover_bound(CIRCLE, dl) for dl in deltas]
    assert all(cs[i] >= cs[i + 1] for i in range(len(cs) - 1))


def test_cover_bound_dominates_greedy_cover_sizes():
    circle = geometry.gen_sphere(800, 1, seed=4)
    sphere = geometry.gen_sphere(4000, 2, seed=4)
    circle_params = bounds.BoundParams(d=1, V=2 * np.pi, eps=0.3, reach=1.0)
    sphere_params = bounds.BoundParams(d=2, V=4 * np.pi, eps=0.3, reach=1.0)
    for delta in (0.1, 0.2, 0.4):
        size = len(geometry.farthest_point_ordering(circle.points, stop_radius=delta)[0])
        assert size < bounds.cover_bound(circle_params, delta)
        size = len(geometry.farthest_point_ordering(sphere.points, stop_radius=delta)[0])
        assert size < bounds.cover_bound(sphere_params, delta)


def test_center_count_bound_dominates_built_dictionary(circle_cloud, circle_dict):
    params = bounds.BoundParams(
        d=1,
        V=2 * np.pi,
        eps=0.3,
        reach=1.0,
        J=circle_dict.max_scale,
        C1=circle_dict.sep_constant,
    )
    lo = max(0, int(np.ceil(np.log2(params.C1 / params.reach) - 2)) + 1)
    counts = circle_dict.counts()
    for j in range(lo, circle_dict.max_scale + 1):
        assert counts[j] <= bounds.center_count_bound(params, j)


def test_scales_for_precision():
    assert bounds.scales_for_precision(2.0**-6, 1.0) == 6
    assert bounds.scales_for_precision(0.5, 4.0) == 0
    with pytest.raises(ValueError):
        bounds.scales_for_precision(0.0, 1.0)


def test_bound_params_validation():
    with pytest.raises(ValueError):
        bounds.BoundParams(d=0, V=1.0)
    with pytest.raises(ValueError):
        bounds.BoundParams(d=1, V=-1.0)
    with pytest.raises(ValueError):
        bounds.BoundParams(d=1, V=1.0, eps=0.6)


@pytest.mark.parametrize("bound, params", [
    (bounds.m_nonuniform, dict(big_o_constant=1e308)),  # was OverflowError at ceil(inf)
    (bounds.m_nonuniform, dict(eps=1e-200)),  # was OverflowError at eps^-2
    (bounds.m_uniform, dict(reach=5e-324, D=3)),  # was ZeroDivisionError: eps * reach rounds to 0
    (lambda p: bounds.center_count_bound(p, 600), {}),  # was OverflowError at 2^(d (j + 1.5))
    (lambda p: bounds.cover_bound(p, 1e-200), dict(reach=1.0)),  # was ZeroDivisionError: delta^d rounds to 0
])
def test_a_bound_past_float64_is_refused_with_a_typed_error(bound, params):
    with pytest.raises(BoundOverflowError, match="is not a finite float64 at these parameters$"):
        bound(bounds.BoundParams(**dict(dict(d=2, V=1.0), **params)))
