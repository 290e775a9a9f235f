import csv
import logging
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_cs import geometry, gmra, harness, measurement, recovery
from manifold_cs.errors import CsvParseError, ParameterError
from manifold_cs.svgplot import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, WIDTH, _FLOOR, render_curves


def test_rel_mse_perfect_recovery():
    cloud = geometry.gen_sphere(20, 2, seed=1)
    assert harness.rel_mse(cloud, cloud.points.copy()) == 0.0


def test_rel_mse_unit_error():
    pts = geometry.PointCloud(np.array([[1.0, 0.0]]), 2)
    assert harness.rel_mse(pts, np.array([[0.0, 0.0]])) == 1.0


def test_rel_mse_hand_value():
    pts = geometry.PointCloud(np.array([[1.0, 0.0], [0.0, 1.0]]), 2)
    recs = np.array([[0.7, 0.0], [0.0, 0.6]])
    assert harness.rel_mse(pts, recs) == pytest.approx(np.sqrt((0.09 + 0.16) / 2))


def test_rel_mse_rejects_zero_norm_point():
    pts = geometry.PointCloud(np.array([[1.0, 0.0], [0.0, 0.0]]), 2)
    with pytest.raises(ValueError, match="point 1"):
        harness.rel_mse(pts, pts.points)
    # a true origin is still refused when another point is scaled out of underflow
    with pytest.raises(ValueError, match="point 1"):
        harness.rel_mse(np.array([[1e-170, 0.0], [0.0, 0.0]]), np.zeros((2, 2)))


@pytest.mark.parametrize("v", [1e-150, 1e-154, 1e-158, 1e-161, 1e-162, 1e-170, 1e-200, 1e-250, 1e-300])
def test_rel_mse_of_points_whose_squared_norm_underflows(v):
    # the squared norms of these points are subnormal or 0.0: the error is taken relative to the largest entry
    assert harness.rel_mse(np.full((2, 3), v), np.full((2, 3), 0.7 * v)) == pytest.approx(0.3, rel=1e-14)
    assert harness.rel_mse(np.full((2, 3), v), np.zeros((2, 3))) == pytest.approx(1.0, rel=1e-14)
    value, max_sq = harness.rel_mse_with_max(np.array([[1.0, 0.0], [v, v]]), np.array([[0.6, 0.0], [v, 0.0]]))
    assert (value, max_sq) == pytest.approx((np.sqrt((0.16 + 0.5) / 2), 0.5), rel=1e-14)


def test_rel_mse_scales_only_the_points_whose_squared_norm_is_subnormal():
    rng = np.random.default_rng(4)
    pts, rec = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
    norms_sq = np.einsum("ij,ij->i", pts, pts)
    err_sq = np.einsum("ij,ij->i", pts - rec, pts - rec) / norms_sq
    expected = (float(np.sqrt(err_sq.mean())), float(err_sq.max()))
    assert harness.rel_mse_with_max(pts, rec) == expected


def test_rel_mse_baseline_zero_on_planar_data(plane_cloud):
    d = gmra.build_dictionary(plane_cloud, local_dim=2, max_scale=2)
    assert harness.rel_mse_baseline(plane_cloud, d) <= 1e-12


def test_rel_mse_baseline_matches_projector_outputs(swiss_cloud, swiss_dict):
    recon = gmra.project_at_scale(swiss_dict, swiss_dict.max_scale, swiss_cloud.points)
    assert harness.rel_mse_baseline(swiss_cloud, swiss_dict) == pytest.approx(
        harness.rel_mse(swiss_cloud, recon)
    )


def small_config(tmp_path, **overrides):
    opts = dict(
        dataset={"generator": "swiss-roll", "n": 400, "seed": 5},
        noise_sigmas=[0.0, 0.1],
        oversampling=[1, 2],
        num_draws=2,
        seed=123,
        scales=[0, 1, 2, 3],
        output_dir=str(tmp_path / "out"),
        local_dim=2,
    )
    opts.update(overrides)
    return harness.ExperimentConfig(**opts)


def test_run_experiment_rows_and_determinism(tmp_path):
    cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "a"))
    cfg_b = small_config(tmp_path, output_dir=str(tmp_path / "b"))
    res_a = harness.run_experiment(cfg_a)
    res_b = harness.run_experiment(cfg_b)
    assert len(res_a.rows) == 2 * 4 * 2 * 2  # sigmas x scales x factors x draws
    a_csv = (tmp_path / "a" / "results.csv").read_bytes()
    b_csv = (tmp_path / "b" / "results.csv").read_bytes()
    assert a_csv == b_csv
    a_svg = (tmp_path / "a" / "relmse_sigma_0.svg").read_bytes()
    b_svg = (tmp_path / "b" / "relmse_sigma_0.svg").read_bytes()
    assert a_svg == b_svg
    assert (tmp_path / "a" / "timing.csv").exists()


def test_run_experiment_full_rank_matches_uncompressed(tmp_path):
    cfg = small_config(
        tmp_path, noise_sigmas=[0.0], oversampling=[2], num_draws=1, scales=[0, 1, 2]
    )
    res = harness.run_experiment(cfg)
    cloud = harness.load_dataset(cfg.dataset)
    noisy = geometry.add_noise(cloud, 0.0, harness.derive_seed(cfg.seed, 1, 0))
    d = gmra.build_dictionary(noisy, local_dim=2, max_scale=2)
    for j in (0, 1, 2):
        recon = gmra.project_at_scale(d, j, noisy.points)
        want = harness.rel_mse(noisy, recon)
        got = res.aggregates[(0.0, j, 2)][0]
        assert abs(got - want) <= 1e-10


def test_monotone_oversampling_on_compressible_data(tmp_path):
    # 2-sphere embedded in R^20: f=2 is genuinely compressed, f=16 saturates
    base = geometry.gen_sphere(600, 2, seed=9)
    padded = np.zeros((600, 20))
    padded[:, :3] = base.points
    path = tmp_path / "sphere20.csv"
    geometry.save_csv(geometry.PointCloud(padded, 20, label="sphere-r20"), path)
    cfg = harness.ExperimentConfig(
        dataset={"csv": str(path)},
        noise_sigmas=[0.0],
        oversampling=[2, 16],
        num_draws=4,
        seed=7,
        scales=[0, 1, 2],
        output_dir=str(tmp_path / "out20"),
        local_dim=2,
    )
    res = harness.run_experiment(cfg)
    for j in (0, 1, 2):
        mean2, std2 = res.aggregates[(0.0, j, 2)]
        mean16, std16 = res.aggregates[(0.0, j, 16)]
        assert mean16 <= mean2 + 2.0 * (std2 + std16)
        # the uncompressed baseline is never beaten by a compressed run
        assert res.baselines[0.0] <= mean16 + 2.0 * std16 + 1e-12
        assert {row["d_j"] for row in res.rows if row["j"] == j} == {2}
    assert {r["m"] for r in res.rows} == {4, 20}


def test_noise_floor_on_sphere(tmp_path):
    cfg = harness.ExperimentConfig(
        dataset={"generator": "sphere", "n": 2000, "d": 2, "seed": 3},
        noise_sigmas=[0.1],
        oversampling=[4],
        num_draws=2,
        seed=11,
        scales=[0, 1, 2, 3, 4],
        output_dir=str(tmp_path / "floor"),
        local_dim=2,
    )
    res = harness.run_experiment(cfg)
    floor = min(res.aggregates[(0.1, j, 4)][0] for j in range(5))
    assert floor >= 0.25 * 0.1 / res.mean_norms[0.1]


def test_emit_plot_structure(tmp_path):
    cfg = small_config(tmp_path, noise_sigmas=[0.0], scales=[0, 1, 2])
    res = harness.run_experiment(cfg)
    svg_path = tmp_path / "out" / "relmse_sigma_0.svg"
    root = ET.parse(svg_path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f".//{ns}polyline")
    assert len(polylines) == 2  # one per oversampling factor
    baselines = [e for e in root.findall(f".//{ns}line") if e.get("class") == "baseline"]
    assert len(baselines) == 1
    assert baselines[0].get("stroke-dasharray")


def test_emit_plot_rejects_empty():
    cfg = harness.ExperimentConfig(
        dataset={"generator": "swiss-roll", "n": 50, "seed": 1},
        scales=[0],
        output_dir="unused",
    )
    empty = harness.ExperimentResult(config=cfg, rows=[], timing_rows=[], mean_norms={})
    with pytest.raises(ValueError, match="nothing to plot"):
        harness.emit_plot(empty, "unused")


def reference_fmt(v):
    return "%.2f" % v


def reference_escape(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def reference_render_curves(scales, curves, baseline, title):
    """The renderer that spelled out each element's template in place."""
    if not scales:
        raise ValueError("nothing to plot: empty scale list")
    xs = list(scales)
    values = [baseline] if baseline and baseline > 0 else []
    for _, means, stds in curves:
        for m, s in zip(means, stds):
            if m is not None:
                values.append(max(m - (s or 0.0), _FLOOR))
                values.append(m + (s or 0.0))
    values = [max(v, _FLOOR) for v in values if v is not None and v > 0]
    if not values:
        raise ValueError("nothing to plot: no positive values")
    lo = math.log10(min(values))
    hi = math.log10(max(values))
    if hi - lo < 0.5:
        mid = 0.5 * (hi + lo)
        lo, hi = mid - 0.25, mid + 0.25
    lo = math.floor(lo * 2.0) / 2.0
    hi = math.ceil(hi * 2.0) / 2.0

    x0, x1 = min(xs), max(xs)
    if x1 == x0:
        x1 = x0 + 1

    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(v):
        lv = math.log10(max(v, _FLOOR))
        return MARGIN_T + (hi - lv) / (hi - lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">'
        % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT),
        '<text x="%d" y="24" font-family="sans-serif" font-size="15" text-anchor="middle">%s</text>'
        % (WIDTH // 2, reference_escape(title)),
    ]
    # axes
    parts.append(
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
        % (reference_fmt(MARGIN_L), reference_fmt(HEIGHT - MARGIN_B), reference_fmt(WIDTH - MARGIN_R), reference_fmt(HEIGHT - MARGIN_B))
    )
    parts.append(
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
        % (reference_fmt(MARGIN_L), reference_fmt(MARGIN_T), reference_fmt(MARGIN_L), reference_fmt(HEIGHT - MARGIN_B))
    )
    for x in xs:
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="11" text-anchor="middle">%d</text>'
            % (reference_fmt(px(x)), reference_fmt(HEIGHT - MARGIN_B + 16), x)
        )
    tick = lo
    while tick <= hi + 1e-9:
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="11" text-anchor="end">1e%g</text>'
            % (reference_fmt(MARGIN_L - 6), reference_fmt(py(10.0**tick) + 4), tick)
        )
        parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#cccccc" stroke-width="0.5"/>'
            % (reference_fmt(MARGIN_L), reference_fmt(py(10.0**tick)), reference_fmt(WIDTH - MARGIN_R), reference_fmt(py(10.0**tick)))
        )
        tick += 1.0
    parts.append(
        '<text x="%d" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle">scale j</text>'
        % (WIDTH // 2, HEIGHT - 12)
    )
    parts.append(
        '<text x="16" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle" '
        'transform="rotate(-90 16 %d)">relMSE</text>' % (HEIGHT // 2, HEIGHT // 2)
    )

    # std bands first, curves above them
    for idx, (label, means, stds) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        pts_hi, pts_lo = [], []
        for x, m, s in zip(xs, means, stds):
            if m is None:
                continue
            s = s or 0.0
            pts_hi.append((px(x), py(m + s)))
            pts_lo.append((px(x), py(max(m - s, _FLOOR))))
        if len(pts_hi) >= 2:
            ring = pts_hi + pts_lo[::-1]
            path = " ".join("%s,%s" % (reference_fmt(a), reference_fmt(b)) for a, b in ring)
            parts.append('<polygon points="%s" fill="%s" fill-opacity="0.15" stroke="none"/>' % (path, color))
    for idx, (label, means, stds) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(px(x), py(m)) for x, m in zip(xs, means) if m is not None]
        if not pts:
            continue
        path = " ".join("%s,%s" % (reference_fmt(a), reference_fmt(b)) for a, b in pts)
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>' % (path, color)
        )
        lx, ly = pts[-1]
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="11" fill="%s">%s</text>'
            % (reference_fmt(min(lx + 4, WIDTH - MARGIN_R - 30)), reference_fmt(ly - 4), color, reference_escape(label))
        )

    if baseline is not None and baseline > 0:
        by = py(baseline)
        parts.append(
            '<line class="baseline" x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" '
            'stroke-dasharray="6,4" stroke-width="1.2"/>'
            % (reference_fmt(MARGIN_L), reference_fmt(by), reference_fmt(WIDTH - MARGIN_R), reference_fmt(by))
        )
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="11">baseline</text>'
            % (reference_fmt(MARGIN_L + 4), reference_fmt(by - 4))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


plot_values = st.one_of(st.none(), st.just(0.0), st.floats(-10.0, 0.0), st.floats(1e-20, 1e4))


@st.composite
def plot_inputs(draw):
    """Scales, curves with gaps and non-positive values, a baseline and a title, as render_curves takes them."""
    scales = sorted(draw(st.sets(st.integers(-3, 12), min_size=1, max_size=9)))
    label = st.text(alphabet=st.sampled_from("ab <&\"'>\u00e9"), max_size=6)
    curves = []
    for _ in range(draw(st.integers(0, 7))):
        means = draw(st.lists(plot_values, min_size=len(scales), max_size=len(scales)))
        stds = draw(st.lists(st.one_of(st.none(), st.floats(0.0, 1e3)), min_size=len(scales), max_size=len(scales)))
        curves.append((draw(label), means, stds))
    baseline = draw(st.one_of(st.none(), st.just(0), st.floats(-1.0, 0.0), st.floats(1e-20, 1e3)))
    return scales, curves, baseline, draw(label)


@settings(max_examples=300, deadline=None)
@given(plot_inputs())
def test_render_curves_matches_the_reference_byte_for_byte(case):
    try:
        want = reference_render_curves(*case)
    except ValueError as exc:
        with pytest.raises(ValueError, match="^%s$" % re.escape(str(exc))):
            render_curves(*case)
    else:
        assert render_curves(*case) == want


def test_load_results_csv_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    res = harness.run_experiment(cfg)
    loaded = harness.load_results_csv(str(tmp_path / "out" / "results.csv"))
    assert loaded.aggregates == res.aggregates
    assert loaded.baselines == res.baselines
    assert [int(row["d_j"]) for row in loaded.rows] == [row["d_j"] for row in res.rows]
    assert loaded.config == cfg


def test_load_results_csv_names_a_missing_column(tmp_path):
    cfg = small_config(tmp_path, noise_sigmas=[0.0], scales=[0, 1], num_draws=1)
    harness.run_experiment(cfg)
    path = tmp_path / "out" / "results.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(path, "w", newline="") as fh:
        columns = [c for c in harness.RESULTS_COLUMNS if c != "max_sq_rel_err"]
        writer = csv.DictWriter(fh, columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    with pytest.raises(CsvParseError, match="'max_sq_rel_err'"):
        harness.load_results_csv(str(path))


def damaged_results(tmp_path, extra_line):
    """A run's results.csv with one more line appended; returns the path and that line's number."""
    cfg = small_config(tmp_path, noise_sigmas=[0.0], scales=[0, 1], oversampling=[2], num_draws=1)
    harness.run_experiment(cfg)
    path = tmp_path / "out" / "results.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [extra_line]) + "\n")
    return str(path), len(lines) + 1


def test_load_results_csv_names_an_ok_row_with_a_non_numeric_value(tmp_path):
    path, line = damaged_results(tmp_path, "swiss-roll,0,1,2,0,abc,0.1,2,4,0.2")
    with pytest.raises(CsvParseError, match="line %d: could not convert string to float: 'abc'" % line) as err:
        harness.load_results_csv(path)
    assert err.value.row == line


def test_load_results_csv_names_a_row_with_a_number_float_reads_but_csv_never_writes(tmp_path):
    path, line = damaged_results(tmp_path, "swiss-roll,0,1_0,2,0,0.1,0.1,2,4,0.2")
    with pytest.raises(CsvParseError, match="line %d: '1_0' is not a CSV number" % line) as err:
        harness.load_results_csv(path)
    assert err.value.row == line


def test_load_results_csv_names_the_file_and_row_that_is_not_utf8(tmp_path):
    path, line = damaged_results(tmp_path, "swiss-roll,0,1,2,0,0.1,0.1,2,4,0.2")
    with open(path, "ab") as fh:
        fh.write(b"\xff\xfe\n")
    with pytest.raises(CsvParseError, match="^%s: row %d is not UTF-8 text$" % (re.escape(path), line + 1)) as err:
        harness.load_results_csv(path)
    assert err.value.row == line + 1


def test_load_results_csv_names_the_file_of_an_oversized_field(tmp_path):
    path, _ = damaged_results(tmp_path, "swiss-roll,0,1,2,0," + "9" * 200_000 + ",0.1,2,4,0.2")
    with pytest.raises(CsvParseError, match="^%s: field larger than field limit" % re.escape(path)):
        harness.load_results_csv(path)


def test_load_results_csv_names_a_truncated_row(tmp_path):
    path, line = damaged_results(tmp_path, "swiss-roll,0,1")
    with pytest.raises(CsvParseError, match="line %d does not have 10 fields" % line) as err:
        harness.load_results_csv(path)
    assert err.value.row == line


def repeating_config(tmp_path, **overrides):
    """A grid whose dictionaries stop refining at scale 3, so scales 4-6 repeat scale 3's cells."""
    opts = dict(dataset={"generator": "swiss-roll", "n": 300, "seed": 5}, noise_sigmas=[0.0, 0.05],
                scales=list(range(7)), min_points=6)
    opts.update(overrides)
    return small_config(tmp_path, **opts)


def grid_dictionaries(cfg):
    """(sigma, sigma index, noisy cloud, dictionary) per noise level, as run_experiment builds them."""
    base = harness.load_dataset(cfg.dataset)
    for s_idx, sigma in enumerate(cfg.noise_sigmas):
        cloud = geometry.add_noise(base, sigma, harness.derive_seed(cfg.seed, 1, s_idx))
        yield sigma, s_idx, cloud, gmra.build_dictionary(
            cloud, local_dim=cfg.local_dim, max_scale=max(cfg.scales), min_points=cfg.min_points
        )


def row_matrix(cfg, s_idx, row, dim):
    seed = harness.derive_seed(cfg.seed, 2, s_idx, row["f"], row["draw"], row["m"])
    return measurement.draw_matrix(cfg.ensemble, row["m"], dim, seed)


def test_run_experiment_logs_progress_instead_of_printing(tmp_path, caplog, capsys):
    cfg = repeating_config(tmp_path, noise_sigmas=[0.0], oversampling=[2], num_draws=1)
    with caplog.at_level(logging.INFO, logger="manifold_cs.harness"):
        harness.run_experiment(cfg)
    assert [r.getMessage() for r in caplog.records] == [
        "sigma=0: building dictionary (n=300)",
        "sigma=0: scales 4, 5, 6 repeat scale 3's cells: reused",
    ] + ["sigma=0 scale=%d done" % j for j in range(7)]
    assert capsys.readouterr().out == ""


def test_run_experiment_recovers_each_matrix_and_layer_once(tmp_path, monkeypatch):
    cfg = repeating_config(tmp_path)
    calls, built, recover = [], [], recovery.recover_batch  # calls: (sigma, matrix seed, layer)

    def counted_recover(measurements, matrix, dictionary, j):
        if not built or built[-1] is not dictionary:  # one dictionary per noise level, in the config's order
            built.append(dictionary)
        calls.append((cfg.noise_sigmas[len(built) - 1], matrix.seed, dictionary.cell_fits(j).tobytes()))
        return recover(measurements, matrix, dictionary, j)

    monkeypatch.setattr(recovery, "recover_batch", counted_recover)
    result = harness.run_experiment(cfg)
    layers = set()  # (sigma, matrix seed, layer) of every row
    for sigma, s_idx, cloud, dictionary in grid_dictionaries(cfg):
        assert len({dictionary.cell_fits(j).tobytes() for j in cfg.scales}) < len(cfg.scales)
        for row in result.rows:
            if row["sigma"] == sigma:
                seed = row_matrix(cfg, s_idx, row, cloud.ambient_dim).seed
                layers.add((sigma, seed, dictionary.cell_fits(row["j"]).tobytes()))
    assert sorted(calls) == sorted(layers)
    assert len(calls) < len(result.rows) == len(result.timing_rows)


def test_run_experiment_rows_equal_a_direct_recovery_at_their_own_scale(tmp_path):
    cfg = repeating_config(tmp_path)
    result = harness.run_experiment(cfg)
    checked = 0
    for sigma, s_idx, cloud, dictionary in grid_dictionaries(cfg):
        for row in result.rows:
            if row["sigma"] != sigma:
                continue
            matrix = row_matrix(cfg, s_idx, row, cloud.ambient_dim)
            batch = recovery.recover_batch(matrix.apply(cloud.points), matrix, dictionary, row["j"])
            value, max_sq = harness.rel_mse_with_max(cloud, batch.reconstructions)
            assert (row["relMSE"], row["max_sq_rel_err"]) == (value, max_sq), row
            checked += 1
    assert checked == len(result.rows) == 2 * 7 * 2 * 2


def test_config_validation():
    with pytest.raises(ValueError):
        harness.ExperimentConfig(dataset={"generator": "swiss-roll", "n": 10}, num_draws=0)
    with pytest.raises(ValueError):
        harness.ExperimentConfig(dataset={"generator": "swiss-roll", "n": 10}, oversampling=[0])
    with pytest.raises(ValueError):
        harness.ExperimentConfig(dataset={"generator": "swiss-roll", "n": 10}, scales=[])
    with pytest.raises(ValueError):
        harness.ExperimentConfig(dataset={"generator": "swiss-roll", "n": 10}, ensemble="fourier")


@pytest.mark.parametrize("field, values, bad", [
    ("scales", [2, -1], "-1"),
    ("scales", [0, 1.5], "1.5"),
    ("scales", [0, True], "True"),
    ("scales", [], r"\[\]"),
    ("oversampling", [2, 2.0], "2.0"),
    # a repeated value ran its cells twice, and one aggregate mixed two differently noised clouds
    ("noise_sigmas", [0.05, 0.05], r"\[0.05, 0.05\]"),
    ("scales", [2, 2], r"\[2, 2\]"),
    ("oversampling", [2, 4, 2], r"\[2, 4, 2\]"),
    ("noise_sigmas", [0.0, -0.1], "-0.1"),
    ("noise_sigmas", [0.0, float("nan")], "nan"),
    ("noise_sigmas", 0.1, "0.1"),
    ("local_dim", 0, "0"),
    ("local_dim", 1.5, "1.5"),
    ("max_local_dim", 0, "0"),
    ("max_local_dim", -1, "-1"),
    ("max_local_dim", 3, "3"),  # beside local_dim 2, which fixes the plane dimension the cap would bound
    ("energy_threshold", 1.5, "1.5"),
    ("energy_threshold", 0, "0"),
    ("energy_threshold", "0.9", "'0.9'"),
])
def test_config_refuses_values_out_of_range_before_any_work(tmp_path, monkeypatch, field, values, bad):
    # the config refuses what it does not pass on, and the library call that takes a value refuses it by its
    # parameter's name (a ParameterError), before the run writes anything or finishes a build
    built, build = [], gmra.build_dictionary

    def counted_build(*args, **kwargs):
        out = build(*args, **kwargs)
        built.append(out)
        return out

    monkeypatch.setattr(gmra, "build_dictionary", counted_build)
    with pytest.raises(ValueError, match="must .*got %s$" % bad) as exc:
        harness.run_experiment(small_config(tmp_path, **{field: values}))
    names = {"scales": {"scales", "max_scale", "j"}, "noise_sigmas": {"noise_sigmas", "sigma"}}.get(field, {field})
    assert getattr(exc.value, "name", field) in names
    assert list(tmp_path.iterdir()) == []
    assert built == []


@pytest.mark.parametrize("text, cause", [
    ('{"dataset": {"n": 10}, "seed": 1, "max_scale": 3}', "unknown key 'max_scale'"),
    ('{"dataset": {"n": 10}, "sep_constant_hint": 1.0}', "unknown key 'sep_constant_hint'"),
    ('{"seed": 1}', "no 'dataset' key"),
    ('[{"dataset": {"n": 10}}]', "JSON list, not an object"),
    ('{"dataset": {"n": 10}, "num_draws": "3"}', "num_draws must .*got '3'"),
])
def test_config_from_json_refuses_a_hostile_file(tmp_path, text, cause):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=cause):
        harness.ExperimentConfig.from_json(path)


def test_config_json_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    path = tmp_path / "cfg.json"
    cfg.to_json(path)
    back = harness.ExperimentConfig.from_json(path)
    assert back == cfg


def test_load_dataset_validates_descriptor():
    for descriptor, name in (({"generator": "torus", "n": 5}, "generator"), ({"n": 5}, "generator"),
                             ({"generator": "sphere", "n": 5}, "d"), ({"generator": "swiss-roll"}, "n"),
                             ({"csv": 7}, "csv"), ({"csv": None}, "csv"), ("roll.csv", "dataset"), ([], "dataset")):
        with pytest.raises(ParameterError) as exc:
            harness.load_dataset(descriptor)
        assert exc.value.name == name


def reference_write_table(path, columns, rows):
    """The row-dict writer: csv.DictWriter over one dict per row, a float written with 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: "%.17g" % v if isinstance(v, float) else v for c, v in row.items()})


csv_text = st.text(st.sampled_from('ab ,"\n\r\t'), max_size=5)  # commas, quotes and line breaks need quoting
table_cells = st.one_of(
    st.floats(),  # -0.0, nan and +-inf included
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    csv_text,
)


@st.composite
def tables(draw):
    """{name: column}: lists of mixed cells, float64 arrays and int64 arrays, every column as long."""
    names = draw(st.lists(csv_text, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 6))
    columns = {}
    for name in names:
        kind = draw(st.sampled_from(["cells", "float64", "int64"]))
        if kind == "cells":
            columns[name] = draw(st.lists(table_cells, min_size=n, max_size=n))
        else:
            values = st.floats() if kind == "float64" else st.integers(-(2**63), 2**63 - 1)
            columns[name] = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=kind)
    return columns


@settings(max_examples=200, deadline=None)
@given(tables())
def test_write_table_matches_the_row_dict_writer(tmp_path_factory, columns):
    tmp = tmp_path_factory.mktemp("table")
    n = len(next(iter(columns.values())))
    harness._write_table(tmp / "got.csv", columns)
    reference_write_table(tmp / "want.csv", list(columns), [{c: col[i] for c, col in columns.items()} for i in range(n)])
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()


def test_an_output_dir_that_cannot_be_made_ends_the_run_before_any_build(tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(gmra, "build_dictionary", lambda *args, **kwargs: built.append(args))
    (tmp_path / "file").write_text("")
    with pytest.raises(NotADirectoryError):
        harness.run_experiment(small_config(tmp_path, output_dir=str(tmp_path / "file" / "out")))
    assert built == []


def test_a_run_refused_by_a_build_removes_the_directories_it_made(tmp_path):
    # the directory is made before the first build; the build's refusal of local_dim=0 leaves none behind
    (tmp_path / "kept").mkdir()
    with pytest.raises(ValueError, match="^local_dim must be an integer >= 1, got 0$"):
        harness.run_experiment(small_config(tmp_path, local_dim=0, output_dir=str(tmp_path / "kept" / "a" / "b")))
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["kept"]
