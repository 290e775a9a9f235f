import csv
import logging
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from manifold_cs import geometry, gmra, harness
from manifold_cs.errors import CsvParseError


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


def test_rel_mse_baseline_zero_on_planar_data(plane_cloud):
    d = gmra.build_dictionary(plane_cloud, local_dim=2, max_scale=2)
    assert harness.rel_mse_baseline(plane_cloud, d) <= 1e-12


def test_rel_mse_baseline_matches_projector_outputs(swiss_cloud, swiss_dict):
    recon = harness.project_at_scale(swiss_dict, swiss_dict.max_scale, swiss_cloud.points)
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
        recon = harness.project_at_scale(d, j, noisy.points)
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
        assert res.d_by_scale[(0.0, j)] == 2
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


def test_load_results_csv_round_trip(tmp_path):
    cfg = small_config(tmp_path)
    res = harness.run_experiment(cfg)
    loaded = harness.load_results_csv(str(tmp_path / "out" / "results.csv"))
    assert loaded.aggregates == res.aggregates
    assert loaded.baselines == res.baselines
    assert loaded.d_by_scale == res.d_by_scale
    assert loaded.curve(0.1, 2) == res.curve(0.1, 2)
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


def test_load_results_csv_names_a_truncated_row(tmp_path):
    path, line = damaged_results(tmp_path, "swiss-roll,0,1")
    with pytest.raises(CsvParseError, match="line %d does not have 10 fields" % line) as err:
        harness.load_results_csv(path)
    assert err.value.row == line


def test_run_experiment_logs_progress_instead_of_printing(tmp_path, caplog, capsys):
    cfg = small_config(tmp_path, noise_sigmas=[0.0], scales=[0, 1], oversampling=[2], num_draws=1)
    with caplog.at_level(logging.INFO, logger="manifold_cs.harness"):
        harness.run_experiment(cfg)
    assert [r.getMessage() for r in caplog.records] == [
        "sigma=0: building dictionary (n=400)",
        "sigma=0 scale=0 done",
        "sigma=0 scale=1 done",
    ]
    assert capsys.readouterr().out == ""


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
    ("noise_sigmas", [0.0, -0.1], "-0.1"),
    ("noise_sigmas", [0.0, float("nan")], "nan"),
    ("noise_sigmas", 0.1, "0.1"),
])
def test_config_refuses_values_out_of_range_before_any_work(tmp_path, field, values, bad):
    with pytest.raises(ValueError, match="%s must .*got %s" % (field, bad)):
        small_config(tmp_path, **{field: values})
    assert list(tmp_path.iterdir()) == []


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
    with pytest.raises(ValueError):
        harness.load_dataset({"generator": "torus", "n": 5})
