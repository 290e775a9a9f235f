import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import manifold_cs
from manifold_cs import cli, geometry, gmra, measurement


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def test_generate_and_build_and_validate(tmp_path):
    cloud_path = tmp_path / "roll.csv"
    assert run_cli("generate", "--kind", "swiss-roll", "--n", 400, "--seed", 3, "--out", cloud_path) == 0
    cloud = geometry.load_csv(cloud_path)
    assert cloud.points.shape == (400, 3)

    dict_path = tmp_path / "roll.mcsdict"
    assert (
        run_cli(
            "gmra", "build", "--cloud", cloud_path, "--out", dict_path,
            "--local-dim", 2, "--max-scale", 4,
        )
        == 0
    )
    loaded = gmra.load_dictionary(dict_path)
    assert loaded.max_scale == 4
    assert run_cli("gmra", "validate", "--dict", dict_path, "--cloud", cloud_path) == 0


def test_validate_json_output(tmp_path, capsys):
    cloud_path = tmp_path / "c.csv"
    run_cli("generate", "--kind", "sphere", "--n", 300, "--d", 1, "--seed", 2, "--out", cloud_path)
    dict_path = tmp_path / "c.mcsdict"
    run_cli("gmra", "build", "--cloud", cloud_path, "--out", dict_path, "--local-dim", 1, "--max-scale", 3)
    capsys.readouterr()
    assert run_cli("gmra", "validate", "--dict", dict_path, "--cloud", cloud_path, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert set(payload) == {
        "passed", "counts", "separation_ok", "separation_margin", "parent_margin", "orthonormal_worst",
        "idempotent_worst", "tube_j0", "mean_error_per_scale", "decay_slope", "decay_slope_ci",
        "monotone_refinement_ok", "ctilde_factor16", "ctilde_factor8", "failures",
    }


def test_validate_json_is_strict_on_shallow_dictionaries(tmp_path, capsys):
    # --max-scale 0 leaves no decay fit and no center pairs, --max-scale 2 an
    # unbounded decay interval: each non-finite value must come out as null
    cloud_path = tmp_path / "s.csv"
    run_cli("generate", "--kind", "sphere", "--n", 500, "--d", 2, "--seed", 3, "--out", cloud_path)

    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    payloads = {}
    for depth in (0, 2):
        dict_path = tmp_path / ("s%d.mcsdict" % depth)
        run_cli("gmra", "build", "--cloud", cloud_path, "--out", dict_path, "--local-dim", 2, "--max-scale", depth)
        capsys.readouterr()
        run_cli("gmra", "validate", "--dict", dict_path, "--cloud", cloud_path, "--json")
        payloads[depth] = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert payloads[0]["decay_slope"] is None
    assert payloads[0]["decay_slope_ci"] == [None, None]
    assert payloads[0]["separation_margin"] is None and payloads[0]["parent_margin"] is None
    assert payloads[2]["decay_slope_ci"] == [None, None]
    assert np.isfinite(payloads[2]["decay_slope"])


def test_generate_with_noise_and_padding(tmp_path):
    path = tmp_path / "noisy.csv"
    run_cli(
        "generate", "--kind", "sphere", "--n", 50, "--d", 2, "--seed", 1,
        "--sigma", 0.05, "--ambient-dim", 6, "--out", path,
    )
    cloud = geometry.load_csv(path)
    assert cloud.points.shape == (50, 6)
    # noise applies to the padded tail as well: not exactly zero
    assert np.abs(cloud.points[:, 3:]).max() > 0


def test_measure_make_and_verify(tmp_path, capsys):
    m_path = tmp_path / "m.mcsmtrx"
    assert (
        run_cli("measure", "make", "--ensemble", "haar-orthoprojection", "--m", 2, "--dim", 2, "--seed", 4, "--out", m_path)
        == 0
    )
    probes = tmp_path / "probes.csv"
    geometry.save_csv(geometry.gen_sphere(40, 1, seed=6), probes)
    capsys.readouterr()
    assert run_cli("measure", "verify", "--matrix", m_path, "--probes", probes, "--eps", 0.3) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # a probe file the check cannot use is refused with a message, not a traceback
    geometry.save_csv(geometry.PointCloud(np.array([[0.4, 0.8]]), 2), probes)
    with pytest.raises(SystemExit, match="at least two probe vectors"):
        run_cli("measure", "verify", "--matrix", m_path, "--probes", probes)
    geometry.save_csv(geometry.gen_sphere(5, 2, seed=6), probes)
    with pytest.raises(SystemExit, match="probe dimension 3 does not match matrix D=2"):
        run_cli("measure", "verify", "--matrix", m_path, "--probes", probes)

    cloud_path = tmp_path / "circle.csv"
    run_cli("generate", "--kind", "sphere", "--n", 256, "--d", 1, "--seed", 7, "--out", cloud_path)
    dict_path = tmp_path / "circle.mcsdict"
    run_cli("gmra", "build", "--cloud", cloud_path, "--out", dict_path, "--local-dim", 1, "--max-scale", 3)
    query = tmp_path / "q.csv"
    geometry.save_csv(geometry.PointCloud(np.array([[0.4, 0.8]]), 2), query)
    capsys.readouterr()
    rc = run_cli(
        "measure", "verify", "--matrix", m_path, "--dict", dict_path,
        "--assumption-set", 1, "--query", query, "--eps", 0.3,
    )
    assert rc == 0
    assert "set 1" in capsys.readouterr().out
    # set 1 is per query: a file with a second row is refused, not truncated
    geometry.save_csv(geometry.PointCloud(np.array([[0.4, 0.8], [0.6, -0.8]]), 2), query)
    with pytest.raises(SystemExit, match="one query point"):
        run_cli(
            "measure", "verify", "--matrix", m_path, "--dict", dict_path,
            "--assumption-set", 1, "--query", query, "--eps", 0.3,
        )


def test_recover_with_certificates(tmp_path):
    cloud_path = tmp_path / "circle.csv"
    run_cli("generate", "--kind", "sphere", "--n", 256, "--d", 1, "--seed", 7, "--out", cloud_path)
    dict_path = tmp_path / "circle.mcsdict"
    run_cli("gmra", "build", "--cloud", cloud_path, "--out", dict_path, "--local-dim", 1, "--max-scale", 4)
    m_path = tmp_path / "m.mcsmtrx"
    run_cli("measure", "make", "--ensemble", "gaussian", "--m", 8, "--dim", 2, "--seed", 9, "--out", m_path)

    points = geometry.gen_sphere(25, 1, seed=31)
    pts_path = tmp_path / "points.csv"
    geometry.save_csv(points, pts_path)
    matrix = measurement.load_matrix(m_path)
    meas_path = tmp_path / "meas.csv"
    geometry.save_csv(geometry.PointCloud(matrix.apply(points.points), 8), meas_path)

    recon_path = tmp_path / "recon.csv"
    cert_path = tmp_path / "cert.csv"
    rc = run_cli(
        "recover", "--measurements", meas_path, "--matrix", m_path, "--dict", dict_path,
        "--scale", 3, "--out", recon_path, "--points", pts_path,
        "--certificates", cert_path, "--eps", 0.3, "--manifold", "sphere",
    )
    assert rc == 0
    recon = geometry.load_csv(recon_path)
    assert recon.points.shape == (25, 2)
    with open(cert_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    for row in rows:
        assert float(row["line3_lhs"]) <= float(row["line3_rhs"]) + 1e-9
        assert row["optimal_error_bound"] != ""


def test_recover_auto_scale(tmp_path):
    cloud_path = tmp_path / "c.csv"
    run_cli("generate", "--kind", "sphere", "--n", 200, "--d", 1, "--seed", 5, "--out", cloud_path)
    dict_path = tmp_path / "c.mcsdict"
    run_cli("gmra", "build", "--cloud", cloud_path, "--out", dict_path, "--local-dim", 1, "--max-scale", 3)
    m_path = tmp_path / "m.mcsmtrx"
    run_cli("measure", "make", "--ensemble", "haar-orthoprojection", "--m", 2, "--dim", 2, "--seed", 3, "--out", m_path)
    matrix = measurement.load_matrix(m_path)
    probes = geometry.gen_sphere(10, 1, seed=41)
    meas_path = tmp_path / "meas.csv"
    geometry.save_csv(geometry.PointCloud(matrix.apply(probes.points), 2), meas_path)
    out_path = tmp_path / "recon.csv"
    assert (
        run_cli("recover", "--measurements", meas_path, "--matrix", m_path, "--dict", dict_path,
                "--scale", "auto", "--out", out_path)
        == 0
    )
    recon = geometry.load_csv(out_path)
    # on-circle probes recovered near the circle
    assert np.abs(np.linalg.norm(recon.points, axis=1) - 1.0).max() < 0.2


def test_bounds_table(capsys):
    rc = run_cli(
        "bounds", "--d", 2, "--v", 10.0, "--reach", 1.0, "--ambient-dim", 100,
        "--eps", "0.5", "--scales", "5", "--deltas", "0.1,0.2", "--c1", 1.0,
    )
    assert rc == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(out.splitlines()))
    header = rows[0]
    assert header[0] == "quantity"
    by_kind = {}
    for row in rows[1:]:
        by_kind.setdefault(row[0], []).append(row)
    m_non = by_kind["m_nonuniform"][0]
    assert int(m_non[header.index("value")]) == 61
    m_uni = by_kind["m_uniform"][0]
    assert int(m_uni[header.index("value")]) == 92
    assert len(by_kind["center_count_bound"]) == 6  # scales 0..5
    assert len(by_kind["cover_bound"]) == 2


def test_bounds_table_golden(capsys):
    rc = run_cli(
        "bounds", "--d", 2, "--v", 10.0, "--reach", 1.0, "--ambient-dim", 100,
        "--eps", "0.5", "--scales", "2", "--deltas", "0.1,0.2",
    )
    assert rc == 0
    assert capsys.readouterr().out == (
        "quantity,d,D,V,reach,eps,J,C1,delta,j,constant,value\n"
        "m_nonuniform,2,100,10.0,1.0,0.5,2,1.0,,,1.0,37\n"
        "m_uniform,2,100,10.0,1.0,0.5,2,1.0,,,1.0,68\n"
        "center_count_bound,2,100,10.0,1.0,0.5,2,1.0,,0,1.0,320\n"
        "center_count_bound,2,100,10.0,1.0,0.5,2,1.0,,1,1.0,1280\n"
        "center_count_bound,2,100,10.0,1.0,0.5,2,1.0,,2,1.0,5120\n"
        "cover_bound,2,100,10.0,1.0,,,1.0,0.1,,1.0,1999.9999999999995\n"
        "cover_bound,2,100,10.0,1.0,,,1.0,0.2,,1.0,499.99999999999989\n"
    )


def test_experiment_run_and_plot(tmp_path, capsys):
    config = {
        "dataset": {"generator": "swiss-roll", "n": 300, "seed": 2},
        "noise_sigmas": [0.0],
        "oversampling": [2],
        "num_draws": 1,
        "seed": 9,
        "scales": [0, 1, 2],
        "output_dir": str(tmp_path / "exp"),
        "local_dim": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("experiment", "run", "--config", cfg_path) == 0
    results = tmp_path / "exp" / "results.csv"
    assert results.exists()
    with open(results) as fh:
        draws = {row["draw"] for row in csv.DictReader(fh)}
    assert draws == {"0"}
    plot_dir = tmp_path / "replot"  # created by the plot command itself
    assert run_cli("experiment", "plot", "--results", results, "--out", plot_dir) == 0
    assert (plot_dir / "relmse_sigma_0.svg").read_bytes() == (tmp_path / "exp" / "relmse_sigma_0.svg").read_bytes()

    # a results file without the config.json beside it is refused with a message
    lone = tmp_path / "lone"
    lone.mkdir()
    (lone / "results.csv").write_bytes(results.read_bytes())
    with pytest.raises(SystemExit, match="config.json"):
        run_cli("experiment", "plot", "--results", lone / "results.csv", "--out", plot_dir)


def test_experiment_commands_refuse_a_config_with_removed_keys(tmp_path):
    # a config.json written when max_scale and sep_constant_hint were config fields
    exp = tmp_path / "exp"
    exp.mkdir()
    config = {"dataset": {"generator": "swiss-roll", "n": 200}, "scales": [0], "max_scale": None,
              "sep_constant_hint": 1.0, "output_dir": str(tmp_path / "out")}
    (exp / "config.json").write_text(json.dumps(config))
    (exp / "results.csv").write_text("dataset,sigma,j,f,draw,relMSE,relMSE_J,d_j,m,max_sq_rel_err,status\n")
    with pytest.raises(ValueError, match="unknown key 'max_scale'"):
        run_cli("experiment", "run", "--config", exp / "config.json")
    with pytest.raises(ValueError, match="unknown key 'max_scale'"):
        run_cli("experiment", "plot", "--results", exp / "results.csv", "--out", tmp_path / "plots")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp"]


def test_removed_options_are_refused(tmp_path, capsys):
    for argv in (
        ["experiment", "run", "--config", tmp_path / "c.json", "--seed", 1],
        ["experiment", "run", "--config", tmp_path / "c.json", "--experiment-scales", "0,1"],
        ["measure", "make", "--ensemble", "gaussian", "--m", 2, "--dim", 3, "--eps", 0.3, "--out", tmp_path / "M"],
        ["gmra", "build", "--cloud", tmp_path / "c.csv", "--out", tmp_path / "d", "--sep-hint", 0.5],
    ):
        with pytest.raises(SystemExit):
            run_cli(*argv)
        assert "unrecognized arguments" in capsys.readouterr().err


def test_experiment_run_verbose_logs_to_stderr(tmp_path):
    config = {
        "dataset": {"generator": "swiss-roll", "n": 200, "seed": 2},
        "oversampling": [2],
        "num_draws": 1,
        "scales": [0],
        "output_dir": str(tmp_path / "exp"),
        "local_dim": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(manifold_cs.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "manifold_cs.cli", "experiment", "run", "--config", str(cfg_path), "--verbose"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stderr.splitlines() == [
        "[manifold_cs.harness] sigma=0: building dictionary (n=200)",
        "[manifold_cs.harness] sigma=0 scale=0 done",
    ]
    assert done.stdout.startswith("results: ")
