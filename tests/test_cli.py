import csv
import errno
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import manifold_cs
from manifold_cs import cli, geometry, gmra, harness, measurement


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
    with pytest.raises(SystemExit, match=r"^--probes must be shaped \(n, 2\) with n >= 2, got \(1, 2\)$"):
        run_cli("measure", "verify", "--matrix", m_path, "--probes", probes)
    geometry.save_csv(geometry.gen_sphere(5, 2, seed=6), probes)
    with pytest.raises(SystemExit, match=r"^--probes must be shaped \(n, 2\) with n >= 2, got \(5, 3\)$"):
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


@pytest.mark.parametrize("extra", [
    ["--eps", "0.7"],
    ["--d", "0"],
    ["--v", "0"],
    ["--scales", "-1"],
    ["--reach", "1", "--deltas", "2"],
    ["--reach", "1", "--ambient-dim", "0"],
    ["--deltas", "0.1"],
])
def test_bounds_refuses_a_bad_value_in_one_line_before_any_output(capsys, extra):
    argv = {"--d": "2", "--v": "1"}
    argv.update(zip(extra[::2], extra[1::2]))
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", *[tok for pair in argv.items() for tok in pair])
    message = exc.value.code
    # the message names the flag whose value is refused: the last one given, or --reach, which a cover row needs
    flag = "--reach" if extra[-2] == "--deltas" and "--reach" not in extra else extra[-2]
    assert isinstance(message, str) and "\n" not in message and message.startswith(flag + " must be ")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extra, quantity", [
    (["--constant", "1e308"], "m_nonuniform"),
    (["--scales", "600"], "center_count_bound at j=510"),  # 2^(2 (j + 1.5)) times 4 is 2^1025 there
    (["--reach", "5e-324", "--ambient-dim", "3"], "m_uniform"),  # eps * reach rounds to 0
])
def test_bounds_past_float64_end_in_one_line_before_any_output(capsys, extra, quantity):
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--d", "2", "--v", "1", *extra)
    assert exc.value.code == "bounds: %s is not a finite float64 at these parameters" % quantity
    assert capsys.readouterr().out == ""


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

    # so is a damaged row, with the file and the line named
    damaged = tmp_path / "damaged"
    damaged.mkdir()
    (damaged / "config.json").write_bytes((tmp_path / "exp" / "config.json").read_bytes())
    (damaged / "results.csv").write_text(results.read_text() + "swiss-roll,0,1,2,0,abc,0.1,2,4,0.2\n")
    cause = "experiment plot: %s: results row at line 5: could not convert string to float: 'abc'"
    with pytest.raises(SystemExit, match=re.escape(cause % (damaged / "results.csv"))):
        run_cli("experiment", "plot", "--results", damaged / "results.csv", "--out", plot_dir)


def test_experiment_plot_names_the_missing_file(tmp_path, monkeypatch):
    # a missing results file is named as given, even with no config.json beside it
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="^missing.csv: No such file or directory$"):
        run_cli("experiment", "plot", "--results", "missing.csv", "--out", "plots")
    # a results file without its config.json: the config is named by its full path
    (tmp_path / "exp").mkdir()
    (tmp_path / "exp" / "results.csv").write_text("dataset,sigma,j,f,draw,relMSE,relMSE_J,d_j,m,max_sq_rel_err\n")
    cause = re.escape("%s: No such file or directory" % (tmp_path / "exp" / "config.json"))
    with pytest.raises(SystemExit, match="^%s$" % cause):
        run_cli("experiment", "plot", "--results", os.path.join("exp", "results.csv"), "--out", "plots")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp"]


def test_experiment_commands_refuse_a_config_with_removed_keys(tmp_path):
    # a config.json written when max_scale and sep_constant_hint were config fields
    exp = tmp_path / "exp"
    exp.mkdir()
    config = {"dataset": {"generator": "swiss-roll", "n": 200}, "scales": [0], "max_scale": None,
              "sep_constant_hint": 1.0, "output_dir": str(tmp_path / "out")}
    (exp / "config.json").write_text(json.dumps(config))
    (exp / "results.csv").write_text("dataset,sigma,j,f,draw,relMSE,relMSE_J,d_j,m,max_sq_rel_err,status\n")
    cause = re.escape("%s: unknown key 'max_scale'" % (exp / "config.json"))
    with pytest.raises(SystemExit, match="^experiment run: " + cause):
        run_cli("experiment", "run", "--config", exp / "config.json")
    with pytest.raises(SystemExit, match="^experiment plot: " + cause):
        run_cli("experiment", "plot", "--results", exp / "results.csv", "--out", tmp_path / "plots")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp"]


def test_unreadable_input_files_end_the_command_in_one_line_naming_the_file(tmp_path):
    bad_csv = tmp_path / "cloud.csv"
    bad_csv.write_bytes(b"1,2,3\n\xff\xfe,1,2\n")
    with pytest.raises(SystemExit, match="^%s: row 2 is not UTF-8 text$" % re.escape(str(bad_csv))):
        run_cli("gmra", "build", "--cloud", bad_csv, "--out", tmp_path / "d")
    with pytest.raises(SystemExit, match="^%s: " % re.escape(str(tmp_path / "none.csv"))):
        run_cli("gmra", "build", "--cloud", tmp_path / "none.csv", "--out", tmp_path / "d")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"dataset": {"csv": str(bad_csv)}, "oversampling": [2], "num_draws": 1,
                                  "scales": [0], "output_dir": str(tmp_path / "exp"), "local_dim": 2}))
    with pytest.raises(SystemExit, match="^%s: row 2 is not UTF-8 text$" % re.escape(str(bad_csv))):
        run_cli("experiment", "run", "--config", config)
    m_path = tmp_path / "m.mcsmtrx"
    run_cli("measure", "make", "--ensemble", "gaussian", "--m", 2, "--dim", 3, "--seed", 1, "--out", m_path)
    truncated = tmp_path / "cut.mcsmtrx"
    truncated.write_bytes(m_path.read_bytes()[:10])
    with pytest.raises(SystemExit, match="^%s: truncated file" % re.escape(str(truncated))):
        run_cli("recover", "--measurements", tmp_path / "y.csv", "--matrix", truncated, "--dict", tmp_path / "d",
                "--out", tmp_path / "x.csv")


@pytest.fixture(scope="module")
def chain_dir(tmp_path_factory):
    """A directory holding the CLI chain's inputs: train.csv, roll.dict, M.mtx (8 x 3), M4.mtx (2 x 4), meas.csv,
    the same roll padded into R^4: train4.csv, roll4.dict, meas4.csv (through M4.mtx), origin.csv, as many
    points of R^3 as meas.csv has rows, all at the origin, one.csv, a single point of R^3, nodim.json, an experiment
    config that sets neither local_dim nor max_local_dim, and seven configs that set local_dim 2: two.json, of a
    2-point swiss roll, negseed.json and fracseed.json, of seeds -1 and 1.5, dataseed.json, of dataset seed -2,
    fracn.json, of a 1.5-point roll, negscale.json, of scales 0 and -1, and bigsigma.json, of noise level 1e300."""
    d = tmp_path_factory.mktemp("chain")
    for suffix, extra in (("", []), ("4", ["--ambient-dim", 4])):
        run_cli("generate", "--kind", "swiss-roll", "--n", 200, "--seed", 1, *extra, "--out", d / f"train{suffix}.csv")
        run_cli("gmra", "build", "--cloud", d / f"train{suffix}.csv", "--out", d / f"roll{suffix}.dict",
                "--local-dim", 2, "--max-scale", 3)
    run_cli("measure", "make", "--ensemble", "gaussian", "--m", 8, "--dim", 3, "--out", d / "M.mtx")
    run_cli("measure", "make", "--ensemble", "gaussian", "--m", 2, "--dim", 4, "--out", d / "M4.mtx")
    for suffix, m in (("", 8), ("4", 2)):
        matrix = measurement.load_matrix(d / f"M{suffix}.mtx")
        measured = matrix.apply(geometry.load_csv(d / f"train{suffix}.csv").points)
        geometry.save_csv(geometry.PointCloud(measured, m), d / f"meas{suffix}.csv")
    geometry.save_csv(geometry.PointCloud(np.zeros((200, 3)), 3), d / "origin.csv")
    config = {"dataset": {"generator": "swiss-roll", "n": 200}, "scales": [0], "output_dir": "out"}
    (d / "nodim.json").write_text(json.dumps(config))
    geometry.save_csv(geometry.PointCloud(np.ones((1, 3)), 3), d / "one.csv")
    config["local_dim"] = 2
    for name, change in (("two", {"dataset": {"generator": "swiss-roll", "n": 2}}), ("negseed", {"seed": -1}),
                         ("fracseed", {"seed": 1.5}), ("dataseed", {"dataset": {"generator": "swiss-roll", "n": 200,
                                                                               "seed": -2}}),
                         ("fracn", {"dataset": {"generator": "swiss-roll", "n": 1.5}}), ("negscale", {"scales": [0, -1]}),
                         ("bigsigma", {"noise_sigmas": [1e300]})):
        (d / f"{name}.json").write_text(json.dumps(config | change))
    return d


RECOVER = ["recover", "--measurements", "meas.csv", "--matrix", "M.mtx", "--dict", "roll.dict", "--out", "out.csv"]


@pytest.mark.parametrize("argv, flag", [
    (RECOVER + ["--scale", "abc"], "--scale"),
    (RECOVER + ["--scale", "99"], "--scale"),
    (RECOVER + ["--scale", "-1"], "--scale"),
    (RECOVER + ["--eps", "0.7", "--points", "train.csv", "--certificates", "cert.csv"], "--eps"),
    (RECOVER + ["--points", "train.csv"], "--certificates"),
    (["recover", "--measurements", "meas.csv", "--matrix", "M4.mtx", "--dict", "roll.dict", "--out", "out.csv"],
     "--matrix"),
    (["generate", "--kind", "swiss-roll", "--n", "0", "--out", "out.csv"], "--n"),
    (["generate", "--kind", "sphere", "--n", "5", "--d", "0", "--out", "out.csv"], "--d"),
    (["generate", "--kind", "swiss-roll", "--n", "5", "--sigma", "-1", "--out", "out.csv"], "--sigma"),
    (["measure", "make", "--ensemble", "gaussian", "--m", "0", "--dim", "3", "--out", "out.mtx"], "--m"),
    (["measure", "make", "--ensemble", "haar-orthoprojection", "--m", "5", "--dim", "3", "--out", "out.mtx"], "--m"),
    (["gmra", "build", "--cloud", "train.csv", "--out", "out.dict", "--local-dim", "2", "--max-scale", "-1"],
     "--max-scale"),
    (["gmra", "build", "--cloud", "train.csv", "--out", "out.dict", "--local-dim", "0"], "--local-dim"),
    (["gmra", "build", "--cloud", "train.csv", "--out", "out.dict"], "--max-local-dim"),
    (["measure", "verify", "--matrix", "M.mtx", "--dict", "roll.dict", "--assumption-set", "2", "--cloud", "train.csv",
      "--eps", "0.7"], "--eps"),
    (["bounds", "--d", "2", "--v", "1", "--eps", "abc"], "--eps"),
    (["bounds", "--d", "2", "--v", "1", "--eps", "", "--reach", "1", "--deltas", "0.1"], "--eps"),
    (["bounds", "--d", "2", "--v", "1", "--scales", ","], "--scales"),
    # an input whose width is not the dictionary's: meas.csv has 8 columns, roll4.dict lives in R^4
    (RECOVER + ["--points", "meas.csv", "--certificates", "cert.csv"], "--points"),
    (RECOVER + ["--points", "train.csv", "--certificates", "cert.csv", "--manifold", "meas.csv"], "--manifold"),
    (["recover", "--measurements", "meas4.csv", "--matrix", "M4.mtx", "--dict", "roll4.dict", "--out", "out.csv",
      "--points", "train4.csv", "--certificates", "cert.csv", "--manifold", "swiss-roll"], "--manifold"),
    (["gmra", "validate", "--dict", "roll.dict", "--cloud", "train4.csv"], "--cloud"),
    (["measure", "verify", "--matrix", "M.mtx", "--dict", "roll.dict", "--assumption-set", "1", "--query", "train4.csv"],
     "--query"),
    (["measure", "verify", "--matrix", "M.mtx", "--dict", "roll.dict", "--assumption-set", "2", "--cloud", "train4.csv"],
     "--cloud"),
    (["measure", "verify", "--matrix", "M.mtx", "--dict", "roll4.dict", "--assumption-set", "2", "--cloud", "train.csv"],
     "--dict"),
    (["gmra", "build", "--cloud", "train.csv", "--out", "out.dict", "--max-local-dim", "0"], "--max-local-dim"),
    (["gmra", "build", "--cloud", "train.csv", "--out", "out.dict", "--max-local-dim", "-1"], "--max-local-dim"),
    (["gmra", "build", "--cloud", "train.csv", "--out", "out.dict", "--max-local-dim", "2", "--energy", "1.5"],
     "--energy"),
    (["gmra", "build", "--cloud", "train.csv", "--out", "out.dict", "--max-local-dim", "2", "--energy", "0"],
     "--energy"),
    (RECOVER + ["--points", "origin.csv", "--certificates", "cert.csv", "--manifold", "sphere"], "--manifold"),
    (["experiment", "run", "--config", "nodim.json"], "nodim.json: max_local_dim must be an integer >= 1 when local_dim"),
    (["gmra", "build", "--cloud", "one.csv", "--out", "out.dict", "--local-dim", "2"],
     "--cloud one.csv: cloud has 1 points, need at least 3"),
    (["experiment", "run", "--config", "two.json"], "two.json: cloud has 2 points, need at least 3"),
    (["generate", "--kind", "swiss-roll", "--n", "5", "--seed", "-1", "--out", "out.csv"], "--seed"),
    (["generate", "--kind", "swiss-roll", "--n", "5", "--sigma", "0.1", "--noise-seed", "-3", "--out", "out.csv"],
     "--noise-seed"),
    (["measure", "make", "--ensemble", "gaussian", "--m", "2", "--dim", "3", "--seed", "-1", "--out", "out.mtx"],
     "--seed"),
    (["experiment", "run", "--config", "negseed.json"], "negseed.json: seed must be an integer >= 0, got -1"),
    (["experiment", "run", "--config", "fracseed.json"], "fracseed.json: seed must be an integer >= 0, got 1.5"),
    (["experiment", "run", "--config", "dataseed.json"], "dataseed.json: dataset seed must be an integer >= 0, got -2"),
    # non-finite and fractional values, refused by the library call that takes them and reported by flag or key
    (["generate", "--kind", "swiss-roll", "--n", "5", "--sigma", "inf", "--out", "out.csv"], "--sigma"),
    (["bounds", "--d", "2", "--v", "1", "--constant", "inf"], "--constant"),
    (["bounds", "--d", "2", "--v", "1", "--c1", "nan"], "--c1"),
    (["bounds", "--d", "2", "--v", "nan"], "--v"),
    (["gmra", "build", "--cloud", "train.csv", "--out", "out.dict", "--local-dim", "2", "--max-scale", "1024"],
     "--max-scale"),
    (RECOVER + ["--scale", "1.5"], "--scale"),
    (["experiment", "run", "--config", "fracn.json"], "fracn.json: dataset n must be an integer >= 1, got 1.5"),
    (["experiment", "run", "--config", "negscale.json"], "negscale.json: scales must be an integer in [0, 0], got -1"),
    # refused after every input is read but before the first write or report line
    (RECOVER + ["--eps", "nan", "--points", "train.csv", "--certificates", "cert.csv"], "--eps"),
    (["measure", "verify", "--matrix", "M.mtx", "--probes", "train.csv", "--dict", "roll.dict", "--assumption-set", "2",
      "--cloud", "train.csv", "--eps", "0.7"], "--eps"),
    # arrays of the wrong shape, refused by the library call that takes them and reported by flag
    (["recover", "--measurements", "train.csv", "--matrix", "M.mtx", "--dict", "roll.dict", "--out", "out.csv"],
     "--measurements must be shaped (n, 8), got (200, 3)"),
    (RECOVER + ["--points", "one.csv", "--certificates", "cert.csv"], "--points must be shaped (200, 3), got (1, 3)"),
    (["measure", "verify", "--matrix", "M.mtx", "--probes", "one.csv"], "--probes"),
    # a noise level whose noisy cloud is past float64's squared distances
    (["generate", "--kind", "swiss-roll", "--n", "5", "--sigma", "1e300", "--out", "out.csv"], "--sigma"),
    (["experiment", "run", "--config", "bigsigma.json"], "bigsigma.json: noise_sigmas must be small enough"),
    # an input an assumption set needs, refused by the library by the name of the flag that gives it
    (["measure", "verify", "--matrix", "M.mtx", "--dict", "roll.dict", "--assumption-set", "1"],
     "--query must be a query point"),
    (["measure", "verify", "--matrix", "M.mtx", "--dict", "roll.dict", "--assumption-set", "2"],
     "--cloud must be a PointCloud"),
    # padding below the generator's dimension, refused by require_integer with that dimension as its floor
    (["generate", "--kind", "swiss-roll", "--n", "5", "--ambient-dim", "2", "--out", "out.csv"],
     "--ambient-dim must be an integer >= 3, got 2"),
])
def test_bad_flags_end_the_command_in_one_line_before_any_output(chain_dir, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(chain_dir)
    before = sorted(os.listdir(chain_dir))
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    message = exc.value.code
    assert isinstance(message, str) and flag in message and "\n" not in message
    assert sorted(os.listdir(chain_dir)) == before
    assert capsys.readouterr().out == ""


def test_removed_options_are_refused(tmp_path, capsys):
    for argv in (
        ["experiment", "run", "--config", tmp_path / "c.json", "--seed", 1],
        ["experiment", "run", "--config", tmp_path / "c.json", "--experiment-scales", "0,1"],
        ["measure", "make", "--ensemble", "gaussian", "--m", 2, "--dim", 3, "--eps", 0.3, "--out", tmp_path / "M"],
        ["gmra", "build", "--cloud", tmp_path / "c.csv", "--out", tmp_path / "d", "--sep-hint", 0.5],
        ["recover", "--measurements", tmp_path / "y.csv", "--matrix", tmp_path / "M", "--dict", tmp_path / "d",
         "--out", tmp_path / "x.csv", "--tube-delta", 0.1],
        ["recover", "--measurements", tmp_path / "y.csv", "--matrix", tmp_path / "M", "--dict", tmp_path / "d",
         "--out", tmp_path / "x.csv", "--intrinsic-dim", 2],
    ):
        with pytest.raises(SystemExit):
            run_cli(*argv)
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("change, cause", [
    ({"dataset": {"generator": "sphere", "n": 50}}, "dataset d must be an integer >= 1, got None"),
    ({"dataset": {"generator": "swiss-roll"}}, "dataset n must be an integer >= 1, got None"),
    ({"dataset": "roll.csv"}, "dataset must be an object: {\"generator\": ...} or {\"csv\": path}, got 'roll.csv'"),
    ({"dataset": {"generator": "torus", "n": 50}},
     "dataset generator must be one of 'swiss-roll', 'sphere', got 'torus'"),
    ({"dataset": {"n": 50}}, "dataset generator must be one of 'swiss-roll', 'sphere', got None"),
    # 7 would be opened as a file descriptor (and 0 would read standard input)
    ({"dataset": {"csv": 7}}, "dataset csv must be a file path string, got 7"),
    ({"ensemble": "fourier"}, "ensemble must be one of 'gaussian', 'haar-orthoprojection', got 'fourier'"),
    # 7 would reach os.makedirs only after every build and recovery
    ({"output_dir": 7}, "output_dir must be a directory path string, got 7"),
])
def test_experiment_run_refuses_a_hostile_config_in_one_line_before_any_output(tmp_path, capsys, change, cause):
    config = {"dataset": {"generator": "swiss-roll", "n": 200}, "scales": [0], "output_dir": str(tmp_path / "out"),
              "local_dim": 2, "num_draws": 1} | change
    (tmp_path / "config.json").write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run_cli("experiment", "run", "--config", tmp_path / "config.json")
    assert exc.value.code == "experiment run: %s: %s" % (tmp_path / "config.json", cause)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
    assert capsys.readouterr().out == ""


def test_experiment_run_refuses_a_dataset_point_at_the_origin_in_one_line_before_any_output(tmp_path, capsys):
    points = geometry.gen_swiss_roll(200, seed=0).points.copy()
    points[5] = 0.0  # its relative error is undefined; the build takes it
    geometry.save_csv(geometry.PointCloud(points, 3), tmp_path / "roll.csv")
    config = {"dataset": {"csv": str(tmp_path / "roll.csv")}, "scales": [0], "output_dir": str(tmp_path / "out"),
              "local_dim": 2, "num_draws": 1}
    (tmp_path / "config.json").write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        run_cli("experiment", "run", "--config", tmp_path / "config.json")
    cause = "dataset must be of nonzero norm (relative error divides by it) at point 5, got 0.0"
    assert exc.value.code == "experiment run: %s: %s" % (tmp_path / "config.json", cause)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "roll.csv"]
    assert capsys.readouterr().out == ""


BLOCKED = "train.csv/x"  # a path under a regular file of chain_dir, which no command can create or open
NOT_A_DIR, IS_A_DIR = os.strerror(errno.ENOTDIR), os.strerror(errno.EISDIR)


@pytest.mark.parametrize("argv, path, reason", [
    # an output that cannot be written
    (["generate", "--kind", "swiss-roll", "--n", "20", "--out", BLOCKED], BLOCKED, NOT_A_DIR),
    (["gmra", "build", "--cloud", "train.csv", "--out", BLOCKED, "--local-dim", "2", "--max-scale", "1"], BLOCKED,
     NOT_A_DIR),
    (["measure", "make", "--ensemble", "gaussian", "--m", "2", "--dim", "3", "--out", BLOCKED], BLOCKED, NOT_A_DIR),
    (RECOVER[:-1] + [BLOCKED], BLOCKED, NOT_A_DIR),
    # its --out, in the chain's directory, is not written either
    (RECOVER[:-1] + ["rec.csv", "--points", "train.csv", "--certificates", BLOCKED], BLOCKED, NOT_A_DIR),
    (["experiment", "plot", "--results", "{tmp}/exp/results.csv", "--out", BLOCKED], BLOCKED, NOT_A_DIR),
    (["experiment", "run", "--config", "{tmp}/blocked.json"], BLOCKED, NOT_A_DIR),  # its output_dir
    # an input that is a directory
    (["gmra", "build", "--cloud", "{tmp}", "--out", "{tmp}/d.dict", "--local-dim", "2"], "{tmp}", IS_A_DIR),
    (["gmra", "validate", "--dict", "{tmp}", "--cloud", "train.csv"], "{tmp}", IS_A_DIR),
    (["measure", "verify", "--matrix", "{tmp}", "--probes", "train.csv"], "{tmp}", IS_A_DIR),
    (["recover", "--measurements", "{tmp}", "--matrix", "M.mtx", "--dict", "roll.dict", "--out", "{tmp}/out.csv"],
     "{tmp}", IS_A_DIR),
    (["experiment", "run", "--config", "{tmp}"], "{tmp}", IS_A_DIR),
    (["experiment", "plot", "--results", "{tmp}", "--out", "{tmp}/plots"], "{tmp}", IS_A_DIR),
], ids=["generate --out", "gmra build --out", "measure make --out", "recover --out", "recover --certificates",
        "experiment plot --out", "experiment run output_dir", "gmra build --cloud", "gmra validate --dict",
        "measure verify --matrix", "recover --measurements", "experiment run --config", "experiment plot --results"])
def test_a_file_a_command_cannot_read_or_write_ends_it_in_one_line_naming_the_file(chain_dir, tmp_path, monkeypatch,
                                                                                     argv, path, reason):
    # a results.csv with the config.json beside it, and a config whose output_dir cannot be made
    config = {"dataset": {"generator": "swiss-roll", "n": 200}, "scales": [0], "oversampling": [2], "num_draws": 1,
              "local_dim": 2, "output_dir": BLOCKED}
    (tmp_path / "blocked.json").write_text(json.dumps(config))
    (tmp_path / "exp").mkdir()
    (tmp_path / "exp" / "config.json").write_text(json.dumps(config))
    (tmp_path / "exp" / "results.csv").write_text(",".join(harness.RESULTS_COLUMNS) + "\nroll,0,0,2,0,0.1,0.1,2,4,0.2\n")
    monkeypatch.chdir(chain_dir)
    before = sorted(os.listdir(chain_dir))
    with pytest.raises(SystemExit) as exc:
        run_cli(*[arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert exc.value.code == "%s: %s" % (path.replace("{tmp}", str(tmp_path)), reason)
    assert sorted(os.listdir(chain_dir)) == before


def test_an_os_error_of_no_file_ends_the_command_in_its_reason(monkeypatch):
    class BrokenPipe:  # standard output closed by the reader, as in `manifold-cs bounds ... | head -0`
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    with pytest.raises(SystemExit) as exc:
        run_cli("bounds", "--d", "2", "--v", "1")
    assert exc.value.code == os.strerror(errno.EPIPE)


@pytest.mark.parametrize("key", ["local_dim", "max_local_dim"])
def test_experiment_run_refuses_a_local_dimension_below_1(tmp_path, key):
    config = {"dataset": {"generator": "swiss-roll", "n": 200}, "scales": [0], "output_dir": str(tmp_path / "out"),
              key: 0}
    (tmp_path / "config.json").write_text(json.dumps(config))
    cause = re.escape("%s: %s must be an integer >= 1, got 0" % (tmp_path / "config.json", key))
    with pytest.raises(SystemExit, match="^experiment run: " + cause + "$"):
        run_cli("experiment", "run", "--config", tmp_path / "config.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_experiment_run_leaves_a_value_error_past_the_builds_to_its_traceback(tmp_path, monkeypatch):
    # only the build's too-few-points refusal becomes a one-line message about the config; a ValueError raised
    # while the figures are written, after config.json and the CSVs exist, is not the config's fault
    config = {"dataset": {"generator": "swiss-roll", "n": 200}, "scales": [0], "output_dir": str(tmp_path / "out"),
              "local_dim": 2, "num_draws": 1}
    (tmp_path / "config.json").write_text(json.dumps(config))

    def broken_plot(result, out_dir):
        raise ValueError("broken plot writer")

    monkeypatch.setattr(harness, "emit_plot", broken_plot)
    with pytest.raises(ValueError, match="^broken plot writer$"):
        run_cli("experiment", "run", "--config", tmp_path / "config.json")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["config.json", "results.csv", "timing.csv"]


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
