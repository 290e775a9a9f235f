"""Command-line interface: generate, gmra, measure, recover, bounds, experiment."""

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import geometry, gmra, harness, measurement, recovery


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    return args.func(args) or 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="manifold-cs",
        description="Multiscale manifold dictionaries, random measurements, and recovery.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="generate a synthetic point cloud as CSV")
    p.add_argument("--kind", choices=["swiss-roll", "sphere"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2, help="intrinsic dimension (sphere only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=0.0, help="noise level (0 for clean)")
    p.add_argument("--noise-seed", type=int, default=None)
    p.add_argument("--ambient-dim", type=int, default=None, help="zero-pad points up to this dimension")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    g = sub.add_parser("gmra", help="build or validate a multiscale dictionary")
    gsub = g.add_subparsers(dest="gmra_command")
    b = gsub.add_parser("build")
    b.add_argument("--cloud", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--local-dim", type=int, default=None)
    b.add_argument("--max-local-dim", type=int, default=None, help="adaptive mode cap")
    b.add_argument("--energy", type=float, default=0.95)
    b.add_argument("--max-scale", type=int, default=6)
    b.add_argument("--min-points", type=int, default=None)
    b.set_defaults(func=cmd_gmra_build)
    v = gsub.add_parser("validate")
    v.add_argument("--dict", dest="dict_path", required=True)
    v.add_argument("--cloud", required=True)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_gmra_validate)

    me = sub.add_parser("measure", help="make or verify measurement matrices")
    msub = me.add_subparsers(dest="measure_command")
    mk = msub.add_parser("make")
    mk.add_argument("--ensemble", choices=["gaussian", "haar-orthoprojection"], required=True)
    mk.add_argument("--m", type=int, required=True)
    mk.add_argument("--dim", type=int, required=True)
    mk.add_argument("--seed", type=int, default=0)
    mk.add_argument("--out", required=True)
    mk.set_defaults(func=cmd_measure_make)
    mv = msub.add_parser("verify")
    mv.add_argument("--matrix", required=True)
    mv.add_argument("--eps", type=float, default=0.3)
    mv.add_argument("--probes", help="CSV of probe vectors for the distortion check")
    mv.add_argument("--dict", dest="dict_path", help="dictionary for assumption-set checks")
    mv.add_argument("--assumption-set", type=int, choices=[1, 2])
    mv.add_argument("--query", help="CSV holding the query point x (set 1)")
    mv.add_argument("--cloud", help="CSV of manifold samples (set 2)")
    mv.set_defaults(func=cmd_measure_verify)

    r = sub.add_parser("recover", help="batch recovery from measurement rows")
    r.add_argument("--measurements", required=True, help="CSV, one m-vector per row")
    r.add_argument("--matrix", required=True)
    r.add_argument("--dict", dest="dict_path", required=True)
    r.add_argument("--scale", default="auto", help="dictionary scale j, or 'auto'")
    r.add_argument("--out", required=True, help="CSV of reconstructed points")
    r.add_argument("--points", help="CSV of the original points (enables certificates)")
    r.add_argument("--certificates", help="CSV path for per-point certificates")
    r.add_argument("--eps", type=float, default=0.3)
    r.add_argument("--tube-delta", type=float, default=0.0)
    r.add_argument("--manifold", help="sphere | swiss-roll | path to a dense-cloud CSV")
    r.add_argument("--intrinsic-dim", type=int, default=None)
    r.set_defaults(func=cmd_recover)

    bo = sub.add_parser("bounds", help="print a CSV table of the closed-form bounds")
    bo.add_argument("--d", type=int, required=True)
    bo.add_argument("--v", type=float, required=True, help="d-dimensional volume")
    bo.add_argument("--reach", type=float, default=None)
    bo.add_argument("--ambient-dim", type=int, default=None)
    bo.add_argument("--c1", type=float, default=1.0)
    bo.add_argument("--constant", type=float, default=1.0)
    bo.add_argument("--eps", default="0.3", help="comma-separated distortion grid")
    bo.add_argument("--scales", default="0", help="comma-separated J grid")
    bo.add_argument("--deltas", default="", help="comma-separated cover radii")
    bo.set_defaults(func=cmd_bounds)

    e = sub.add_parser("experiment", help="run or replot relMSE experiments")
    esub = e.add_subparsers(dest="experiment_command")
    er = esub.add_parser("run")
    er.add_argument("--config", required=True, help="JSON config file: the run's only configuration")
    er.add_argument("--verbose", action="store_true")
    er.set_defaults(func=cmd_experiment_run)
    ep = esub.add_parser("plot")
    ep.add_argument("--results", required=True, help="results.csv from a previous run")
    ep.add_argument("--out", required=True, help="output directory for SVG files")
    ep.set_defaults(func=cmd_experiment_plot)

    return parser


def cmd_generate(args):
    if args.kind == "swiss-roll":
        cloud = geometry.gen_swiss_roll(args.n, args.seed)
    else:
        cloud = geometry.gen_sphere(args.n, args.d, args.seed)
    if args.ambient_dim is not None:
        if args.ambient_dim < cloud.ambient_dim:
            raise SystemExit("--ambient-dim must be >= the generator's dimension")
        padded = np.zeros((cloud.n, args.ambient_dim))
        padded[:, : cloud.ambient_dim] = cloud.points
        cloud = geometry.PointCloud(padded, args.ambient_dim, cloud.label)
    if args.sigma > 0:
        noise_seed = args.seed if args.noise_seed is None else args.noise_seed
        cloud = geometry.add_noise(cloud, args.sigma, noise_seed)
    geometry.save_csv(cloud, args.out)
    print("wrote %d x %d cloud to %s" % (cloud.n, cloud.ambient_dim, args.out))


def cmd_gmra_build(args):
    cloud = geometry.load_csv(args.cloud)
    dictionary = gmra.build_dictionary(
        cloud,
        local_dim=args.local_dim,
        max_scale=args.max_scale,
        energy_threshold=args.energy,
        max_local_dim=args.max_local_dim,
        min_points=args.min_points,
    )
    gmra.save_dictionary(dictionary, args.out)
    print(
        "built dictionary: scales 0..%d, counts %s, sep constant %.6g"
        % (dictionary.max_scale, dictionary.counts(), dictionary.sep_constant)
    )


# the StructureReport attributes that `gmra validate --json` writes
VALIDATE_JSON_FIELDS = (
    "passed", "counts", "separation_ok", "separation_margin", "parent_margin", "orthonormal_worst", "idempotent_worst",
    "tube_j0", "mean_error_per_scale", "decay_slope", "decay_slope_ci", "monotone_refinement_ok", "ctilde_factor16",
    "ctilde_factor8", "failures",
)


def cmd_gmra_validate(args):
    dictionary = gmra.load_dictionary(args.dict_path)
    cloud = geometry.load_csv(args.cloud)
    report = gmra.validate_structure(dictionary, cloud)
    if args.json:
        payload = {name: _finite_or_null(getattr(report, name)) for name in VALIDATE_JSON_FIELDS}
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        print("counts: %s" % report.counts)
        print("separation margin: %.6g (ok=%s)" % (report.separation_margin, report.separation_ok))
        print("parent margin: %.6g" % report.parent_margin)
        print("orthonormal worst: %.3g; idempotent worst: %.3g" % (report.orthonormal_worst, report.idempotent_worst))
        print("tube scale j0: %s" % report.tube_j0)
        print("mean error per scale: %s" % ["%.4g" % e for e in report.mean_error_per_scale])
        print("decay slope: %.3f (95%% CI %.3f..%.3f)" % ((report.decay_slope,) + report.decay_slope_ci))
        print("near-center constants: 16x %.4g, 8x %.4g" % (report.ctilde_factor16, report.ctilde_factor8))
        for failure in report.failures:
            print("FAIL: %s" % failure)
        print("overall: %s" % ("PASS" if report.passed else "FAIL"))
    return 0 if report.passed else 2


def _finite_or_null(value):
    """The value with each non-finite float, also inside lists, made None (JSON null)."""
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def cmd_measure_make(args):
    if args.ensemble == "gaussian":
        matrix = measurement.gaussian_matrix(args.m, args.dim, args.seed)
    else:
        matrix = measurement.orthoprojection_matrix(args.m, args.dim, args.seed)
    measurement.save_matrix(matrix, args.out)
    print("wrote %d x %d %s matrix to %s" % (matrix.m, matrix.ambient_dim, matrix.ensemble, args.out))


def cmd_measure_verify(args):
    matrix = measurement.load_matrix(args.matrix)
    rc = 0
    did = False
    if args.probes:
        probes = geometry.load_csv(args.probes).points
        try:
            report = measurement.verify_distortion(matrix, probes, args.eps)
        except ValueError as exc:
            raise SystemExit("--probes %s: %s" % (args.probes, exc))
        print(
            "distortion: max %.6g over %d pairs (worst pair %s) -> %s"
            % (
                report.max_distortion,
                report.pairs_checked,
                report.worst_pair,
                "PASS" if report.passed else "FAIL",
            )
        )
        rc = rc or (0 if report.passed else 2)
        did = True
    if args.assumption_set:
        if not args.dict_path:
            raise SystemExit("--assumption-set needs --dict")
        dictionary = gmra.load_dictionary(args.dict_path)
        x = None
        cloud = None
        if args.assumption_set == 1:
            if not args.query:
                raise SystemExit("assumption set 1 needs --query")
            query = geometry.load_csv(args.query).points
            if len(query) != 1:
                raise SystemExit("assumption set 1 takes one query point, %s has %d rows" % (args.query, len(query)))
            x = query[0]
        else:
            if not args.cloud:
                raise SystemExit("assumption set 2 needs --cloud")
            cloud = geometry.load_csv(args.cloud)
        report = measurement.verify_assumption_set(
            matrix, dictionary, x=x, which=args.assumption_set, eps=args.eps, cloud=cloud
        )
        for item in report.items:
            print(
                "set %d item %s: margin %.6g -> %s (%s)"
                % (report.which, item.name, item.margin, "PASS" if item.passed else "FAIL", item.detail)
            )
        rc = rc or (0 if report.passed else 2)
        did = True
    if not did:
        raise SystemExit("nothing to verify: pass --probes and/or --assumption-set")
    return rc


def cmd_recover(args):
    matrix = measurement.load_matrix(args.matrix)
    dictionary = gmra.load_dictionary(args.dict_path)
    meas = geometry.load_csv(args.measurements).points
    if meas.shape[1] != matrix.m:
        raise SystemExit("measurement rows have %d entries, matrix m=%d" % (meas.shape[1], matrix.m))
    batch = recovery.recover_batch(meas, matrix, dictionary, args.scale)
    recon = batch.reconstructions
    geometry.save_csv(geometry.PointCloud(recon, recon.shape[1]), args.out)
    print("wrote %d reconstructions to %s" % (recon.shape[0], args.out))

    if args.points or args.certificates:
        if not (args.points and args.certificates):
            raise SystemExit("certificates need both --points and --certificates")
        points = geometry.load_csv(args.points).points
        if points.shape[0] != meas.shape[0]:
            raise SystemExit("points and measurements row counts differ")
        x_opt = None
        if args.manifold:
            manifold = (
                geometry.load_csv(args.manifold)
                if args.manifold not in ("sphere", "swiss-roll")
                else args.manifold
            )
            x_opt = recovery.nearest_point_oracle(points, manifold, args.intrinsic_dim)
        columns = recovery.certify_batch(
            points, matrix, dictionary, batch, args.eps, x_opt=x_opt, tube_delta=args.tube_delta
        )
        # every CertificateBundle quantity, in field order; absent ones are left empty
        names = [f.name for f in dataclasses.fields(recovery.CertificateBundle) if f.name != "epsilon_used"]
        rows = (
            dict(
                {name: column[i] for name, column in columns.items()},
                index=i,
                j=batch.chosen_scales[i],
                k_prime=batch.chosen_centers[i],
                compressed_residual=batch.residuals[i],
                ill_conditioned=int(batch.ill_conditioned[i]),
            )
            for i in range(recon.shape[0])
        )
        harness._write_table(
            args.certificates, ["index", "j", "k_prime", "compressed_residual", "ill_conditioned"] + names, rows
        )
        print("wrote certificates to %s" % args.certificates)


def _parse_grid(text, cast=float):
    return [cast(tok) for tok in text.split(",") if tok.strip() != ""]


def cmd_bounds(args):
    eps_grid = _parse_grid(args.eps)
    j_grid = _parse_grid(args.scales, cast=int)
    deltas = _parse_grid(args.deltas)
    # a quantity's row leaves the columns it does not use empty (DictWriter's restval)
    writer = csv.DictWriter(
        sys.stdout,
        ["quantity", "d", "D", "V", "reach", "eps", "J", "C1", "delta", "j", "constant", "value"],
        lineterminator="\n",
    )
    writer.writeheader()
    given = dict(d=args.d, D=args.ambient_dim, V=args.v, reach=args.reach, C1=args.c1, constant=args.constant)
    for eps in eps_grid:
        for j_max in j_grid:
            params = bounds_mod.BoundParams(
                d=args.d,
                V=args.v,
                eps=eps,
                reach=args.reach,
                D=args.ambient_dim,
                J=j_max,
                C1=args.c1,
                big_o_constant=args.constant,
            )
            grid = dict(given, eps=eps, J=j_max)
            writer.writerow(dict(grid, quantity="m_nonuniform", value=bounds_mod.m_nonuniform(params)))
            if args.ambient_dim is not None and args.reach is not None:
                writer.writerow(dict(grid, quantity="m_uniform", value=bounds_mod.m_uniform(params)))
            for j in range(j_max + 1):
                value = "%.17g" % bounds_mod.center_count_bound(params, j)
                writer.writerow(dict(grid, quantity="center_count_bound", j=j, value=value))
    if deltas:
        if args.reach is None:
            raise SystemExit("--deltas needs --reach")
        params = bounds_mod.BoundParams(
            d=args.d, V=args.v, eps=eps_grid[0], reach=args.reach, C1=args.c1, big_o_constant=args.constant
        )
        for delta in deltas:
            value = "%.17g" % bounds_mod.cover_bound(params, delta)
            writer.writerow(dict(given, quantity="cover_bound", delta=delta, value=value))


def cmd_experiment_run(args):
    config = harness.ExperimentConfig.from_json(args.config)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")  # stderr
    result = harness.run_experiment(config)
    print("results: %s" % (config.output_dir,))
    for (sigma, j, f), (mean, std) in sorted(result.aggregates.items()):
        print("sigma=%g j=%d f=%d: relMSE %.4g +- %.4g" % (sigma, j, f, mean, std))


def cmd_experiment_plot(args):
    try:
        result = harness.load_results_csv(args.results)
    except FileNotFoundError as exc:
        raise SystemExit("experiment plot: %s: %s" % (exc.strerror, exc.filename))
    paths = harness.emit_plot(result, args.out)
    for path in paths:
        print("wrote %s" % path)


if __name__ == "__main__":
    sys.exit(main())
