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
from .errors import BoundOverflowError, CsvParseError, FileFormatError, ParameterError, TooFewPointsError, require_integer

# the flag that sets each library parameter, or names the file of each library array, a command passes on
FLAGS = {"n": "--n", "d": "--d", "seed": "--seed", "sigma": "--sigma", "m": "--m", "dim": "--dim",
         "max_scale": "--max-scale", "local_dim": "--local-dim", "max_local_dim": "--max-local-dim",
         "energy_threshold": "--energy", "min_points": "--min-points", "eps": "--eps", "j": "--scale",
         "V": "--v", "reach": "--reach", "D": "--ambient-dim", "ambient_dim": "--ambient-dim", "J": "--scales",
         "C1": "--c1", "big_o_constant": "--constant", "delta": "--deltas", "measurements": "--measurements",
         "points": "--points", "manifold": "--manifold", "matrix": "--matrix", "dictionary": "--dict",
         "cloud": "--cloud", "x": "--query", "probes": "--probes"}
# the config key that sets each library parameter `experiment run` passes on, where it is not the name itself
CONFIG_KEYS = {"n": "dataset n", "d": "dataset d", "seed": "dataset seed", "generator": "dataset generator",
               "csv": "dataset csv", "points": "dataset", "sigma": "noise_sigmas", "max_scale": "scales", "j": "scales"}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        return args.func(args) or 0
    except ParameterError as exc:  # the library checks each value and shape before it writes or a command prints
        raise SystemExit(exc.renamed(FLAGS)) from None
    except BoundOverflowError as exc:  # bounds computes every row before its header
        raise SystemExit("bounds: %s" % exc) from None
    except OSError as exc:  # a file that cannot be read or written, as given; an error of no file by its reason alone
        reason = exc.strerror or str(exc)
        raise SystemExit(reason if exc.filename is None else "%s: %s" % (exc.filename, reason)) from None
    except (CsvParseError, FileFormatError) as exc:  # a damaged file: each loader's message names it first
        raise SystemExit(str(exc)) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="manifold-cs",
        description="Multiscale manifold dictionaries, random measurements, and recovery.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="generate a synthetic point cloud as CSV")
    p.add_argument("--kind", choices=harness._GENERATORS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2, help="intrinsic dimension, for a generator that takes one")
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
    mk.add_argument("--ensemble", choices=measurement.ENSEMBLES, required=True)
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
    r.add_argument("--manifold", help=" | ".join(recovery.MANIFOLDS + ("path to a dense-cloud CSV",)))
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


def _require(ok, flag, value, need):
    """End the command in one line naming the flag unless ok: for flag combinations, lists and row counts."""
    if not ok:
        raise SystemExit("%s must be %s, got %s" % (flag, need, value))


def cmd_generate(args):
    cloud = harness.load_dataset({"generator": args.kind, "n": args.n, "d": args.d, "seed": args.seed})
    if args.ambient_dim is not None:
        dim = require_integer("ambient_dim", args.ambient_dim, cloud.ambient_dim)
        padded = np.zeros((cloud.n, dim))
        padded[:, : cloud.ambient_dim] = cloud.points
        cloud = geometry.PointCloud(padded, dim, cloud.label)
    try:
        cloud = geometry.add_noise(cloud, args.sigma, args.seed if args.noise_seed is None else args.noise_seed)
    except ParameterError as exc:  # the generator has taken --seed, so a seed refused here is --noise-seed
        raise SystemExit(exc.renamed(FLAGS | {"seed": "--noise-seed"})) from None
    geometry.save_csv(cloud, args.out)
    print("wrote %d x %d cloud to %s" % (cloud.n, cloud.ambient_dim, args.out))


def cmd_gmra_build(args):
    cloud = geometry.load_csv(args.cloud)
    try:
        dictionary = gmra.build_dictionary(
            cloud,
            local_dim=args.local_dim,
            max_scale=args.max_scale,
            energy_threshold=args.energy,
            max_local_dim=args.max_local_dim,
            min_points=args.min_points,
        )
    except TooFewPointsError as exc:
        raise SystemExit("--cloud %s: %s" % (args.cloud, exc))
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
    matrix = measurement.draw_matrix(args.ensemble, args.m, args.dim, args.seed)
    measurement.save_matrix(matrix, args.out)
    print("wrote %d x %d %s matrix to %s" % (matrix.m, matrix.ambient_dim, matrix.ensemble, args.out))


def cmd_measure_verify(args):
    matrix = measurement.load_matrix(args.matrix)
    if not (args.probes or args.assumption_set):
        raise SystemExit("nothing to verify: pass --probes and/or --assumption-set")
    # every input is read and checked before the first report line
    probes = geometry.load_csv(args.probes).points if args.probes else None
    if args.assumption_set:
        if not args.dict_path:
            raise SystemExit("--assumption-set needs --dict")
        dictionary = gmra.load_dictionary(args.dict_path)
        # a set's missing input is refused by verify_assumption_set, by the name FLAGS maps to its flag
        x = cloud = None
        if args.assumption_set == 1 and args.query:
            query = geometry.load_csv(args.query).points
            _require(len(query) == 1, "--query", "%s with %d rows" % (args.query, len(query)),
                     "one query point for assumption set 1")
            x = query[0]
        if args.assumption_set == 2 and args.cloud:
            cloud = geometry.load_csv(args.cloud)
    # both checks run before the first report line, so a value either refuses ends the command with no output
    distortion = assumptions = None
    if probes is not None:
        distortion = measurement.verify_distortion(matrix, probes, args.eps)
    if args.assumption_set:
        assumptions = measurement.verify_assumption_set(
            matrix, dictionary, x=x, which=args.assumption_set, eps=args.eps, cloud=cloud
        )
    if distortion is not None:
        print("distortion: max %.6g over %d pairs (worst pair %s) -> %s" % (
            distortion.max_distortion, distortion.pairs_checked, distortion.worst_pair,
            "PASS" if distortion.passed else "FAIL"))
    for item in assumptions.items if assumptions is not None else ():
        print("set %d item %s: margin %.6g -> %s (%s)"
              % (assumptions.which, item.name, item.margin, "PASS" if item.passed else "FAIL", item.detail))
    return 0 if all(report.passed for report in (distortion, assumptions) if report is not None) else 2


def cmd_recover(args):
    matrix = measurement.load_matrix(args.matrix)
    dictionary = gmra.load_dictionary(args.dict_path)
    try:
        scale = int(args.scale)
    except ValueError:  # "auto", or a scale recover_batch refuses
        scale = args.scale
    certify = bool(args.points or args.certificates)
    if certify and not (args.points and args.certificates):
        raise SystemExit("certificates need both --points and --certificates")
    meas = geometry.load_csv(args.measurements).points
    if certify:
        points = geometry.load_csv(args.points).points
        manifold = args.manifold
        if manifold and manifold not in recovery.MANIFOLDS:
            manifold = geometry.load_csv(manifold)
        x_opt = recovery.nearest_point_oracle(points, manifold) if manifold else None
    # the library refuses a matrix, measurements, points or manifold of another shape before the first write
    batch = recovery.recover_batch(meas, matrix, dictionary, scale)
    # the certificates come before the first write, so a refused --eps leaves no file
    columns = recovery.certify_batch(points, matrix, dictionary, batch, args.eps, x_opt=x_opt) if certify else None
    recon = batch.reconstructions
    geometry.save_csv(geometry.PointCloud(recon, recon.shape[1]), args.out)
    print("wrote %d reconstructions to %s" % (recon.shape[0], args.out))

    if certify:
        # every CertificateBundle quantity, in field order; absent ones are left empty
        n = recon.shape[0]
        table = dict(index=range(n), j=batch.chosen_scales, k_prime=batch.chosen_centers,
                     compressed_residual=batch.residuals, ill_conditioned=batch.ill_conditioned.astype(int))
        names = [f.name for f in dataclasses.fields(recovery.CertificateBundle) if f.name != "epsilon_used"]
        harness._write_table(args.certificates, table | {name: columns.get(name, [None] * n) for name in names})
        print("wrote certificates to %s" % args.certificates)


def _parse_grid(flag, text, cast=float):
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise SystemExit("%s must be a comma-separated list of %ss, got %r" % (flag, cast.__name__, text)) from None


def cmd_bounds(args):
    eps_grid = _parse_grid("--eps", args.eps)
    j_grid = _parse_grid("--scales", args.scales, cast=int)
    deltas = _parse_grid("--deltas", args.deltas)
    _require(eps_grid, "--eps", repr(args.eps), "a nonempty list")
    _require(j_grid, "--scales", repr(args.scales), "a nonempty list")
    given = dict(d=args.d, D=args.ambient_dim, V=args.v, reach=args.reach, C1=args.c1, constant=args.constant)
    shared = dict(d=args.d, V=args.v, reach=args.reach, C1=args.c1, big_o_constant=args.constant)
    # every row is built before the header is written, so a refused value ends the command with no output
    rows = []
    for eps in eps_grid:
        for j_max in j_grid:
            params = bounds_mod.BoundParams(eps=eps, D=args.ambient_dim, J=j_max, **shared)
            grid = dict(given, eps=eps, J=j_max)
            rows.append(dict(grid, quantity="m_nonuniform", value=bounds_mod.m_nonuniform(params)))
            if args.ambient_dim is not None and args.reach is not None:
                rows.append(dict(grid, quantity="m_uniform", value=bounds_mod.m_uniform(params)))
            for j in range(j_max + 1):
                value = "%.17g" % bounds_mod.center_count_bound(params, j)
                rows.append(dict(grid, quantity="center_count_bound", j=j, value=value))
    if deltas:
        params = bounds_mod.BoundParams(eps=eps_grid[0], **shared)
        for delta in deltas:
            value = "%.17g" % bounds_mod.cover_bound(params, delta)
            rows.append(dict(given, quantity="cover_bound", delta=delta, value=value))
    # a quantity's row leaves the columns it does not use empty (DictWriter's restval)
    writer = csv.DictWriter(
        sys.stdout,
        ["quantity", "d", "D", "V", "reach", "eps", "J", "C1", "delta", "j", "constant", "value"],
        lineterminator="\n",
    )
    writer.writeheader()
    writer.writerows(rows)


def cmd_experiment_run(args):
    try:
        config = harness.ExperimentConfig.from_json(args.config)
    except ValueError as exc:
        raise SystemExit("experiment run: %s" % exc)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")  # stderr
    try:
        result = harness.run_experiment(config)
    except TooFewPointsError as exc:  # raised by a build, which comes before any file is written
        raise SystemExit("experiment run: %s: %s" % (args.config, exc))
    except ParameterError as exc:  # a config value a library call refused, also before any file is written
        raise SystemExit("experiment run: %s: %s" % (args.config, exc.renamed(CONFIG_KEYS)))
    print("results: %s" % (config.output_dir,))
    for (sigma, j, f), (mean, std) in sorted(result.aggregates.items()):
        print("sigma=%g j=%d f=%d: relMSE %.4g +- %.4g" % (sigma, j, f, mean, std))


def cmd_experiment_plot(args):
    try:
        result = harness.load_results_csv(args.results)
    except ValueError as exc:
        raise SystemExit("experiment plot: %s" % exc)
    paths = harness.emit_plot(result, args.out)
    for path in paths:
        print("wrote %s" % path)


if __name__ == "__main__":
    sys.exit(main())
