"""End-to-end experiment orchestration: relMSE curves over scale and noise.

Protocol per noise level: perturb the base cloud, rebuild the dictionary on
the perturbed points down to the deepest requested scale, then for each
requested scale and oversampling factor draw num_draws fresh measurement
matrices with m = min(d_j * f, D) rows and run batch recovery over every
point.  The dictionary is shared across the draws of one noise level; only
the matrix is redrawn.  All randomness is derived from the master seed by
fixed spawn keys, so the result rows (and the CSV they serialize to) are a
pure function of the config, which is the run's only configuration.
Wall-clock timings are inherently non-reproducible and therefore live in a
separate timing CSV, keeping the results file byte-stable across reruns.
Progress goes to the module logger at INFO.
"""

import csv
import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import geometry, gmra, measurement, recovery
from .errors import CsvParseError
from .gmra import project_at_scale  # re-exported: callers and tests use harness.project_at_scale
from .svgplot import render_curves

RESULTS_COLUMNS = [
    "dataset",
    "sigma",
    "j",
    "f",
    "draw",
    "relMSE",
    "relMSE_J",
    "d_j",
    "m",
    "max_sq_rel_err",
]

TIMING_COLUMNS = ["dataset", "sigma", "j", "f", "draw", "ms_per_point"]

logger = logging.getLogger(__name__)


def rel_mse(points, reconstructions):
    """Root mean squared relative error between matching point rows."""
    value, _ = rel_mse_with_max(points, reconstructions)
    return value


def rel_mse_with_max(points, reconstructions):
    """relMSE together with the largest per-point squared relative error."""
    pts = points.points if isinstance(points, geometry.PointCloud) else np.asarray(points, dtype=np.float64)
    rec = (
        reconstructions.points
        if isinstance(reconstructions, geometry.PointCloud)
        else np.asarray(reconstructions, dtype=np.float64)
    )
    if pts.shape != rec.shape:
        raise ValueError("points and reconstructions must share shape, got %s vs %s" % (pts.shape, rec.shape))
    norms_sq = np.einsum("ij,ij->i", pts, pts)
    zero = np.nonzero(norms_sq == 0.0)[0]
    if zero.size:
        raise ValueError("point %d has zero norm; relative error is undefined" % int(zero[0]))
    err_sq = np.einsum("ij,ij->i", pts - rec, pts - rec) / norms_sq
    return float(np.sqrt(err_sq.mean())), float(err_sq.max())


def rel_mse_baseline(points, dictionary, finest=None):
    """Uncompressed finest-scale relMSE: project each point on its nearest cell."""
    if finest is None:
        finest = dictionary.max_scale
    pts = points.points if isinstance(points, geometry.PointCloud) else np.asarray(points, dtype=np.float64)
    recon = project_at_scale(dictionary, finest, pts)
    return rel_mse(points, recon)


@dataclass
class ExperimentConfig:
    """Everything run_experiment needs; JSON-roundtrippable."""

    dataset: dict  # {"generator": "swiss-roll"|"sphere", "n": int, "d": int} or {"csv": path}
    noise_sigmas: list = field(default_factory=lambda: [0.0])
    oversampling: list = field(default_factory=lambda: [2, 4, 16])
    num_draws: int = 10
    seed: int = 0
    scales: list = field(default_factory=lambda: list(range(7)))
    output_dir: str = "experiment-out"
    local_dim: int | None = None
    max_local_dim: int | None = None
    energy_threshold: float = 0.95
    min_points: int | None = None
    ensemble: str = "haar-orthoprojection"

    def __post_init__(self):
        integers, numbers = ("integers", (int, np.integer)), ("numbers", (int, np.integer, float))
        for name, values, low, (kind, types) in (
            ("noise_sigmas", self.noise_sigmas, 0, numbers),
            ("num_draws", [self.num_draws], 1, integers),
            ("scales", self.scales, 0, integers),
            ("oversampling", self.oversampling, 1, integers),
        ):
            if not isinstance(values, list) or not values:
                raise ValueError("%s must be a nonempty list, got %r" % (name, values))
            for v in values:
                if isinstance(v, bool) or not isinstance(v, types) or not low <= v < np.inf:
                    raise ValueError("%s must be finite %s >= %d, got %r" % (name, kind, low, v))
        if self.ensemble not in ("haar-orthoprojection", "gaussian"):
            raise ValueError("unknown ensemble %r" % self.ensemble)

    @classmethod
    def from_json(cls, path):
        """Read a config file; a key that is not a field, or a missing dataset, raises ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError("%s holds a JSON %s, not an object of config fields" % (path, type(given).__name__))
        unknown = sorted(set(given) - {f.name for f in fields(cls)})
        if unknown or "dataset" not in given:
            raise ValueError("%s: %s" % (path, "unknown key %r" % unknown[0] if unknown else "no 'dataset' key"))
        return cls(**given)

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


@dataclass
class ExperimentResult:
    """A run's long-form rows; the per-cell numbers are derived from them.

    The rows may hold a run's typed values or the strings read back from
    results.csv: the derived dicts are equal either way.  A row with a missing
    or extra field, or a non-numeric value, raises CsvParseError naming its
    results.csv line (the header is line 1).
    """

    config: ExperimentConfig
    rows: list  # long-form result rows (deterministic)
    timing_rows: list  # wall-clock rows (not reproducible)
    mean_norms: dict  # sigma -> mean point norm of the evaluated cloud
    aggregates: dict = field(init=False)  # (sigma, j, f) -> (mean, std) of relMSE over the draws
    baselines: dict = field(init=False)  # sigma -> relMSE_J
    d_by_scale: dict = field(init=False)  # (sigma, j) -> d_j

    def __post_init__(self):
        draws, self.baselines, self.d_by_scale = {}, {}, {}
        for line, row in enumerate(self.rows, start=2):
            if None in row or None in row.values():
                message = "results row at line %d does not have %d fields" % (line, len(RESULTS_COLUMNS))
                raise CsvParseError(message, row=line)
            try:
                sigma, j, f = float(row["sigma"]), int(row["j"]), int(row["f"])
                value, baseline, d_j = float(row["relMSE"]), float(row["relMSE_J"]), int(row["d_j"])
            except ValueError as exc:
                raise CsvParseError("results row at line %d: %s" % (line, exc), row=line) from None
            draws.setdefault((sigma, j, f), []).append(value)
            self.baselines[sigma] = baseline
            self.d_by_scale[(sigma, j)] = d_j
        self.aggregates = {key: (float(np.mean(vals)), float(np.std(vals))) for key, vals in draws.items()}

    def curve(self, sigma, f):
        """(scales, means, stds) for one noise level and oversampling factor."""
        js = sorted({j for (s, j, ff) in self.aggregates if s == sigma and ff == f})
        means = [self.aggregates[(sigma, j, f)][0] for j in js]
        stds = [self.aggregates[(sigma, j, f)][1] for j in js]
        return js, means, stds


def derive_seed(master, *key):
    """Deterministic child seed for the given spawn key."""
    return int(np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key)).generate_state(1, dtype=np.uint64)[0])


def load_dataset(descriptor):
    """Materialize the configured base cloud (generator or CSV)."""
    if "csv" in descriptor:
        return geometry.load_csv(descriptor["csv"], label=descriptor.get("label", "csv"))
    gen = descriptor.get("generator")
    if gen == "swiss-roll":
        return geometry.gen_swiss_roll(descriptor["n"], descriptor.get("seed", 0))
    if gen == "sphere":
        return geometry.gen_sphere(descriptor["n"], descriptor["d"], descriptor.get("seed", 0))
    raise ValueError("dataset needs a csv path or a known generator, got %r" % (descriptor,))


def run_experiment(config):
    """Run the full relMSE grid and write config.json, results.csv, timing.csv, and SVG plots."""
    base = load_dataset(config.dataset)
    dataset_label = base.label or "dataset"
    rows = []
    timing_rows = []
    mean_norms = {}

    for s_idx, sigma in enumerate(config.noise_sigmas):
        cloud = geometry.add_noise(base, sigma, derive_seed(config.seed, 1, s_idx))
        logger.info("sigma=%g: building dictionary (n=%d)", sigma, cloud.n)
        dictionary = gmra.build_dictionary(
            cloud,
            local_dim=config.local_dim,
            max_scale=max(config.scales),
            energy_threshold=config.energy_threshold,
            max_local_dim=config.max_local_dim,
            min_points=config.min_points,
        )
        baseline = rel_mse_baseline(cloud, dictionary)
        mean_norms[sigma] = float(np.linalg.norm(cloud.points, axis=1).mean())
        dim = cloud.ambient_dim
        for j in config.scales:
            d_j = dictionary.max_local_dim(j)
            for f in config.oversampling:
                m = min(d_j * int(f), dim)
                for draw in range(config.num_draws):
                    # one fixed matrix per drawn dimension: scales sharing m
                    # within a draw see the same projection
                    seed = derive_seed(config.seed, 2, s_idx, f, draw, m)
                    if config.ensemble == "haar-orthoprojection":
                        matrix = measurement.orthoprojection_matrix(m, dim, seed)
                    else:
                        matrix = measurement.gaussian_matrix(m, dim, seed)
                    comp = matrix.apply(cloud.points)
                    t0 = time.perf_counter()
                    batch = recovery.recover_batch(comp, matrix, dictionary, j)
                    elapsed = time.perf_counter() - t0
                    value, max_sq = rel_mse_with_max(cloud, batch.reconstructions)
                    key = {"dataset": dataset_label, "sigma": sigma, "j": j, "f": int(f), "draw": draw}
                    rows.append(dict(key, relMSE=value, relMSE_J=baseline, d_j=d_j, m=m, max_sq_rel_err=max_sq))
                    timing_rows.append(dict(key, ms_per_point=elapsed * 1000.0 / cloud.n))
            logger.info("sigma=%g scale=%d done", sigma, j)

    result = ExperimentResult(config=config, rows=rows, timing_rows=timing_rows, mean_norms=mean_norms)
    os.makedirs(config.output_dir, exist_ok=True)
    config.to_json(os.path.join(config.output_dir, "config.json"))
    write_results_csv(result, os.path.join(config.output_dir, "results.csv"))
    write_timing_csv(result, os.path.join(config.output_dir, "timing.csv"))
    emit_plot(result, config.output_dir)
    return result


def _write_table(path, columns, rows):
    """One CSV table: the header, then each row's columns; a float is written with 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({c: "%.17g" % v if isinstance(v, float) else v for c, v in row.items()})


def write_results_csv(result, path):
    _write_table(path, RESULTS_COLUMNS, result.rows)


def write_timing_csv(result, path):
    _write_table(path, TIMING_COLUMNS, result.timing_rows)


def load_results_csv(path):
    """Rebuild an ExperimentResult for replotting from results.csv and the config.json beside it.

    The rows are the results.csv rows as read (strings); timing rows and
    mean norms are not recoverable from the results file.
    """
    config = ExperimentConfig.from_json(os.path.join(os.path.dirname(path), "config.json"))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    missing = [c for c in RESULTS_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise CsvParseError("%s has no %r column" % (path, missing[0]), row=1)
    result = ExperimentResult(config=config, rows=rows, timing_rows=[], mean_norms={})
    if not result.aggregates:
        raise ValueError("no usable result rows in %s" % path)
    return result


def emit_plot(result, out_dir):
    """One SVG per noise level: relMSE against scale, one curve per factor."""
    if not result.aggregates:
        raise ValueError("nothing to plot: experiment produced no aggregates")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for sigma in result.config.noise_sigmas:
        factors = sorted({f for (s, _, f) in result.aggregates if s == sigma})
        if not factors:
            raise ValueError("nothing to plot for sigma=%g" % sigma)
        scales = sorted({j for (s, j, _) in result.aggregates if s == sigma})
        curves = []
        for f in factors:
            means = [
                result.aggregates.get((sigma, j, f), (None, None))[0] for j in scales
            ]
            stds = [
                result.aggregates.get((sigma, j, f), (None, 0.0))[1] for j in scales
            ]
            curves.append(("f=%d" % f, means, stds))
        svg = render_curves(
            scales,
            curves,
            result.baselines.get(sigma),
            "%s, sigma=%g" % (result.rows[0]["dataset"], sigma),
        )
        path = os.path.join(out_dir, "relmse_sigma_%s.svg" % ("%g" % sigma))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        paths.append(path)
    return paths
