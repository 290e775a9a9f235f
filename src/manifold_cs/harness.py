"""End-to-end experiment orchestration: relMSE curves over scale and noise.

Protocol per noise level: perturb the base cloud, rebuild the dictionary on
the perturbed points down to the deepest requested scale, then for each
requested scale and oversampling factor take num_draws measurement
matrices with m = min(d_j * f, D) rows and run batch recovery over every
point.  The dictionary is shared across the draws of one noise level.  A
matrix is seeded by (noise level, f, draw, m), so the scales that share m
share it, and each is drawn and applied to the cloud once.  All randomness
is derived from the master seed by fixed spawn keys, so the result rows
(and the CSV they serialize to) are a pure function of the config, which is
the run's only configuration.
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
from .errors import CsvParseError, is_number, require, require_finite, require_integer, require_shape
from .geometry import csv_number
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
    """relMSE together with the largest per-point squared relative error.

    Both arrays are n x D blocks of finite values, n >= 1.  A point at the
    origin, or whose squared norm or squared relative error is past
    float64's range, is refused.
    """
    pts = points.points if isinstance(points, geometry.PointCloud) else np.asarray(points, dtype=np.float64)
    rec = (
        reconstructions.points
        if isinstance(reconstructions, geometry.PointCloud)
        else np.asarray(reconstructions, dtype=np.float64)
    )
    require_shape("points", pts, "n", "D")
    require(len(pts) > 0, "points", pts.shape, "at least one point")
    require_shape("reconstructions", rec, *pts.shape)
    require_finite("points", pts)
    require_finite("reconstructions", rec)
    norms_sq = np.einsum("ij,ij->i", pts, pts)
    k = int((norms_sq == 0.0).argmax())  # the first point at the origin, or 0 when there is none
    require(norms_sq[k] != 0.0, "points", 0.0, "of nonzero norm (relative error divides by it) at point %d" % k)
    k = int(norms_sq.argmax())
    require(norms_sq[k] < np.inf, "points", float(np.abs(pts[k]).max()), "of squared norm below float64's largest "
            "at point %d" % k)
    err_sq = np.einsum("ij,ij->i", pts - rec, pts - rec) / norms_sq
    k = int(err_sq.argmax())
    mean = err_sq.mean()
    require(mean < np.inf, "reconstructions", float(np.abs(rec[k]).max()), "near enough the points for a relMSE "
            "below float64's largest (worst at point %d)" % k)
    return float(np.sqrt(mean)), float(err_sq[k])


def rel_mse_baseline(points, dictionary):
    """Uncompressed finest-scale relMSE: project each point on its nearest cell."""
    pts = points.points if isinstance(points, geometry.PointCloud) else np.asarray(points, dtype=np.float64)
    recon = gmra.project_at_scale(dictionary, dictionary.max_scale, pts)
    return rel_mse(points, recon)


@dataclass
class ExperimentConfig:
    """Everything run_experiment needs; JSON-roundtrippable."""

    dataset: dict  # the descriptor load_dataset reads
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
        # a run orders the scales and formats the noise levels, so those must be numbers; their
        # ranges, and the dataset and dictionary settings, are checked by the library calls that take them
        for name in ("noise_sigmas", "scales", "oversampling"):
            values = getattr(self, name)
            require(isinstance(values, list) and values, name, values, "a nonempty list")
            for v in values:
                if name == "oversampling":
                    require_integer(name, v, 1)
                else:
                    require(is_number(v), name, v, "numbers")
            # a repeated value would run its cells twice and mix the two runs in one aggregate
            require(len(set(values)) == len(values), name, values, "a list without repeated values")
        require_integer("num_draws", self.num_draws, 1)
        require_integer("seed", self.seed, 0)
        require(isinstance(self.output_dir, str), "output_dir", self.output_dir, "a directory path string")
        measurement._require_ensemble(self.ensemble)

    @classmethod
    def from_json(cls, path):
        """Read a config file.

        Text that is not JSON, a JSON value that is not an object, a key that
        is not a field, a missing dataset and a value the constructor refuses
        each raise ValueError naming the file.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                given = json.load(fh)
            if not isinstance(given, dict):
                raise ValueError("a JSON %s, not an object of config fields" % type(given).__name__)
            unknown = sorted(set(given) - {f.name for f in fields(cls)})
            if unknown or "dataset" not in given:
                raise ValueError("unknown key %r" % unknown[0] if unknown else "no 'dataset' key")
            return cls(**given)
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None

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

    def __post_init__(self):
        draws, self.baselines = {}, {}
        for line, row in enumerate(self.rows, start=2):
            if None in row or None in row.values():
                message = "results row at line %d does not have %d fields" % (line, len(RESULTS_COLUMNS))
                raise CsvParseError(message, row=line)
            try:
                sigma, j, f = csv_number(row["sigma"]), csv_number(row["j"], int), csv_number(row["f"], int)
                value, baseline = csv_number(row["relMSE"]), csv_number(row["relMSE_J"])
                csv_number(row["d_j"], int)  # not kept, but a damaged d_j is still refused
            except ValueError as exc:
                raise CsvParseError("results row at line %d: %s" % (line, exc), row=line) from None
            draws.setdefault((sigma, j, f), []).append(value)
            self.baselines[sigma] = baseline
        self.aggregates = {key: (float(np.mean(vals)), float(np.std(vals))) for key, vals in draws.items()}


def derive_seed(master, *key):
    """Deterministic child seed for the given spawn key."""
    return int(np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key)).generate_state(1, dtype=np.uint64)[0])


# the generators a dataset descriptor names; load_dataset is the one dispatch on them
_GENERATORS = ("swiss-roll", "sphere")


def load_dataset(descriptor):
    """The base cloud a dataset descriptor names, generated or read from CSV.

    The descriptor is {"generator": "swiss-roll", "n": n} or {"generator": "sphere", "n": n, "d": d}, each
    with an optional "seed" (default 0), or {"csv": path} with an optional "label".  A descriptor that is not
    an object ("dataset"), a missing or unknown generator, a csv that is not a path string and a missing or
    refused n, d or seed each raise a ParameterError naming the key.
    """
    require(isinstance(descriptor, dict), "dataset", descriptor, 'an object: {"generator": ...} or {"csv": path}')
    if "csv" in descriptor:
        path = descriptor["csv"]
        require(isinstance(path, str), "csv", path, "a file path string")
        return geometry.load_csv(path, label=descriptor.get("label", "csv"))
    gen = descriptor.get("generator")
    require(gen in _GENERATORS, "generator", gen, "one of %s" % ", ".join(map(repr, _GENERATORS)))
    n, seed = descriptor.get("n"), descriptor.get("seed", 0)
    if gen == "swiss-roll":
        return geometry.gen_swiss_roll(n, seed)
    return geometry.gen_sphere(n, descriptor.get("d"), seed)


def run_experiment(config):
    """Run the full relMSE grid and write config.json, results.csv, timing.csv, and SVG plots.

    Every noise level and scale is checked before the first build, by the
    checks of the calls that take them, and the output directory is made
    then, so an output_dir that cannot be made ends the run before any
    build.  A run that fails before its first file leaves no directory it
    made.
    """
    for sigma in config.noise_sigmas:
        geometry.require_sigma(sigma)
    max_scale = require_integer("max_scale", max(config.scales), 0, gmra.MAX_BUILD_SCALE)
    for j in config.scales:
        require_integer("j", j, 0, max_scale)
    base = load_dataset(config.dataset)
    # the output directory is made before the first build, so one that cannot be made costs no work; a run
    # that fails before its first file removes the directories it made
    made = _missing_dirs(config.output_dir)
    os.makedirs(config.output_dir, exist_ok=True)
    try:
        rows, timing_rows, mean_norms = _run_grid(config, base, max_scale)
    except BaseException:
        for path in made:
            os.rmdir(path)
        raise
    result = ExperimentResult(config=config, rows=rows, timing_rows=timing_rows, mean_norms=mean_norms)
    config.to_json(os.path.join(config.output_dir, "config.json"))
    write_results_csv(result, os.path.join(config.output_dir, "results.csv"))
    write_timing_csv(result, os.path.join(config.output_dir, "timing.csv"))
    emit_plot(result, config.output_dir)
    return result


def _run_grid(config, base, max_scale):
    """(rows, timing rows, mean norms) of the relMSE grid: per noise level one build, then every scale, f and draw."""
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
            max_scale=max_scale,
            energy_threshold=config.energy_threshold,
            max_local_dim=config.max_local_dim,
            min_points=config.min_points,
        )
        baseline = rel_mse_baseline(cloud, dictionary)
        mean_norms[sigma] = float(np.linalg.norm(cloud.points, axis=1).mean())
        dim = cloud.ambient_dim
        drawn = {}  # seed -> (matrix, measured cloud), each drawn and applied once
        for j in config.scales:
            d_j = dictionary.max_local_dim(j)
            for f in config.oversampling:
                m = min(d_j * int(f), dim)
                for draw in range(config.num_draws):
                    # one fixed matrix per drawn dimension: scales sharing m
                    # within a draw see the same projection
                    seed = derive_seed(config.seed, 2, s_idx, f, draw, m)
                    if seed not in drawn:
                        matrix = measurement.draw_matrix(config.ensemble, m, dim, seed)
                        drawn[seed] = matrix, matrix.apply(cloud.points)
                    matrix, comp = drawn[seed]
                    t0 = time.perf_counter()
                    batch = recovery.recover_batch(comp, matrix, dictionary, j)
                    elapsed = time.perf_counter() - t0
                    value, max_sq = rel_mse_with_max(cloud, batch.reconstructions)
                    key = {"dataset": dataset_label, "sigma": sigma, "j": j, "f": int(f), "draw": draw}
                    rows.append(dict(key, relMSE=value, relMSE_J=baseline, d_j=d_j, m=m, max_sq_rel_err=max_sq))
                    timing_rows.append(dict(key, ms_per_point=elapsed * 1000.0 / cloud.n))
            logger.info("sigma=%g scale=%d done", sigma, j)
    return rows, timing_rows, mean_norms


def _missing_dirs(path):
    """The directories os.makedirs(path) would make, deepest first."""
    missing, path = [], os.path.abspath(path)
    while not os.path.exists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def _open_table(path):
    """path opened for ``_write_rows``: UTF-8 text with Unix line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_table(path, columns):
    """One CSV table from {name: column} written to path by ``_write_rows``."""
    with _open_table(path) as fh:
        _write_rows(fh, columns)


def _write_rows(fh, columns):
    """The header, then a line per row, to a file from ``_open_table``; a float as "%.17g", None as empty."""
    cells = [["%.17g" % v if isinstance(v, float) else v for v in column] for column in columns.values()]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*cells, strict=True))


def write_results_csv(result, path):
    _write_table(path, {c: [row[c] for row in result.rows] for c in RESULTS_COLUMNS})


def write_timing_csv(result, path):
    _write_table(path, {c: [row[c] for row in result.timing_rows] for c in TIMING_COLUMNS})


def load_results_csv(path):
    """Rebuild an ExperimentResult for replotting from results.csv and the config.json beside it.

    The rows are the results.csv rows as read (strings); timing rows and
    mean norms are not recoverable from the results file.  A refused config
    or a damaged row raises ValueError (CsvParseError for a row) naming its
    file.  The results file is read first, so a missing one is the file a
    FileNotFoundError names; the config is then looked for by its full path.
    """
    try:
        reader = csv.DictReader(geometry.csv_lines(path, newline=""))
        rows = list(reader)
    except CsvParseError as exc:
        raise CsvParseError("%s: %s" % (path, exc), row=exc.row) from None
    except csv.Error as exc:  # a field over the csv module's size limit
        raise CsvParseError("%s: %s" % (path, exc)) from None
    missing = [c for c in RESULTS_COLUMNS if c not in (reader.fieldnames or [])]
    if missing:
        raise CsvParseError("%s has no %r column" % (path, missing[0]), row=1)
    config = ExperimentConfig.from_json(os.path.join(os.path.dirname(os.path.abspath(path)), "config.json"))
    try:
        result = ExperimentResult(config=config, rows=rows, timing_rows=[], mean_norms={})
    except CsvParseError as exc:
        raise CsvParseError("%s: %s" % (path, exc), row=exc.row) from None
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
