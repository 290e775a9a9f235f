"""Layer tracing from outside the package: spans and counts around public calls.

Each hook replaces one function on the module where its callers look it
up. ``build_dictionary`` calls ``gmra.farthest_point_ordering`` and the CLI
calls ``recovery.certify``, so those module attributes are the ones
patched. While installed, a hook records a span (name, start, end,
parent span, iteration) and adds the counts its counter derives from the
call's arguments and result. Hooks are installed only around traced
iterations and removed afterwards, so untraced iterations run the library
unmodified. Spans stay in memory until ``write_spans`` at the end of a run.
"""

import csv
import functools
import math
import os
import time
from collections import defaultdict

import numpy as np

from manifold_cs import cli, geometry, gmra, harness, measurement, recovery


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(pos, name, key):
    def count(result, args, kwargs):
        return {key: os.path.getsize(_arg(args, kwargs, pos, name))}
    return count


def _fps(result, args, kwargs):
    return {"fps_picks": len(result[0])}


def _build(result, args, kwargs):
    prov = result.provenance
    return {
        "cells_final": result.counts()[-1],
        "fits_fresh": sum(prov["fresh_per_scale"]),
        "fits_reused": sum(prov["reused_per_scale"]),
        "fits_copied": sum(prov["copied_per_scale"]),
    }


def _calls(key):
    return lambda result, args, kwargs: {key: 1}


def _pairs(result, args, kwargs):
    return {"distortion_pairs": result.pairs_checked + result.pairs_skipped}


def _supports(result, args, kwargs):
    matrix = _arg(args, kwargs, 0, "matrix")
    return {"rip_supports": math.comb(matrix.ambient_dim, _arg(args, kwargs, 1, "sparsity"))}


def _batch(result, args, kwargs):
    return {
        "batch_calls": 1,
        "batch_pts": len(result.chosen_centers),
        "cells_touched": len(np.unique(result.chosen_centers)),
        "ill_conditioned": int(np.count_nonzero(result.ill_conditioned)),
    }


def _point(result, args, kwargs):
    return {"ill_conditioned": int(result.ill_conditioned)}


# (module, attribute, span name, counter or None)
HOOKS = [
    (gmra, "farthest_point_ordering", "geometry.fps", _fps),
    (geometry, "add_noise", "geometry.add_noise", None),
    (geometry, "load_csv", "geometry.csv_read", _file_bytes(0, "path", "csv_bytes")),
    (geometry, "save_csv", "geometry.csv_write", _file_bytes(1, "path", "csv_bytes")),
    (measurement, "epsilon_net_ball", "geometry.epsilon_net", None),
    (gmra, "build_dictionary", "gmra.build", _build),
    (gmra, "validate_structure", "gmra.validate", None),
    (gmra, "mean_error_per_scale", "gmra.mean_error", None),
    (gmra, "save_dictionary", "gmra.save", _file_bytes(1, "path", "dict_bytes")),
    (gmra, "load_dictionary", "gmra.load", _file_bytes(0, "path", "dict_bytes")),
    (gmra, "nearest_center", "gmra.nearest_center", _calls("nearest_center_calls")),
    (recovery, "nearest_center", "gmra.nearest_center", _calls("nearest_center_calls")),
    (measurement, "gaussian_matrix", "measurement.draw", _calls("draws")),
    (measurement, "orthoprojection_matrix", "measurement.draw", _calls("draws")),
    (measurement, "verify_distortion", "measurement.distortion", _pairs),
    (measurement, "rip_check_bruteforce", "measurement.rip", _supports),
    (measurement, "verify_assumption_set", "measurement.assumption_set", None),
    (measurement, "load_matrix", "measurement.matrix_io", None),
    (measurement, "save_matrix", "measurement.matrix_io", None),
    (recovery, "recover_batch", "recovery.batch", _batch),
    (recovery, "recover", "recovery.point", _point),
    (recovery, "certify", "recovery.certify", _calls("certify_calls")),
    (recovery, "nearest_point_oracle", "recovery.oracle", None),
    (harness, "run_experiment", "harness.run", None),
    (harness, "rel_mse_baseline", "harness.baseline", None),
    (harness, "rel_mse_with_max", "harness.metrics", None),
    (harness, "write_results_csv", "harness.output", None),
    (harness, "write_timing_csv", "harness.output", None),
    (harness, "emit_plot", "harness.output", None),
    (harness, "render_curves", "svgplot.render", None),
    (cli, "main", "cli.main", None),
    (gmra, "read_container", "storage.read", _file_bytes(0, "path", "storage_bytes")),
    (measurement, "read_container", "storage.read", _file_bytes(0, "path", "storage_bytes")),
    (gmra, "write_container", "storage.write", _file_bytes(0, "path", "storage_bytes")),
    (measurement, "write_container", "storage.write", _file_bytes(0, "path", "storage_bytes")),
]

# Per-layer metrics in report order: name -> (unit, how it is derived).
# "dur:<span>" sums span durations, "self:<span>" sums span self time,
# "count:<key>" sums a counter; all per traced iteration.
LAYER_METRICS = {
    "geometry.fps_s": ("s", "dur:geometry.fps"),
    "geometry.fps_picks": ("count", "count:fps_picks"),
    "geometry.add_noise_s": ("s", "dur:geometry.add_noise"),
    "geometry.csv_read_s": ("s", "dur:geometry.csv_read"),
    "geometry.csv_write_s": ("s", "dur:geometry.csv_write"),
    "geometry.csv_bytes": ("bytes", "count:csv_bytes"),
    "geometry.epsilon_net_s": ("s", "dur:geometry.epsilon_net"),
    "gmra.build_self_s": ("s", "self:gmra.build"),
    "gmra.cells_final": ("count", "count:cells_final"),
    "gmra.seed_accept_ratio": ("ratio", None),
    "gmra.fits_fresh": ("count", "count:fits_fresh"),
    "gmra.fits_reused": ("count", "count:fits_reused"),
    "gmra.fits_copied": ("count", "count:fits_copied"),
    "gmra.validate_s": ("s", "dur:gmra.validate"),
    "gmra.mean_error_s": ("s", "dur:gmra.mean_error"),
    "gmra.save_s": ("s", "dur:gmra.save"),
    "gmra.load_s": ("s", "dur:gmra.load"),
    "gmra.dict_bytes": ("bytes", "count:dict_bytes"),
    "gmra.nearest_center_calls": ("count", "count:nearest_center_calls"),
    "measurement.draw_s": ("s", "dur:measurement.draw"),
    "measurement.draws": ("count", "count:draws"),
    "measurement.distortion_s": ("s", "dur:measurement.distortion"),
    "measurement.distortion_pairs": ("count", "count:distortion_pairs"),
    "measurement.rip_s": ("s", "dur:measurement.rip"),
    "measurement.rip_supports": ("count", "count:rip_supports"),
    "measurement.assumption_set_s": ("s", "dur:measurement.assumption_set"),
    "measurement.matrix_io_s": ("s", "dur:measurement.matrix_io"),
    "recovery.batch_s": ("s", "dur:recovery.batch"),
    "recovery.batch_calls": ("count", "count:batch_calls"),
    "recovery.batch_pts": ("count", "count:batch_pts"),
    "recovery.cells_touched": ("count", "count:cells_touched"),
    "recovery.point_us_p50": ("us", None),
    "recovery.point_us_p99": ("us", None),
    "recovery.certify_s": ("s", "dur:recovery.certify"),
    "recovery.certify_calls": ("count", "count:certify_calls"),
    "recovery.oracle_s": ("s", "dur:recovery.oracle"),
    "recovery.ill_conditioned": ("count", "count:ill_conditioned"),
    "harness.run_self_s": ("s", "self:harness.run"),
    "harness.baseline_s": ("s", "dur:harness.baseline"),
    "harness.metrics_s": ("s", "dur:harness.metrics"),
    "harness.output_s": ("s", "dur:harness.output"),
    "svgplot.render_s": ("s", "dur:svgplot.render"),
    "cli.self_s": ("s", "self:cli.main"),
    "storage.read_s": ("s", "dur:storage.read"),
    "storage.write_s": ("s", "dur:storage.write"),
    "storage.bytes": ("bytes", "count:storage_bytes"),
    "trace.overhead_s": ("s", None),
}


class Tracer:
    """In-memory spans and counts for the traced iterations of one run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, iteration]
        self.counts = defaultdict(float)  # (iteration, key) -> total
        self.iterations = []
        self._stack = []
        self._iteration = None
        self._saved = []

    def install(self, iteration):
        """Patch every hook; spans recorded from now on belong to ``iteration``."""
        self._iteration = iteration
        self.iterations.append(iteration)
        for module, attr, span, counter in HOOKS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        self._iteration = None

    def _wrap(self, fn, span, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [span, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._iteration]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(result, args, kwargs).items():
                    self.counts[(self._iteration, key)] += value
            return result
        return traced

    def layer_metrics(self):
        """Median over traced iterations of every per-layer metric but the overhead."""
        duration = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, it in self.spans:
            duration[(it, name)] += end - start
            if parent >= 0:
                p = self.spans[parent]
                child[(it, p[0])] += end - start
        per_iter = defaultdict(list)
        for it in self.iterations:
            for metric, (_, source) in LAYER_METRICS.items():
                if source is None:
                    continue
                kind, key = source.split(":", 1)
                if kind == "dur":
                    value = duration[(it, key)]
                elif kind == "self":
                    value = duration[(it, key)] - child[(it, key)]
                else:
                    value = self.counts[(it, key)]
                per_iter[metric].append(value)
            picks = self.counts[(it, "fps_picks")]
            per_iter["gmra.seed_accept_ratio"].append(
                self.counts[(it, "cells_final")] / picks if picks else 0.0
            )
        out = {metric: float(np.median(values)) for metric, values in per_iter.items()}
        point_us = [(end - start) * 1e6 for name, start, end, _, _ in self.spans if name == "recovery.point"]
        out["recovery.point_us_p50"] = float(np.percentile(point_us, 50)) if point_us else 0.0
        out["recovery.point_us_p99"] = float(np.percentile(point_us, 99)) if point_us else 0.0
        return out

    def write_spans(self, path):
        """One CSV row per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "iteration", "run"])
            for index, (name, start, end, parent, it) in enumerate(self.spans):
                writer.writerow(
                    [index, name, "%.9f" % (start - origin), "%.9f" % (end - origin), parent, it, self.run_id]
                )
