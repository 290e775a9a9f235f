"""The three benchmark workloads: inputs from a seed, a timed op sequence, checks.

A workload's ``setup`` makes its inputs and stages its files; its
``iteration`` runs the op sequence once through an ``OpLog``, which times
every op and collects the output checks that fail. Output checks use the
bench's own arithmetic and parsing (numpy, csv, json), never the library
code under test. See README.md for why each workload exists.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import time

import numpy as np

from manifold_cs import cli, geometry, gmra, harness, measurement, recovery

EPS = 0.3
SIGMA = 0.05


class OpFailed(Exception):
    """An op raised; the rest of its iteration is skipped."""


class OpLog:
    """Every timed op of a run: name, kind, seconds, points and failures.

    kind is one of "build", "verify", "recover", "certify" or "other";
    ``parts`` holds (kind, seconds, points) phases measured inside one op.
    """

    def __init__(self):
        self.records = []
        self.iteration = None

    def op(self, name, kind, call, points=0):
        rec = {"iteration": self.iteration, "name": name, "kind": kind,
               "seconds": None, "points": points, "parts": [], "failures": []}
        self.records.append(rec)
        t0 = time.perf_counter()
        try:
            result = call()
        except (Exception, SystemExit) as exc:
            rec["failures"].append("raised %s: %s" % (type(exc).__name__, exc))
            raise OpFailed(name) from exc
        rec["seconds"] = time.perf_counter() - t0
        return result, rec

    @staticmethod
    def check(rec, ok, what):
        if not ok:
            rec["failures"].append(what)

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for rec in self.records if rec["failures"])


def iteration_sample(records):
    """Seconds per op kind, points per kind, and total seconds of one iteration."""
    sample = {"total": sum(rec["seconds"] or 0.0 for rec in records)}
    for rec in records:
        phases = [(rec["kind"], rec["seconds"] or 0.0, rec["points"])] + rec["parts"]
        for kind, seconds, points in phases:
            sample[kind + "_s"] = sample.get(kind + "_s", 0.0) + seconds
            sample[kind + "_pts"] = sample.get(kind + "_pts", 0) + points
    return sample


def child_seed(seed, key):
    return int(np.random.SeedSequence([seed, key]).generate_state(1)[0])


def rel_mse(points, recon):
    """Root mean squared relative error, as the paper's relMSE."""
    err = np.einsum("ij,ij->i", points - recon, points - recon)
    return float(np.sqrt((err / np.einsum("ij,ij->i", points, points)).mean()))


@contextlib.contextmanager
def timed_attr(module, attr, seconds):
    """Time every call of ``module.attr`` inside the block into the list ``seconds``."""
    fn = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - t0)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, fn)


class Workload:
    name = None
    sizes = None  # {"full": {...}, "tiny": {...}}

    def __init__(self, seed, size, workdir, reference):
        self.seed = seed
        self.p = self.sizes[size]
        self.workdir = workdir
        self.reference = reference
        self.values = {}  # result values that every iteration must reproduce

    def setup(self):
        raise NotImplementedError

    def iteration(self, log):
        raise NotImplementedError

    def record_value(self, rec, name, value):
        """Keep a result value, failing ``rec`` if it differs between iterations."""
        first = self.values.setdefault(name, value)
        OpLog.check(rec, value == first, "%s changed between iterations: %r then %r" % (name, first, value))

    def check_references(self, log):
        """Fail the last op of the run for each value outside its recorded range."""
        rec = log.records[-1]
        for name, ref in self.reference.items():
            value = self.values.get(name)
            if value is None or not ref["min"] <= value <= ref["max"]:
                OpLog.check(rec, False, "%s = %r, recorded range [%g, %g]" % (name, value, ref["min"], ref["max"]))


class GridRoll3(Workload):
    """The criterion-07 relMSE grid through ``harness.run_experiment``, shrunk."""

    name = "grid-roll3"
    sizes = {
        "full": {"n": 2000, "max_scale": 8, "oversampling": [2, 4, 16], "draws": 2},
        "tiny": {"n": 300, "max_scale": 4, "oversampling": [2, 16], "draws": 1},
    }

    def setup(self):
        self.config = harness.ExperimentConfig(
            dataset={"generator": "swiss-roll", "n": self.p["n"], "seed": child_seed(self.seed, 0)},
            noise_sigmas=[0.0, SIGMA],
            oversampling=self.p["oversampling"],
            num_draws=self.p["draws"],
            seed=child_seed(self.seed, 1),
            scales=list(range(self.p["max_scale"] + 1)),
            output_dir=os.path.join(self.workdir, "grid"),
            local_dim=2,
            min_points=6,
        )
        os.makedirs(self.config.output_dir, exist_ok=True)
        self.config.to_json(os.path.join(self.workdir, "grid-config.json"))

    def iteration(self, log):
        builds = []
        with timed_attr(gmra, "build_dictionary", builds):
            result, rec = log.op("run_experiment", "other", lambda: harness.run_experiment(self.config))
        n = self.p["n"]
        recover_s = sum(row["ms_per_point"] for row in result.timing_rows) * n / 1000.0
        rec["parts"] = [("build", sum(builds), 0), ("recover", recover_s, n * len(result.timing_rows))]
        path = os.path.join(self.config.output_dir, "results.csv")
        with open(path, "rb") as fh:
            self.record_value(rec, "results_sha256", hashlib.sha256(fh.read()).hexdigest())
        finest = str(self.p["max_scale"])
        with open(path, newline="") as fh:
            values = [
                float(row["relMSE"]) for row in csv.DictReader(fh)
                if float(row["sigma"]) == SIGMA and row["j"] == finest and row["f"] == "16"
            ]
        self.record_value(rec, "relmse", float(np.mean(values)) if values else float("nan"))


class Roll200(Workload):
    """Swiss roll zero-padded into R^200: build, certify two matrices, recover, validate."""

    name = "roll200"
    sizes = {
        "full": {"n": 1500, "dim": 200, "max_scale": 6, "probes": 1000, "budget": 200},
        "tiny": {"n": 300, "dim": 200, "max_scale": 3, "probes": 100, "budget": 100},
    }

    def setup(self):
        n, dim = self.p["n"], self.p["dim"]
        base = geometry.gen_swiss_roll(n, child_seed(self.seed, 0))
        padded = np.zeros((n, dim))
        padded[:, :3] = base.points
        self.cloud = geometry.add_noise(geometry.PointCloud(padded, dim, "swiss-roll-200"), SIGMA, child_seed(self.seed, 1))
        self.probes = self.cloud.points[: self.p["probes"]]
        self.matrices = [
            ("haar m=8", "orthoprojection_matrix", 8, child_seed(self.seed, 2)),
            ("gaussian m=32", "gaussian_matrix", 32, child_seed(self.seed, 3)),
        ]

    def iteration(self, log):
        cloud, p = self.cloud, self.p
        top = p["max_scale"]
        dictionary, _ = log.op("build_dictionary", "build", lambda: gmra.build_dictionary(
            cloud, local_dim=2, max_scale=top, min_points=6))
        for label, draw, m, seed in self.matrices:
            matrix, _ = log.op("draw " + label, "other", lambda: getattr(measurement, draw)(m, p["dim"], seed))
            log.op("verify_distortion", "verify", lambda: measurement.verify_distortion(matrix, self.probes, EPS))
            log.op("rip_check_bruteforce", "verify", lambda: measurement.rip_check_bruteforce(matrix, 2, EPS))
            log.op("assumption set 1", "verify", lambda: measurement.verify_assumption_set(
                matrix, dictionary, x=cloud.points[0], which=1, eps=EPS))
            log.op("assumption set 2", "verify", lambda: measurement.verify_assumption_set(
                matrix, dictionary, which=2, eps=EPS, cloud=cloud, budget=p["budget"]))
            comp, _ = log.op("measure", "other", lambda: matrix.apply(cloud.points))
            for j in range(top + 1):
                batch, rec = log.op("recover_batch j=%d" % j, "recover",
                                    lambda: recovery.recover_batch(comp, matrix, dictionary, j), points=p["n"])
                recon = batch.reconstructions
                log.check(rec, recon.shape == cloud.points.shape and bool(np.isfinite(recon).all()),
                          "reconstructions missing or not finite")
            if m == 8:
                self.record_value(rec, "relmse", rel_mse(cloud.points, recon))
        report, rec = log.op("validate_structure", "verify", lambda: gmra.validate_structure(dictionary, cloud))
        log.check(rec, report.passed, "validate_structure failed: %s" % report.failures)


class CliRoll3(Workload):
    """The README's CLI chain, run in-process through ``cli.main``."""

    name = "cli-roll3"
    sizes = {
        "full": {"n": 2000, "max_scale": 8},
        "tiny": {"n": 300, "max_scale": 4},
    }

    def setup(self):
        self.dir = os.path.join(self.workdir, "cli")
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name):
        return os.path.join(self.dir, name)

    def command(self, log, kind, argv, rc, points=0):
        """Run one CLI command; fail the op unless it exits with code ``rc``."""
        out = io.StringIO()

        def call():
            with contextlib.redirect_stdout(out):
                return cli.main([str(a) for a in argv])

        code, rec = log.op(" ".join(argv[:2]), kind, call, points=points)
        log.check(rec, code == rc, "exit code %r, expected %r" % (code, rc))
        return out.getvalue(), rec

    def stage_measurements(self):
        matrix = measurement.load_matrix(self.path("M.mtx"))
        query = geometry.load_csv(self.path("query.csv"))
        geometry.save_csv(geometry.PointCloud(matrix.apply(query.points), matrix.m), self.path("meas.csv"))

    def iteration(self, log):
        n, top, path = self.p["n"], self.p["max_scale"], self.path
        for name, key in (("train.csv", 0), ("query.csv", 1)):
            seed = child_seed(self.seed, key)
            self.command(log, "other", ["generate", "--kind", "swiss-roll", "--n", n, "--seed", seed,
                                        "--sigma", SIGMA, "--noise-seed", seed + 1, "--out", path(name)], 0)
        self.command(log, "build", ["gmra", "build", "--cloud", path("train.csv"), "--out", path("roll.dict"),
                                    "--local-dim", 2, "--max-scale", top, "--min-points", 6], 0)
        self.command(log, "other", ["measure", "make", "--ensemble", "gaussian", "--m", 8, "--dim", 3,
                                    "--seed", child_seed(self.seed, 2), "--out", path("M.mtx")], 0)
        log.op("stage meas.csv", "other", self.stage_measurements)
        # An 8x3 Gaussian matrix misses eps=0.3 on thousands of probe pairs:
        # the documented FAIL verdict (exit code 2) is the expected outcome.
        self.command(log, "verify", ["measure", "verify", "--matrix", path("M.mtx"),
                                     "--probes", path("query.csv"), "--eps", EPS], 2)
        recover = ["recover", "--measurements", path("meas.csv"), "--matrix", path("M.mtx"),
                   "--dict", path("roll.dict")]
        _, rec = self.command(log, "recover", recover + ["--scale", top, "--out", path("recon.csv")], 0, points=n)
        query = np.loadtxt(path("query.csv"), delimiter=",", ndmin=2)
        recon = np.loadtxt(path("recon.csv"), delimiter=",", ndmin=2)
        log.check(rec, recon.shape == query.shape, "recon.csv has shape %s, expected %s" % (recon.shape, query.shape))
        if recon.shape == query.shape:
            self.record_value(rec, "relmse", rel_mse(query, recon))
        _, rec = self.command(log, "certify", recover + [
            "--scale", "auto", "--out", path("recon_auto.csv"), "--points", path("query.csv"),
            "--certificates", path("cert.csv"), "--eps", EPS, "--manifold", "swiss-roll"], 0, points=n)
        with open(path("cert.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        log.check(rec, len(rows) == n, "cert.csv has %d rows for %d queries" % (len(rows), n))
        for line in ("line3", "line4"):
            lhs = np.array([float(r[line + "_lhs"]) for r in rows])
            rhs = np.array([float(r[line + "_rhs"]) for r in rows])
            holds = lhs <= rhs + 1e-12 * (1.0 + np.abs(rhs))
            self.record_value(rec, "cert_%s_rate" % line, float(holds.mean()) if rows else float("nan"))
        out, rec = self.command(log, "verify", ["gmra", "validate", "--dict", path("roll.dict"),
                                                "--cloud", path("train.csv"), "--json"], 0)
        log.check(rec, json.loads(out).get("passed") is True, "gmra validate did not pass")


WORKLOADS = {cls.name: cls for cls in (GridRoll3, Roll200, CliRoll3)}
