"""Print one sha256 per output that a change keeping results bit for bit must leave unmoved.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/output_hashes.py

Each line is ``<seed> <output> <sha256>``, for seeds 1 and 501. The inputs
are the benchmark's three workloads at full size (bench/workloads.py, see
bench/README.md), each set up and run once:

* grid-roll3: the ``results.csv`` its run writes, then each
  ``relmse_sigma_*.svg`` figure, in name order, then the order, radii and
  moves of ``farthest_point_ordering`` (``fps[order]``, ``fps[radii]``,
  ``fps[moves]``) on the clean and the noisy cloud, as its builds run it;
* roll200: the saved dictionary of its cloud, the FPS order, radii and
  moves of its cloud (as above), then each of its arrays and
  values on its own (``dict[<name>]``: the per-scale counts, ``cell_fit``,
  ``fit_dims``, ``fit_centers``, ``fit_bases``, the separation constant,
  the root radius and the provenance), so a diff shows whether the centers
  and the cell table held while the bases moved; then for each of its two
  matrices ``recover_batch``'s outputs at every scale and at "auto", and
  each field of the four verification reports the workload makes
  (``verify_distortion[<field>]``, ``rip_check_bruteforce[<field>]``, and
  ``assumption set 1[<field or item>]`` and ``assumption set 2[...]``, one
  line per checked item); ``verify_distortion`` on its probes under an
  m = D Haar matrix (an exact isometry, whose screen computes every row)
  and, under its Haar m=8 matrix, on its first 500 probes each given twice
  (coincident pairs); and each field of its ``validate_structure``
  report on its own (``validate_structure[<field>]``): in R^200 the
  projections behind the per-scale mean errors span many of
  ``gmra.affine_rows``' row blocks;
* cli-roll3: the ``train.csv`` and ``query.csv`` that ``generate`` writes,
  the ``M.mtx`` that ``measure make`` writes, the ``meas.csv`` staged through ``geometry.save_csv``, the ``roll.dict``,
  ``recon.csv``, ``recon_auto.csv`` and ``cert.csv`` its CLI chain writes,
  then each array of ``roll.dict`` on its own (``roll.dict[<name>]``, as
  for roll200) and each column of ``cert.csv`` on its own
  (``cert.csv[<column>]``), so a diff names the certificate quantities that
  moved,
  ``recover_batch``'s outputs at every scale for its matrix, an adaptive
  dictionary of its ``train.csv`` (``local_dim=None``, ``max_local_dim=3``,
  ``max_scale=8``, ``min_points=6``; local dimensions 1-3, its scales'
  widest fits 3 and 2) saved whole and array by array
  (``adaptive.dict[<name>]``) with ``recover_batch``'s outputs at every
  scale and at "auto" for the same matrix, so scales narrower than the
  compressed fit table are hashed too, and each field of assumption sets 1
  (at the first query) and 2 (on ``train.csv``) for that dictionary and
  matrix, so items c and d are hashed on fits of mixed widths, the
  ``gmra validate --json`` report, then each of its fields on its own
  (``validate --json[<field>]``), so a diff names the validation quantities
  that moved, the ``measure verify --probes`` report, and each field of
  ``verify_distortion`` on ``query.csv`` under a 3 x 3 Haar matrix, an
  exact isometry;
* two clouds that only ``farthest_point_ordering`` sees, each hashed as
  above: a full-rank Gaussian of 1,500 rows in R^200, whose screen keeps
  full width and so takes the dense pair source that no workload reaches,
  and 400 rows of a 5 x 5 integer lattice, whose exact ties outnumber a
  round's candidates.

To check that a change moves no output, run the script against each
commit's ``src`` and compare::

    PYTHONPATH=<old checkout>/src python3 tools/output_hashes.py > old.txt
    PYTHONPATH=src python3 tools/output_hashes.py > new.txt
    diff old.txt new.txt

Run both with the same BLAS thread count: some roll200 hashes depend on it,
because a threaded product rounds differently.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from manifold_cs import cli, geometry, gmra, harness, measurement, recovery

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))
import workloads  # noqa: E402

SEEDS = (1, 501)


def sha(data):
    return hashlib.sha256(data).hexdigest()


def file_sha(path):
    with open(path, "rb") as fh:
        return sha(fh.read())


def column_shas(path):
    """(name, sha256) for each column of a CSV file, over its fields in row order, one per line."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    for k, name in enumerate(header):
        yield name, sha("".join(row[k] + "\n" for row in rows).encode())


def array_sha(name, arr):
    """sha256 of an array's name, dtype, shape and bytes."""
    arr = np.ascontiguousarray(arr)
    return sha(("%s %s %s;" % (name, arr.dtype.str, arr.shape)).encode() + arr.tobytes())


def dictionary_shas(path):
    """(name, sha256) for each array and value of a saved dictionary, one per line."""
    dictionary = gmra.load_dictionary(path)
    yield "counts", sha(json.dumps(dictionary.counts()).encode())
    for name in ("cell_fit", "fit_dims", "fit_centers", "fit_bases"):
        yield name, array_sha(name, getattr(dictionary, name))
    for name in ("sep_constant", "root_radius", "provenance"):
        yield name, sha(json.dumps(getattr(dictionary, name), sort_keys=True).encode())


def batch_sha(batch):
    """One hash over every array of a BatchRecovery, with its dtype and shape."""
    h = hashlib.sha256()
    for name in ("reconstructions", "chosen_scales", "chosen_centers", "coefficients", "residuals", "ill_conditioned"):
        arr = np.ascontiguousarray(getattr(batch, name))
        h.update(("%s %s %s;" % (name, arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def report_shas(label, report):
    """(name, sha256) for each field of a report dataclass, and for each item of its items list, one per line."""
    for field, value in dataclasses.asdict(report).items():
        for key, part in ([(item["name"], item) for item in value] if field == "items" else [(field, value)]):
            yield "%s[%s]" % (label, key), sha(json.dumps(part).encode())


def fps_shas(label, pts, **stop):
    """(name, sha256) for the order, the radii and the moves of ``farthest_point_ordering``, one per line."""
    order, radii, (rows, picks) = geometry.farthest_point_ordering(pts, **stop)
    yield "%s fps[order]" % label, array_sha("order", order)
    yield "%s fps[radii]" % label, array_sha("radii", radii)
    yield "%s fps[moves]" % label, array_sha("moves", np.stack([rows, picks]))


def recover_every_scale(label, matrix, dictionary, points):
    comp = matrix.apply(points)
    for j in list(range(dictionary.max_scale + 1)) + ["auto"]:
        yield "%s recover_batch j=%s" % (label, j), batch_sha(recovery.recover_batch(comp, matrix, dictionary, j))


def grid_roll3(seed, tmp):
    work = workloads.GridRoll3(seed, "full", tmp, {})
    work.setup()
    work.iteration(workloads.OpLog())
    out = work.config.output_dir
    yield "grid-roll3 results.csv", file_sha(os.path.join(out, "results.csv"))
    for name in sorted(n for n in os.listdir(out) if n.startswith("relmse_sigma_") and n.endswith(".svg")):
        yield "grid-roll3 " + name, file_sha(os.path.join(out, name))
    config = work.config
    base = harness.load_dataset(config.dataset)
    for s_idx, sigma in enumerate(config.noise_sigmas):
        cloud = geometry.add_noise(base, sigma, harness.derive_seed(config.seed, 1, s_idx))
        yield from fps_shas("grid-roll3 sigma=%g" % sigma, cloud.points, stop_fraction=2.0 ** -max(config.scales))


def roll200(seed, tmp):
    work = workloads.Roll200(seed, "full", tmp, {})
    work.setup()
    dictionary = gmra.build_dictionary(work.cloud, local_dim=2, max_scale=work.p["max_scale"], min_points=6)
    path = os.path.join(tmp, "roll200.dict")
    gmra.save_dictionary(dictionary, path)
    yield "roll200 dictionary", file_sha(path)
    yield from fps_shas("roll200", work.cloud.points, stop_fraction=2.0 ** -work.p["max_scale"])
    for name, digest in dictionary_shas(path):
        yield "roll200 dict[%s]" % name, digest
    eps, cloud = workloads.EPS, work.cloud
    for label, draw, m, matrix_seed in work.matrices:
        matrix = getattr(measurement, draw)(m, work.p["dim"], matrix_seed)
        yield from recover_every_scale("roll200 " + label, matrix, dictionary, cloud.points)
        for name, report in (
            ("verify_distortion", measurement.verify_distortion(matrix, work.probes, eps)),
            ("rip_check_bruteforce", measurement.rip_check_bruteforce(matrix, 2, eps)),
            ("assumption set 1", measurement.verify_assumption_set(matrix, dictionary, x=cloud.points[0], eps=eps)),
            ("assumption set 2", measurement.verify_assumption_set(
                matrix, dictionary, which=2, eps=eps, cloud=cloud, budget=work.p["budget"])),
        ):
            yield from report_shas("roll200 %s %s" % (label, name), report)
    # the distortion screen's two other paths in R^200: an exact isometry computes every row, and duplicated
    # rows are coincident pairs
    isometry = measurement.orthoprojection_matrix(work.p["dim"], work.p["dim"], 7)
    yield from report_shas("roll200 isometry verify_distortion", measurement.verify_distortion(isometry, work.probes, eps))
    doubled = np.repeat(work.probes[:500], 2, axis=0)
    yield from report_shas("roll200 haar m=8 duplicated-rows verify_distortion", measurement.verify_distortion(
        getattr(measurement, work.matrices[0][1])(8, work.p["dim"], work.matrices[0][3]), doubled, eps))
    yield from report_shas("roll200 validate_structure", gmra.validate_structure(dictionary, cloud))


def cli_roll3(seed, tmp):
    work = workloads.CliRoll3(seed, "full", tmp, {})
    work.setup()
    work.iteration(workloads.OpLog())
    for name in ("train.csv", "query.csv", "M.mtx", "meas.csv", "roll.dict", "recon.csv", "recon_auto.csv", "cert.csv"):
        yield "cli-roll3 " + name, file_sha(work.path(name))
    for name, digest in dictionary_shas(work.path("roll.dict")):
        yield "cli-roll3 roll.dict[%s]" % name, digest
    for column, digest in column_shas(work.path("cert.csv")):
        yield "cli-roll3 cert.csv[%s]" % column, digest
    matrix = measurement.load_matrix(work.path("M.mtx"))
    dictionary = gmra.load_dictionary(work.path("roll.dict"))
    query = geometry.load_csv(work.path("query.csv"))
    yield from recover_every_scale("cli-roll3 gaussian m=8", matrix, dictionary, query.points)
    train = geometry.load_csv(work.path("train.csv"))
    adaptive = gmra.build_dictionary(train, local_dim=None, max_local_dim=3, max_scale=8, min_points=6)
    path = os.path.join(tmp, "adaptive.dict")
    gmra.save_dictionary(adaptive, path)
    yield "cli-roll3 adaptive.dict", file_sha(path)
    for name, digest in dictionary_shas(path):
        yield "cli-roll3 adaptive.dict[%s]" % name, digest
    yield from recover_every_scale("cli-roll3 adaptive gaussian m=8", matrix, adaptive, query.points)
    check = measurement.verify_assumption_set
    for name, report in (("assumption set 1", check(matrix, adaptive, x=query.points[0], eps=workloads.EPS)),
                         ("assumption set 2", check(matrix, adaptive, which=2, eps=workloads.EPS, cloud=train))):
        yield from report_shas("cli-roll3 adaptive gaussian m=8 %s" % name, report)
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        cli.main(["gmra", "validate", "--dict", work.path("roll.dict"), "--cloud", work.path("train.csv"), "--json"])
    yield "cli-roll3 validate --json", sha(report.getvalue().encode())
    for field, value in sorted(json.loads(report.getvalue()).items()):
        yield "cli-roll3 validate --json[%s]" % field, sha(json.dumps(value).encode())
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        cli.main(["measure", "verify", "--matrix", work.path("M.mtx"), "--probes", work.path("query.csv"),
                  "--eps", str(workloads.EPS)])
    yield "cli-roll3 measure verify --probes", sha(report.getvalue().encode())
    # an m = D Haar matrix is an exact isometry, so no pair of query.csv is cleared without its sums
    isometry = measurement.orthoprojection_matrix(3, 3, 7)
    yield from report_shas("cli-roll3 isometry verify_distortion",
                           measurement.verify_distortion(isometry, query.points, workloads.EPS))


def fps_clouds(seed, tmp):
    rng = np.random.default_rng(seed)
    yield from fps_shas("fps gaussian n=1500 R^200", rng.standard_normal((1500, 200)), stop_fraction=2.0**-6)
    yield from fps_shas("fps lattice 5x5", rng.integers(0, 5, (400, 2)).astype(float))


def main():
    for seed in SEEDS:
        for workload in (grid_roll3, roll200, cli_roll3, fps_clouds):
            with tempfile.TemporaryDirectory() as tmp:
                for name, digest in workload(seed, tmp):
                    print("%d %s %s" % (seed, name, digest), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
