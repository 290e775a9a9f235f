"""Multiscale piecewise-linear dictionary: build, query, validate, persist.

The dictionary is a tree of cells over dyadic scales j = 0 .. J.  It is
stored as one table of affine fits (centers, zero-padded orthonormal bases,
local dimensions), each fit held once, plus one array in (scale, index)
order: the table row serving each cell.  Scale-j cells are Voronoi regions
of a farthest-point-sampling net at radius r_0 * 2^-j; each fit's affine
projector x -> B^T B (x - c) + c is the least-squares plane through its
cell's points (cell mean c plus top principal directions B).  A cell's
parent is not stored: it is the nearest scale-(j-1) center (ties to the
lowest index), which recovery never walks and ``validate_structure``
recomputes.
Construction details that matter for the invariants:

* One global FPS ordering is computed once and stops at the first pick
  whose covering radius is <= r_0 * 2^-J; every scale's net is a prefix of
  it, so net seeds are nested across scales and pairwise separation at scale
  j exceeds r_0 * 2^-j by construction.
* A new seed is accepted at scale j only when its cell keeps at least
  min_points points; cells that can no longer refine carry their fit
  forward unchanged (the deepest available fit keeps serving that region),
  which keeps every query scale total and the per-scale counts monotone.
* A carried cell shares its fit's table row, so the build writes one row per
  fresh fit and, per scale, the row serving each cell.  A fit's origin scale
  is the scale of the first cell it serves.
* Centers are cell means, not sample points, so the recorded separation
  constant is measured on the built centers rather than assumed.
* Cells are read off the FPS pass.  At every pick FPS holds each row's
  difference-form distance to the picked prefix, and it reports each row
  that the pick becomes the strictly nearest pick of.  Replaying those
  moves up to a scale's net gives every row's nearest net point, ties to the
  earliest pick.  Their counts are the first populations that accept or
  reject the new seeds, and a row whose nearest net point was accepted
  stays in that point's cell.  Only the orphans of a rejected point are
  searched, by the kernel below, against the accepted seeds in pick order,
  so that ties go to the earliest pick there too.  A build thus costs one
  FPS pass plus the orphans' search, not two scans of every row per scale.
  The FPS pass settles up to 24 picks per numpy pass over the rows (see
  ``geometry.farthest_point_ordering``), with the same order, radii and
  moves as one pick per pass.
* Each fresh fit's plane comes from the thin SVD of its centered cell, or,
  when d + 2 is below both the cell's size and D, from the smaller Gram
  matrix refined by one subspace-iteration step (see ``_cell_fit``), so a
  fit costs O(n_k D min(n_k, D)) with a small constant.
* Every other distance search, from the orphans' above to the separation,
  parent and tube checks, goes through ``geometry``'s distance layer:
  ``sq_dists`` and its blocked argmin ``nearest_rows``.
* Every blocked pass, the scan above and the passes over the fit table
  here and in ``measurement``, sizes its blocks from one budget,
  ``geometry._BLOCK_ENTRIES``: 2^15 float64 entries per temporary.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import FileFormatError, TooFewPointsError, is_number, require, require_finite, require_integer, require_shape
from .geometry import (_BLOCK_ENTRIES, cloud_points, farthest_point_ordering, gram_frame, gram_sq_dists, nearest_rows,
                       sq_dists)
from .storage import DICT_MAGIC, read_container, write_container

DICT_FORMAT_VERSION = 4

ORTHONORMALITY_TOL = 1e-10
IDEMPOTENCY_TOL = 1e-10
# the deepest scale a build takes: the separation constant scales distances by 2.0**j, finite up to here
MAX_BUILD_SCALE = 1023


class MultiscaleDictionary:
    """Cells of scales 0..J in (scale, index) order, served by one table of affine fits.

    Row f of the fit table is a center and a basis: fit_dims[f] orthonormal
    rows, then zero rows up to the widest fit.  Cell offsets[j] + k is cell k
    of scale j; cell_fit gives the table row serving it.  A fit's origin scale
    is the scale of the first cell it serves.  A cell served by a fit from a
    coarser scale keeps the fit of the same cell one scale up, which the
    constructor checks.  The per-scale accessors gather the table through
    cell_fits, which refuses a scale j that is not an integer in [0, J].
    """

    def __init__(self, counts, fit_centers, fit_bases, fit_dims, cell_fit, sep_constant, root_radius, provenance):
        counts = [int(c) for c in counts]
        if not counts or counts[0] < 1:
            raise ValueError("dictionary needs at least one cell at scale 0")
        if np.any(np.diff(counts) < 0):
            j = int(np.argmax(np.diff(counts) < 0))
            raise ValueError("per-scale counts must be nondecreasing, got K_%d=%d > K_%d=%d" % (j, *counts[j : j + 2]))
        self.offsets = np.cumsum([0] + counts)
        self.fit_centers = np.array(fit_centers, dtype=np.float64)
        self.fit_bases = np.array(fit_bases, dtype=np.float64)
        self.fit_dims = np.array(fit_dims, dtype=np.intp)
        self.cell_fit = np.array(cell_fit, dtype=np.intp)
        self.sep_constant = float(sep_constant)
        self.root_radius = float(root_radius)
        self.provenance = provenance
        # checked before the per-cell arrays are made, so a damaged count cannot ask for a huge one
        if self.cell_fit.shape != (self.offsets[-1],):
            raise ValueError("cell_fit needs one entry per cell")
        self._scale = np.repeat(np.arange(len(counts)), counts)
        # the first cell each fit serves, and so the scale at which it was fit
        self._first_cell = self._validate(np.array([0] + counts[:-1])[self._scale])
        self._origin = self._scale[self._first_cell]
        for arr in (self.fit_centers, self.fit_bases, self.fit_dims, self.cell_fit):
            arr.setflags(write=False)

    def _validate(self, prev_count):
        n, scale = self.offsets[-1], self._scale
        centers, bases, dims, fit = self.fit_centers, self.fit_bases, self.fit_dims, self.cell_fit
        if centers.ndim != 2 or bases.ndim != 3 or bases.shape[::2] != centers.shape or dims.shape != centers.shape[:1]:
            raise ValueError("need F x D centers, F x d_max x D bases and F local dims for a table of F fits")
        if not (np.isfinite(centers).all() and np.isfinite(bases).all()):
            raise ValueError("centers and bases must be finite")
        # orthonormal rows have entries in [-1, 1]; checked before any product of bases can overflow
        if np.any(np.abs(bases) > 1.0 + ORTHONORMALITY_TOL):
            raise ValueError("non-orthonormal basis: entries must lie in [-1, 1]")
        padding = np.arange(bases.shape[1]) >= dims[:, None]
        if np.any(dims < 1) or np.any(dims > bases.shape[1]) or np.any(bases[padding]):
            raise ValueError("local dims must lie in [1, %d], with zero basis rows past them" % bases.shape[1])
        row = np.arange(n)
        index = row - self.offsets[scale]
        # numpy wraps negative indices, so the range check comes before any gather through cell_fit
        bad = np.nonzero((fit < 0) | (fit >= len(dims)))[0]
        if bad.size:
            r = bad[0]
            raise ValueError("cell (%d,%d) names fit %d of a table of %d" % (scale[r], index[r], fit[r], len(dims)))
        used, first = np.unique(fit, return_index=True)
        if len(used) < len(dims):
            raise ValueError("%d of the %d fits serve no cell" % (len(dims) - len(used), len(dims)))
        # a cell served by a fit from a coarser scale keeps the fit of the same cell one scale up
        carried = scale[first[fit]] < scale
        up = np.where(carried & (index < prev_count), self.offsets[scale - 1] + index, row)
        bad = np.nonzero(carried & ((index >= prev_count) | (fit[up] != fit)))[0]
        if bad.size:
            r = bad[0]
            raise ValueError("cell (%d,%d) has fit %d from scale %d, not the fit of the cell above it"
                             % (scale[r], index[r], fit[r], scale[first[fit[r]]]))
        return first

    @property
    def max_scale(self):
        return len(self.offsets) - 2

    @property
    def ambient_dim(self):
        return self.fit_centers.shape[1]

    def counts(self):
        return np.diff(self.offsets).tolist()

    def cell_fits(self, j):
        """The fit-table row serving each scale-j cell."""
        j = require_integer("j", j, 0, self.max_scale)
        return self.cell_fit[self.offsets[j] : self.offsets[j + 1]]

    def first_cell(self, f):
        """(scale, index) of the first cell fit f serves: the cell it was fit to."""
        r = self._first_cell[f]
        return int(self._scale[r]), int(r - self.offsets[self._scale[r]])

    def centers(self, j):
        """K_j x D matrix of scale-j centers."""
        return self.fit_centers[self.cell_fits(j)]

    def bases(self, j):
        """K_j x d_max x D scale-j bases, d_max the widest scale-j cell; zero rows pad the others."""
        return self.fit_bases[self.cell_fits(j), : self.max_local_dim(j)]

    def local_dims(self, j):
        return self.fit_dims[self.cell_fits(j)]

    def max_local_dim(self, j):
        return int(self.local_dims(j).max())

    def origin_scales(self, j):
        return self._origin[self.cell_fits(j)]


# _cell_fit's oversampling p: the Gram path keeps d + p candidate directions.
_OVERSAMPLE = 2


def _cell_fit(points, d_max, threshold):
    """Mean of a cell's points and the rows of its top right-singular-vector basis.

    threshold None fixes the plane's dimension at d_max; else it is the least
    holding threshold of the cell's spectral energy, at most d_max.  With C
    the centered n_k x D cell and k = min(d_max + _OVERSAMPLE, n_k, D),
    k = D takes the thin SVD of C.  Below
    that the top-k subspace comes from the smaller Gram matrix of C scaled
    to max |entry| 1, so that squaring cannot overflow: the top-k
    eigenvectors V of C^T C (n_k >= D), or C^T U for those U of C C^T.  One
    subspace-iteration step C^T (C V) and its QR basis Q, then the thin SVD
    of C Q, give the basis (Halko, Martinsson and Tropp, SIAM Review 2011,
    Algorithms 4.4 and 5.1): O(n_k D min(n_k, D)) for the Gram matrix, at a
    far smaller constant than the thin SVD's.  A threshold is read against
    the energy fractions of the singular values squared, or of the Gram
    eigenvalues.

    Accuracy.  With singular values s_0 >= s_1 >= ... of C and u the float64
    machine epsilon, the Gram matrix's rounding moves its top-i subspace by
    about u s_0^2 / (s_{i-1}^2 - s_i^2).  The step shrinks what lies past
    the top k by (s_k / s_{d-1})^2 against the top d, and the SVD of C Q
    adds the thin SVD's own u s_0 / (s_{d-1} - s_d).  So where the spectrum
    falls past the plane, as on a sampled manifold, the plane is the thin
    SVD's to rounding; a direction whose singular value lies under about
    sqrt(u) s_0 = 1.5e-8 s_0 in a flat tail is set by rounding instead,
    which moves the fit's residual by no more than that singular value.
    """
    mean = points.mean(axis=0)
    centered = points - mean
    n_k, dim = centered.shape
    k = min(d_max + _OVERSAMPLE, n_k, dim)
    if k == dim:
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        energy = (svals / svals[0]) ** 2 if svals[0] > 0 else svals  # normalised first: raw squares can overflow
    else:
        top = np.abs(centered).max()
        cell = centered / top if top > 0 else centered
        if n_k >= dim:
            energy, vecs = np.linalg.eigh(cell.T @ cell)
            start = vecs[:, -k:]
        else:
            energy, vecs = np.linalg.eigh(cell @ cell.T)
            start = cell.T @ vecs[:, -k:]
        energy = np.maximum(energy[::-1], 0.0)
        q = np.linalg.qr(cell.T @ (cell @ start))[0]
        vt = np.linalg.svd(cell @ q, full_matrices=False)[2] @ q.T
    if threshold is None:
        d = d_max
    elif energy[0] == 0.0:
        d = 1
    else:
        frac = np.cumsum(energy) / energy.sum()
        d = min(int(np.searchsorted(frac, threshold - 1e-12) + 1), d_max, dim)
    return mean, vt[: min(d, vt.shape[0])]


def build_dictionary(
    cloud,
    local_dim=None,
    max_scale=6,
    energy_threshold=0.95,
    max_local_dim=None,
    min_points=None,
):
    """Build a multiscale dictionary over the cloud.

    local_dim fixes the plane dimension everywhere, and then max_local_dim
    must be None; pass None to pick it per cell as the smallest dimension
    holding at least energy_threshold of the cell's spectral energy, capped
    at max_local_dim.  min_points is the smallest cell allowed to refine
    (defaults to local_dim + 1, the least count that determines a d-plane).
    """
    max_scale = require_integer("max_scale", max_scale, 0, MAX_BUILD_SCALE)
    if local_dim is not None:
        local_dim = require_integer("local_dim", local_dim, 1)
    require(local_dim is None or max_local_dim is None, "max_local_dim", max_local_dim, "unset when local_dim is given")
    require(max_local_dim is not None or local_dim is not None, "max_local_dim", max_local_dim,
            "an integer >= 1 when local_dim is None")
    if max_local_dim is not None:
        max_local_dim = require_integer("max_local_dim", max_local_dim, 1)
    require(is_number(energy_threshold) and 0 < energy_threshold <= 1, "energy_threshold", energy_threshold,
            "in (0, 1]")
    if min_points is not None:
        min_points = require_integer("min_points", min_points, 1)
    d_max, threshold = (local_dim, None) if local_dim is not None else (max_local_dim, float(energy_threshold))
    min_required = local_dim + 1 if local_dim is not None else 2
    min_points = max(min_points or 0, min_required)
    pts = cloud_points(cloud)
    n = pts.shape[0]
    if n < min_required:
        raise TooFewPointsError("cloud has %d points, need at least %d" % (n, min_required))

    order, radii, (moved, picks) = farthest_point_ordering(pts, stop_fraction=2.0**-max_scale)
    root_radius = float(radii[0])
    nearest = np.zeros(n, dtype=np.intp)  # each row's nearest pick of the current net, ties to the earliest
    cell_of = np.full(len(order), -1, dtype=np.intp)  # the cell each pick seeds, -1 while it seeds none
    replayed = 0  # the moves replayed so far
    pops = np.empty(0, dtype=np.intp)  # cell populations at the previous scale
    row = np.empty(0, dtype=np.intp)  # the fit-table row serving each cell of the current scale
    rows = []  # row, for every scale
    fit_centers, fit_bases = [], []  # the fit table, one row per fresh fit
    fresh_per_scale, reused_per_scale, copied_per_scale = [], [], []

    for j in range(max_scale + 1):
        # the scale-j net: the FPS prefix whose covering radius is <= r_0 2^-j
        size = int(np.argmax(radii <= root_radius * 2.0**-j)) + 1
        start, replayed = replayed, int(np.searchsorted(picks, size))
        np.maximum.at(nearest, moved[start:replayed], picks[start:replayed])  # a row's nearest pick only grows
        new = np.flatnonzero(cell_of[:size] < 0)
        if j > 0:  # the root seed is accepted unconditionally
            new = new[np.bincount(nearest, minlength=size)[new] >= min_points]
        old = len(pops)
        cell_of[new] = old + np.arange(len(new))
        # a row keeps its nearest net point when that was accepted; the orphans of a rejected one go to
        # the nearest accepted seed, searched in pick order so that ties go to the earliest pick
        assign = cell_of[nearest]
        orphans = np.flatnonzero(assign < 0)
        if orphans.size:
            seeds = np.flatnonzero(cell_of[:size] >= 0)
            assign[orphans] = cell_of[seeds[nearest_rows(pts[orphans], pts[order[seeds]])]]
        new_pops = np.bincount(assign, minlength=old + len(new))
        # cells only ever lose points to newly accepted seeds, so an unchanged
        # population means an unchanged cell, which keeps its fit; a cell left
        # with too few points to refit keeps the coarser fit as well
        same = new_pops[:old] == pops
        refit = np.concatenate([~same & (new_pops[:old] >= min_points), np.ones(len(new), dtype=bool)])
        fresh = np.nonzero(refit)[0]
        row = np.concatenate([row, np.empty(len(new), dtype=np.intp)])
        row[fresh] = len(fit_centers) + np.arange(len(fresh))
        # one stable sort groups the points by cell, each cell in increasing row order
        by_cell, ends = np.argsort(assign, kind="stable"), np.cumsum(new_pops)
        for k in fresh:
            center, basis = _cell_fit(pts[by_cell[ends[k] - new_pops[k] : ends[k]]], d_max, threshold)
            fit_centers.append(center)
            fit_bases.append(basis)
        rows.append(row)
        pops = new_pops
        fresh_per_scale.append(len(fresh))
        reused_per_scale.append(int(np.count_nonzero(same)))
        copied_per_scale.append(int(np.count_nonzero(~same & ~refit[:old])))

    centers = np.array(fit_centers)
    dims = np.array([len(basis) for basis in fit_bases])
    bases = np.zeros((len(dims), dims.max(), pts.shape[1]))
    bases[np.arange(dims.max()) < dims[:, None]] = np.concatenate(fit_bases)

    # the observed separation: the closest center pair per scale, normalized by 2^-j
    seps = [_closest_pair(centers[r])[2] * 2.0**j for j, r in enumerate(rows) if len(r) >= 2]
    sep_constant = min([root_radius] + [sep * (1.0 - 1e-9) for sep in seps])

    provenance = {
        "builder": "fps-voronoi-tree",
        "n": int(n),
        "cloud_sha256": hashlib.sha256(pts.tobytes()).hexdigest(),
        "cloud_label": cloud.label,
        "local_dim": None if local_dim is None else int(local_dim),
        "energy_threshold": threshold,
        "max_local_dim": None if max_local_dim is None else int(max_local_dim),
        "min_points": int(min_points),
        "fresh_per_scale": fresh_per_scale,
        "reused_per_scale": reused_per_scale,
        "copied_per_scale": copied_per_scale,
    }
    return MultiscaleDictionary(
        [len(r) for r in rows],
        centers,
        bases,
        dims,
        np.concatenate(rows),
        sep_constant,
        root_radius,
        provenance,
    )


def _closest_pair(centers):
    """(k1, k2, distance) of the two nearest distinct rows, k1 < k2."""
    d2 = sq_dists(centers, centers)
    np.fill_diagonal(d2, np.inf)
    k1, k2 = np.unravel_index(np.argmin(d2), d2.shape)
    return int(min(k1, k2)), int(max(k1, k2)), float(np.sqrt(d2[k1, k2]))


def nearest_center(dictionary, j, x):
    """Index of the scale-j center nearest to x; ties break to the lowest index."""
    x = np.asarray(x, dtype=np.float64)
    centers = dictionary.centers(j)
    require_shape("x", x, dictionary.ambient_dim)
    require_finite("x", x)
    return int(nearest_rows(x[None], centers)[0])


def project_at_scale(dictionary, j, pts):
    """Apply the nearest-center projector at scale j to every row of pts."""
    pts = np.asarray(pts, dtype=np.float64)
    require_shape("pts", pts, "n", dictionary.ambient_dim)
    require_finite("pts", pts)
    fits = dictionary.cell_fits(j)[nearest_rows(pts, dictionary.centers(j))]
    return affine_rows(dictionary, fits, plane_coeffs(dictionary, fits, pts - dictionary.fit_centers[fits]))


def plane_coeffs(dictionary, fits, rel):
    """Row i is B rel[i], for the basis B of fit-table row fits[i]; zero past its local dimension.

    fits may have any shape that broadcasts against rel's leading axes.
    """
    bases = dictionary.fit_bases
    return np.stack([(rel * bases[fits, t]).sum(axis=-1) for t in range(bases.shape[1])], axis=-1)


def plane_rows(dictionary, fits, coeffs):
    """Row i is coeffs[i] @ B, for the basis B of fit-table row fits[i].

    Products are summed one basis row at a time, from the first, so a row's
    result does not depend on the other rows of the call. As in
    ``plane_coeffs``, fits may broadcast against coeffs' leading axes.
    """
    bases = dictionary.fit_bases
    rows = coeffs[..., 0, None] * bases[fits, 0]
    for t in range(1, coeffs.shape[-1]):
        rows += coeffs[..., t, None] * bases[fits, t]
    return rows


def affine_rows(dictionary, fits, coeffs):
    """Row i is coeffs[i] @ B + c, for the fit (c, B) of fit-table row fits[i]; n x D.

    The same sums as ``plane_rows(dictionary, fits, coeffs) +
    dictionary.fit_centers[fits]``, bit for bit, written into the output a
    block of rows at a time: each basis row and the centers are gathered
    into one reused block buffer from the contiguous table, so a call makes
    no n x D temporary beside its output, and its speed does not hang on how
    the allocator serves such temporaries.  (``np.take`` from a strided
    view, such as ``fit_bases[:, t]``, would copy the whole view first.)
    """
    bases, centers = dictionary.fit_bases, dictionary.fit_centers
    table, dim = bases.reshape(-1, bases.shape[2]), bases.shape[2]
    first = fits * bases.shape[1]  # row of each fit's first basis row in table
    out = np.empty((len(fits), dim))
    step = max(1, _BLOCK_ENTRIES // dim)
    buf = np.empty((min(step, len(fits)), dim))
    # every index is a table row, so mode="clip" only spares take the buffering of its bounds check
    for lo in range(0, len(fits), step):
        block, rows, c = out[lo : lo + step], first[lo : lo + step], coeffs[lo : lo + step]
        tmp = buf[: len(rows)]
        np.take(table, rows, axis=0, out=block, mode="clip")
        block *= c[:, 0, None]
        for t in range(1, c.shape[1]):
            np.take(table, rows + t, axis=0, out=tmp, mode="clip")
            tmp *= c[:, t, None]
            block += tmp
        np.take(centers, fits[lo : lo + step], axis=0, out=tmp, mode="clip")
        block += tmp
    return out


@dataclass
class StructureReport:
    """Recomputable audit of the dictionary invariants against a cloud."""

    counts: list
    separation_ok: bool
    separation_margin: float
    separation_worst_pair: tuple | None
    parent_margin: float
    parent_worst: tuple | None
    orthonormal_ok: bool
    orthonormal_worst: float
    idempotent_ok: bool
    idempotent_worst: float
    tube_j0: int | None
    mean_error_per_scale: list
    decay_slope: float
    decay_slope_ci: tuple
    monotone_refinement_ok: bool
    ctilde_factor16: float
    ctilde_factor8: float
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return self.separation_ok and self.orthonormal_ok and self.idempotent_ok


def validate_structure(dictionary, cloud):
    """Exhaustively check the structural invariants and estimate the soft constants.

    Hard checks: pairwise center separation against the recorded constant,
    orthonormal bases, idempotent projections.  (Nondecreasing per-scale
    counts are the constructor's to refuse.)  Soft quantities (reported, not
    gated): the parent margin, the tube scale j_0, per-scale mean
    approximation error with its fitted dyadic decay exponent, and the
    near-center error constants under both the 16x and 8x qualifying radii,
    on at most 200 cloud points drawn with seed 0.  The decay exponent is
    the OLS slope of log2(mean error) against scale over scales j >= 1, and
    its interval is the OLS 95 percent t-interval on that slope (zero width
    when the fit is exact; see ``_fit_decay``).  The cloud must lie in the
    dictionary's R^D.
    """
    cloud_points(cloud, dictionary.ambient_dim)
    failures = []
    sep_ok, sep_margin, sep_pair = _check_separation(dictionary)
    if not sep_ok:
        failures.append("separation violated at scale %d between centers %d and %d" % sep_pair)

    parent_margin, parent_worst = _check_parents(dictionary)

    ortho_ok, ortho_worst = _check_orthonormal(dictionary)
    if not ortho_ok:
        failures.append("basis rows not orthonormal (worst %.3g)" % ortho_worst)

    idem_ok, idem_worst = _check_idempotent(dictionary)
    if not idem_ok:
        failures.append("projector not idempotent (worst %.3g)" % idem_worst)

    tube_j0 = _estimate_tube_scale(dictionary, cloud)

    errors = mean_error_per_scale(dictionary, cloud)
    slope, ci = _fit_decay(errors)
    mono = all(
        errors[j + 1] <= errors[j] * 1.05 + 1e-15 for j in range(len(errors) - 1)
    )

    c16, c8 = _estimate_near_center_constants(dictionary, cloud, 200, 0)

    return StructureReport(
        counts=dictionary.counts(),
        separation_ok=sep_ok,
        separation_margin=sep_margin,
        separation_worst_pair=sep_pair,
        parent_margin=parent_margin,
        parent_worst=parent_worst,
        orthonormal_ok=ortho_ok,
        orthonormal_worst=ortho_worst,
        idempotent_ok=idem_ok,
        idempotent_worst=idem_worst,
        tube_j0=tube_j0,
        mean_error_per_scale=errors,
        decay_slope=slope,
        decay_slope_ci=ci,
        monotone_refinement_ok=mono,
        ctilde_factor16=c16,
        ctilde_factor8=c8,
        failures=failures,
    )


def _check_separation(dictionary):
    worst_margin = np.inf
    worst_pair = None
    ok = True
    c1 = dictionary.sep_constant
    for j in range(dictionary.max_scale + 1):
        centers = dictionary.centers(j)
        if centers.shape[0] < 2:
            continue
        k1, k2, min_dist = _closest_pair(centers)
        # c1 is 0 only when two centers of some scale coincide
        margin = (min_dist / (c1 * 2.0**-j) if c1 > 0 else np.inf if min_dist > 0 else 0.0) - 1.0
        if margin < worst_margin:
            worst_margin = margin
            worst_pair = (j, k1, k2)
        if min_dist <= c1 * 2.0**-j:
            ok = False
    return ok, float(worst_margin), worst_pair


def _check_parents(dictionary):
    """How clearly each cell's parent, its nearest coarser center, beats the second nearest.

    The margin is (second nearest - nearest) / second nearest, worst over the
    cells of scales 1..J whose coarser scale has two centers or more, and
    -inf for a cell whose two nearest coarser centers both sit on it.
    """
    worst_margin = np.inf
    worst = None
    for j in range(1, dictionary.max_scale + 1):
        if len(dictionary.centers(j - 1)) == 1:
            continue
        dists = np.sqrt(sq_dists(dictionary.centers(j), dictionary.centers(j - 1)))
        nearest, second = np.partition(dists, 1, axis=1)[:, :2].T
        margin = np.divide(second - nearest, second, out=np.full_like(second, -np.inf), where=second > 0)
        k = int(np.argmin(margin))
        if margin[k] < worst_margin:
            worst_margin = float(margin[k])
            worst = (j, k)
    return float(worst_margin), worst


def _basis_defects(dictionary):
    """B B^T - I of every fit (F x w x w), I the identity on the fit's local dimension and zero on its padding."""
    gram = dictionary.fit_bases @ dictionary.fit_bases.swapaxes(1, 2)
    width = gram.shape[1]
    gram[:, range(width), range(width)] -= np.arange(width) < dictionary.fit_dims[:, None]
    return gram


def _check_orthonormal(dictionary):
    """Largest |B B^T - I| entry over all fits (``_basis_defects``); zero padding rows are held to 0."""
    worst = float(np.abs(_basis_defects(dictionary)).max())
    return worst < ORTHONORMALITY_TOL, worst


def _check_idempotent(dictionary):
    """Largest |P P r - P r| / (1 + |r|), P = B^T B, over 100 standard normal offsets r.

    The ratio is relative, so the offsets need not follow the cloud's scale
    (at a huge one, their norms would overflow) nor where its centers sit.
    Blocks of fits, each about _BLOCK_ENTRIES offsets, take stacked products.
    """
    rel = np.random.default_rng(0).standard_normal(size=(100, dictionary.ambient_dim))
    scale = 1.0 + np.linalg.norm(rel, axis=1)
    bases = dictionary.fit_bases
    block = max(1, _BLOCK_ENTRIES // rel.size)
    worst = 0.0
    for lo in range(0, len(bases), block):
        basis = bases[lo : lo + block]
        once = (rel @ basis.swapaxes(1, 2)) @ basis
        twice = (once @ basis.swapaxes(1, 2)) @ basis
        worst = max(worst, float((np.linalg.norm(twice - once, axis=2) / scale).max()))
    return worst < IDEMPOTENCY_TOL, worst


def _estimate_tube_scale(dictionary, cloud):
    """Smallest j0 such that all deeper scales keep centers inside the shrinking tube."""
    centers, pts = dictionary.fit_centers, cloud.points
    dists = np.linalg.norm(centers - pts[nearest_rows(centers, pts)], axis=1)[dictionary.cell_fit]
    worst = np.maximum.reduceat(dists, dictionary.offsets[:-1])
    allowed = dictionary.sep_constant * 2.0 ** (-2.0 - np.arange(len(worst)))
    hold = worst < allowed
    return next((j for j in range(len(hold)) if hold[j:].all()), None)


def mean_error_per_scale(dictionary, cloud):
    """Mean distance from each cloud point to its nearest-center projection, per scale."""
    pts = cloud_points(cloud, dictionary.ambient_dim)
    return [
        float(np.linalg.norm(pts - project_at_scale(dictionary, j, pts), axis=1).mean())
        for j in range(dictionary.max_scale + 1)
    ]


def _fit_decay(errors):
    """OLS slope of log2(error) against scale, with its 95 percent t-interval.

    Only scales j >= 1 with a positive error are used. Edge cases:
    fewer than 2 usable scales give NaN for the slope and both bounds;
    exactly 2 give the line through them with an infinite half-width (no
    residual degrees of freedom); an exact fit (zero residuals, as when the
    fine scales are carried-forward copies and the errors are constant) gives
    a zero-width interval at the slope.
    """
    usable = [(j, e) for j, e in enumerate(errors) if e > 0 and j >= 1]
    n = len(usable)
    if n < 2:
        return float("nan"), (float("nan"), float("nan"))
    xs = np.array([j for j, _ in usable], dtype=float)
    ys = np.log2([e for _, e in usable])
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ dy) / sxx
    if n > 2:
        from scipy.special import stdtrit  # the 0.975 t-quantile, as scipy.stats.t.ppf computes it

        resid = dy - slope * dx
        stderr = np.sqrt((resid @ resid) / (n - 2) / sxx)
        half = float(stdtrit(n - 2, 0.975) * stderr)
    else:
        half = np.inf
    return slope, (slope - half, slope + half)


def _off_plane_blocks(dictionary, pts, fits):
    """Off-plane parts of pts against the fits, in blocks of consecutive fits of about _BLOCK_ENTRIES offsets.

    The fit table is cut into the same blocks whatever fits holds; each block holding one of fits (fit-table
    rows) is yielded, in table order.  Row f of a block holds (x - c) - B^T B (x - c) for each x in pts and the
    block's f-th fit (c, B), summed by ``plane_coeffs`` and ``plane_rows``, so that a residual does not depend
    on the other points or fits of its block.  This is the one off-plane pass: set-2 item d and the
    near-center constants both read it.
    """
    block = max(1, _BLOCK_ENTRIES // pts.size)
    for lo in np.unique(np.asarray(fits, dtype=np.intp) // block) * block:
        rows = np.arange(lo, min(lo + block, len(dictionary.fit_centers)))[:, None]
        rel = pts - dictionary.fit_centers[rows]
        yield rel - plane_rows(dictionary, rows, plane_coeffs(dictionary, rows, rel))


def _estimate_near_center_constants(dictionary, cloud, budget, rng_seed):
    """Largest error-to-scale ratio over near-qualifying centers, at factors 16 and 8.

    A probe's off-plane residual depends only on the fit, so each (fit,
    probe) residual is computed once, by ``_off_plane_blocks``, and every
    scale reads its cells' rows.  Those residuals do not depend on the other
    rows of their block, so each equals the one a per-scale pass over only
    the near pairs gets.
    """
    rng = np.random.default_rng(rng_seed)
    pts = cloud.points
    if pts.shape[0] > budget:
        pts = pts[rng.choice(pts.shape[0], size=budget, replace=False)]
    every = np.arange(len(dictionary.fit_centers))
    resid = np.concatenate([np.linalg.norm(off, axis=2) for off in _off_plane_blocks(dictionary, pts, every)])
    c16 = c8 = 0.0
    for j in range(dictionary.max_scale + 1):
        centers, fits = dictionary.centers(j), dictionary.cell_fits(j)
        floor = dictionary.sep_constant * 2.0 ** (-j - 1)
        ref, c_rel, c_sq = gram_frame(centers)
        _, p_rel, p_sq = gram_frame(pts, ref)
        block = max(1, _BLOCK_ENTRIES // len(centers))
        for lo in range(0, len(pts), block):
            dists = np.sqrt(gram_sq_dists(p_rel[lo : lo + block], p_sq[lo : lo + block], c_rel, c_sq))
            base = np.maximum(dists.min(axis=1), floor)
            rows, near = np.nonzero(dists <= 16.0 * base[:, None])
            ratio = resid[fits[near], lo + rows] * 2.0**j
            c16 = max(c16, float(ratio.max()))
            c8 = max(c8, float(ratio[dists[rows, near] <= 8.0 * base[rows]].max(initial=0.0)))
    return c16, c8


def save_dictionary(dictionary, path):
    """Write the dictionary as a manifest plus one little-endian float64 blob.

    The manifest holds the per-scale counts, the local dimension of each of
    the F fits, and the fit of each of the N cells in (scale, index) order.
    The blob holds the fit centers (F x D), then the zero-padded fit bases
    (F x max_local_dim x D), both row-major.
    """
    manifest = {
        "version": DICT_FORMAT_VERSION,
        "ambient_dim": dictionary.ambient_dim,
        "counts": dictionary.counts(),
        "max_local_dim": dictionary.fit_bases.shape[1],
        "fit_local_dim": dictionary.fit_dims.tolist(),
        "cell_fit": dictionary.cell_fit.tolist(),
        "sep_constant": dictionary.sep_constant,
        "root_radius": dictionary.root_radius,
        "provenance": dictionary.provenance,
    }
    blob = dictionary.fit_centers.astype("<f8").tobytes() + dictionary.fit_bases.astype("<f8").tobytes()
    write_container(path, DICT_MAGIC, manifest, blob)


def load_dictionary(path):
    """Read a dictionary container; a malformed file or a broken invariant raises FileFormatError naming path first."""
    manifest, blob = read_container(path, DICT_MAGIC)
    if manifest.get("version") != DICT_FORMAT_VERSION:
        raise FileFormatError("%s: unsupported dictionary version %r" % (path, manifest.get("version")))
    try:
        # the constructor checks the shapes, so a blob of the wrong length fails in reshape or there
        fits, dim, width = len(manifest["fit_local_dim"]), manifest["ambient_dim"], manifest["max_local_dim"]
        flat = np.frombuffer(blob, dtype="<f8")
        dictionary = MultiscaleDictionary(
            manifest["counts"],
            flat[: fits * dim].reshape(fits, dim),
            flat[fits * dim :].reshape(fits, width, dim),
            manifest["fit_local_dim"],
            manifest["cell_fit"],
            manifest["sep_constant"],
            manifest["root_radius"],
            manifest.get("provenance", {}),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError("%s: damaged file or invariant rejected at load time: %r" % (path, exc)) from exc
    ok, worst = _check_orthonormal(dictionary)
    if not ok:
        raise FileFormatError("%s: non-orthonormal basis (worst deviation %.3g)" % (path, worst))
    return dictionary
