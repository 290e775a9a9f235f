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
* Every distance search goes through one kernel, ``sq_dists``, or its
  blocked argmin ``_nearest_rows``: a Gram expansion in coordinates centered
  on the mean of the searched rows, so rounding scales with the cloud's
  spread, not its offset (a cloud shifted by 1e8 builds the same cells), and
  a query's answer does not depend on the other queries of the call.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import FileFormatError
from .geometry import farthest_point_ordering
from .storage import DICT_MAGIC, read_container, write_container

DICT_FORMAT_VERSION = 4

ORTHONORMALITY_TOL = 1e-10
IDEMPOTENCY_TOL = 1e-10


class MultiscaleDictionary:
    """Cells of scales 0..J in (scale, index) order, served by one table of affine fits.

    Row f of the fit table is a center and a basis: fit_dims[f] orthonormal
    rows, then zero rows up to the widest fit.  Cell offsets[j] + k is cell k
    of scale j; cell_fit gives the table row serving it.  A fit's origin scale
    is the scale of the first cell it serves.  A cell served by a fit from a
    coarser scale keeps the fit of the same cell one scale up, which the
    constructor checks.  The per-scale accessors gather the table through
    cell_fit.
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
        if fit.shape != (n,):
            raise ValueError("cell_fit needs one entry per cell")
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


def _cell_fit(points, mode):
    """Mean of a cell's points and the rows of its top right-singular-vector basis.

    mode is either ("fixed", d) or ("adaptive", energy_threshold, d_max).
    """
    mean = points.mean(axis=0)
    centered = points - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if mode[0] == "fixed":
        d = mode[1]
    else:
        _, threshold, d_max = mode
        if svals[0] == 0.0:
            d = 1
        else:
            energy = (svals / svals[0]) ** 2  # normalised first: squaring the raw values can overflow
            frac = np.cumsum(energy) / energy.sum()
            d = int(np.searchsorted(frac, threshold - 1e-12) + 1)
        d = min(d, d_max, points.shape[1])
    return mean, vt[: min(d, vt.shape[0])]


# Blocked scans keep each temporary near this many float64 entries (2 MB).
_BLOCK_ENTRIES = 1 << 18


def _centered(b):
    """The mean of the rows of b, b relative to it, and those rows' squared norms."""
    ref = b.mean(axis=0)
    rel = b - ref
    return ref, rel, np.einsum("ij,ij->i", rel, rel)


def _sq_dists_centered(a, ref, b_rel, b_sq):
    a_rel = a - ref
    d2 = np.einsum("ij,ij->i", a_rel, a_rel)[:, None] + b_sq[None, :] - 2.0 * (a_rel @ b_rel.T)
    return np.maximum(d2, 0.0, out=d2)


def sq_dists(a, b):
    """Squared distances between the rows of a and b, clipped at 0: a Gram expansion about b's mean.

    An entry's rounding error is a few ulps of the squared distances of its
    two rows from that mean, wherever the mean sits.
    """
    return _sq_dists_centered(a, *_centered(b))


def _nearest_rows(a, b):
    """Index of the row of b nearest to each row of a (ties to the lowest): blocked argmin of ``sq_dists``."""
    terms = _centered(b)
    block = max(1, _BLOCK_ENTRIES // len(b))
    out = np.empty(len(a), dtype=np.intp)
    for lo in range(0, len(a), block):
        out[lo : lo + block] = np.argmin(_sq_dists_centered(a[lo : lo + block], *terms), axis=1)
    return out


def build_dictionary(
    cloud,
    local_dim=None,
    max_scale=6,
    energy_threshold=0.95,
    max_local_dim=None,
    min_points=None,
):
    """Build a multiscale dictionary over the cloud.

    local_dim fixes the plane dimension everywhere; pass None to pick it per
    cell as the smallest dimension holding at least energy_threshold of the
    cell's spectral energy, capped at max_local_dim.  min_points is the
    smallest cell allowed to refine (defaults to local_dim + 1, the least
    count that determines a d-plane).
    """
    if max_scale < 0:
        raise ValueError("max_scale must be >= 0")
    if local_dim is not None:
        if local_dim < 1:
            raise ValueError("local_dim must be >= 1")
        mode = ("fixed", int(local_dim))
        min_required = local_dim + 1
    else:
        if max_local_dim is None:
            raise ValueError("adaptive mode needs max_local_dim")
        mode = ("adaptive", float(energy_threshold), int(max_local_dim))
        min_required = 2
    if min_points is None:
        min_points = min_required
    min_points = max(int(min_points), min_required)
    pts = cloud.points
    n = pts.shape[0]
    if n < min_required:
        raise ValueError("cloud has %d points, need at least %d" % (n, min_required))

    order, radii = farthest_point_ordering(pts, stop_fraction=2.0**-max_scale)
    root_radius = float(radii[0])
    seeds = np.empty(0, dtype=np.intp)  # accepted seeds, stable across scales: cell k <-> seeds[k]
    pops = np.empty(0, dtype=np.intp)  # cell populations at the previous scale
    row = np.empty(0, dtype=np.intp)  # the fit-table row serving each cell of the current scale
    rows = []  # row, for every scale
    fit_centers, fit_bases = [], []  # the fit table, one row per fresh fit
    fresh_per_scale, reused_per_scale, copied_per_scale = [], [], []

    for j in range(max_scale + 1):
        # the scale-j net: the FPS prefix whose covering radius is <= r_0 2^-j
        net = order[: np.argmax(radii <= root_radius * 2.0**-j) + 1]
        new = net[~np.isin(net, seeds)]
        if j > 0 and new.size:  # the root seed is accepted unconditionally
            pool = np.concatenate([seeds, new])
            first_pops = np.bincount(_nearest_rows(pts, pts[pool]), minlength=len(pool))
            new = new[first_pops[len(seeds) :] >= min_points]
        old = len(seeds)
        seeds = np.concatenate([seeds, new])
        assign = _nearest_rows(pts, pts[seeds])
        new_pops = np.bincount(assign, minlength=len(seeds))
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
            center, basis = _cell_fit(pts[by_cell[ends[k] - new_pops[k] : ends[k]]], mode)
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
        "energy_threshold": float(energy_threshold) if local_dim is None else None,
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
    if not (0 <= j <= dictionary.max_scale):
        raise ValueError("scale %d outside [0, %d]" % (j, dictionary.max_scale))
    x = np.asarray(x, dtype=np.float64)
    centers = dictionary.centers(j)
    if x.shape != (centers.shape[1],):
        raise ValueError("point has shape %s, centers live in R^%d" % (x.shape, centers.shape[1]))
    return int(_nearest_rows(x[None], centers)[0])


def project_at_scale(dictionary, j, pts):
    """Apply the nearest-center projector at scale j to every row of pts."""
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != dictionary.ambient_dim:
        raise ValueError("points have shape %s, the dictionary lives in R^%d" % (pts.shape, dictionary.ambient_dim))
    fits = dictionary.cell_fits(j)[_nearest_rows(pts, dictionary.centers(j))]
    centers = dictionary.fit_centers[fits]
    return in_plane_rows(dictionary, fits, pts - centers) + centers


def in_plane_rows(dictionary, fits, rel):
    """Row i is B^T B rel[i], for the basis B of fit-table row fits[i]."""
    return plane_rows(dictionary, fits, plane_coeffs(dictionary, fits, rel))


def plane_coeffs(dictionary, fits, rel):
    """Row i is B rel[i], for the basis B of fit-table row fits[i]; zero past its local dimension."""
    bases = dictionary.fit_bases
    return np.stack([(rel * bases[fits, t]).sum(axis=1) for t in range(bases.shape[1])], axis=1)


def plane_rows(dictionary, fits, coeffs):
    """Row i is coeffs[i] @ B, for the basis B of fit-table row fits[i].

    Products are summed one basis row at a time, so a row's result does not
    depend on the other rows of the call.
    """
    return sum(coeffs[:, t, None] * dictionary.fit_bases[fits, t] for t in range(coeffs.shape[1]))


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
    tube_margins: list
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


def validate_structure(dictionary, cloud, probe_budget=200, rng_seed=0):
    """Exhaustively check the structural invariants and estimate the soft constants.

    Hard checks: pairwise center separation against the recorded constant,
    orthonormal bases, idempotent projections.  (Nondecreasing per-scale
    counts are the constructor's to refuse.)  Soft quantities (reported, not
    gated): the parent margin, the tube scale j_0, per-scale mean
    approximation error with its fitted dyadic decay exponent, and the
    near-center error constants under both the 16x and 8x qualifying radii.
    The decay exponent is the OLS slope of log2(mean error) against scale
    over scales j >= 1, and its interval is the OLS 95 percent t-interval
    on that slope (zero width when the fit is exact; see ``_fit_decay``).
    """
    failures = []
    sep_ok, sep_margin, sep_pair = _check_separation(dictionary)
    if not sep_ok:
        failures.append("separation violated at scale %d between centers %d and %d" % sep_pair)

    parent_margin, parent_worst = _check_parents(dictionary)

    ortho_ok, ortho_worst = _check_orthonormal(dictionary)
    if not ortho_ok:
        failures.append("basis rows not orthonormal (worst %.3g)" % ortho_worst)

    idem_ok, idem_worst = _check_idempotent(dictionary, rng_seed)
    if not idem_ok:
        failures.append("projector not idempotent (worst %.3g)" % idem_worst)

    tube_j0, tube_margins = _estimate_tube_scale(dictionary, cloud)

    errors = mean_error_per_scale(dictionary, cloud)
    slope, ci = _fit_decay(errors)
    mono = all(
        errors[j + 1] <= errors[j] * 1.05 + 1e-15 for j in range(len(errors) - 1)
    )

    c16, c8 = _estimate_near_center_constants(dictionary, cloud, probe_budget, rng_seed)

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
        tube_margins=tube_margins,
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
        margin = min_dist / (c1 * 2.0**-j) - 1.0
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


def _check_orthonormal(dictionary):
    """Largest |B B^T - I| entry over all fits; zero padding rows are held to 0."""
    bases = dictionary.fit_bases
    width = bases.shape[1]
    eye = np.eye(width) * (np.arange(width) < dictionary.fit_dims[:, None])[:, :, None]
    worst = float(np.abs(bases @ bases.swapaxes(1, 2) - eye).max())
    return worst < ORTHONORMALITY_TOL, worst


def _check_idempotent(dictionary, rng_seed, probes=100):
    """Largest |P P r - P r| / (1 + |r|), P = B^T B, over standard normal offsets r.

    The ratio is relative, so the offsets need not follow the cloud's scale
    (at a huge one, their norms would overflow) nor where its centers sit.
    """
    rng = np.random.default_rng(rng_seed)
    rel = rng.standard_normal(size=(probes, dictionary.ambient_dim))
    scale = 1.0 + np.linalg.norm(rel, axis=1)
    worst = 0.0
    for basis, d in zip(dictionary.fit_bases, dictionary.fit_dims):
        basis = basis[:d]
        once = (rel @ basis.T) @ basis
        twice = (once @ basis.T) @ basis
        worst = max(worst, float((np.linalg.norm(twice - once, axis=1) / scale).max()))
    return worst < IDEMPOTENCY_TOL, worst


def _estimate_tube_scale(dictionary, cloud):
    """Smallest j0 such that all deeper scales keep centers inside the shrinking tube."""
    centers, pts = dictionary.fit_centers, cloud.points
    dists = np.linalg.norm(centers - pts[_nearest_rows(centers, pts)], axis=1)[dictionary.cell_fit]
    worst = np.maximum.reduceat(dists, dictionary.offsets[:-1])
    allowed = dictionary.sep_constant * 2.0 ** (-2.0 - np.arange(len(worst)))
    hold = worst < allowed
    return next((j for j in range(len(hold)) if hold[j:].all()), None), (allowed - worst).tolist()


def mean_error_per_scale(dictionary, cloud):
    """Mean distance from each cloud point to its nearest-center projection, per scale."""
    pts = cloud.points
    return [
        float(np.linalg.norm(pts - project_at_scale(dictionary, j, pts), axis=1).mean())
        for j in range(dictionary.max_scale + 1)
    ]


def _fit_decay(errors, min_scale=1):
    """OLS slope of log2(error) against scale, with its 95 percent t-interval.

    Only scales j >= min_scale with a positive error are used. Edge cases:
    fewer than 2 usable scales give NaN for the slope and both bounds;
    exactly 2 give the line through them with an infinite half-width (no
    residual degrees of freedom); an exact fit (zero residuals, as when the
    fine scales are carried-forward copies and the errors are constant) gives
    a zero-width interval at the slope.
    """
    usable = [(j, e) for j, e in enumerate(errors) if e > 0 and j >= min_scale]
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
        resid = dy - slope * dx
        stderr = np.sqrt((resid @ resid) / (n - 2) / sxx)
        half = float(stats.t.ppf(0.975, n - 2) * stderr)
    else:
        half = np.inf
    return slope, (slope - half, slope + half)


def _estimate_near_center_constants(dictionary, cloud, budget, rng_seed):
    """Largest error-to-scale ratio over near-qualifying centers, at factors 16 and 8.

    A probe's off-plane residual depends only on the fit, so each (probe,
    fit) residual is computed once and every scale reads its cells' columns.
    """
    rng = np.random.default_rng(rng_seed)
    pts = cloud.points
    if pts.shape[0] > budget:
        pts = pts[rng.choice(pts.shape[0], size=budget, replace=False)]
    fit_centers = dictionary.fit_centers
    every_fit = np.arange(len(fit_centers))
    # a block's (probe, fit) offsets fill at most block x F x D entries
    block = max(1, _BLOCK_ENTRIES // fit_centers.size)
    resid = np.empty((len(pts), len(fit_centers)))
    for lo in range(0, len(pts), block):
        x = pts[lo : lo + block]
        rel = (x[:, None] - fit_centers).reshape(-1, fit_centers.shape[1])
        off = rel - in_plane_rows(dictionary, np.tile(every_fit, len(x)), rel)
        resid[lo : lo + block] = np.linalg.norm(off, axis=1).reshape(len(x), -1)
    c16 = 0.0
    c8 = 0.0
    for j in range(dictionary.max_scale + 1):
        centers, fits = dictionary.centers(j), dictionary.cell_fits(j)
        floor = dictionary.sep_constant * 2.0 ** (-j - 1)
        block = max(1, _BLOCK_ENTRIES // centers.size)
        for lo in range(0, len(pts), block):
            dists = np.sqrt(sq_dists(pts[lo : lo + block], centers))
            base = np.maximum(dists.min(axis=1), floor)
            rows, near = np.nonzero(dists <= 16.0 * base[:, None])
            ratio = resid[lo + rows, fits[near]] * 2.0**j
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
    """Read a dictionary container, rejecting malformed files and broken invariants."""
    manifest, blob = read_container(path, DICT_MAGIC)
    if manifest.get("version") != DICT_FORMAT_VERSION:
        raise FileFormatError("unsupported dictionary version %r" % manifest.get("version"))
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
        raise FileFormatError("damaged file or invariant rejected at load time: %r" % exc) from exc
    ok, worst = _check_orthonormal(dictionary)
    if not ok:
        raise FileFormatError("non-orthonormal basis (worst deviation %.3g)" % worst)
    return dictionary
