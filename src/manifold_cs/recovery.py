"""Two-step reconstruction from compressed measurements, with certificates.

Given an n x m block of measurements Mx, a scale j (or "auto"), and the
multiscale dictionary, recovery (i) picks each row's compressed-nearest
center k' at scale j, (ii) solves the overdetermined least squares problem
min_u || M B^T u - (Mx - Mc) || on that cell's plane with an SVD
pseudoinverse truncated at 1e-10 relative, and (iii) assembles B^T u' + c.
Only steps (i) and (ii) work in R^m, and D enters at step (iii) alone: the
pseudoinverses are read from the matrix's compressed fit table, one SVD
per matrix and dictionary (``measurement._fit_solves``), and the answer is
written out a block of rows at a time.
One batched core runs all three steps: ``recover_batch`` is its n-row call
and ``recover`` its 1-row call.  Only on a near-tie within the distance
kernel's rounding can a row's answer depend on the rows recovered with it:
BLAS may round a 1-row product differently from a block's
(see ``geometry.nearest_rows``).
``certify_batch`` evaluates, for known queries x, both sides of the
center-quality (line 3, against the best center of the layer the recovery
searched) and least-squares-quality (line 4) inequalities, plus the
optimal-point comparison when the nearest manifold points are known;
``certify`` is its 1-row call.  ``nearest_point_oracle`` gives those points
for every row at once; on the swiss roll, by one grid search and one
bisection pass.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, is_number, require, require_finite, require_shape
from .geometry import SWISS_ROLL_HEIGHT, SWISS_ROLL_T_MAX, SWISS_ROLL_T_MIN, PointCloud, nearest_rows, swiss_roll_point
# nearest_center is not called here; it stays a module attribute because the
# benchmark's tracer patches recovery.nearest_center.
from .gmra import affine_rows, nearest_center, plane_coeffs  # noqa: F401
from .measurement import _fit_solves, e_m_bound

STABLE_RECOVERY_CONSTANT = 100.3
# the manifolds nearest_point_oracle knows by name; any other is given as a PointCloud
MANIFOLDS = ("sphere", "swiss-roll")


@dataclass
class CertificateBundle:
    """Both sides of the per-instance recovery inequalities.

    line3 compares the chosen center's distance to the best center's
    (scaled by sqrt((1+eps)/(1-eps))); line4 compares the reconstruction's
    distance from the true projection against twice the compressed residual
    over (1-eps).  When the nearest manifold point is known,
    optimal_error_bound carries 100.3 times the optimal error, and
    optimal_error_excess the amount by which the reconstruction error exceeds
    it (negative means the bound held with no additive term needed); the
    additive dyadic term is reported separately by the caller because its
    constant is existential.
    """

    epsilon_used: float
    line3_lhs: float
    line3_rhs: float
    line4_lhs: float
    line4_rhs: float
    optimal_error_bound: float | None = None
    optimal_error_excess: float | None = None
    line3_set2_rhs: float | None = None
    tube_lhs: float | None = None
    tube_rhs: float | None = None

    @property
    def line3_holds(self):
        return self.line3_lhs <= self.line3_rhs + 1e-12 * (1.0 + abs(self.line3_rhs))

    @property
    def line4_holds(self):
        return self.line4_lhs <= self.line4_rhs + 1e-12 * (1.0 + abs(self.line4_rhs))


@dataclass
class RecoveryOutcome:
    """Result of one compressed reconstruction."""

    reconstruction: np.ndarray
    searched_scale: int
    chosen_scale: int
    chosen_center: int
    coefficients: np.ndarray
    compressed_residual: float
    ill_conditioned: bool


@dataclass
class BatchRecovery:
    """Column-oriented result of recovering n measurement rows; row i is point i.

    searched_scale is the layer whose centers were searched (the finest one
    for "auto"), and chosen_centers index it.  chosen_scales give the scale
    whose fit served each row: the requested scale, or for "auto" the scale
    at which the chosen cell was last refit.
    coefficients has one column per basis row of the fit table's widest fit,
    zero past each row's local dimension.
    """

    reconstructions: np.ndarray
    searched_scale: int
    chosen_scales: np.ndarray
    chosen_centers: np.ndarray
    coefficients: np.ndarray
    residuals: np.ndarray
    ill_conditioned: np.ndarray


def recover(measurements, matrix, dictionary, j):
    """Approximate the scale-j projection of x from measurements Mx.

    j may be "auto", which descends to the finest scale and reports the
    scale at which the chosen cell was last freshly refit (deeper scales for
    that cell are carried-forward copies).
    """
    batch = recover_batch(np.asarray(measurements, dtype=np.float64)[None], matrix, dictionary, j)
    k = int(batch.chosen_centers[0])
    return RecoveryOutcome(
        reconstruction=batch.reconstructions[0],
        searched_scale=batch.searched_scale,
        chosen_scale=int(batch.chosen_scales[0]),
        chosen_center=k,
        coefficients=batch.coefficients[0, : dictionary.local_dims(batch.searched_scale)[k]],
        compressed_residual=float(batch.residuals[0]),
        ill_conditioned=bool(batch.ill_conditioned[0]),
    )


def recover_batch(measurements, matrix, dictionary, j):
    """Recover every row of an n x m measurement block at scale j or "auto".

    Each row's least squares reads its fit's pseudoinverse from the matrix's
    compressed fit table (``measurement._fit_solves``), each system
    zero-padded to the fit table's width, so every scale of one matrix reads
    the same solves and padding columns get zero coefficients.  Each row is
    solved and assembled on its own, the answer written out a block of rows
    at a time (``gmra.affine_rows``), so a 1-row call gives the same answer
    as the matching row of an n-row call.  A matrix not in the dictionary's
    R^D, measurements not n x m and non-finite measurements are refused.
    """
    require_shape("matrix", matrix.entries, "m", dictionary.ambient_dim)
    y = np.asarray(measurements, dtype=np.float64)
    require_shape("measurements", y, "n", matrix.m)
    require_finite("measurements", y)
    auto = isinstance(j, str) and j == "auto"
    scale = dictionary.max_scale if auto else j
    comp_centers = dictionary.centers(scale) @ matrix.entries.T
    cells = nearest_rows(y, comp_centers)
    rhs = y - comp_centers[cells]
    fits = dictionary.cell_fits(scale)[cells]
    a_sub, pinv, rank, _ = _fit_solves(matrix, dictionary)
    coeffs = (pinv[fits] @ rhs[:, :, None])[:, :, 0]
    residuals = np.linalg.norm((a_sub[fits] @ coeffs[:, :, None])[:, :, 0] - rhs, axis=1)
    return BatchRecovery(
        reconstructions=affine_rows(dictionary, fits, coeffs),
        searched_scale=int(scale),
        chosen_scales=dictionary.origin_scales(scale)[cells] if auto else np.full(len(y), scale),
        chosen_centers=cells,
        coefficients=coeffs,
        residuals=residuals,
        ill_conditioned=rank[fits] < dictionary.fit_dims[fits],
    )


def certify(x, matrix, dictionary, outcome, eps, x_opt=None):
    """Evaluate the per-instance inequality certificates for a known query x.

    Certification is diagnostic: it needs the uncompressed point.  With
    x_opt supplied, the optimal-error comparison and the admissible-tube
    quantities are recorded as well; the stability-form center bound (which
    mixes the compression bound of the uniform assumptions) is reported but
    never gated on.  This is the 1-row call of ``certify_batch``.
    """
    one = BatchRecovery(
        reconstructions=np.array([outcome.reconstruction], dtype=np.float64),
        searched_scale=outcome.searched_scale,
        chosen_scales=np.array([outcome.chosen_scale]),
        chosen_centers=np.array([outcome.chosen_center]),
        coefficients=np.array([outcome.coefficients]),
        residuals=np.array([outcome.compressed_residual]),
        ill_conditioned=np.array([outcome.ill_conditioned]),
    )
    columns = certify_batch([x], matrix, dictionary, one, eps, None if x_opt is None else [x_opt])
    return CertificateBundle(epsilon_used=float(eps), **{name: float(col[0]) for name, col in columns.items()})


def certify_batch(points, matrix, dictionary, batch, eps, x_opt=None):
    """Certificates for every row of a BatchRecovery, one array per quantity.

    The keys are the CertificateBundle fields other than epsilon_used.  Line
    3 compares each row's chosen center with the center nearest to the query
    in the layer the recovery searched (the finest one for "auto", whatever
    scale the chosen fit was made at).  The optimal-error, set-2 and tube
    columns are present only when x_opt, the nearest manifold point of each
    query, is given.  points, and x_opt when given, must be finite and have
    the batch's rows and width; a set-2 column past float64's range raises
    ``measurement.e_m_bound``'s BoundOverflowError.
    """
    require(is_number(eps) and 0 < eps < 0.5, "eps", eps, "in (0, 1/2)")
    x = np.asarray(points, dtype=np.float64)
    require_shape("points", x, *batch.reconstructions.shape)
    require_finite("points", x)
    if x_opt is not None:
        x_opt = np.asarray(x_opt, dtype=np.float64)
        require_shape("x_opt", x_opt, *x.shape)
        require_finite("x_opt", x_opt)
    searched, cells = batch.searched_scale, batch.chosen_centers
    layer = dictionary.centers(searched)
    outside = cells[(cells < 0) | (cells >= len(layer))].tolist()
    require(not outside, "batch", outside, "a recovery with no chosen center outside its scale (0 to %d)" % (len(layer) - 1))
    fits = dictionary.cell_fits(searched)[cells]
    rel = x - dictionary.fit_centers[fits]
    coeffs = plane_coeffs(dictionary, fits, rel)
    proj_x = affine_rows(dictionary, fits, coeffs)
    ratio = np.sqrt((1.0 + eps) / (1.0 - eps))
    best = np.linalg.norm(x - layer[nearest_rows(x, layer)], axis=1)
    line3_rhs = ratio * best
    # ||P x - x'|| = ||B (x - c) - u'||: no cancellation between points of the cloud's magnitude
    width = min(coeffs.shape[1], batch.coefficients.shape[1])
    columns = {
        "line3_lhs": np.linalg.norm(rel, axis=1),
        "line3_rhs": line3_rhs,
        "line4_lhs": np.linalg.norm(coeffs[:, :width] - batch.coefficients[:, :width], axis=1),
        # one matrix-vector product per row, so a row's value does not depend on the batch
        "line4_rhs": 2.0 / (1.0 - eps) * np.linalg.norm(matrix.entries @ (x - proj_x)[:, :, None], axis=(1, 2)),
    }
    if x_opt is not None:
        gap = x - x_opt
        opt_err = np.linalg.norm(gap, axis=1)
        bound = STABLE_RECOVERY_CONSTANT * opt_err
        sparsity = int(dictionary.fit_dims.max())
        # the tube's distance to the finest layer: line 3's when that is the layer searched
        if searched != dictionary.max_scale:
            finest = dictionary.centers(dictionary.max_scale)
            best = np.linalg.norm(x - finest[nearest_rows(x, finest)], axis=1)
        d_man = dictionary.max_local_dim(dictionary.max_scale)
        columns["optimal_error_bound"] = bound
        columns["optimal_error_excess"] = np.linalg.norm(x - batch.reconstructions, axis=1) - bound
        columns["line3_set2_rhs"] = (
            line3_rhs + (1.0 + ratio) * opt_err + np.sqrt(4.0 / (1.0 - eps)) * e_m_bound(gap, eps, sparsity)
        )
        columns["tube_lhs"] = 2.0 * opt_err + 6.0 / (5.0 * np.sqrt(d_man)) * np.linalg.norm(gap, ord=1, axis=1)
        columns["tube_rhs"] = best
    return columns


def nearest_point_oracle(x, manifold):
    """Nearest point on a known manifold: the benchmark recovery is judged by.

    x is a D-vector or an n x D block (one nearest point per row).  manifold
    is one of MANIFOLDS, "sphere" (the unit sphere of R^D) or "swiss-roll"
    (which needs D = 3), or a PointCloud in R^D (exact nearest sample).
    """
    x = np.asarray(x, dtype=np.float64)
    require(x.ndim in (1, 2), "x", x.shape, "a vector or a block of row vectors")
    require_finite("x", x)
    rows = np.atleast_2d(x)
    if isinstance(manifold, PointCloud):
        require_shape("manifold", manifold.points, "n", rows.shape[1])
        out = manifold.points[nearest_rows(rows, manifold.points)]
    elif manifold == "sphere":
        norms = np.linalg.norm(rows, axis=1)
        require(np.all(norms >= 1e-300), "manifold", manifold, "a manifold with one nearest point to each point "
                "(every sphere point is nearest to the origin)")
        out = rows / norms[:, None]
    elif manifold == "swiss-roll":
        require(rows.shape[1] == 3, "manifold", manifold, "a manifold in the points' R^%d" % rows.shape[1])
        out = _nearest_on_swiss_roll(rows)
    else:
        raise ParameterError("manifold", "%s or a PointCloud" % ", ".join('"%s"' % name for name in MANIFOLDS), manifold)
    return out if x.ndim == 2 else out[0]


def _nearest_on_swiss_roll(x):
    """Nearest roll point per row, the height clipped to the roll's.

    Each row's seed is its nearest point of a 4,096-point spiral grid by the
    distance kernel.  The grid may seed the farther of two about equally
    near arms, so a row also brackets the other arm, half a radian about the
    seed's angle one turn in or out (at most one is on the spiral), unless its
    radius keeps it farther from there than from the seed: a spiral point at
    t lies at radius t.  One bisection over all brackets, on the sign of the
    squared distance's derivative, runs until no bracket shrinks; a row keeps
    the nearest of its bisection ends, seed bracket ends and the spiral ends.
    """
    n, a, b = len(x), x[:, 0], x[:, 2]
    ts = np.linspace(SWISS_ROLL_T_MIN, SWISS_ROLL_T_MAX, 4096)
    seeds = nearest_rows(x[:, [0, 2]], np.stack([ts * np.cos(ts), ts * np.sin(ts)], axis=1))
    lo0, hi0 = ts[np.maximum(seeds - 1, 0)], ts[np.minimum(seeds + 1, len(ts) - 1)]
    turn = ts[seeds] + np.where(ts[seeds] < 3.0 * np.pi, 2.0 * np.pi, -2.0 * np.pi)
    turn_lo, turn_hi = (np.clip(turn + w, SWISS_ROLL_T_MIN, SWISS_ROLL_T_MAX) for w in (-0.5, 0.5))
    radius = np.hypot(a, b)
    other = np.nonzero((np.clip(radius, turn_lo, turn_hi) - radius) ** 2 < _roll_fval(ts[seeds], a, b))[0]
    lo, hi = np.concatenate([lo0, turn_lo[other]]), np.concatenate([hi0, turn_hi[other]])
    row_a, row_b = np.concatenate([a, a[other]]), np.concatenate([b, b[other]])
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = _roll_fgrad(mid, row_a, row_b) < 0.0
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)
    far = lo0.copy()  # a row with no second bracket repeats a candidate
    far[other] = lo[n:]
    # the other arm's candidate comes last, so it wins only when strictly nearer
    candidates = np.stack([lo[:n], lo0, hi0, np.full(n, SWISS_ROLL_T_MIN), np.full(n, SWISS_ROLL_T_MAX), far])
    t_star = candidates[np.argmin(_roll_fval(candidates, a, b), axis=0), np.arange(n)]
    return swiss_roll_point(t_star, np.clip(x[:, 1], 0.0, SWISS_ROLL_HEIGHT))


def _roll_fval(t, a, b):
    """Squared distance from (a, b) to the roll's cross-section spiral at parameter t."""
    return (t * np.cos(t) - a) ** 2 + (t * np.sin(t) - b) ** 2


def _roll_fgrad(t, a, b):
    ct, st = np.cos(t), np.sin(t)
    return 2.0 * (t * ct - a) * (ct - t * st) + 2.0 * (t * st - b) * (st + t * ct)
