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


# cert.csv's certificate columns, in order: certify_batch's keys, the last five present only given x_opt
CERT_COLUMNS = ("line3_lhs", "line3_rhs", "line4_lhs", "line4_rhs", "optimal_error_bound", "optimal_error_excess",
                "line3_set2_rhs", "tube_lhs", "tube_rhs")


def holds(lhs, rhs):
    """Whether a certificate lhs <= rhs holds, up to 1e-12 (1 + |rhs|) of rounding; elementwise on arrays."""
    return lhs <= rhs + 1e-12 * (1.0 + np.abs(rhs))


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
    """The 1-row call of ``recover_batch``: the BatchRecovery of one measurement vector Mx."""
    return recover_batch(np.asarray(measurements, dtype=np.float64)[None], matrix, dictionary, j)


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


def certify(x, matrix, dictionary, batch, eps, x_opt=None):
    """The 1-row call of ``certify_batch``: the certificate columns of a 1-row BatchRecovery of the query x."""
    one = None if x_opt is None else np.asarray(x_opt, dtype=np.float64)[None]
    return certify_batch(np.asarray(x, dtype=np.float64)[None], matrix, dictionary, batch, eps, one)


def certify_batch(points, matrix, dictionary, batch, eps, x_opt=None):
    """Certificates for every row of a BatchRecovery, one array per quantity.

    The keys are CERT_COLUMNS, each lhs <= rhs pair judged by ``holds``.
    Line 3 compares the chosen center's distance to the query with the
    nearest center's in the layer searched (the finest one for "auto",
    whatever scale the chosen fit was made at), scaled by
    sqrt((1+eps)/(1-eps)); line 4 the reconstruction's distance from the
    query's projection on the chosen plane with twice that projection's
    compressed residual over (1-eps).  Only given x_opt, each query's
    nearest manifold point, come the last five: 100.3 times the optimal
    error, the reconstruction error's excess over it (negative: the bound
    held with no additive dyadic term, whose constant is existential), the
    stability-form center bound (never gated on) and both sides of the tube
    check.  points and x_opt must be finite with the batch's shape, and the
    batch's coefficients must have the fit table's width; a set-2 column
    past float64's range raises ``measurement.e_m_bound``'s BoundOverflowError.
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
    width = dictionary.fit_bases.shape[1]
    require(batch.coefficients.shape == (len(x), width), "batch", batch.coefficients.shape,
            "a recovery whose coefficients are shaped (%d, %d), the fit table's width" % (len(x), width))
    fits = dictionary.cell_fits(searched)[cells]
    rel = x - dictionary.fit_centers[fits]
    coeffs = plane_coeffs(dictionary, fits, rel)
    proj_x = affine_rows(dictionary, fits, coeffs)
    ratio = np.sqrt((1.0 + eps) / (1.0 - eps))
    best = np.linalg.norm(x - layer[nearest_rows(x, layer)], axis=1)
    line3_rhs = ratio * best
    # ||P x - x'|| = ||B (x - c) - u'||: no cancellation between points of the cloud's magnitude
    columns = {
        "line3_lhs": np.linalg.norm(rel, axis=1),
        "line3_rhs": line3_rhs,
        "line4_lhs": np.linalg.norm(coeffs - batch.coefficients, axis=1),
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
