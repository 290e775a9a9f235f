"""Two-step reconstruction from compressed measurements, with certificates.

Given an n x m block of measurements Mx, a scale j (or "auto"), and the
multiscale dictionary, recovery (i) picks each row's compressed-nearest
center k' at scale j, (ii) solves the overdetermined least squares problem
min_u || M B^T u - (Mx - Mc) || on that cell's plane with an SVD
pseudoinverse truncated at 1e-10 relative, and (iii) assembles B^T u' + c.
One batched core runs all three steps: ``recover_batch`` is its n-row call
and ``recover`` its 1-row call, and a row's answer does not depend on the
rows recovered with it.  ``certify_batch`` evaluates, for known queries x,
both sides of the center-quality (line 3, against the best center of the
layer the recovery searched) and least-squares-quality (line 4)
inequalities, plus the optimal-point comparison when the nearest manifold
points are known; ``certify`` is its 1-row call.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .geometry import (
    SWISS_ROLL_HEIGHT,
    SWISS_ROLL_T_MAX,
    SWISS_ROLL_T_MIN,
    PointCloud,
    swiss_roll_point,
)
# nearest_center is not called here; it stays a module attribute because the
# benchmark's tracer patches recovery.nearest_center.
from .gmra import _nearest_rows, nearest_center, plane_coeffs, plane_rows  # noqa: F401
from .measurement import e_m_bound

SVD_TRUNCATION = 1e-10
STABLE_RECOVERY_CONSTANT = 100.3


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
    coefficients has one column per basis row of the widest cell, zero past
    each row's local dimension.
    """

    reconstructions: np.ndarray
    searched_scale: int
    chosen_scales: np.ndarray
    chosen_centers: np.ndarray
    coefficients: np.ndarray
    residuals: np.ndarray
    ill_conditioned: np.ndarray


def _truncated_pinv(a):
    """Pseudoinverses and numerical ranks of a stack of m x d systems.

    Singular values at or below 1e-10 times the largest of their system are
    dropped; a zero system gets a zero pseudoinverse and rank 0.
    """
    u_mat, svals, vt = np.linalg.svd(a, full_matrices=False)
    keep = svals > SVD_TRUNCATION * svals[..., :1]
    inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=keep)
    pinv = (vt.swapaxes(-1, -2) * inv[..., None, :]) @ u_mat.swapaxes(-1, -2)
    return pinv, keep.sum(axis=-1)


def recover(measurements, matrix, dictionary, j):
    """Approximate the scale-j projection of x from measurements Mx.

    j may be "auto", which descends to the finest scale and reports the
    scale at which the chosen cell was last freshly refit (deeper scales for
    that cell are carried-forward copies).
    """
    y = np.asarray(measurements, dtype=np.float64)
    if y.shape != (matrix.m,):
        raise ValueError("measurements have shape %s, matrix yields m=%d" % (y.shape, matrix.m))
    batch = recover_batch(y[None], matrix, dictionary, j)
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

    The pseudoinverses of the fits the rows touch (one per fit, however many
    cells share it) come from one stacked SVD per local dimension, and each
    row is solved and assembled on its own, so a 1-row call gives the same
    answer as the matching row of an n-row call.
    """
    y = np.asarray(measurements, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != matrix.m:
        raise ValueError("measurements must be n x m")
    if matrix.ambient_dim != dictionary.ambient_dim:
        raise ValueError("matrix and dictionary ambient dimensions differ")
    auto = j == "auto"
    scale = dictionary.max_scale if auto else int(j)
    if not (0 <= scale <= dictionary.max_scale):
        raise ValueError("scale %s outside [0, %d]" % (j, dictionary.max_scale))
    comp_centers = dictionary.centers(scale) @ matrix.entries.T
    cells = _nearest_rows(y, comp_centers)
    rhs = y - comp_centers[cells]
    fits = dictionary.cell_fits(scale)[cells]
    dims = dictionary.fit_dims[fits]
    n = y.shape[0]
    coeffs = np.zeros((n, dictionary.max_local_dim(scale)))
    residuals = np.empty(n)
    ill = np.empty(n, dtype=bool)
    for d in np.unique(dims):
        rows = np.nonzero(dims == d)[0]
        group, slot = np.unique(fits[rows], return_inverse=True)
        a_sub = matrix.entries @ dictionary.fit_bases[group, :d].swapaxes(1, 2)  # one m x d system per touched fit
        pinv, rank = _truncated_pinv(a_sub)
        c = (pinv[slot] @ rhs[rows, :, None])[:, :, 0]
        coeffs[rows, :d] = c
        residuals[rows] = np.linalg.norm((a_sub[slot] @ c[:, :, None])[:, :, 0] - rhs[rows], axis=1)
        ill[rows] = rank[slot] < d
    return BatchRecovery(
        reconstructions=plane_rows(dictionary, fits, coeffs) + dictionary.fit_centers[fits],
        searched_scale=scale,
        chosen_scales=dictionary.origin_scales(scale)[cells] if auto else np.full(n, scale),
        chosen_centers=cells,
        coefficients=coeffs,
        residuals=residuals,
        ill_conditioned=ill,
    )


def certify(x, matrix, dictionary, outcome, eps, x_opt=None, tube_delta=0.0):
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
    columns = certify_batch([x], matrix, dictionary, one, eps, None if x_opt is None else [x_opt], tube_delta)
    return CertificateBundle(epsilon_used=float(eps), **{name: float(col[0]) for name, col in columns.items()})


def certify_batch(points, matrix, dictionary, batch, eps, x_opt=None, tube_delta=0.0):
    """Certificates for every row of a BatchRecovery, one array per quantity.

    The keys are the CertificateBundle fields other than epsilon_used.  Line
    3 compares each row's chosen center with the center nearest to the query
    in the layer the recovery searched (the finest one for "auto", whatever
    scale the chosen fit was made at).  The optimal-error, set-2 and tube
    columns are present only when x_opt, the nearest manifold point of each
    query, is given.
    """
    if not (0 < eps < 0.5):
        raise ValueError("eps must lie in (0, 1/2)")
    x = np.asarray(points, dtype=np.float64)
    searched, cells = batch.searched_scale, batch.chosen_centers
    layer = dictionary.centers(searched)
    if np.any((cells < 0) | (cells >= len(layer))):
        raise ValueError("a chosen center lies outside its scale")
    fits = dictionary.cell_fits(searched)[cells]
    centers = dictionary.fit_centers[fits]
    rel = x - centers
    coeffs = plane_coeffs(dictionary, fits, rel)
    proj_x = plane_rows(dictionary, fits, coeffs) + centers
    ratio = np.sqrt((1.0 + eps) / (1.0 - eps))
    best = np.linalg.norm(x - layer[_nearest_rows(x, layer)], axis=1)
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
        gap = x - np.asarray(x_opt, dtype=np.float64)
        opt_err = np.linalg.norm(gap, axis=1)
        bound = STABLE_RECOVERY_CONSTANT * opt_err
        sparsity = int(dictionary.fit_dims.max())
        # the tube's distance to the finest layer: line 3's when that is the layer searched
        if searched != dictionary.max_scale:
            finest = dictionary.centers(dictionary.max_scale)
            best = np.linalg.norm(x - finest[_nearest_rows(x, finest)], axis=1)
        d_man = dictionary.max_local_dim(dictionary.max_scale)
        columns["optimal_error_bound"] = bound
        columns["optimal_error_excess"] = np.linalg.norm(x - batch.reconstructions, axis=1) - bound
        columns["line3_set2_rhs"] = (
            line3_rhs + (1.0 + ratio) * opt_err + np.sqrt(4.0 / (1.0 - eps)) * e_m_bound(gap, eps, sparsity)
        )
        columns["tube_lhs"] = 2.0 * opt_err + 6.0 / (5.0 * np.sqrt(d_man)) * np.linalg.norm(gap, ord=1, axis=1)
        columns["tube_rhs"] = np.maximum(best, tube_delta)
    return columns


def nearest_point_oracle(x, manifold, intrinsic_dim=None):
    """Nearest point on a known manifold: the benchmark recovery is judged by.

    x is a D-vector or an n x D block (one nearest point per row).  manifold
    is "sphere", "swiss-roll", or a PointCloud (exact nearest sample).  For
    spheres embedded in a larger ambient space, intrinsic_dim selects the
    leading block that carries the sphere; trailing coordinates of the
    optimum are zero.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = np.atleast_2d(x)
    if isinstance(manifold, PointCloud):
        out = manifold.points[_nearest_rows(rows, manifold.points)]
    elif manifold == "sphere":
        d = (rows.shape[1] - 1) if intrinsic_dim is None else int(intrinsic_dim)
        norms = np.array([np.linalg.norm(row[: d + 1]) for row in rows])
        if np.any(norms < 1e-300):
            raise ValueError("nearest sphere point is not unique at the origin")
        out = np.zeros_like(rows)
        out[:, : d + 1] = rows[:, : d + 1] / norms[:, None]
    elif manifold == "swiss-roll":
        out = _nearest_on_swiss_roll(rows)
    else:
        raise ValueError("unknown manifold descriptor %r" % (manifold,))
    return out if x.ndim == 2 else out[0]


def _nearest_on_swiss_roll(x, grid_size=4096, block=256):
    """Dense parameter grid seed per row, refined per row to 1e-10 gradient tolerance."""
    if x.shape[1] != 3:
        raise ValueError("swiss roll lives in R^3")
    ts = np.linspace(SWISS_ROLL_T_MIN, SWISS_ROLL_T_MAX, grid_size)
    seeds = np.empty(x.shape[0], dtype=np.intp)
    # blocks of rows keep the grid's temporaries at block x grid_size
    for start in range(0, x.shape[0], block):
        chunk = x[start : start + block]
        seeds[start : start + block] = np.argmin(_roll_fval(ts, chunk[:, :1], chunk[:, 2:]), axis=1)
    out = np.empty_like(x)
    for r, (a, height, b) in enumerate(x):
        lo = ts[max(0, seeds[r] - 1)]
        hi = ts[min(grid_size - 1, seeds[r] + 1)]
        if _roll_fgrad(lo, a, b) < 0 < _roll_fgrad(hi, a, b):
            t_star = brentq(_roll_fgrad, lo, hi, args=(a, b), xtol=1e-13)
        else:
            res = minimize_scalar(_roll_fval, bounds=(lo, hi), args=(a, b), method="bounded", options={"xatol": 1e-13})
            t_star = float(res.x)
            for edge in (SWISS_ROLL_T_MIN, SWISS_ROLL_T_MAX):
                if _roll_fval(edge, a, b) < _roll_fval(t_star, a, b):
                    t_star = edge
        out[r] = swiss_roll_point(t_star, float(np.clip(height, 0.0, SWISS_ROLL_HEIGHT)))
    return out


def _roll_fval(t, a, b):
    """Squared distance from (a, b) to the roll's cross-section spiral at parameter t."""
    return (t * np.cos(t) - a) ** 2 + (t * np.sin(t) - b) ** 2


def _roll_fgrad(t, a, b):
    ct, st = np.cos(t), np.sin(t)
    return 2.0 * (t * ct - a) * (ct - t * st) + 2.0 * (t * st - b) * (st + t * ct)
