"""Random measurement matrices and empirical near-isometry certification.

Two ensembles are provided, named in ``ENSEMBLES`` and drawn by name by
``draw_matrix``, the one dispatch on the names.  Gaussian matrices carry
i.i.d. N(0, 1/m) entries so that E||Mv||^2 = ||v||^2; Haar orthoprojections
are the first m rows of a Haar-random orthogonal matrix scaled by
sqrt(D/m), which share the same normalization.  Verification is empirical
and exact on the probe sets it is handed: pairwise distortion, restricted
isometry by support enumeration, and the item-by-item assumption checks
used by the recovery guarantees.

Every fit's M B^T is formed and solved in one stacked SVD per matrix,
dictionary and width (``_fit_solves``), which recovery reads at the searched
scale's widest fit and the subspace item at the table's width: on a fixed-d
dictionary both assumption sets and every recovery of a matrix share it.

A saved matrix (format version 2) is a manifest of m, D, ensemble and seed,
then exactly m x D little-endian float64 entries, row-major; the ensemble
and seed regenerate it.
"""

import itertools
import math
import threading
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, ResourceLimitError, is_number, require, require_finite, require_integer, require_shape
from .geometry import _BLOCK_ENTRIES, gram_sq_dists
# epsilon_net_ball is not called here; it stays a module attribute because the
# benchmark's tracer patches measurement.epsilon_net_ball.
from .geometry import epsilon_net_ball  # noqa: F401
from .gmra import _off_plane_blocks, plane_coeffs, plane_rows
from .storage import MATRIX_MAGIC, read_container, write_container

MATRIX_FORMAT_VERSION = 2
# the measurement ensembles, by the name a matrix carries; draw_matrix draws each
ENSEMBLES = ("gaussian", "haar-orthoprojection")
ORTHO_ROW_TOL = 1e-10
SVD_TRUNCATION = 1e-10
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).smallest_subnormal
# the pair screen trusts its Gram values while every squared norm is at most this, so none overflows
_SCREEN_MAX_SQ = np.finfo(np.float64).max / 8
# The pair screen runs when D + m is above this; below, its ~30 passes over each pair cost more than summing
# every pair.  On 2,000 Gaussian rows and a Gaussian m=8 matrix (2 cores, BLAS on 1 thread; medians of 7
# interleaved runs, in two separate processes), the sums took 28-29 ms at D=3, 34-49 ms at D=17, 52-68 ms at
# D=32, 57-79 ms at D=40 and 77-111 ms at D=64, and the screen 75, 47-93, 61-85, 61-94 and 54-72 ms.
_PAIR_SCREEN_MIN_DIMS = 40


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """m x D measurement matrix with its generating recipe.

    The matrix holds its own read-only copy of the entries, so no later write
    to the caller's array can move them past the checks below, or under
    the fit solves cached per matrix (``_fit_solves``).
    """

    entries: np.ndarray
    ensemble: str
    seed: int

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.float64, order="C")
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a nonempty m x D matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix contains non-finite entries")
        _require_ensemble(self.ensemble)
        if self.ensemble == "haar-orthoprojection":
            m, dim = entries.shape
            gram = entries @ entries.T
            if np.max(np.abs(gram - (dim / m) * np.eye(m))) > ORTHO_ROW_TOL * max(1.0, dim / m):
                raise ValueError("haar-orthoprojection rows must be orthogonal with norm sqrt(D/m)")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def m(self):
        return self.entries.shape[0]

    @property
    def ambient_dim(self):
        return self.entries.shape[1]

    def apply(self, vectors):
        """Compress one D-vector or a block of row vectors."""
        return np.asarray(vectors, dtype=np.float64) @ self.entries.T


def _require_ensemble(ensemble):
    """ParameterError unless ensemble is one of ENSEMBLES."""
    require(ensemble in ENSEMBLES, "ensemble", ensemble, "one of %s" % ", ".join(map(repr, ENSEMBLES)))


def draw_matrix(ensemble, m, dim, seed):
    """The named ensemble's m x dim matrix drawn from seed, by the module's draw function looked up at call time."""
    _require_ensemble(ensemble)
    return (gaussian_matrix if ensemble == "gaussian" else orthoprojection_matrix)(m, dim, seed)


def gaussian_matrix(m, dim, seed):
    """i.i.d. N(0, 1/m) entries; E||Mv||^2 = ||v||^2."""
    require_integer("m", m, 1)
    require_integer("dim", dim, 1)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal(size=(m, dim)) / np.sqrt(m)
    return MeasurementMatrix(entries, "gaussian", int(seed))


def orthoprojection_matrix(m, dim, seed):
    """First m rows of a Haar-random orthogonal matrix, scaled by sqrt(D/m)."""
    require_integer("dim", dim, 1)
    require_integer("m", m, 1, dim)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))  # sign fix makes the distribution exactly Haar
    entries = q[:m] * np.sqrt(dim / m)
    return MeasurementMatrix(entries, "haar-orthoprojection", int(seed))


@dataclass
class DistortionReport:
    """Worst-case pairwise distortion of a matrix over a finite probe set."""

    max_distortion: float
    worst_pair: tuple
    epsilon: float
    passed: bool
    pairs_checked: int
    pairs_skipped: int


def verify_distortion(matrix, probes, eps):
    """Exact max over probe pairs of | ||Mu-Mv||^2 / ||u-v||^2 - 1 |.

    probes must be at least two finite vectors of the matrix's R^D.
    Coincident pairs are skipped; if every pair is coincident the check is
    undefined and the probes are refused.  The value, the worst pair and
    both counts are those of pdist's difference-form distances, bit for
    bit, so near-coincident pairs keep full relative accuracy; a Gram
    screen with a proven rounding bound clears the rows that cannot hold
    the worst pair (see ``_pair_distortion``).
    """
    require(is_number(eps) and 0 <= eps < np.inf, "eps", eps, "a finite number >= 0")
    probes = np.asarray(probes, dtype=np.float64)
    dim = matrix.ambient_dim
    require(probes.ndim == 2 and len(probes) >= 2 and probes.shape[1] == dim, "probes", probes.shape,
            "shaped (n, %d) with n >= 2" % dim)
    require_finite("probes", probes)
    max_distortion, worst_pair, checked, skipped = _pair_distortion(matrix, probes)
    require(checked > 0, "probes", 1, "at least two distinct vectors")  # all coincide: 1 distinct vector
    return DistortionReport(max_distortion, worst_pair, float(eps), bool(max_distortion <= eps), checked, skipped)


def _pair_distortion(matrix, vectors):
    """(max distortion, worst pair, distinct pairs, coincident pairs) over the row pairs; (0.0, None, 0, n) if none.

    The answer is pdist's bit for bit: a pair's squared distances are the
    sequential sums of squared differences that ``scipy.spatial.distance``
    computes, its distortion is |md2 / d2 - 1|, the worst pair is the first
    maximum in pdist's (condensed) order, a NaN first of all, and a pair
    whose d2 is 0 is coincident.  Only the rows that could hold the worst
    pair, or a coincident one, are computed that way (``cdist`` of the row
    against the rows after it); a Gram screen clears the others.

    The screen takes the row pairs (i, j > i) in blocks of about
    _BLOCK_ENTRIES.  In each space (the vectors, and their images under M,
    computed once), let z be the rows less their mean, s = ||z||^2, u the
    float64 machine epsilon, t the smallest subnormal and D the space's
    dimension.  The Gram value g of ``gram_sq_dists`` is within
    (2 D + 8) u (s_i + s_j) + 2 D t of the exact squared distance (the
    bound of ``farthest_point_ordering``, centering included), and pdist's
    sum within 2 (D + 2) u (s_i + s_j) + D t / 2 of it, to first order in
    u.  So pdist's value lies in [g - e, g + e] with
    e = 8 (D + 4) (u (s_i + s_j) + t), which leaves half the slack to
    spare, also for the rounding of the interval itself.  Division and
    subtraction round monotonically, so with d2 in [dl, dh], dl > 0, and
    md2 in [ml, mh], ml >= 0, pdist's distortion lies in
    [max(fl(ql - 1), fl(1 - qh), 0), max(fl(qh - 1), fl(1 - ql))] for
    ql = fl(ml / dh) and qh = fl(mh / dl).  A row is computed exactly when
    one of its pairs has dl <= 0 (it may coincide) or an upper bound not
    below the floor, the largest lower bound or exact distortion met so
    far, which is at most the maximum; so every pair at the maximum is
    computed, and a pair whose row is not has d2 > 0.  A block whose screen
    keeps more than half its rows, as every block of an exact isometry
    does, ends the screen: every row after it is computed exactly, so such
    a check costs the sums plus one block's screen.  Every row is computed
    exactly when D + m is at most _PAIR_SCREEN_MIN_DIMS, where the screen
    costs more than the sums, or past a squared norm of float64's
    largest / 8, where a Gram value could overflow.
    """
    from scipy.spatial.distance import cdist

    n = len(vectors)
    images = matrix.apply(vectors)
    screened = vectors.shape[1] + matrix.m > _PAIR_SCREEN_MIN_DIMS
    if screened:
        spaces = [_pair_screen(vectors), _pair_screen(images)]
        screened = all(space[1].max() <= _SCREEN_MAX_SQ for space in spaces)
    best, worst_pair, checked, floor = -np.inf, None, 0, 0.0
    lo = 0
    while lo < n - 1:
        stop = min(n - 1, lo + max(1, _BLOCK_ENTRIES // (n - lo - 1)))
        later = np.arange(lo + 1, n) > np.arange(lo, stop)[:, None]  # the pairs (i, j > i) of rows lo..stop-1
        exact, floor = _screen_rows(spaces, lo, stop, later, floor) if screened else (later.any(axis=1), floor)
        rows = lo + np.flatnonzero(exact)
        screened = screened and 2 * len(rows) <= stop - lo
        if len(rows):
            d2 = cdist(vectors[rows], vectors[lo + 1 :], "sqeuclidean")
            md2 = cdist(images[rows], images[lo + 1 :], "sqeuclidean")
            alive = later[exact] & (d2 > 0.0)
            checked += int(np.count_nonzero(alive))
            ratios = np.where(alive, np.abs(md2 / np.where(alive, d2, 1.0) - 1.0), -np.inf)
            k = int(np.argmax(ratios))
            value = ratios.flat[k]
            if not np.isnan(best) and (np.isnan(value) or value > best):
                best, worst_pair = value, (int(rows[k // d2.shape[1]]), lo + 1 + k % d2.shape[1])
            floor = max(floor, value)  # a NaN leaves the floor
        checked += int(np.count_nonzero(later[~exact]))
        lo = stop
    if not checked:
        return 0.0, None, 0, n * (n - 1) // 2
    return float(best), worst_pair, checked, n * (n - 1) // 2 - checked


def _screen_rows(spaces, lo, stop, later, floor):
    """(the rows of lo..stop-1 to compute exactly, the floor raised by their pairs' lower bounds)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        (d_lo, d_hi), (m_lo, m_hi) = (_gram_interval(*space, lo, stop) for space in spaces)
        clean = later & (d_lo > 0.0)
        up = np.divide(m_hi, d_lo, out=m_hi)
        up -= 1.0  # fl(qh) - 1
        down = np.divide(np.maximum(m_lo, 0.0, out=m_lo), d_hi, out=m_lo)
        np.subtract(1.0, down, out=down)  # 1 - fl(ql)
        floor = max(floor, -float(np.min(np.minimum(up, down), where=clean, initial=0.0)))
        return (later & ~(clean & (np.maximum(up, down, out=up) < floor))).any(axis=1), floor


def _pair_screen(vectors):
    """(z, s, h) for ``_pair_distortion``'s screen: the rows less their mean, their squared norms, and
    h = 8 (D + 4) (u s + t / 2), so that h_i + h_j is a pair's slack e."""
    z = vectors - vectors.mean(axis=0)
    s = np.einsum("ij,ij->i", z, z)
    return z, s, 8.0 * (z.shape[1] + 4) * (_EPS * s + _TINY / 2)


def _gram_interval(z, s, h, lo, stop):
    """[g - e, g + e] for the Gram values g of rows lo..stop-1 against rows lo+1.. and their slack e."""
    g = gram_sq_dists(z[lo:stop], s[lo:stop], z[lo + 1 :], s[lo + 1 :])
    e = h[lo:stop, None] + h[lo + 1 :]
    return np.subtract(g, e), np.add(g, e, out=g)


def _distortion_item(name, matrix, vectors, eps, note=""):
    """Item a on a vector set; it holds over 0 pairs when the vectors all coincide."""
    distortion, _, pairs, _ = _pair_distortion(matrix, vectors)
    return _item(name, eps - distortion, "max pairwise distortion %.4g over %d pairs%s" % (distortion, pairs, note))


@dataclass
class RipReport:
    """Restricted isometry audit over every size-d coordinate support."""

    passed: bool
    sparsity: int
    epsilon: float
    worst_support: tuple
    worst_deviation: float
    min_sq_singular: float
    max_sq_singular: float


def rip_check_bruteforce(matrix, sparsity, eps):
    """Enumerate all C(D, d) supports and bound the squared singular values.

    Passes iff every m x d column submatrix has all squared singular values
    inside [1-eps, 1+eps].  The submatrices are stacked and their singular
    values taken by one batched SVD per block of supports (about
    _BLOCK_ENTRIES entries each); the worst support is the first, in
    lexicographic order, with the largest deviation.  Refuses supports
    counts above 10^6.
    """
    require(is_number(eps) and 0 <= eps < np.inf, "eps", eps, "a finite number >= 0")
    dim = matrix.ambient_dim
    require_integer("sparsity", sparsity, 1, dim)
    n_supports = math.comb(dim, sparsity)
    if n_supports > 10**6:
        raise ResourceLimitError(
            "C(%d, %d) = %d supports exceeds the 1e6 budget" % (dim, sparsity, n_supports)
        )
    supports = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(dim), sparsity)),
        dtype=np.intp,
        count=n_supports * sparsity,
    ).reshape(n_supports, sparsity)
    block = max(1, _BLOCK_ENTRIES // (matrix.m * sparsity))
    svals = np.concatenate([
        np.linalg.svd(matrix.entries[:, supports[lo : lo + block]].transpose(1, 0, 2), compute_uv=False)
        for lo in range(0, n_supports, block)
    ])
    lo_sq, hi_sq = svals[:, -1] ** 2, svals[:, 0] ** 2
    dev = np.maximum(np.abs(hi_sq - 1.0), np.abs(lo_sq - 1.0))
    worst = int(np.argmax(dev))
    return RipReport(
        passed=not np.any((lo_sq < 1.0 - eps) | (hi_sq > 1.0 + eps)),
        sparsity=sparsity,
        epsilon=float(eps),
        worst_support=tuple(int(i) for i in supports[worst]),
        worst_deviation=float(dev[worst]),
        min_sq_singular=float(lo_sq.min()),
        max_sq_singular=float(hi_sq.max()),
    )


def e_m_bound(y, eps, sparsity):
    """Closed-form compression bound sqrt(1+eps) * (||y||_2 + ||y||_1 / sqrt(d)).

    Dominates ||My|| whenever M satisfies the restricted isometry property at
    sparsity d and level eps.  eps = 0 is accepted as the isometric limit.
    A block of row vectors gives one bound per row.
    """
    require_integer("sparsity", sparsity, 1)
    require(is_number(eps) and 0 <= eps < 0.5, "eps", eps, "in [0, 1/2)")
    y = np.asarray(y, dtype=np.float64)
    bound = np.sqrt(1.0 + eps) * (
        np.linalg.norm(y, axis=-1) + np.linalg.norm(y, ord=1, axis=-1) / np.sqrt(sparsity)
    )
    return float(bound) if y.ndim == 1 else bound


@dataclass
class ItemCheck:
    name: str
    passed: bool
    margin: float
    detail: str


def _item(name, margin, detail):
    """An assumption item, which holds when its margin is at least 0."""
    return ItemCheck(name, bool(margin >= 0.0), float(margin), detail)


@dataclass
class AssumptionReport:
    which: int
    epsilon: float
    items: list

    @property
    def passed(self):
        return all(item.passed for item in self.items)

    def item(self, name):
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)


def assumption_set_vectors(dictionary, x):
    """The finite set whose embedding fidelity the nonuniform guarantee needs.

    For a fixed query x: the zero vector, the offset x - c of each of the F
    fits, then each fit's in-plane part B^T B (x - c), listed once however
    many cells share the fit (1 + 2F rows).
    """
    offsets = np.asarray(x, dtype=np.float64) - dictionary.fit_centers
    fits = np.arange(len(offsets))
    planes = plane_rows(dictionary, fits, plane_coeffs(dictionary, fits, offsets))
    return np.vstack([np.zeros((1, dictionary.ambient_dim)), offsets, planes])


def verify_assumption_set(matrix, dictionary, x=None, which=1, eps=0.3, cloud=None, budget=2000):
    """Empirically check one of the two measurement assumption sets.

    which=1 (nonuniform, per-query): (a) pairwise distortion on the finite
    query-dependent set ``assumption_set_vectors``, which runs over the fits,
    (c) subspace isometry on every fitted plane, checked exactly: the singular
    values of M B^T must lie in [1 - eps, 1 + eps], and the margin is the
    smallest slack to either end.  Requires x.

    which=2 (uniform, stability): (a) pairwise distortion on sampled manifold
    points plus the F fit centers, (b) domination of ||My|| by the closed-form
    compression bound on random probes, (c) subspace isometry as above,
    (d) the projector-residual embedding inequality with additive 2^-J slack
    on sampled manifold points, (1 - eps) r - 2^-J <= r_M <= (1 + eps) r +
    2^-J with r = ||(x - c) - B^T B (x - c)|| and r_M = ||(M x - M c) -
    (M B^T) B (x - c)|| for every point x and fit (c, B); a screen with a
    proven rounding bound picks the blocks of fits that could hold the
    least margin, and only those are computed (``_residual_item``).
    Requires cloud samples from the manifold; samples past
    the budget are subsampled, and both the subsample and item b's probes
    are drawn with seed 0.  Items a, b and d are a sampled audit, not a
    proof: set-membership is checked on finitely many probes.
    An item-a detail counts the pairs of distinct probe vectors.
    The dictionary, x (a D-vector) and the cloud must all lie in the
    matrix's R^D.
    """
    require(which in (1, 2), "which", which, "1 or 2")
    require(is_number(eps) and 0 <= eps < 0.5, "eps", eps, "in [0, 1/2)")
    budget = require_integer("budget", budget, 1)
    dim = matrix.ambient_dim
    require(dictionary.ambient_dim == dim, "dictionary", dictionary.ambient_dim,
            "of ambient dimension %d, the matrix's" % dim)
    rng = np.random.default_rng(0)
    items = []
    if which == 1:
        require(x is not None, "x", x, "a query point: assumption set 1 is query-dependent")
        x = np.asarray(x, dtype=np.float64)
        require_shape("x", x, dim)
        require_finite("x", x)
        items.append(_distortion_item("a-distortion-query-set", matrix, assumption_set_vectors(dictionary, x), eps))
        items.append(_subspace_item(matrix, dictionary, eps))
        return AssumptionReport(1, float(eps), items)

    require(cloud is not None, "cloud", cloud, "a PointCloud of manifold samples for assumption set 2")
    pts = cloud.points
    require_shape("cloud", pts, "n", dim)
    if pts.shape[0] > budget:
        pts = pts[rng.choice(pts.shape[0], size=budget, replace=False)]
    probes = np.vstack([pts, dictionary.fit_centers])
    items.append(_distortion_item("a-distortion-manifold-and-centers", matrix, probes, eps, " (sampled)"))

    sparsity = int(dictionary.fit_dims.max())
    rand = rng.standard_normal(size=(1000, dim))
    norms_m = np.linalg.norm(matrix.apply(rand), axis=1)
    bounds = e_m_bound(rand, eps, sparsity)
    margin_b = float((bounds - norms_m).min())
    items.append(_item("b-compression-bound-domination", margin_b,
                       "min slack of the closed-form bound over 1000 random probes"))

    items.append(_subspace_item(matrix, dictionary, eps))

    items.append(_residual_item(matrix, dictionary, pts, eps))
    return AssumptionReport(2, float(eps), items)


def _residual_item(matrix, dictionary, pts, eps):
    """Set-2 item d: the least margin of (1 - eps) r - 2^-J <= r_M <= (1 + eps) r + 2^-J over points and fits.

    The margin is the one-pass loop's over every block of
    ``gmra._off_plane_blocks`` bit for bit, but only the blocks holding a
    fit ``_residual_screen`` keeps are computed, with that loop's
    arithmetic: M acts on the off-plane part itself, as
    M x - M c - (M B^T) B (x - c) would cancel digits of |M x|.
    """
    slack = 2.0 ** -dictionary.max_scale
    margin_d = np.inf
    for off in _off_plane_blocks(dictionary, pts, _residual_screen(matrix, dictionary, pts, eps, slack)):
        resid = np.linalg.norm(off, axis=2)
        m_resid = np.linalg.norm(matrix.apply(off), axis=2)
        upper = (1.0 + eps) * resid + slack
        lower = (1.0 - eps) * resid - slack
        margin_d = min(margin_d, float((upper - m_resid).min()), float((m_resid - lower).min()))
    return _item("d-residual-embedding", margin_d,
                 "min slack of the residual inequality with additive 2^-J, sampled points")


def _residual_screen(matrix, dictionary, pts, eps, slack):
    """The fits whose item-d margins could hold the least one: every fit whose least lower bound reaches the
    least upper bound over all (point, fit) pairs.

    For a point x and a fit (c, B), of width w (its zero-padded rows), let
    u be the float64 machine epsilon, t the smallest subnormal,
    N = ||x|| + ||c||, mu = ||M||_F and k = 8 (sqrt(w) + 1) (D + w + m + 8).
    The screen takes r^2 = ||x - c||^2 - ||B (x - c)||^2 from the Gram
    kernel on the points and centers and from B x - B c, one product with
    the stacked bases; and M (x - c) - M B^T B (x - c) as
    (M x - M c) - (M B^T) (B x - B c) with the compressed fit table's
    M B^T, whose norm is r_M.  Let e = ||B B^T - I_d||_F as computed, plus
    2 w (D + 1) u for its rounding.  To first order in u, the estimate of
    r^2 is within k u N^2 / 4 + e (1 + e) N^2 + k t / 4, so within half of
    E = (k u + 2 e (1 + e)) N^2 + k t, of the exact
    ||(x - c) - B^T B (x - c)||^2 (its B^T B term is within e ||B (x - c)||^2
    of ||B (x - c)||^2); the exact residual is within k u N / 8 of
    the loop's r; the estimate of r_M and the loop's r_M are within
    3 k u N mu / 8 of the exact ||M (x - c) - M B^T B (x - c)||; and the
    margin's own rounding, in the loop and here, is below
    k u (N (1 + mu) + slack) / 8.  So the loop's margin lies within the
    interval that r in [sqrt(r^2 - E), sqrt(r^2 + E)] and r_M give, widened by
    2 k (u (N (1 + mu) + slack) + sqrt(t)): half the slack is to spare.  The
    bounds assume orthonormal bases and no overflow, so when e > 1e-6 or
    4 (N (1 + mu))^2 overflows every fit is kept.
    """
    centers, bases = dictionary.fit_centers, dictionary.fit_bases
    n_fits, width, dim = bases.shape
    n_pts, m = len(pts), matrix.m
    xx, cc = np.einsum("ij,ij->i", pts, pts), np.einsum("ij,ij->i", centers, centers)
    nx, nc, mu = np.sqrt(xx), np.sqrt(cc), np.linalg.norm(matrix.entries)
    gram = bases @ bases.swapaxes(1, 2)
    gram[:, range(width), range(width)] -= np.arange(width) < dictionary.fit_dims[:, None]
    defect = np.linalg.norm(gram, axis=(1, 2)).max() + 2 * width * (dim + 1) * _EPS
    if not (defect <= 1e-6 and np.isfinite(4.0 * ((nx.max() + nc.max()) * (1.0 + mu)) ** 2)):
        return np.arange(n_fits)
    k = 8.0 * (np.sqrt(width) + 1.0) * (dim + width + m + 8)
    systems = _fit_solves(matrix, dictionary, width).systems
    m_pts, m_centers = matrix.apply(pts).T, matrix.apply(centers)
    step = max(1, _BLOCK_ENTRIES // (n_pts * max(m, width)))
    grow, shrink = 1.0 + eps, 1.0 - eps
    low, top = np.empty(n_fits), np.inf
    for lo in range(0, n_fits, step):
        f = slice(lo, lo + step)
        coef = (bases[f].reshape(-1, dim) @ pts.T).reshape(-1, width, n_pts) - bases[f] @ centers[f, :, None]
        r2 = gram_sq_dists(centers[f], cc[f], pts, xx) - np.einsum("fwn,fwn->fn", coef, coef)
        v = (m_pts - m_centers[f, :, None]) - systems[f] @ coef
        r_m = np.sqrt(np.einsum("fmn,fmn->fn", v, v))
        size = nc[f, None] + nx
        err = (k * _EPS + 2.0 * defect * (1.0 + defect)) * size * size + k * _TINY
        r_lo, r_hi = np.sqrt(np.maximum(r2 - err, 0.0)), np.sqrt(r2 + err)
        width_m = 2.0 * k * (_EPS * (size * (1.0 + mu) + slack) + np.sqrt(_TINY))
        low[f] = (np.minimum(grow * r_lo + slack - r_m, r_m - shrink * r_hi + slack) - width_m).min(axis=1)
        top = min(top, float((np.minimum(grow * r_hi + slack - r_m, r_m - shrink * r_lo + slack) + width_m).min()))
    return np.flatnonzero(low <= top)


def _subspace_item(matrix, dictionary, eps):
    """Exact isometry slack of M on each fitted plane: min(s_min - (1 - eps), (1 + eps) - s_max) of M B^T.

    The singular values are the compressed fit table's at the table's width
    (``_fit_solves``), each fit's system zero-padded to the widest fit.
    """
    dims = dictionary.fit_dims
    svals = _fit_solves(matrix, dictionary, dictionary.fit_bases.shape[1]).svals
    # s_min is a fit's d-th singular value, the padding's zeros coming after it, and 0 when m < d
    low = np.where(dims <= matrix.m, svals[np.arange(len(dims)), np.minimum(dims, matrix.m) - 1], 0.0)
    margins = np.minimum(low - (1.0 - eps), (1.0 + eps) - svals[:, 0])
    worst = int(np.argmin(margins))
    return _item("c-subspace-isometry", margins[worst],
                 "min two-sided slack of the singular values of M B^T, worst at cell %s" % (dictionary.first_cell(worst),))


# the compressed fit table: every fit's M B^T (F x m x width, zero past its local dimension), its truncated
# pseudoinverse (F x width x m), numerical rank (F) and singular values (F x min(m, width), descending)
FitSolves = namedtuple("FitSolves", "systems pinv rank svals")
# matrix -> dictionary -> width -> FitSolves; each level lives as long as its key
_SOLVES = weakref.WeakKeyDictionary()
_SOLVES_LOCK = threading.Lock()


def _fit_solves(matrix, dictionary, width):
    """The FitSolves of every fit's first width basis rows, from one stacked SVD on first use.

    It lives as long as the matrix and the dictionary both do.  A fit's
    system and SVD do not depend on the rest of the stack, so a row equals
    a solve of that fit alone bit for bit.
    """
    with _SOLVES_LOCK:
        per_dict = _SOLVES.setdefault(matrix, weakref.WeakKeyDictionary()).setdefault(dictionary, {})
        if width not in per_dict:
            systems = matrix.entries @ dictionary.fit_bases[:, :width].swapaxes(1, 2)
            per_dict[width] = FitSolves(systems, *_truncated_pinv(systems))
        return per_dict[width]


def _truncated_pinv(a):
    """Pseudoinverses, numerical ranks and singular values of a stack of m x d systems.

    Singular values at or below 1e-10 times the largest of their system are
    dropped from the pseudoinverse; a zero system gets a zero pseudoinverse
    and rank 0.
    """
    u_mat, svals, vt = np.linalg.svd(a, full_matrices=False)
    keep = svals > SVD_TRUNCATION * svals[..., :1]
    inv = np.divide(1.0, svals, out=np.zeros_like(svals), where=keep)
    pinv = (vt.swapaxes(-1, -2) * inv[..., None, :]) @ u_mat.swapaxes(-1, -2)
    return pinv, keep.sum(axis=-1), svals


def save_matrix(matrix, path):
    """Write the matrix with the shared manifest-plus-blob container."""
    blob = matrix.entries.astype("<f8").tobytes()
    manifest = {
        "version": MATRIX_FORMAT_VERSION,
        "m": matrix.m,
        "ambient_dim": matrix.ambient_dim,
        "ensemble": matrix.ensemble,
        "seed": matrix.seed,
    }
    write_container(path, MATRIX_MAGIC, manifest, blob)


def load_matrix(path):
    """Read a matrix container; a malformed file or an invalid matrix raises FileFormatError naming path first."""
    manifest, blob = read_container(path, MATRIX_MAGIC)
    if manifest.get("version") != MATRIX_FORMAT_VERSION:
        raise FileFormatError("%s: unsupported matrix version %r" % (path, manifest.get("version")))
    try:
        m, dim = manifest["m"], manifest["ambient_dim"]
        # min() first: it refuses a non-numeric m or D before any product is formed
        if min(m, dim) < 1 or len(blob) != m * dim * 8:
            raise FileFormatError("%s: a %s x %s matrix needs %d blob bytes, have %d"
                                  % (path, m, dim, m * dim * 8, len(blob)))
        entries = np.frombuffer(blob, dtype="<f8").reshape(m, dim)
        return MeasurementMatrix(entries, manifest["ensemble"], manifest["seed"])
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError("%s: bad manifest or invalid matrix at load time: %r" % (path, exc)) from exc
