"""Point-cloud generation, noise injection, covering nets, the distance layer, and CSV ingestion.

Synthetic manifolds used throughout:

* swiss roll: (t*cos(t), h, t*sin(t)) with t uniform on [3*pi/2, 9*pi/2] and
  h uniform on [0, 21].  A 2-dimensional surface in R^3 with computable
  extent, so covering and decay behaviour can be checked analytically.
* unit d-sphere in R^(d+1), sampled by normalizing i.i.d. Gaussians
  (exactly uniform in any dimension).
"""

import codecs
import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import (CsvParseError, ParameterError, ResourceLimitError, is_number, require, require_finite,
                     require_integer, require_shape)

SWISS_ROLL_T_MIN = 3.0 * np.pi / 2.0
SWISS_ROLL_T_MAX = 9.0 * np.pi / 2.0
SWISS_ROLL_HEIGHT = 21.0

# Candidate budget for the rejection-sampled ball nets (dim >= 3).
_NET_CANDIDATE_CAP = 400_000
_NET_SAMPLING_SEED = 0x5EED
# FPS screens a cloud of more than _SCREEN_RANK coordinates in its top _SCREEN_RANK principal
# coordinates and their residual norm when a strided sample of _SCREEN_SAMPLE_ROWS rows has under
# _SCREEN_MAX_TAIL of its energy outside them.  Measured on 1,500-row clouds in R^200 with the
# low-rank screen forced: 0.3-0.5x the full-width FPS time at tails up to 0.1, 1.1x at 0.29, 2.2x
# at 0.47 and 2.7x at 0.52; at D = 12-48 the two ran within 15% of each other.
_SCREEN_RANK = 8
_SCREEN_SAMPLE_ROWS = 128
_SCREEN_MAX_TAIL = 0.1
# FPS settles up to _FPS_ROUND_ROWS picks per pass over the cloud (see farthest_point_ordering).  Measured
# once (2 cores, BLAS on 1 thread, medians of interleaved runs): at 12/16/24/32/48 round rows a 2,000-point
# roll in R^3 took 1.29/1.13/1/0.92/0.85 of the 24-row time, a 1,500-point roll padded into R^200 with noise
# 1.09/1.07/1/1/1.09, and a full-rank Gaussian of 1,500 rows in R^200 1.34/1.16/1/1.09/1.06.
_FPS_ROUND_ROWS = 24
# FPS finds a round's row-pick pairs with a k-d tree when its screen has at most this many coordinates, and
# otherwise with one Gram product per round (see farthest_point_ordering).  Measured as above, the tree took
# 0.51 of the Gram product's time on a 2,000-point roll in R^3, 0.88 on the padded roll (its 9-coordinate
# low-rank screen), and 3.0 and 11 times it on full-rank Gaussians in R^17 (2,000 rows) and R^200 (1,500 rows).
_FPS_TREE_MAX_COLS = _SCREEN_RANK + 1
# Every blocked pass (FPS's pair norms, the nearest-row scan, the fit-table passes of gmra and measurement)
# keeps each temporary near this many float64 entries (256 KB), so it stays in cache.
_BLOCK_ENTRIES = 1 << 15
# A search of at least this many query-row pairs, over at least this many rows of at most
# this many coordinates, asks a k-d tree first; ``nearest_rows`` gives the reason.
_TREE_MIN_PAIRS = 1 << 17
_TREE_MIN_ROWS = 192
_TREE_MAX_DIM = 8
# the float64 machine epsilon u and smallest normal t of ``gram_slack``'s bound
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
# load_csv and save_csv convert this many lines per bulk step, so a file is never held as one string.
_CSV_BLOCK_LINES = 4096


@dataclass(frozen=True, eq=False)
class PointCloud:
    """n points in R^D, immutable after construction.

    The points must be finite and small enough for the squared distances
    built from them.  Let S be the diagonal of the cloud's bounding box and
    f_max the largest float64.  Every point and every mean of points (a cell
    center, the default reference of ``gram_frame``) lies in the box, so
    every difference those form has norm at most S, and every squared norm
    and Gram term |<r_x, r_y>| is at most S^2.  A Gram expansion
    s_x + s_y - 2 <r_x, r_y> is then at most 4 S^2, which stays finite, with
    a factor 2 to spare for rounding, when S <= sqrt(f_max / 8) (about
    4.7e153).  The means sum up to n coordinates, which stays finite, with
    the same factor to spare, when n max|x| <= f_max / 2.
    """

    points: np.ndarray
    ambient_dim: int
    label: str | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array, got shape %s" % (pts.shape,))
        n, dim = pts.shape
        if n < 1 or dim < 1:
            raise ValueError("point cloud needs n >= 1 and D >= 1, got %dx%d" % (n, dim))
        if dim != self.ambient_dim:
            raise ValueError("ambient_dim %d does not match point width %d" % (self.ambient_dim, dim))
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite entries")
        # the bounding box's diagonal, from half sides formed without overflow (inf past f_max)
        spread = 2.0 * math.hypot(*(pts.max(axis=0) / 2 - pts.min(axis=0) / 2))
        largest, f_max = np.abs(pts).max(), np.finfo(np.float64).max
        if spread > math.sqrt(f_max / 8) or largest > f_max / 2 / n:
            raise ValueError("point cloud too large for float64 squared distances: box diagonal %.3g, "
                             "largest |coordinate| %.3g" % (spread, largest))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self):
        return self.points.shape[0]


def gen_swiss_roll(n, seed):
    """Sample n points uniformly in parameter space of the swiss roll surface."""
    require_integer("n", n, 1)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    t = rng.uniform(SWISS_ROLL_T_MIN, SWISS_ROLL_T_MAX, size=n)
    h = rng.uniform(0.0, SWISS_ROLL_HEIGHT, size=n)
    return PointCloud(swiss_roll_point(t, h), 3, label="swiss-roll")


def swiss_roll_point(t, h):
    """Map swiss roll parameters (t, h), scalars or arrays of one shape, to points in R^3 along a last axis."""
    return np.stack([t * np.cos(t), h, t * np.sin(t)], axis=-1)


def gen_sphere(n, d, seed):
    """Sample n points uniformly on the unit d-sphere in R^(d+1)."""
    n, d = require_integer("n", n, 1), require_integer("d", d, 1)
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(size=(n, d + 1))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # Resample the (measure-zero) rows that landed numerically at the origin.
    while np.any(norms < 1e-12):
        bad = norms[:, 0] < 1e-12
        g[bad] = rng.standard_normal(size=(int(bad.sum()), d + 1))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    return PointCloud(g / norms, d + 1, label="sphere-%d" % d)


def require_sigma(sigma):
    """ParameterError unless sigma is a noise level ``add_noise`` takes: a finite number >= 0."""
    require(is_number(sigma) and 0 <= sigma < math.inf, "sigma", sigma, "a finite number >= 0")


def cloud_points(cloud, dim="D"):
    """A PointCloud's points, in R^dim when dim is an int; ParameterError naming cloud for anything else."""
    require(isinstance(cloud, PointCloud), "cloud", type(cloud), "a PointCloud")
    require_shape("cloud", cloud.points, "n", dim)
    return cloud.points


def add_noise(cloud, sigma, seed):
    """Perturb each point independently by N(0, sigma^2/D * I_D) noise.

    The n x D noise block is one draw, filled row by row, from one generator
    on the child stream SeedSequence(seed, spawn_key=(0,)), never
    default_rng(seed) itself: the generators and matrix draws read that
    stream for the same integer, and ``generate`` passes its --seed here
    when no --noise-seed is given.  So a prefix of the cloud gets a prefix of
    the noise.  A sigma whose noisy cloud ``PointCloud`` refuses is refused.
    """
    pts = cloud_points(cloud)
    require_sigma(sigma)
    require_integer("seed", seed, 0)
    if sigma == 0:
        return PointCloud(pts.copy(), cloud.ambient_dim, cloud.label)
    dim = cloud.ambient_dim
    noise = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))).standard_normal((cloud.n, dim))
    try:
        return PointCloud(pts + sigma / np.sqrt(dim) * noise, dim, cloud.label)
    except ValueError:  # too large for float64 squared distances, or past float64 itself
        raise ParameterError("sigma", "small enough for the noisy cloud's squared distances", sigma) from None


def _screen_coordinates(pts):
    """The coordinates z that screen FPS picks, their squared norms and each row's slack h (see below)."""
    _, rel, sq = gram_frame(pts)
    n, dim = rel.shape
    if dim > _SCREEN_RANK:
        _, svals, vt = np.linalg.svd(rel[:: -(-n // _SCREEN_SAMPLE_ROWS)], full_matrices=False)
        energy = (svals / svals[0]) ** 2 if svals[0] > 0 else np.zeros(1)
        if energy[_SCREEN_RANK:].sum() < _SCREEN_MAX_TAIL * energy.sum():
            basis = vt[:_SCREEN_RANK]
            low = rel @ basis.T
            resid = low @ basis
            np.subtract(rel, resid, out=resid)
            skew = np.linalg.norm(basis @ basis.T - np.eye(len(basis)))
            coords = np.column_stack([low, np.linalg.norm(resid, axis=1)])
            sq = np.einsum("ij,ij->i", coords, coords)
            return coords, sq, (20.0 + 2.0 * skew / ((dim + 4) * _EPS)) * gram_slack(sq, dim)
    return rel, sq, gram_slack(sq, dim)


def farthest_point_ordering(pts, stop_radius=0.0, stop_fraction=None):
    """Greedy farthest-point ordering of the rows of pts, a nonempty finite n x D block, seeded at row 0.

    Stops at the first pick after which every point is within stop_radius of
    the selected prefix, so no pick lies past the net at that radius.
    stop_fraction, when given, is in [0, 1] and raises stop_radius to that
    fraction of the first covering radius (the max distance from row 0).
    Returns (indices, covered_radius, (rows, picks)) where covered_radius[k]
    is the max distance of any point to the first k+1 selections; every
    prefix of the ordering is a net at its covered radius.  stop_radius must
    be >= 0: the radius reaches 0 once every distinct point is picked, which
    bounds the loop.

    (rows[e], picks[e]) says that pick picks[e] (a position in indices)
    became the strictly nearest pick of row rows[e], by the difference-form
    distance below; picks is nondecreasing, and pick 0, every row's first
    nearest pick, has no entries.  So a row's nearest pick among the first
    P, ties to the earliest, is the largest picks[e] < P of its entries, or
    0 if it has none.

    Each pick p updates dist, every row's distance to the picked prefix, to
    min(dist, ||x - p||) with ||x - p|| computed in difference form,
    np.linalg.norm(x - p).  Only the rows whose dist can shrink are
    recomputed; a Gram screen finds them.  The product runs on screen
    coordinates z of the rows, with s = ||z||^2, and with a slack h per row a
    row is skipped when its Gram value from ``gram_sq_dists``

        g = s_x + s_p - 2 <z_x, z_p>  >  dist^2 (1 + 1e-9) + h_x + h_p.

    Full width: z = r = x - c in the frame of the rows' mean c
    (``gram_frame``) and h = ``gram_slack``(s, D), so g is within
    (h_x + h_p) / 2 of ||x - p||^2 and a skipped row has
    ||x - p||^2 > dist^2 (1 + 1e-9) with half the slack to spare.

    Low rank: when D > _SCREEN_RANK = k and a strided sample of at most
    _SCREEN_SAMPLE_ROWS rows of r has under _SCREEN_MAX_TAIL of its energy
    (sum of squared singular values) outside its top k right singular
    vectors V (k x D), z = (V r, ||r - V^T V r||), k + 1 coordinates, so the
    screen costs O(k) per row-pick pair, not O(D).  Elsewhere it would prune
    little and the full-width one is faster.  The slack is F gram_slack(s, D)
    with the projection factor F = 20 + 2 d / ((D + 4) u), u the float64
    machine epsilon and d = ||V V^T - I||_F as computed.  Write l = V r,
    w = r - V^T l and a = ||r_x||, b = ||r_p||.  Exactly,
    ||r_x - r_p||^2 >= (1 - 3 e) ||l_x - l_p||^2 + ||w_x - w_p||^2 where
    e = ||V V^T - I||_2 <= d + k D u (the rounding of V V^T), and
    ||w_x - w_p|| >= | ||w_x|| - ||w_p|| |, so the exact g is at most
    ||r_x - r_p||^2 + 3 e (1 + e) (a + b)^2.  In floating point, V r is off
    by at most sqrt(k) D u a, and the residual norm by at most
    (sqrt(k) (D + k) + D / 2 + 2) u a, so z_x by at most 6.2 (D + 4) u a for
    k = 8; that moves g by at most 4 * 6.2 (D + 4) u (s_x + s_p).  The Gram
    and centering rounding over k + 1 <= D coordinates is gram_slack's
    4 (D + 4) u (s_x + s_p).  With (a + b)^2 <= 2 (a^2 + b^2), a^2 within
    a factor 1 + 3 e of s_x to first order, and D >= 9, the sum is below
    (77 (D + 4) u + 6.1 d) (s_x + s_p), under half of the slack's
    (160 (D + 4) u + 16 d) (s_x + s_p), so again half the slack is to spare;
    its t terms cover each term's few subnormal spacings on underflow.

    Either way a skipped row's computed sum of squares is above
    dist^2 (1 + 1e-9) (1 - (D + 2) u) >= dist^2 for D below 10^6, so its
    computed norm is >= dist and np.minimum would have kept dist.  A NaN (on
    overflow) or clipped g is never skipped.  The rows are C-contiguous, so a
    gathered row's norm sums its squares in the same order as a full-width
    one.  The indices, radii and moves are therefore bit for bit those of the
    loop that recomputes every row's difference-form norm at every pick: a
    skipped row is not strictly nearer the pick, so it has no move there.

    Rounds.  The picks are settled in rounds of one pass over the rows each.
    A round's first pick is the argmax of dist (np.argmax, ties to the
    lowest index).  Its candidates are the _FPS_ROUND_ROWS rows of largest
    dist, taken by argpartition.  Let cut be the largest dist outside the
    candidates, raised to the stop radius.  The candidates' screened
    pairwise norms replay the loop among them: the next pick is the
    candidate of largest dist, ties to the lowest row, and it is accepted
    while that dist is strictly above cut.  Every other row's dist is at
    most cut and only falls, so an accepted pick is the loop's argmax and
    its dist the radius after the pick before it.  (A first pick outside
    the candidates has dist = cut and makes the round alone.)  Then every
    row is updated through the round's picks in pick order: it moves at a
    pick where its norm is strictly below its running dist, as in the loop,
    and the radius after the last pick is the largest updated dist.  The
    row-pick pairs whose norms are taken pass the Gram screen at the round's
    starting dist, which is at least the running one, so a screened pair has
    no move.  They come from one of two sources:

    * With at most _FPS_TREE_MAX_COLS = k + 1 screen coordinates (D <= 9 at
      full width, or the low-rank screen), a k-d tree over z returns each
      pick's rows within

          sqrt(R^2 (1 + 1e-9) + h_max + h_p) (1 + 1e-9),

      R the round's starting radius and h_max the largest slack.  A row
      moves at p only if its computed norm is below dist <= R, so
      ||x - p||^2 < R^2 (1 + 2 (D + 3) u) <= R^2 (1 + 1e-9); the bounds above
      put the exact ||z_x - z_p||^2 within (h_x + h_p) / 2 of ||x - p||^2, so
      under the radius before its last factor.  The tree's squared distances
      and pruning bounds round by under 1e-9 relative (as for the tree of
      ``nearest_rows``), which that factor covers.
    * Otherwise one Gram product of every row against the round's picks.

    The tree's pruning pays in few coordinates and the Gram product's
    blocked arithmetic in many (see _FPS_TREE_MAX_COLS).  The pairs' norms
    are taken _BLOCK_ENTRIES gathered entries at a time, so a round
    whose picks pass many rows in high D makes no pairs x D temporary.  So
    a round costs a few dozen numpy calls for up to _FPS_ROUND_ROWS picks,
    where the loop paid them per pick.
    """
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    require_shape("pts", pts, "n", "D")
    require(pts.size > 0, "pts", pts.shape, "a nonempty n x D block")
    require_finite("pts", pts)
    require(is_number(stop_radius) and stop_radius >= 0, "stop_radius", stop_radius, "a number >= 0")
    require(stop_fraction is None or is_number(stop_fraction) and 0 <= stop_fraction <= 1, "stop_fraction",
            stop_fraction, "None or a number in [0, 1]")
    n = len(pts)
    coords, sq, slack = _screen_coordinates(pts)
    dist = np.linalg.norm(pts - pts[0], axis=1)
    limit = dist * dist * (1.0 + 1e-9) + slack  # pick p skips row x when g > limit_x + slack_p
    slack_max = slack.max()
    order = [0]
    nxt = int(np.argmax(dist))
    radii = [float(dist[nxt])]
    moved, moved_picks = [], []  # the rows each round's picks are the strictly nearest pick of, and those picks
    if stop_fraction is not None:
        stop_radius = max(stop_radius, radii[0] * stop_fraction)
    tree = None
    if coords.shape[1] <= _FPS_TREE_MAX_COLS and np.isfinite(sq.max()):
        from scipy.spatial import cKDTree

        tree = cKDTree(coords)
    width = min(n, _FPS_ROUND_ROWS)
    while radii[-1] > stop_radius:
        start = radii[-1]
        # the round's candidates: the `width` farthest rows; every other row is at most `cut` away
        if n > width:
            part = dist.argpartition(n - width - 1)
            top, cut = np.sort(part[-width:]), max(dist[part[-width - 1]], stop_radius)
        else:
            top, cut = np.arange(n), stop_radius
        round_picks = [nxt]
        if start > cut:  # so nxt is a candidate; replay the picks whose radius stays above cut
            top_sq, top_coords = sq[top], coords[top]
            gram = gram_sq_dists(top_coords, top_sq, top_coords, top_sq)
            a, b = np.nonzero(~(gram > limit[top, None] + slack[top]))
            near = np.full((width, width), np.inf)  # near[p, x]: candidate x's distance to candidate p
            near[b, a] = _pair_norms(pts, top[a], top[b])
            top_dist = dist[top]
            k = int(np.searchsorted(top, nxt))
            while True:
                np.minimum(top_dist, near[k], out=top_dist)
                k = top_dist.argmax()
                if not top_dist[k] > cut:
                    break
                radii.append(float(top_dist[k]))
                round_picks.append(int(top[k]))
        picks = np.array(round_picks, dtype=np.intp)
        pick_sq, pick_coords, pick_slack = sq[picks], coords[picks], slack[picks]
        # the row-pick pairs whose distance can beat the row's: from the tree, or one Gram product
        if tree is not None:
            reach = np.sqrt(start * start * (1.0 + 1e-9) + slack_max + pick_slack) * (1.0 + 1e-9)
            found = tree.query_ball_point(pick_coords, reach, return_sorted=False)
            counts = np.fromiter(map(len, found), np.intp, len(found))
            rows = np.fromiter(chain.from_iterable(found), np.intp, counts.sum())
            at = np.repeat(np.arange(len(picks)), counts)
            gram = sq[rows] - 2.0 * np.einsum("ij,ij->i", coords[rows], pick_coords[at]) + pick_sq[at]
            keep = ~(gram > limit[rows] + pick_slack[at])
            rows, at = rows[keep], at[keep]
        else:
            gram = gram_sq_dists(coords, sq, pick_coords, pick_sq)
            rows, at = np.nonzero(~(gram > limit[:, None] + pick_slack))
        # each touched row's running distance through the round's picks; it moves where it strictly drops
        touched, slot = np.unique(rows, return_inverse=True)
        table = np.full((len(touched), len(picks) + 1), np.inf)
        table[:, 0] = dist[touched]
        table[slot, at + 1] = _pair_norms(pts, rows, picks[at])
        best = np.minimum.accumulate(table, axis=1)
        pick_at, row_at = np.nonzero((table[:, 1:] < best[:, :-1]).T)
        moved.append(touched[row_at])
        moved_picks.append(len(order) + pick_at)
        order.extend(round_picks)
        dist[touched] = new = best[:, -1]
        limit[touched] = new * new * (1.0 + 1e-9) + slack[touched]
        nxt = int(np.argmax(dist))
        radii.append(float(dist[nxt]))
    moves = np.concatenate([np.empty(0, np.intp)] + moved), np.concatenate([np.empty(0, np.intp)] + moved_picks)
    return np.array(order, dtype=np.intp), np.array(radii), moves


def gram_sq_dists(a, a_sq, b, b_sq):
    """Squared distances between the rows of a and b, of squared norms a_sq and b_sq, by Gram expansion clipped at 0."""
    d2 = a_sq[:, None] + b_sq - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0, out=d2)


def gram_frame(rows, ref=None):
    """(ref, rows - ref, their squared norms): the frame ``gram_sq_dists`` works in; ref is the rows' mean unless given.

    The kernel's rounding scales with the squared norms in its frame
    (``gram_slack``), so about the mean of the searched rows it follows
    their spread, not their offset: a cloud shifted by 1e8 builds the same
    cells.
    """
    if ref is None:
        ref = rows.mean(axis=0)
    rel = rows - ref
    return ref, rel, np.einsum("ij,ij->i", rel, rel)


def gram_slack(sq, dim):
    """The kernel's rounding slack h = 8 (D + 4) (u sq + t / 2) of each row of squared norm sq in R^dim.

    u is the float64 machine epsilon and t the smallest normal float64.
    Take rows x and y of R^D into one frame (``gram_frame``, about any
    reference), with squared norms s_x and s_y there.  Then the value g of
    ``gram_sq_dists`` is within (h_x + h_y) / 2 = 4 (D + 4) (u (s_x + s_y) + t)
    of the exact ||x - y||^2.  A screen that widens g by h_x + h_y so keeps
    the other half for the rounding of its own exact evaluator.

    The proof gives half that to first order in u; the rest covers the
    higher-order terms.  Let a = x - ref and b = y - ref exactly.  Centering
    rounds each coordinate by at most u of it, so r_x - r_y is within
    u (||a|| + ||b||) of x - y, and its squared norm within
    2 u (||a|| + ||b||)^2 <= 4 u (s_x + s_y) of ||x - y||^2.  A
    squared norm s, a sum of D products, is within D u s of ||r||^2, and the
    inner product within D u ||r_x|| ||r_y|| <= D u (s_x + s_y) / 2 of its
    value, in any summation order; the two additions of
    s_x + s_y - 2 <r_x, r_y> add 3 u (s_x + s_y), and the clip at 0 only
    moves g towards the exact value, which is >= 0.  So the Gram form is
    within (2 D + 3) u (s_x + s_y) of ||r_x - r_y||^2, and with the centering
    within 2 (D + 4) u (s_x + s_y) of ||x - y||^2.  On underflow each
    rounded product errs by at most half the smallest subnormal more, 2 D of
    them in all, far below the t term.  The bound assumes no overflow, which
    ``PointCloud`` keeps for the differences of its points and their means;
    a row whose sq or slack is not finite gets no bound.
    """
    return 8.0 * (dim + 4) * (_EPS * sq + _TINY / 2)


def sq_dists(a, b):
    """Squared distances between the rows of a and b, clipped at 0: ``gram_sq_dists`` in the frame of b's mean."""
    ref, b_rel, b_sq = gram_frame(b)
    _, a_rel, a_sq = gram_frame(a, ref)
    return gram_sq_dists(a_rel, a_sq, b_rel, b_sq)


def nearest_rows(a, b):
    """Index of the row of b nearest to each row of a (ties to the lowest): blocked argmin of ``sq_dists``.

    The answer is that of the scan that evaluates the kernel, in the frame
    of b's mean, on blocks of max(_BLOCK_ENTRIES // len(b), D // 8) rows of a
    against every row of b.  The budget keeps a block's len(b) kernel
    entries in cache; but each block also reads all len(b) D entries of b,
    so wide rows take at least D / 8 per block, or the product of a few rows
    spends its time reading b.

    When b has at least _TREE_MIN_ROWS rows of at most _TREE_MAX_DIM
    coordinates and len(a) * len(b) is at least _TREE_MIN_PAIRS, a k-d tree
    over b's rows, in the same frame, first gives each row of a its two
    nearest rows of b in difference form.  Where the rounding bound below
    certifies the tree's nearest as the kernel's unique argmin, it is the
    answer.  Each block of the scan that holds a row the bound leaves open
    (a near-tie) is evaluated as the scan would: BLAS may round a 1-row
    product differently from a block's, so the whole block, not the open
    rows alone, gives those rows the scan's answer bit for bit.  The tree's
    cost has a floor per call, while the scan's follows its len(a) len(b)
    kernel entries; the scan wins below about 192 rows of b at any query
    count, for few queries and for wide rows, and the tree past that
    (the timings are in CHANGES.md).

    The bound.  With h = ``gram_slack`` of each row's squared norm s in the
    frame, the kernel's value g_k is within (h_x + h_k) / 2 of
    δ_k^2 = ||x - b_k||^2.  The tree's squared distances are within
    (D + 2) u of δ^2 relative, its pruning bounds within 2 u per tree level
    more, and squaring the distances it returns adds 2 u; for D plus twice
    the depth below 10^6 that is under 1e-9 relative, and underflow adds far
    less than the slack's t terms.  So with t1 <= t2 the squared distances
    of the two rows it returns, every row but the nearest, k1, has
    δ^2 >= t2 (1 - 1e-9), and δ_k1^2 <= t1 (1 + 1e-9), to within that
    underflow.  The tree's nearest is taken when

        t2 (1 - 1e-9) > t1 (1 + 1e-9) + h_x + h_max,

    h_max the slack of b's largest s, for then every other row's δ^2
    exceeds δ_k1^2 by more than both kernel roundings, and its g by more
    than g_k1.  A row whose slack is not finite is left open.
    """
    ref, b_rel, b_sq = gram_frame(b)
    _, a_rel, a_sq = gram_frame(a, ref)
    dim = b.shape[1]
    block = max(1, _BLOCK_ENTRIES // len(b), dim // 8)
    starts = range(0, len(a), block)
    out = np.empty(len(a), dtype=np.intp)
    tree_pays = len(b) >= _TREE_MIN_ROWS and dim <= _TREE_MAX_DIM and len(a) * len(b) >= _TREE_MIN_PAIRS
    if tree_pays and np.isfinite(b_sq.max()):
        from scipy.spatial import cKDTree

        slack = gram_slack(a_sq, dim) + gram_slack(b_sq.max(), dim)
        # the tree takes finite queries only; a row whose slack is not finite is left open anyway
        dist, near = cKDTree(b_rel).query(np.where(np.isfinite(slack)[:, None], a_rel, 0.0), k=2)
        first, second = (dist * dist).T
        out[:] = near[:, 0]
        open_rows = np.flatnonzero(~(second * (1.0 - 1e-9) > first * (1.0 + 1e-9) + slack))
        starts = np.unique(open_rows // block) * block
    for lo in starts:
        rows = slice(lo, lo + block)
        out[rows] = np.argmin(gram_sq_dists(a_rel[rows], a_sq[rows], b_rel, b_sq), axis=1)
    return out


def _pair_norms(pts, rows, cols):
    """np.linalg.norm(pts[rows] - pts[cols], axis=1), bit for bit, taken _BLOCK_ENTRIES entries at a time."""
    out = np.empty(len(rows))
    step = max(1, _BLOCK_ENTRIES // max(1, pts.shape[1]))
    for lo in range(0, len(rows), step):
        out[lo : lo + step] = np.linalg.norm(pts[rows[lo : lo + step]] - pts[cols[lo : lo + step]], axis=1)
    return out


def epsilon_net_ball(dim, eps):
    """An (eps/4)-net of the unit ball in R^dim, plus the zero vector.

    The net radius eps/4 matches the covering argument behind the subspace
    isometry checks; the zero vector is always the first row.  A fine grid is
    used for dim <= 2 (deterministic coverage guarantee); higher dimensions
    fall back to rejection sampling of candidates inside the ball, which
    covers up to sampling density.  Refuses inputs whose projected net size
    (12/eps)^dim exceeds 10^7.
    """
    require(is_number(eps) and 0 < eps < 0.5, "eps", eps, "in (0, 1/2)")
    require_integer("dim", dim, 1)
    projected = (12.0 / eps) ** dim
    if projected > 1e7:
        raise ResourceLimitError(
            "projected net size (12/eps)^dim = %.3g exceeds the 1e7 budget" % projected
        )
    radius = eps / 4.0
    pack = 0.75 * radius
    if dim <= 2:
        # Grid spacing such that any ball point is within radius/4 of a
        # candidate after projecting outside candidates back onto the ball.
        h = radius / (2.0 * np.sqrt(dim))
        axis = np.arange(-1.0, 1.0 + h, h)
        grid = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
        norms = np.linalg.norm(grid, axis=1)
        keep = norms <= 1.0 + radius / 4.0
        cand = grid[keep]
        norms = norms[keep]
        outside = norms > 1.0
        cand[outside] /= norms[outside, None]
    else:
        rng = np.random.default_rng(_NET_SAMPLING_SEED)
        want = int(min(_NET_CANDIDATE_CAP, max(10_000, 200 * projected)))
        g = rng.standard_normal(size=(want, dim))
        r = rng.uniform(size=want) ** (1.0 / dim)
        cand = g / np.linalg.norm(g, axis=1, keepdims=True) * r[:, None]
    # Greedy packing at 3/4 of the net radius: kept points cover all
    # candidates within pack, and candidates cover the ball within radius/4,
    # so the kept set is a net at the full radius.  Row 0 is the zero vector
    # and is always kept (FPS is seeded there).
    stacked = np.vstack([np.zeros((1, dim)), cand])
    return stacked[farthest_point_ordering(stacked, stop_radius=pack)[0]]


def save_csv(cloud, path):
    """Write the cloud as comma-separated rows with 17 significant digits, "%.17g" per value.

    Each block of _CSV_BLOCK_LINES rows is formatted by one % operation on
    the row format repeated per row, applied to the block's values as Python
    floats: the same formatting as "%.17g" % v per value, so the same bytes.
    """
    points = cloud.points
    row = ",".join(["%.17g"] * points.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(points), _CSV_BLOCK_LINES):
            block = points[start : start + _CSV_BLOCK_LINES]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def _plain(text):
    """Whether text lacks what float() and int() read but a CSV number never holds: underscores, non-ASCII digits."""
    return text.isascii() and "_" not in text


def csv_number(field, kind=float):
    """kind(field); ValueError also for text that kind reads but a CSV number never holds (see _plain)."""
    value = kind(field)
    if isinstance(field, str) and not _plain(field):
        raise ValueError("%r is not a CSV number" % field)
    return value


def csv_lines(path, newline=None):
    """The lines of a UTF-8 file, less a leading byte-order mark; CsvParseError names a row that is not UTF-8."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError:
            pass  # the stream decodes in chunks, so its error does not place the bad byte; the bytes below do
    with open(path, "rb") as fh:
        data = fh.read()
    body = data[len(codecs.BOM_UTF8):] if data.startswith(codecs.BOM_UTF8) else data
    try:
        body.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = body.count(b"\n", 0, exc.start) + 1
        raise CsvParseError("row %d is not UTF-8 text" % row, row=row) from None
    raise CsvParseError("file changed while it was read")  # the file decoded this time


def _blocks(lines):
    """Lists of up to _CSV_BLOCK_LINES lines; when the stream raises CsvParseError, the lines read before it come first."""
    block = []
    while True:
        try:
            block.append(next(lines))
        except StopIteration:
            yield block
            return
        except CsvParseError:
            yield block
            raise
        if len(block) == _CSV_BLOCK_LINES:
            yield block
            block = []


def _row_values(line):
    """The numbers of a stripped line, or None when one of its fields is not a CSV number."""
    try:
        values = [float(f) for f in line.split(",")]
    except ValueError:
        return None
    return values if _plain(line) else None


def _block_values(rows, width):
    """The numbers of stripped lines as one flat array, or None when one of them fails a check of load_csv."""
    text = ",".join(rows)
    if set(map(str.count, rows, repeat(","))) != {width - 1} or not _plain(text):
        return None
    try:
        values = np.fromiter(map(float, text.split(",")), np.float64, count=len(rows) * width)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _first_bad_row(block, start, width):
    """The CsvParseError of the first line of block (line start onwards) that fails a check of load_csv.

    width is the first data line's field count, which the ragged check compares against.
    """
    for lineno, line in enumerate(map(str.strip, block), start):
        if not line:
            continue
        values = _row_values(line)
        if values is None:
            return CsvParseError("non-numeric value at row %d" % lineno, row=lineno)
        if not all(map(math.isfinite, values)):
            return CsvParseError("non-finite value at row %d" % lineno, row=lineno)
        if len(values) != width:
            return CsvParseError("ragged row %d: expected %d columns, got %d" % (lineno, width, len(values)), row=lineno)
    raise AssertionError("block of lines %d.. passed every check" % start)


def load_csv(path, label=None):
    """Read a point cloud from CSV; a single non-numeric header row is allowed, nan and inf are not.

    Any content raises CsvParseError or gives a PointCloud.  The lines are
    stripped and blank ones skipped.  Line 1 is a header when a field of it
    is not a CSV number (float() fails, or the line is not _plain); every
    other line must hold as many finite CSV numbers as the first data line.
    The error reads "<path>: <cause>", path as given, and names the first
    line that fails, in that order of checks.

    The file is read in blocks of _CSV_BLOCK_LINES lines, each checked and
    converted in bulk: the comma count of each line, _plain over the block's
    joined text and one float() pass over its fields, which gives the same
    values as float() per field.  Only a block that fails is walked line by
    line, to name its first bad line.
    """
    chunks, width, start = [], None, 1
    try:
        for block in _blocks(csv_lines(path)):
            if start == 1 and block and _row_values(block[0].strip()) is None:
                block, start = block[1:], 2  # a header, or a blank line 1
            rows = list(filter(None, map(str.strip, block)))
            if rows:
                width = width or rows[0].count(",") + 1  # the first data line's
                values = _block_values(rows, width)
                if values is None:
                    raise _first_bad_row(block, start, width)
                chunks.append(values)
            start += len(block)
        if not chunks:
            raise CsvParseError("no data rows")
        return PointCloud(np.concatenate(chunks).reshape(-1, width), width, label=label)
    except ValueError as exc:  # a CsvParseError of the checks above, or the PointCloud's refusal of the values
        raise CsvParseError("%s: %s" % (path, exc), row=getattr(exc, "row", None)) from None
