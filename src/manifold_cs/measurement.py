"""Random measurement matrices and empirical near-isometry certification.

Two ensembles are provided.  Gaussian matrices carry i.i.d. N(0, 1/m)
entries so that E||Mv||^2 = ||v||^2; Haar orthoprojections are the first m
rows of a Haar-random orthogonal matrix scaled by sqrt(D/m), which share the
same normalization.  Verification is empirical and exact on the probe sets
it is handed: pairwise distortion, restricted isometry by support
enumeration, and the item-by-item assumption checks used by the recovery
guarantees.

A saved matrix (format version 2) is a manifest of m, D, ensemble and seed,
then exactly m x D little-endian float64 entries, row-major; the ensemble
and seed regenerate it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import FileFormatError, ResourceLimitError
# epsilon_net_ball is not called here; it stays a module attribute because the
# benchmark's tracer patches measurement.epsilon_net_ball.
from .geometry import epsilon_net_ball  # noqa: F401
from .gmra import _BLOCK_ENTRIES, in_plane_rows
from .storage import MATRIX_MAGIC, read_container, write_container

MATRIX_FORMAT_VERSION = 2
ORTHO_ROW_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """m x D measurement matrix with its generating recipe."""

    entries: np.ndarray
    ensemble: str
    seed: int

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise ValueError("entries must be a nonempty m x D matrix")
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix contains non-finite entries")
        if self.ensemble not in ("gaussian", "haar-orthoprojection"):
            raise ValueError("unknown ensemble %r" % self.ensemble)
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


def gaussian_matrix(m, dim, seed):
    """i.i.d. N(0, 1/m) entries; E||Mv||^2 = ||v||^2."""
    if m < 1 or dim < 1:
        raise ValueError("matrix dimensions must be positive, got %d x %d" % (m, dim))
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal(size=(m, dim)) / np.sqrt(m)
    return MeasurementMatrix(entries, "gaussian", int(seed))


def orthoprojection_matrix(m, dim, seed):
    """First m rows of a Haar-random orthogonal matrix, scaled by sqrt(D/m)."""
    if m < 1 or dim < 1:
        raise ValueError("matrix dimensions must be positive, got %d x %d" % (m, dim))
    if m > dim:
        raise ValueError("orthoprojection needs m <= D, got m=%d > D=%d" % (m, dim))
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

    Coincident pairs are skipped; if every pair is coincident the check is
    undefined and an error is raised.  Distances are computed by direct
    subtraction (not Gram expansion) so near-coincident pairs keep full
    relative accuracy.
    """
    probes = np.asarray(probes, dtype=np.float64)
    if probes.ndim != 2 or probes.shape[0] < 2:
        raise ValueError("need at least two probe vectors")
    if probes.shape[1] != matrix.ambient_dim:
        raise ValueError(
            "probe dimension %d does not match matrix D=%d" % (probes.shape[1], matrix.ambient_dim)
        )
    d2 = pdist(probes, metric="sqeuclidean")
    md2 = pdist(matrix.apply(probes), metric="sqeuclidean")
    alive = d2 > 0.0
    if not np.any(alive):
        raise ValueError("all probes coincide; distortion is undefined")
    ratios = np.where(alive, np.abs(md2 / np.where(alive, d2, 1.0) - 1.0), -np.inf)
    worst_flat = int(np.argmax(ratios))
    max_distortion = float(ratios[worst_flat])
    worst_pair = _condensed_to_pair(worst_flat, probes.shape[0])
    return DistortionReport(
        max_distortion=max_distortion,
        worst_pair=worst_pair,
        epsilon=float(eps),
        passed=bool(max_distortion <= eps),
        pairs_checked=int(alive.sum()),
        pairs_skipped=int((~alive).sum()),
    )


def _condensed_to_pair(k, n):
    """Map a condensed pdist index back to its (i, j) pair, i < j."""
    # t = N - 1 - k counts back from the last pair; row i = n - 2 - r holds t in [r(r+1)/2, (r+1)(r+2)/2)
    r = (math.isqrt(8 * (n * (n - 1) // 2 - 1 - k) + 1) - 1) // 2
    i = n - 2 - r
    return (i, k - i * (2 * n - i - 1) // 2 + i + 1)


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
    dim = matrix.ambient_dim
    if not (1 <= sparsity <= dim):
        raise ValueError("sparsity must lie in [1, D]")
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
    if sparsity < 1:
        raise ValueError("sparsity must be >= 1")
    if not (0 <= eps < 0.5):
        raise ValueError("eps must lie in [0, 1/2)")
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
    planes = in_plane_rows(dictionary, np.arange(len(offsets)), offsets)
    return np.vstack([np.zeros((1, dictionary.ambient_dim)), offsets, planes])


def verify_assumption_set(
    matrix,
    dictionary,
    x=None,
    which=1,
    eps=0.3,
    cloud=None,
    budget=2000,
    rng_seed=0,
):
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
    on sampled manifold points.  Requires cloud samples from the manifold;
    samples beyond the budget are subsampled.  Items a, b and d are a sampled
    audit, not a proof: set-membership is checked on finitely many probes.
    An item-a detail counts the pairs of distinct probe vectors.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    rng = np.random.default_rng(rng_seed)
    items = []
    if which == 1:
        if x is None:
            raise ValueError("assumption set 1 is query-dependent: x is required")
        vectors = assumption_set_vectors(dictionary, x)
        report = verify_distortion(matrix, vectors, eps)
        items.append(
            ItemCheck(
                "a-distortion-query-set",
                report.passed,
                eps - report.max_distortion,
                "max pairwise distortion %.4g over %d pairs" % (report.max_distortion, report.pairs_checked),
            )
        )
        items.append(_subspace_item(matrix, dictionary, eps))
        return AssumptionReport(1, float(eps), items)

    if cloud is None:
        raise ValueError("assumption set 2 needs manifold samples: pass cloud")
    pts = cloud.points
    if pts.shape[0] > budget:
        pts = pts[rng.choice(pts.shape[0], size=budget, replace=False)]
    probes = np.vstack([pts, dictionary.fit_centers])
    report = verify_distortion(matrix, probes, eps)
    items.append(
        ItemCheck(
            "a-distortion-manifold-and-centers",
            report.passed,
            eps - report.max_distortion,
            "max pairwise distortion %.4g over %d pairs (sampled)" % (report.max_distortion, report.pairs_checked),
        )
    )

    sparsity = int(dictionary.fit_dims.max())
    rand = rng.standard_normal(size=(1000, dictionary.ambient_dim))
    norms_m = np.linalg.norm(matrix.apply(rand), axis=1)
    bounds = e_m_bound(rand, eps, sparsity)
    margin_b = float((bounds - norms_m).min())
    items.append(
        ItemCheck(
            "b-compression-bound-domination",
            margin_b >= 0.0,
            margin_b,
            "min slack of the closed-form bound over 1000 random probes",
        )
    )

    items.append(_subspace_item(matrix, dictionary, eps))

    slack = 2.0 ** -dictionary.max_scale
    margin_d = np.inf
    m_pts = matrix.apply(pts)
    for center, basis, d in zip(dictionary.fit_centers, dictionary.fit_bases, dictionary.fit_dims):
        basis = basis[:d]
        projected = center + ((pts - center) @ basis.T) @ basis
        resid = np.linalg.norm(pts - projected, axis=1)
        m_resid = np.linalg.norm(m_pts - matrix.apply(projected), axis=1)
        upper = (1.0 + eps) * resid + slack
        lower = (1.0 - eps) * resid - slack
        margin_d = min(margin_d, float((upper - m_resid).min()), float((m_resid - lower).min()))
    items.append(
        ItemCheck(
            "d-residual-embedding",
            margin_d >= 0.0,
            margin_d,
            "min slack of the residual inequality with additive 2^-J, sampled points",
        )
    )
    return AssumptionReport(2, float(eps), items)


def _subspace_item(matrix, dictionary, eps):
    """Exact isometry slack of M on each fitted plane: min(s_min - (1 - eps), (1 + eps) - s_max) of M B^T."""
    dims = dictionary.fit_dims
    margins = np.empty(len(dims))
    for d in np.unique(dims):
        idx = np.nonzero(dims == d)[0]
        svals = np.linalg.svd(matrix.entries @ dictionary.fit_bases[idx, :d].swapaxes(1, 2), compute_uv=False)
        low = svals[:, -1] if matrix.m >= d else 0.0
        margins[idx] = np.minimum(low - (1.0 - eps), (1.0 + eps) - svals[:, 0])
    worst = int(np.argmin(margins))
    return ItemCheck(
        "c-subspace-isometry",
        bool(margins[worst] >= 0.0),
        float(margins[worst]),
        "min two-sided slack of the singular values of M B^T, worst at cell %s" % (dictionary.first_cell(worst),),
    )


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
    """Read a matrix container, rejecting malformed files and invalid matrices."""
    manifest, blob = read_container(path, MATRIX_MAGIC)
    if manifest.get("version") != MATRIX_FORMAT_VERSION:
        raise FileFormatError("unsupported matrix version %r" % manifest.get("version"))
    try:
        m, dim = manifest["m"], manifest["ambient_dim"]
        # min() first: it refuses a non-numeric m or D before any product is formed
        if min(m, dim) < 1 or len(blob) != m * dim * 8:
            raise FileFormatError("a %s x %s matrix needs %d blob bytes, have %d" % (m, dim, m * dim * 8, len(blob)))
        entries = np.frombuffer(blob, dtype="<f8").reshape(m, dim)
        return MeasurementMatrix(entries, manifest["ensemble"], manifest["seed"])
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError("bad manifest or invalid matrix at load time: %r" % exc) from exc
