"""Constructive epsilon-nets with separation and cover certificates.

Greedy maximal separated subsets of balls and spheres, unions of
coordinate-subspace nets for sparse sets, scaled half-covers for
difference sets, geometric-series hull decompositions, and Monte-Carlo
Gaussian widths.

Separation certificates are exact: a float32 scan of the upper triangle
of the pair matrix keeps every pair within a stated rounding-error margin
of the minimum, and those pairs are recomputed in float64.  Cover
certificates are statistical (random probes) and carry the probe count.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import blas_threads, philox
from .errors import BudgetError, CoverViolationError, InvalidSpecError
from .geometry import BallDescriptor, sample_ambient_batch


@dataclass(frozen=True)
class Net:
    points: np.ndarray            # (count, dim)
    epsilon: float
    ambient: BallDescriptor
    certified_cover: bool = False
    certified_separated: bool = False
    probes_used: int = 0
    min_pairwise: float | None = None

    def __post_init__(self):
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def volumetric_bound(dim: int, epsilon: float) -> float:
    """Packing bound (1 + 2/eps)^dim for eps-separated subsets of the unit ball."""
    return (1.0 + 2.0 / epsilon) ** dim


# The float32 distance kernel.  Each net point p is stored once as the
# column [-2p; |p|^2] and each row c as [c, 1], both rounded to float32, so
# one matmul gives |p|^2 - 2 c.p for a whole batch; the row term |c|^2 is
# added in float64 after the row minimum.

_U32 = 2.0 ** -24   # unit roundoff of float32


def _kernel_rows(points: np.ndarray) -> np.ndarray:
    """(count, dim+1) float32 rows [c, 1]."""
    rows = np.ones((points.shape[0], points.shape[1] + 1), dtype=np.float32)
    rows[:, :-1] = points
    return rows


def _kernel_cols(points: np.ndarray) -> np.ndarray:
    """(dim+1, count) float32 columns [-2p; |p|^2]."""
    cols = np.empty((points.shape[1] + 1, points.shape[0]), dtype=np.float32)
    cols[:-1] = -2.0 * points.T
    cols[-1] = np.einsum("ij,ij->i", points, points)
    return cols


def _kernel_error(dim: int) -> float:
    """Worst-case |kernel - exact| on squared distances of points in B_2.

    With u = 2^-24 and |c|, |p| <= 1, rounding c and p to float32 moves
    2 c.p by at most (4u + 2u^2) and |p|^2 by at most u(1 + u); the length
    dim+1 float32 dot product, in any summation order and with or without
    FMA, adds at most gamma_{dim+1} * (2|c||p| + |p|^2) <= 3 gamma_{dim+1}
    (1 + u)^2, where gamma_n = n u / (1 - n u).  To first order that is
    5u + 3 gamma_{dim+1}.  The factor 2 covers the second-order terms, the
    float64 rounding of |c|^2, of the final sum and of the exact re-check,
    and float32 underflow (at most 2^-126 per term).  Beyond n u = 1/2 no
    bound is claimed, so every candidate goes to the exact check.
    """
    n = dim + 1
    if n * _U32 >= 0.5:
        return math.inf
    return 2.0 * (5.0 * _U32 + 3.0 * n * _U32 / (1.0 - n * _U32))


def min_pairwise_distance(points: np.ndarray, block: int = 2048) -> float:
    """Exact minimum pairwise Euclidean distance.

    The points are scaled by a power of two into the unit ball, which is
    exact, and the float32 distance kernel scans the upper triangle of the
    pair matrix in row blocks (columns ``j >= lo``).  Every pair whose
    float32 squared distance lies within twice the kernel's error bound of
    the running float32 minimum is kept; the minimal pair is always among
    them.  Those pairs are recomputed in float64 from the given points, so
    the result is the exact float64 minimum.
    """
    count, dim = points.shape
    if count < 2:
        return math.inf
    sq = np.einsum("ij,ij->i", points, points)
    # a power of two scales exactly; the clamp keeps it finite for subnormals
    scale = 2.0 ** -max(math.frexp(math.sqrt(float(sq.max())))[1], -1000)
    scaled = points * scale
    sq = sq * (scale * scale)
    rows, cols = _kernel_rows(scaled), _kernel_cols(scaled)
    margin = 2.0 * _kernel_error(dim)
    best = math.inf
    candidates: list[tuple[int, int]] = []
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        part = rows[lo:hi] @ cols[:, lo:]
        diag = np.arange(hi - lo)
        part[diag, diag] = np.inf
        nearest = np.min(part, axis=1) + sq[lo:hi]
        best = min(best, float(nearest.min()))
        # the running best only shrinks, so every block contributes a
        # superset of the pairs near the final minimum
        cutoff = best + margin
        near = np.nonzero(nearest <= cutoff)[0]
        r, c = np.nonzero(part[near] <= (cutoff - sq[lo + near])[:, None])
        upper = c > near[r]   # pairs inside the diagonal block appear twice
        candidates.extend(zip((lo + near[r][upper]).tolist(), (lo + c[upper]).tolist()))
    best = math.inf
    for i, j in candidates:
        best = min(best, float(np.sum((points[i] - points[j]) ** 2)))
    return math.sqrt(max(best, 0.0))


def _ambient_descriptor(kind: str, dim: int) -> BallDescriptor:
    if kind == "ball":
        return BallDescriptor.euclidean_ball(dim)
    if kind == "sphere":
        return BallDescriptor.euclidean_sphere(dim)
    raise InvalidSpecError(f"ambient must be 'ball' or 'sphere', got {kind!r}")


_GREEDY_BATCH = 512   # fixed: the candidate stream layout is part of determinism


def _far_candidates(cand: np.ndarray, cols: np.ndarray, eps2_lo: float,
                    eps2_hi: float, chunk: int = 4096):
    """Float32 pre-filter: (surviving indices, needs-exact-check flags).

    Scans the candidates against the net's kernel columns in float32.  A
    candidate whose nearest squared distance is at most ``eps2_lo`` is
    dropped, one above ``eps2_hi`` is separated from every net point, and
    one in between survives but must be re-checked in float64.  With the
    margins of ``_kernel_error`` these verdicts equal the exact float64
    test, so the margins only decide which candidates are re-checked.  Net
    points are scanned in chunks, and dropped candidates leave the scan
    early.
    """
    rows = _kernel_rows(cand)
    csq = np.einsum("ij,ij->i", cand, cand)
    near_margin = np.zeros(cand.shape[0], dtype=bool)
    keep = np.arange(cand.shape[0])
    for lo in range(0, cols.shape[1], chunk):
        nearest = np.min(rows[keep] @ cols[:, lo:lo + chunk], axis=1) + csq[keep]
        near_margin[keep[nearest <= eps2_hi]] = True
        keep = keep[nearest > eps2_lo]
        if keep.size == 0:
            break
    return keep, near_margin[keep]


def greedy_separated_net(dim: int, epsilon: float, ambient: str, seed: int,
                         stall_limit: int | None = None) -> Net:
    """Maximal eps-separated subset built greedily from a seeded candidate stream.

    Stops after ``stall_limit`` consecutive rejected candidates (default
    50 * dim).  Separation is certified exactly; the size is asserted
    against the volumetric packing bound (1 + 2/eps)^dim.  The candidate
    stream runs with BLAS capped at one thread, which is process-global
    (see ``_util.blas_threads``).
    """
    if not 0.0 < epsilon <= 2.0:
        raise InvalidSpecError("need 0 < epsilon <= 2")
    if dim < 1:
        raise InvalidSpecError("dim must be >= 1")
    if stall_limit is None:
        stall_limit = 50 * dim
    rng = philox(seed, "greedy-net", dim, ambient)
    descriptor = _ambient_descriptor(ambient, dim)
    capacity = 1024
    pts = np.empty((capacity, dim))
    cols = np.empty((dim + 1, capacity), dtype=np.float32)   # kernel columns of pts
    count = 0
    eps2 = epsilon * epsilon
    # float32 filter margins; only borderline candidates get exact checks
    margin = _kernel_error(dim)
    eps2_lo, eps2_hi = eps2 - margin, eps2 + margin
    rejections = 0
    # the kernel's products are (512, dim+1) @ (dim+1, count): too thin to gain
    # from BLAS threads, whose hand-offs stall when the cores are busy
    with blas_threads(1):
        while rejections < stall_limit:
            cand = sample_ambient_batch(rng, descriptor, _GREEDY_BATCH)
            far, borderline = _far_candidates(cand, cols[:, :count], eps2_lo, eps2_hi)
            # sequential accounting, but numpy work only on the filter survivors
            batch_start = count
            cursor = -1
            for i, needs_exact in zip(far, borderline):
                rejections += int(i) - cursor - 1
                cursor = int(i)
                if rejections >= stall_limit:
                    break
                c = cand[i]
                ok = True
                if needs_exact and batch_start:
                    diffs = pts[:batch_start] - c
                    ok = float(np.min(np.einsum("ij,ij->i", diffs, diffs))) > eps2
                if ok and count > batch_start:
                    diffs = pts[batch_start:count] - c
                    ok = float(np.min(np.einsum("ij,ij->i", diffs, diffs))) > eps2
                if ok:
                    if count == capacity:
                        capacity *= 2
                        pts = np.concatenate([pts, np.empty_like(pts)])
                        cols = np.concatenate([cols, np.empty_like(cols)], axis=1)
                    pts[count] = c
                    count += 1
                    rejections = 0
                else:
                    rejections += 1
            else:
                rejections += _GREEDY_BATCH - 1 - cursor
            if count > batch_start:
                cols[:, batch_start:count] = _kernel_cols(pts[batch_start:count])
    points = pts[:count].copy()
    bound = volumetric_bound(dim, epsilon)
    assert points.shape[0] <= bound, (
        f"packing bound violated: {points.shape[0]} > {bound}")
    sep = min_pairwise_distance(points)
    assert sep > epsilon
    return Net(points=points, epsilon=epsilon, ambient=_ambient_descriptor(ambient, dim),
               certified_separated=True, min_pairwise=sep)


@dataclass(frozen=True)
class CoverCheckResult:
    max_observed_distance: float
    pass_: bool
    probes_used: int


_COVER_CHUNK = 4096   # fixed: probe stream layout is part of determinism


def cover_check(net: Net, probes: int, seed: int) -> CoverCheckResult:
    """Probe the ambient set; pass iff every probe is within eps of the net.

    A statistical certificate: it bounds the cover radius only at the
    sampled points.
    """
    if probes < 1:
        raise InvalidSpecError("probes must be >= 1")
    rng = philox(seed, "cover-check")
    pts = net.points
    sq = np.sum(pts * pts, axis=1)
    worst = 0.0
    done = 0
    while done < probes:
        take = min(_COVER_CHUNK, probes - done)
        block = sample_ambient_batch(rng, net.ambient, take)
        d2 = (np.sum(block * block, axis=1)[:, None] + sq[None, :]
              - 2.0 * block @ pts.T)
        nearest = np.sqrt(np.maximum(np.min(d2, axis=1), 0.0))
        worst = max(worst, float(nearest.max()))
        done += take
    return CoverCheckResult(max_observed_distance=worst,
                            pass_=worst <= net.epsilon + 1e-12, probes_used=probes)


def certify_cover(net: Net, probes: int, seed: int) -> Net:
    """Return a copy of the net with the statistical cover flag filled in."""
    result = cover_check(net, probes, seed)
    return replace(net, certified_cover=result.pass_,
                   probes_used=net.probes_used + probes)


def sparse_net_bound(n: int, m: int, epsilon: float) -> float:
    """Size bound C(n, m) * (5/eps)^m on a union of per-support eps-nets."""
    return math.comb(n, m) * (5.0 / epsilon) ** m


def sparse_set_net(n: int, m: int, epsilon: float, target: str, seed: int,
                   budget: float = 2e6, stall_limit: int | None = None) -> Net:
    """Union over all size-m supports of one dim-m net embedded on each support.

    target = "sphere" covers the m-sparse unit-sphere set; "ball" covers the
    m-sparse unit-ball set.  The construction cost is prechecked against
    C(n, m) * (5/eps)^m <= budget.
    """
    if not (1 <= m <= n):
        raise InvalidSpecError("need 1 <= m <= n")
    if target not in ("sphere", "ball"):
        raise InvalidSpecError("target must be 'sphere' or 'ball'")
    bound = sparse_net_bound(n, m, epsilon)
    if bound > budget:
        raise BudgetError(
            f"C({n},{m}) * (5/eps)^{m} = {bound:.3g} exceeds budget {budget:.3g}")
    base = greedy_separated_net(m, epsilon, target, seed, stall_limit=stall_limit)
    count = len(base) * math.comb(n, m)
    points = np.zeros((count, n))
    row = 0
    for support in itertools.combinations(range(n), m):
        points[row:row + len(base), list(support)] = base.points
        row += len(base)
    assert count <= bound
    family = BallDescriptor.sparse_sphere if target == "sphere" else BallDescriptor.sparse_ball
    return Net(points=points, epsilon=epsilon, ambient=family(n, m),
               certified_separated=(m == n), min_pairwise=base.min_pairwise if m == n else None)


def difference_set_net(n: int, m: int, r: float, seed: int,
                       budget: float = 2e6) -> Net:
    """Scaled half-cover whose doubled hull swallows the sparse difference body.

    Returns r * L where L is a 1/2-cover of the 2m-sparse unit ball; the
    set (sparse sphere - sparse sphere) cap r*B_2 then sits inside
    2 conv(points).  Certified statistically via hull membership probes in
    the test suite.
    """
    if not (0.0 < r <= 1.0):
        raise InvalidSpecError("need 0 < r <= 1")
    inner = sparse_set_net(n, min(2 * m, n), 0.5, "ball", seed, budget)
    return Net(points=r * inner.points, epsilon=0.5 * r,
               ambient=BallDescriptor.sparse_ball(n, min(2 * m, n), radius=r),
               certified_separated=inner.certified_separated,
               min_pairwise=None if inner.min_pairwise is None else r * inner.min_pairwise)


@dataclass(frozen=True)
class HullDecomposition:
    target: np.ndarray
    terms: tuple[tuple[float, int], ...]   # (coefficient, point index)
    residual_norm: float

    def __post_init__(self):
        self.target.setflags(write=False)


def hull_decompose(z: np.ndarray, net: Net, rounds: int = 20) -> HullDecomposition:
    """Expand z as x_0 + eps x_1 + eps^2 x_2 + ... over net points.

    Each round subtracts the nearest net point and rescales the residual by
    1/eps; a round that fails to land within eps of the net raises
    CoverViolationError.  After t full rounds the residual norm is at most
    eps^t, witnessing ball subset (1-eps)^(-1) conv(net).
    """
    if not net.certified_cover:
        raise InvalidSpecError("hull_decompose requires a cover-certified net")
    z = np.asarray(z, dtype=float)
    eps = net.epsilon
    pts = net.points
    sq = np.sum(pts * pts, axis=1)
    resid = z.copy()
    terms: list[tuple[float, int]] = []
    coeff = 1.0
    for _ in range(rounds):
        d2 = sq - 2.0 * pts @ resid + float(resid @ resid)
        idx = int(np.argmin(d2))
        gap = float(np.linalg.norm(resid - pts[idx]))
        if gap > eps * (1.0 + 1e-9):
            raise CoverViolationError(
                f"nearest net point at distance {gap:.3g} > eps = {eps:.3g}")
        terms.append((coeff, idx))
        resid = (resid - pts[idx]) / eps
        coeff *= eps
        if not np.any(resid):
            break
    recon = np.zeros_like(z)
    for c, idx in terms:
        recon += c * pts[idx]
    return HullDecomposition(target=z, terms=tuple(terms),
                             residual_norm=float(np.linalg.norm(z - recon)))


@dataclass(frozen=True)
class WidthEstimate:
    estimate: float
    std_error: float
    samples: int


def gaussian_width(ball: BallDescriptor, samples: int, seed: int) -> WidthEstimate:
    """Monte-Carlo mean of sup_{t in T} |<g, t>| over standard Gaussian g.

    The inner supremum is closed-form for the supported descriptors:
    sparse sphere/ball -> top-sparsity Euclidean mass of g, l1/l2 balls ->
    max coordinate / full norm.  For weak-lp caps the duality bound
    2 * top_m_l2(g, sparsity) is used, giving an upper-bound estimator.
    """
    if samples < 100:
        raise InvalidSpecError("samples must be >= 100")
    rng = philox(seed, "gaussian-width")
    g = rng.standard_normal((samples, ball.dim))
    fam = ball.family
    if fam in ("sparse-sphere", "sparse-ball", "weak-lp"):
        m = ball.sparsity
        if m is None or not 1 <= m <= ball.dim:
            raise InvalidSpecError("weak-lp width needs a paired sparsity in [1, dim]")
        if m == ball.dim:
            sup = np.linalg.norm(g, axis=1)
        else:
            sq = np.partition(g * g, ball.dim - m, axis=1)[:, ball.dim - m:]
            sup = np.sqrt(np.sum(sq, axis=1))
        sup = (2.0 if fam == "weak-lp" else ball.radius) * sup
    elif fam == "l1":
        sup = ball.radius * np.max(np.abs(g), axis=1)
    elif fam == "l2":
        sup = ball.radius * np.linalg.norm(g, axis=1)
    else:
        raise InvalidSpecError(f"no width rule for family {fam!r}")
    est = float(np.mean(sup))
    se = float(np.std(sup, ddof=1) / math.sqrt(samples))
    return WidthEstimate(estimate=est, std_error=se, samples=samples)


def net_to_json(net: Net) -> str:
    return json.dumps({
        "ambient": json.loads(net.ambient.to_json()),
        "epsilon": net.epsilon,
        "points": [[float(v) for v in row] for row in net.points],
        "certified_cover": net.certified_cover,
        "certified_separated": net.certified_separated,
        "probes_used": net.probes_used,
    })


def net_from_json(text: str) -> Net:
    obj = json.loads(text)
    ambient = BallDescriptor.from_json(json.dumps(obj["ambient"]))
    points = np.array(obj["points"], dtype=float)
    if points.ndim != 2 or points.shape[1] != ambient.dim:
        raise InvalidSpecError("net points do not match the ambient dimension")
    return Net(points=points, epsilon=float(obj["epsilon"]), ambient=ambient,
               certified_cover=bool(obj["certified_cover"]),
               certified_separated=bool(obj["certified_separated"]),
               probes_used=int(obj["probes_used"]))
