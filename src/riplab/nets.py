"""Constructive epsilon-nets with separation and cover certificates.

Greedy maximal separated subsets of balls and spheres, unions of
coordinate-subspace nets for sparse sets, scaled half-covers for
difference sets, geometric-series hull decompositions, Frank-Wolfe hull
membership with separating certificates, and Monte-Carlo Gaussian widths.

Separation certificates are exact (full pairwise scan); cover
certificates are statistical (random probes) and carry the probe count.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import philox
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


def min_pairwise_distance(points: np.ndarray, block: int = 2048) -> float:
    """Exact minimum pairwise Euclidean distance.

    A float32 scan locates near-minimal pairs; every pair within a safe
    relative margin of the float32 minimum is then recomputed in float64,
    so the returned value is the exact minimum.
    """
    count = points.shape[0]
    if count < 2:
        return math.inf
    pts32 = points.astype(np.float32)
    sq32 = np.sum(pts32 * pts32, axis=1)
    best32 = np.inf
    candidates: list[tuple[int, int]] = []
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        d2 = sq32[lo:hi, None] + sq32[None, :] - 2.0 * pts32[lo:hi] @ pts32.T
        rows = np.arange(lo, hi)
        d2[rows - lo, rows] = np.inf
        best32 = min(best32, float(d2.min()))
        # generous cutoff: the running best only shrinks, so every block
        # contributes a superset of the pairs near the final minimum
        cutoff = best32 * (1.0 + 1e-3) + 1e-5
        for r, c in zip(*np.nonzero(d2 <= cutoff)):
            candidates.append((lo + int(r), int(c)))
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


def _far_candidates(cand32: np.ndarray, pts32: np.ndarray, eps2_lo: float,
                    eps2_hi: float, chunk: int = 4096):
    """Float32 pre-filter: (surviving indices, needs-exact-check flags).

    Candidates whose float32 nearest-distance clears ``eps2_hi`` are safely
    separated; those landing between the two margins survive but must be
    re-checked exactly.  Accepted points are scanned in chunks with early
    candidate elimination.
    """
    count = cand32.shape[0]
    if pts32.shape[0] == 0:
        return np.arange(count), np.zeros(count, dtype=bool)
    alive = np.ones(count, dtype=bool)
    near_margin = np.zeros(count, dtype=bool)
    csq = np.sum(cand32 * cand32, axis=1)
    for lo in range(0, pts32.shape[0], chunk):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        blk = pts32[lo:lo + chunk]
        d2 = (csq[idx, None] + np.sum(blk * blk, axis=1)[None, :]
              - 2.0 * cand32[idx] @ blk.T)
        nearest = np.min(d2, axis=1)
        alive[idx[nearest <= eps2_lo]] = False
        near_margin[idx[nearest <= eps2_hi]] = True
    keep = np.nonzero(alive)[0]
    return keep, near_margin[keep]


def greedy_separated_net(dim: int, epsilon: float, ambient: str, seed: int,
                         stall_limit: int | None = None) -> Net:
    """Maximal eps-separated subset built greedily from a seeded candidate stream.

    Stops after ``stall_limit`` consecutive rejected candidates (default
    50 * dim).  Separation is certified exactly; the size is asserted
    against the volumetric packing bound (1 + 2/eps)^dim.
    """
    if epsilon <= 0 or epsilon > 2:
        raise InvalidSpecError("need 0 < epsilon <= 2")
    if dim < 1:
        raise InvalidSpecError("dim must be >= 1")
    if stall_limit is None:
        stall_limit = 50 * dim
    rng = philox(seed, "greedy-net", dim, ambient)
    descriptor = _ambient_descriptor(ambient, dim)
    capacity = 1024
    pts = np.empty((capacity, dim))
    pts32 = np.empty((capacity, dim), dtype=np.float32)
    count = 0
    eps2 = epsilon * epsilon
    # float32 filter margins; only borderline candidates get exact checks
    eps2_lo = eps2 - (1e-4 * eps2 + 1e-6)
    eps2_hi = eps2 + (1e-4 * eps2 + 1e-6)
    rejections = 0
    while rejections < stall_limit:
        cand = sample_ambient_batch(rng, descriptor, _GREEDY_BATCH)
        far, borderline = _far_candidates(cand.astype(np.float32), pts32[:count],
                                          eps2_lo, eps2_hi)
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
                    pts = np.concatenate([pts, np.empty((capacity - count, dim))])
                    pts32 = np.concatenate(
                        [pts32, np.empty((capacity - count, dim), dtype=np.float32)])
                pts[count] = c
                pts32[count] = c
                count += 1
                rejections = 0
            else:
                rejections += 1
        else:
            rejections += _GREEDY_BATCH - 1 - cursor
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
class HullMembership:
    member: bool | None              # None when the solve stalled (indeterminate)
    distance: float                  # final distance to the hull, blown-down scale
    margin: float                    # separation margin; > 0 proves non-membership
    direction: np.ndarray            # separating direction (final gradient sign)
    iterations: int
    gap: float

    def __post_init__(self):
        self.direction.setflags(write=False)

    def __bool__(self) -> bool:
        return self.member is True


def hull_membership(z: np.ndarray, points: np.ndarray, blowup: float = 1.0,
                    gap_tol: float = 1e-9, membership_tol: float = 1e-6,
                    max_iter: int = 20000) -> HullMembership:
    """Decide z in blowup * conv(points) by Frank-Wolfe projection.

    Minimizes |x - z/blowup|^2/2 over the hull with exact line search.
    A positive margin max_d(<d, z'> - max_p <d, p>) is an exact negative
    certificate; distance below ``membership_tol`` is the positive one.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise InvalidSpecError("points must be a nonempty (count, dim) array")
    zp = np.asarray(z, dtype=float) / blowup
    x = pts[0].copy()
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        grad = x - zp
        scores = pts @ grad
        s = pts[int(np.argmin(scores))]
        gap = float(grad @ (x - s))
        if gap <= gap_tol:
            break
        diff = x - s
        denom = float(diff @ diff)
        step = 1.0 if denom == 0.0 else min(1.0, max(0.0, gap / denom))
        x = x - step * diff
    d = zp - x
    dist = float(np.linalg.norm(d))
    margin = float(d @ zp - np.max(pts @ d))
    if dist <= membership_tol:
        member = True
    elif margin > 0.0:
        member = False
    else:
        member = None
    return HullMembership(member=member, distance=dist, margin=margin,
                          direction=d, iterations=it, gap=gap)


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
