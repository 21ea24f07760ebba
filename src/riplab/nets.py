"""Constructive epsilon-nets with separation and cover certificates.

Greedy maximal separated subsets of balls and spheres, unions of
coordinate-subspace nets for sparse sets, scaled half-covers for
difference sets, geometric-series hull decompositions, and Monte-Carlo
Gaussian widths.

Separation certificates are exact: a float32 scan of the upper triangle
of the pair matrix keeps every pair within a stated rounding-error margin
of the minimum, and those pairs are recomputed in float64.  Cover
certificates are statistical (random probes) and carry the probe count;
each draw of probes is compared with the net in row slabs of at most
1 MiB of distances, whatever the net's size.

Greedy construction draws its candidates 512 rows per RNG call, and up to
eight such calls in one ``sample_ambient_batch`` call, whose per-row
arithmetic runs once over the stack.  It filters them in two stages.  A
bool grid of at most 2^23 cells (8 MiB) of [-1, 1]^dim marks each cell
that lies wholly inside the ball of radius eps sqrt(1 - 1e-9) about one
accepted point; a candidate in a marked cell fails the exact float64 test
and is rejected by one lookup.  The rest go through the float32 kernel,
whose margins send every borderline candidate to the exact test.  Neither
stage can reject a candidate the exact test accepts, so the nets are the
ones the exact test alone would build.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import blas_threads, philox
from .errors import BudgetError, CoverViolationError, InvalidSpecError
from .geometry import BallDescriptor, sample_ambient_batch

log = logging.getLogger("riplab")


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
    """Packing bound (1 + 2/eps)^dim for eps-separated subsets of the unit ball;
    inf once it overflows a float."""
    try:
        return (1.0 + 2.0 / epsilon) ** dim
    except OverflowError:
        return math.inf


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
_GREEDY_GROUP = 8     # most draws in one filter call, reached after empty calls
_GRID_CELLS = 1 << 23  # most cells in a covered-cell grid (a bool each: 8 MiB)
_GRID_SLACK = 1e-9    # relative shrink of eps^2 and absolute padding of a cell


class _CoverGrid:
    """Cells of [-1, 1]^dim that lie wholly within eps of one accepted point.

    The cell side h is eps / (4 sqrt(dim)), or larger when that needs more
    than ``_GRID_CELLS`` = 2^23 cells: at dim 4 and eps 0.3 it is about
    0.053; dim 5 has a grid at eps 0.3 and 0.5, dim 6 at eps 1.  The cells
    are one bool each, allocated zeroed (lazily, by calloc).  A border of
    floor(eps/h) + 1 cells keeps every stencil index in range.  A point
    marks cells at two offset sets from its home cell: the *sure* stencil,
    covered wherever the point sits in that cell, and the *ring* of
    offsets that only the best case admits, each tested from the point to
    its far corner.  Every cell is padded by ``_GRID_SLACK`` against the
    rounding of the index, so a marked cell lies inside the closed ball of
    radius eps sqrt(1 - _GRID_SLACK) about one point, and every candidate
    in it fails the exact test |c - p|^2 > eps^2.
    """

    def __init__(self, side: float, reach: int, shape: tuple, limit: float,
                 sure: np.ndarray, ring: np.ndarray):
        self.side = side
        self.border = reach + 1
        self.limit = limit
        self.shape = shape
        self.strides = np.cumprod((1,) + shape[:0:-1])[::-1].astype(np.intp)
        # the flat index of a cell as one float matvec, border included; its
        # terms are integers far below 2^53, so it is exact in any order
        self.weights = self.strides.astype(np.float64)
        self.origin = float(self.border * self.strides.sum())
        self.marked = np.zeros(math.prod(shape), dtype=bool)
        self.sure = sure @ self.strides
        self.ring = ring @ self.strides
        self.ring_axes = [ring[:, a] + reach for a in range(ring.shape[1])]
        self.steps = np.arange(-reach, reach + 1) * side   # offset cell edges
        # points per marking chunk: ring temporaries stay near 2^20 doubles
        self.chunk = max(1, (1 << 20) // max(1, ring.size))

    @classmethod
    def fit(cls, dim: int, epsilon: float) -> _CoverGrid | None:
        """The grid for (dim, eps), or None when no cell fits in an eps-ball."""
        limit = epsilon * epsilon * (1.0 - _GRID_SLACK)
        cells = round(_GRID_CELLS ** (1.0 / dim))   # most cells per axis
        if cells ** dim > _GRID_CELLS:
            cells -= 1
        if cells <= 4:
            return None
        # floor(2/h) + 2 floor(eps/h) + 4 <= cells
        side = max(epsilon / (4.0 * math.sqrt(dim)), (2.0 + 2.0 * epsilon) / (cells - 4))
        if dim * (side + 2.0 * _GRID_SLACK) ** 2 > limit:
            return None
        reach = int(epsilon / side)
        shape = (int(2.0 / side) + 2 * reach + 4,) * dim
        offsets = np.indices((2 * reach + 1,) * dim).reshape(dim, -1).T - reach
        worst = np.sum(((np.abs(offsets) + 1) * side + 2.0 * _GRID_SLACK) ** 2, axis=1)
        best = np.sum(np.where(offsets == 0, 0.5, np.abs(offsets)) ** 2, axis=1) * side ** 2
        sure = worst <= limit
        return cls(side, reach, shape, limit, offsets[sure], offsets[~sure & (best <= limit)])

    def _home(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(flat index of each row's cell, that cell's index along each axis)."""
        k = x + 1.0
        k /= self.side
        np.floor(k, out=k)
        return (k @ self.weights + self.origin).astype(np.intp), k

    def uncovered(self, cand: np.ndarray) -> np.ndarray:
        """Indices of the candidates outside every marked cell."""
        return np.flatnonzero(~self.marked[self._home(cand)[0]])

    def mark(self, points: np.ndarray) -> None:
        """Mark the cells that lie within eps of one of the points."""
        home, k = self._home(points)
        pos = (points + 1.0) - k * self.side   # each point's position in its cell
        self.marked[(home[:, None] + self.sure).ravel()] = True
        for lo in range(0, len(points), self.chunk):
            # squared far-corner gap per (point, axis, offset), summed over
            # the axes of each ring offset
            r = pos[lo:lo + self.chunk, :, None]
            far = (np.maximum(r - self.steps, self.steps + self.side - r) + _GRID_SLACK) ** 2
            hit = sum(far[:, a, idx] for a, idx in enumerate(self.ring_axes)) <= self.limit
            self.marked[(home[lo:lo + self.chunk, None] + self.ring)[hit]] = True


def _far_candidates(cand: np.ndarray, cols: np.ndarray, eps2_lo: float,
                    eps2_hi: float, chunk: int | None = None):
    """Float32 pre-filter: (surviving indices, needs-exact-check flags).

    Scans the candidates against the net's kernel columns in float32.  A
    candidate whose nearest squared distance is at most ``eps2_lo`` is
    dropped, one above ``eps2_hi`` is separated from every net point, and
    one in between survives but must be re-checked in float64.  With the
    margins of ``_kernel_error`` these verdicts equal the exact float64
    test, so the margins only decide which candidates are re-checked.  Net
    points are scanned in chunks (by default of 2^21 products), and dropped
    candidates leave the scan early.
    """
    if chunk is None:
        chunk = max(1, (1 << 21) // max(1, cand.shape[0]))
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

    Candidates in a cell of the covered-cell grid are rejected by one
    lookup; the rest go to the float32 kernel and the exact re-checks.
    After a filter call that accepts nothing, the next one takes twice as
    many ``_GREEDY_BATCH``-row draws, up to ``_GREEDY_GROUP``; an acceptance
    sets it back to one.  A filter call's draws come from one
    ``sample_ambient_batch`` call with ``per_call=_GREEDY_BATCH``, which
    has the bits of that many separate calls.  Neither changes the stream,
    the verdicts or the stall count.  A DEBUG line reports the candidates
    drawn, those rejected by the grid, those sent to the float32 kernel,
    the exact re-checks and the cell side.
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
    grid = _CoverGrid.fit(dim, epsilon)
    group = 1
    rejections = drawn = kernel_rows = rechecked = 0
    # the kernel's products are (512, dim+1) @ (dim+1, count): too thin to gain
    # from BLAS threads, whose hand-offs stall when the cores are busy
    with blas_threads(1):
        while rejections < stall_limit:
            cand = sample_ambient_batch(rng, descriptor, group * _GREEDY_BATCH,
                                        per_call=_GREEDY_BATCH)
            rows = np.arange(len(cand)) if grid is None else grid.uncovered(cand)
            far, borderline = _far_candidates(cand[rows], cols[:, :count], eps2_lo, eps2_hi)
            far = rows[far]
            drawn += len(cand)
            kernel_rows += len(rows)
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
                    rechecked += 1
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
                rejections += len(cand) - 1 - cursor
            if count > batch_start:
                cols[:, batch_start:count] = _kernel_cols(pts[batch_start:count])
                if grid is not None:
                    grid.mark(pts[batch_start:count])
                group = 1
            else:
                group = min(2 * group, _GREEDY_GROUP)
    log.debug("greedy net dim=%d eps=%g: %d candidates drawn, %d rejected by the "
              "cell grid, %d to the float32 kernel, %d re-checked exactly; cell side %s",
              dim, epsilon, drawn, drawn - kernel_rows, kernel_rows, rechecked,
              "none" if grid is None else f"{grid.side:.4g}")
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
_COVER_SLAB = 1 << 17  # doubles (1 MiB) in one slab of the probe-to-net distances


def cover_check(net: Net, probes: int, seed: int) -> CoverCheckResult:
    """Probe the ambient set; pass iff every probe is within eps of the net.

    A statistical certificate: it bounds the cover radius only at the
    sampled points.  Each draw of up to ``_COVER_CHUNK`` probes is scanned
    in row slabs of at most ``_COVER_SLAB`` squared distances, so memory
    stays near 1 MiB whatever the net's size.  Each distance is computed
    by the same expression in any slab, and the minimum and maximum are
    exact, so the result does not depend on the slab size.
    """
    if probes < 1:
        raise InvalidSpecError("probes must be >= 1")
    pts = net.points
    if not np.isfinite(pts).all():
        raise InvalidSpecError("net points must be finite")
    rng = philox(seed, "cover-check")
    sq = np.sum(pts * pts, axis=1)
    slab = max(1, _COVER_SLAB // max(1, len(pts)))
    worst = 0.0
    done = 0
    while done < probes:
        take = min(_COVER_CHUNK, probes - done)
        block = sample_ambient_batch(rng, net.ambient, take)
        bsq = np.sum(block * block, axis=1)
        for lo in range(0, take, slab):
            # |b|^2 + |p|^2 - 2 b.p, written into the product
            d2 = 2.0 * block[lo:lo + slab] @ pts.T
            np.subtract(bsq[lo:lo + slab, None] + sq[None, :], d2, out=d2)
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
    """Size bound C(n, m) * (5/eps)^m on a union of per-support eps-nets;
    inf once it overflows a float."""
    try:
        return math.comb(n, m) * (5.0 / epsilon) ** m
    except OverflowError:
        return math.inf


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
    if not 0.0 < epsilon <= 2.0:
        raise InvalidSpecError("need 0 < epsilon <= 2")
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
                       budget: float = 2e6, stall_limit: int | None = None) -> Net:
    """Scaled half-cover whose doubled hull swallows the sparse difference body.

    Returns r * L where L is a 1/2-cover of the 2m-sparse unit ball; the
    set (sparse sphere - sparse sphere) cap r*B_2 then sits inside
    2 conv(points).  Certified statistically via hull membership probes in
    the test suite.
    """
    if not (0.0 < r <= 1.0):
        raise InvalidSpecError("need 0 < r <= 1")
    inner = sparse_set_net(n, min(2 * m, n), 0.5, "ball", seed, budget,
                           stall_limit=stall_limit)
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
    if z.shape != (net.dim,):
        raise InvalidSpecError(f"target must have shape ({net.dim},), got {z.shape}")
    if np.isnan(z).any():
        raise InvalidSpecError("target must not contain NaN")
    eps = net.epsilon
    if np.isinf(z).any():
        # no net point is within eps; the round arithmetic would meet inf - inf
        raise CoverViolationError(f"nearest net point at distance inf > eps = {eps:.3g}")
    limit = eps * (1.0 + 1e-9)
    pts = net.points
    sq = np.sum(pts * pts, axis=1)
    resid = z.copy()
    terms: list[tuple[float, int]] = []
    coeff = 1.0
    # a round is a few small numpy calls, so the wrappers of np.argmin,
    # np.linalg.norm and np.any cost more than their work; norm of a 1-D
    # array is sqrt(x @ x), the bits math.sqrt gives here
    for _ in range(rounds):
        d2 = sq - 2.0 * pts @ resid + float(resid @ resid)
        idx = int(d2.argmin())
        diff = resid - pts[idx]
        gap = math.sqrt(float(diff @ diff))
        if gap > limit:
            raise CoverViolationError(
                f"nearest net point at distance {gap:.3g} > eps = {eps:.3g}")
        terms.append((coeff, idx))
        resid = diff / eps
        coeff *= eps
        if not resid.any():
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
    if not np.isfinite(points).all():
        raise InvalidSpecError("net points must be finite")
    epsilon = float(obj["epsilon"])
    if not 0.0 < epsilon < math.inf:
        raise InvalidSpecError(f"epsilon must be positive and finite, got {epsilon!r}")
    return Net(points=points, epsilon=epsilon, ambient=ambient,
               certified_cover=bool(obj["certified_cover"]),
               certified_separated=bool(obj["certified_separated"]),
               probes_used=int(obj["probes_used"]))
