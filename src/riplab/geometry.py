"""Geometry of lp, weak-lp, and sparse-vector sets.

Membership tests, non-increasing rearrangements, the duality bound that
places weak-lp caps inside blown-up sparse hulls, sphere truncation, and
quasi-convexity arithmetic.  Also owns the samplers that the net and
reconstruction modules draw from, all batched, one point per row:
``sample_ambient_batch`` (uniform on l2, l1, sparse-sphere and sparse-ball
bodies), ``sample_weak_lp_ball`` (weak-lp envelope draws, not uniform) and
``sample_unit_cap`` (an l1 or weak-lp ball cut by B_2 through rejection,
not uniform).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from ._util import philox
from .errors import InvalidSpecError, UnsupportedAmbientError

FAMILIES = ("lp", "weak-lp", "l1", "l2", "sparse-sphere", "sparse-ball")

# absolute float slack for boundary membership
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class BallDescriptor:
    """Identifies one of the supported bodies in R^dim.

    family      meaning
    ----------  -------------------------------------------------------
    lp          {x : (sum |x_i|^p)^(1/p) <= radius}, 0 < p <= 2
    weak-lp     {x : sorted |x|_(i) <= radius * i^(-1/p) for all i}
    l1          lp with p = 1
    l2          Euclidean ball of the given radius
    sparse-sphere  unit-sphere vectors (scaled by radius) with <= sparsity nonzeros
    sparse-ball    Euclidean-ball vectors with <= sparsity nonzeros
    """

    family: str
    dim: int
    p: float | None = None
    radius: float = 1.0
    sparsity: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpecError(f"unknown ball family {self.family!r}")
        if self.dim < 1:
            raise InvalidSpecError("dim must be >= 1")
        if self.radius <= 0:
            raise InvalidSpecError("radius must be positive")
        if self.family in ("lp", "weak-lp"):
            if self.p is None or not (0.0 < self.p <= 2.0):
                raise InvalidSpecError("lp/weak-lp need p in (0, 2]")
        if self.family in ("sparse-sphere", "sparse-ball"):
            if self.sparsity is None or not (1 <= self.sparsity <= self.dim):
                raise InvalidSpecError("sparse families need 1 <= sparsity <= dim")

    def to_json(self) -> str:
        obj = {"family": self.family, "radius": self.radius, "dim": self.dim}
        if self.p is not None:
            obj["p"] = self.p
        if self.sparsity is not None:
            obj["sparsity"] = self.sparsity
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "BallDescriptor":
        obj = json.loads(text)
        return cls(family=obj["family"], dim=int(obj["dim"]),
                   p=obj.get("p"), radius=float(obj.get("radius", 1.0)),
                   sparsity=obj.get("sparsity"))

    @classmethod
    def euclidean_ball(cls, dim: int, radius: float = 1.0) -> "BallDescriptor":
        return cls(family="l2", dim=dim, radius=radius)

    @classmethod
    def euclidean_sphere(cls, dim: int) -> "BallDescriptor":
        return cls(family="sparse-sphere", dim=dim, sparsity=dim)

    @classmethod
    def l1_ball(cls, dim: int, radius: float = 1.0) -> "BallDescriptor":
        return cls(family="l1", dim=dim, radius=radius)

    @classmethod
    def weak_lp_ball(cls, dim: int, p: float, radius: float = 1.0,
                     sparsity: int | None = None) -> "BallDescriptor":
        return cls(family="weak-lp", dim=dim, p=p, radius=radius, sparsity=sparsity)

    @classmethod
    def sparse_sphere(cls, dim: int, sparsity: int) -> "BallDescriptor":
        return cls(family="sparse-sphere", dim=dim, sparsity=sparsity)

    @classmethod
    def sparse_ball(cls, dim: int, sparsity: int, radius: float = 1.0) -> "BallDescriptor":
        return cls(family="sparse-ball", dim=dim, sparsity=sparsity, radius=radius)


@dataclass(frozen=True)
class Rearrangement:
    """Non-increasing rearrangement of |x| with its sorting permutation."""

    values: np.ndarray
    permutation: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.permutation.setflags(write=False)


def rearrange(x: np.ndarray) -> Rearrangement:
    """Sort |x| non-increasing; ties broken by lower original index."""
    mags = np.abs(np.asarray(x, dtype=float))
    perm = np.argsort(-mags, kind="stable")
    return Rearrangement(values=mags[perm], permutation=perm)


def support_size(x: np.ndarray) -> int:
    return int(np.count_nonzero(x))


def member(x: np.ndarray, ball: BallDescriptor, atol: float = DEFAULT_ATOL) -> bool:
    """Exact membership up to an absolute float slack of ``atol``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ball.dim,):
        raise InvalidSpecError(f"dimension mismatch: {x.shape} vs dim={ball.dim}")
    fam, rad = ball.family, ball.radius
    if fam == "l2":
        return bool(np.linalg.norm(x) <= rad + atol)
    if fam == "l1":
        return bool(np.sum(np.abs(x)) <= rad + atol)
    if fam == "lp":
        return bool(np.sum(np.abs(x) ** ball.p) ** (1.0 / ball.p) <= rad + atol)
    if fam == "weak-lp":
        return bool(_in_weak_lp(x, ball, atol))
    if fam == "sparse-sphere":
        return (support_size(x) <= ball.sparsity
                and abs(np.linalg.norm(x) - rad) <= max(atol, 1e-9))
    if fam == "sparse-ball":
        return support_size(x) <= ball.sparsity and bool(np.linalg.norm(x) <= rad + atol)
    raise InvalidSpecError(fam)  # pragma: no cover


def _in_weak_lp(x: np.ndarray, ball: BallDescriptor, atol: float) -> np.ndarray:
    """Weak-lp membership of each row of x (the last axis is the vector)."""
    # the all-thresholds definition reduces to the n sorted positions
    star = -np.sort(-np.abs(x), axis=-1)
    envelope = ball.radius * np.arange(1, ball.dim + 1) ** (-1.0 / ball.p)
    return np.all(star <= envelope + atol, axis=-1)


def top_m_l2(x: np.ndarray, m: int) -> float:
    """Euclidean norm of the m largest-magnitude entries."""
    x = np.asarray(x, dtype=float)
    if not (1 <= m <= x.size):
        raise InvalidSpecError(f"need 1 <= m <= n, got m={m}, n={x.size}")
    if m == x.size:
        return float(np.linalg.norm(x))
    sq = x * x
    top = np.partition(sq, x.size - m)[x.size - m:]
    return float(math.sqrt(np.sum(top)))


def weak_lp_cap_radius(p: float, m: int) -> float:
    """Radius r = (1/p - 1) m^(1/p - 1/2) pairing with the dual bound."""
    return (1.0 / p - 1.0) * m ** (1.0 / p - 0.5)


# ---------------------------------------------------------------------------
# samplers


# rejection draws per row in sample_unit_cap before scaling onto the sphere
CAP_TRIES = 50


def sample_ambient_batch(rng: np.random.Generator, ball: BallDescriptor,
                         count: int) -> np.ndarray:
    """Uniform samples from a descriptor, one per row; raises when undefined."""
    fam, dim, rad = ball.family, ball.dim, ball.radius
    if fam in ("l2", "sparse-sphere", "sparse-ball"):
        sphere_like = fam == "sparse-sphere"
        m = dim if fam == "l2" else ball.sparsity
        g = rng.standard_normal((count, m))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        if not sphere_like:
            g *= rng.uniform(size=(count, 1)) ** (1.0 / m)
        g *= rad
        if m == dim:
            return g
        out = np.zeros((count, dim))
        supports = np.argpartition(rng.random((count, dim)), m - 1, axis=1)[:, :m]
        np.put_along_axis(out, supports, g, axis=1)
        return out
    if fam == "l1":
        # Dirichlet magnitudes, random signs, radial power.  float_power keeps
        # pinned draws: it rounds as scalar pow does, and array ** does not always.
        e = rng.standard_exponential((count, dim))
        mags = e / e.sum(axis=1, keepdims=True)
        signs = rng.integers(0, 2, (count, dim)) * 2.0 - 1.0
        radial = np.float_power(rng.uniform(size=(count, 1)), 1.0 / dim)
        return signs * mags * (rad * radial)
    raise UnsupportedAmbientError(f"no uniform sampler for family {fam!r}")


def sample_weak_lp_ball(rng: np.random.Generator, ball: BallDescriptor,
                        count: int) -> np.ndarray:
    """Points of a weak-lp ball, one per row: envelope-scaled, signed, permuted.

    Not uniform.  Membership is guaranteed: magnitudes are dominated
    pointwise by the non-increasing envelope, so their sorted version is too.
    """
    if ball.family != "weak-lp":
        raise InvalidSpecError(f"expected a weak-lp ball, got {ball.family!r}")
    envelope = ball.radius * np.arange(1, ball.dim + 1) ** (-1.0 / ball.p)
    mags = rng.uniform(0.0, 1.0, (count, ball.dim)) * envelope
    signs = rng.integers(0, 2, (count, ball.dim)) * 2.0 - 1.0
    return rng.permuted(signs * mags, axis=1)


def sample_unit_cap(rng: np.random.Generator, ball: BallDescriptor,
                    count: int) -> np.ndarray:
    """Points of an l1 or weak-lp ball intersected with B_2, one per row.

    Each row is redrawn from the ball until it lands in the unit Euclidean
    ball, at most CAP_TRIES draws; a row still outside is scaled onto the
    sphere, which preserves both memberships.  Not uniform; used for
    coverage, not for integration.
    """
    if ball.family not in ("l1", "weak-lp"):
        raise InvalidSpecError(f"no cap sampler for family {ball.family!r}")
    draw = sample_ambient_batch if ball.family == "l1" else sample_weak_lp_ball
    out = np.empty((count, ball.dim))
    nrm = np.empty(count)
    outside = np.arange(count)
    for _ in range(CAP_TRIES):
        rows = draw(rng, ball, outside.size)
        out[outside] = rows
        # row norms as dot products, equal bit for bit to np.linalg.norm of
        # one row; norm(axis=1) sums in another order
        nrm[outside] = np.sqrt((rows[:, None, :] @ rows[:, :, None]).ravel())
        outside = outside[nrm[outside] > 1.0]
        if outside.size == 0:
            break
    out[outside] /= nrm[outside, None]
    logging.getLogger(__name__).debug(
        "cap sampler scaled %d of %d rows onto the sphere after %d tries",
        outside.size, count, CAP_TRIES)
    return out


# ---------------------------------------------------------------------------
# the dual bound and hull inclusions


@dataclass(frozen=True)
class DualBoundCheck:
    max_ratio: float
    pass_: bool
    probes_used: int


def _aligned_candidates(x: np.ndarray, envelope: np.ndarray,
                        thresholds: np.ndarray) -> np.ndarray:
    """Extremal candidates min(envelope, t), one row per threshold t, aligned
    with x's order and signs and scaled into B_2."""
    mags = np.minimum(envelope, thresholds[:, None])
    mags /= np.maximum(np.linalg.norm(mags, axis=1, keepdims=True), 1.0)
    order = rearrange(x).permutation
    z = np.zeros((thresholds.size, x.size))
    z[:, order] = np.where(x[order] < 0, -1.0, 1.0) * mags
    return z


def weak_lp_dual_bound_check(x: np.ndarray, p: float, m: int, probes: int,
                             seed: int) -> DualBoundCheck:
    """Check sup <x,z> over r*B_{p,inf} cap B_2 against 2 * top_m_l2(x, m).

    Probes the set randomly and also maximizes over structured extremal
    candidates aligned with x; the reported ratio never exceeding 1 is the
    pass condition.
    """
    if not (0.0 < p < 1.0):
        raise InvalidSpecError("dual bound requires 0 < p < 1")
    if probes < 1:
        raise InvalidSpecError("probes must be >= 1")
    x = np.asarray(x, dtype=float)
    n = x.size
    denom = 2.0 * top_m_l2(x, m)
    if denom == 0.0:
        return DualBoundCheck(max_ratio=0.0, pass_=True, probes_used=probes)
    r = weak_lp_cap_radius(p, m)
    envelope = r * np.arange(1, n + 1) ** (-1.0 / p)
    probed = sample_unit_cap(philox(seed, "dual-bound"),
                             BallDescriptor.weak_lp_ball(n, p, radius=r), probes)
    thresholds = np.geomspace(envelope[-1], envelope[0], 64)
    z = np.vstack([probed, _aligned_candidates(x, envelope, thresholds)])
    ratio = float(np.max(np.abs(z @ x))) / denom
    return DualBoundCheck(max_ratio=ratio, pass_=ratio <= 1.0 + 1e-10,
                          probes_used=probes)


def block_norm_witness(z: np.ndarray, m: int) -> float | np.ndarray:
    """Sum of Euclidean norms over magnitude-sorted blocks of size m.

    A value <= 2 certifies z in 2 conv(sparse ball of sparsity m): each
    block normalizes to a unit m-sparse vector and the coefficients sum
    to at most 2.  A float for one vector, one sum per row for a batch.
    """
    star = -np.sort(-np.abs(z), axis=-1)
    pad = (-star.shape[-1]) % m
    if pad:
        star = np.concatenate([star, np.zeros(star.shape[:-1] + (pad,))], axis=-1)
    blocks = star.reshape(star.shape[:-1] + (-1, m))
    sums = np.sum(np.sqrt(np.sum(blocks * blocks, axis=-1)), axis=-1)
    return float(sums) if sums.ndim == 0 else sums


@dataclass(frozen=True)
class HullInclusionCheck:
    pass_: bool
    max_block_sum: float
    probes_used: int


def hull_inclusion_check(which: str, n: int, m: int, probes: int, seed: int,
                         p: float | None = None) -> HullInclusionCheck:
    """Probe the duality-route inclusions into 2 conv(sparse ball).

    which = "weak-lp": samples r*B_{p,inf} cap B_2 with the paired radius.
    which = "l1":      samples sqrt(m)*B_1 cap B_2.
    Every probe must satisfy the block-norm witness <= 2.
    """
    if which not in ("weak-lp", "l1"):
        raise InvalidSpecError(f"unknown inclusion {which!r}")
    if which == "weak-lp" and not (p and 0.0 < p < 1.0):
        raise InvalidSpecError("weak-lp inclusion needs 0 < p < 1")
    if not (1 <= m <= n):
        raise InvalidSpecError("need 1 <= m <= n")
    if which == "weak-lp":
        ball = BallDescriptor.weak_lp_ball(n, p, radius=weak_lp_cap_radius(p, m))
    else:
        ball = BallDescriptor.l1_ball(n, radius=math.sqrt(m))
    z = sample_unit_cap(philox(seed, "hull-inclusion", which), ball, probes)
    worst = float(np.max(block_norm_witness(z, m), initial=0.0))
    return HullInclusionCheck(pass_=worst <= 2.0 + 1e-10, max_block_sum=worst,
                              probes_used=probes)


# ---------------------------------------------------------------------------
# truncation onto sparse spheres


@dataclass(frozen=True)
class TruncationResult:
    z: np.ndarray
    error: float

    def __post_init__(self):
        self.z.setflags(write=False)


def truncation_error_bound(p: float, delta: float) -> float:
    """Guaranteed distance 2 (2/p - 1)^(-1/2) delta^(1/p - 1/2)."""
    return 2.0 * (2.0 / p - 1.0) ** -0.5 * delta ** (1.0 / p - 0.5)


def truncation_cover_point(x: np.ndarray, p: float, m: int,
                           delta: float) -> TruncationResult:
    """Nearest point of the ceil(m/delta)-sparse sphere by truncate-and-renormalize.

    Requires x on the unit sphere inside m^(1/p-1/2) B_{p,inf}; the returned
    error is guaranteed at most ``truncation_error_bound(p, delta)``.
    """
    if not (0.0 < p < 2.0):
        raise InvalidSpecError("truncation requires 0 < p < 2")
    if delta <= 0:
        raise InvalidSpecError("delta must be positive")
    x = np.asarray(x, dtype=float)
    ambient = BallDescriptor.weak_lp_ball(x.size, p, radius=m ** (1.0 / p - 0.5))
    if abs(np.linalg.norm(x) - 1.0) > 1e-9 or not member(x, ambient, atol=1e-9):
        raise InvalidSpecError("x must lie on S^(n-1) inside the scaled weak-lp ball")
    keep = min(x.size, math.ceil(m / delta))
    order = rearrange(x).permutation
    z = np.zeros_like(x)
    z[order[:keep]] = x[order[:keep]]
    nrm = np.linalg.norm(z)
    if nrm == 0.0:  # impossible under the precondition: top entries carry mass
        raise InvalidSpecError("truncation produced the zero vector")
    z /= nrm
    return TruncationResult(z=z, error=float(np.linalg.norm(x - z)))


# ---------------------------------------------------------------------------
# quasi-convexity and the sparsity inflation of the hull reduction


def quasiconvexity_constant_check(p: float, trials: int, n: int, seed: int) -> bool:
    """Sample pairs from the weak-lp ball and check x + y stays in 2a times it.

    The quasi-convexity constant of the weak-lp ball is a = 2^(1/p), so the
    sum is rescaled by 2a = 2^(1 + 1/p).  Dividing by a alone is falsifiable
    by sampling (sums need both the magnitude and the interleaving factor).
    """
    if not (0.0 < p < 1.0):
        raise InvalidSpecError("quasi-convexity check requires 0 < p < 1")
    rng = philox(seed, "quasiconvex")
    ball = BallDescriptor.weak_lp_ball(n, p)
    scale = 2.0 ** (1.0 + 1.0 / p)
    x = sample_weak_lp_ball(rng, ball, trials)
    y = sample_weak_lp_ball(rng, ball, trials)
    return bool(np.all(_in_weak_lp((x + y) / scale, ball, atol=1e-9)))


def required_hull_sparsity(p: float, m: int, eps: float) -> int:
    """Sparsity m1 with (2^(1+1/p) m^(1/p-1/2) / eps) <= (1/p-1) m1^(1/p-1/2).

    This is the inflation that pushes the quasi-convexity-widened difference
    body into 2 conv of an m1-sparse ball at scale eps.
    """
    if not (0.0 < p < 1.0):
        raise InvalidSpecError("requires 0 < p < 1")
    expo = 1.0 / p - 0.5
    factor = ((1.0 / p - 1.0) ** -1 * (2.0 / eps) * 2.0 ** (1.0 / p)) ** (1.0 / expo)
    m1 = math.ceil(max(factor * m, m))
    assert (2.0 ** (1.0 + 1.0 / p) * m ** expo / eps
            <= (1.0 / p - 1.0) * m1 ** expo * (1 + 1e-12))
    return m1
