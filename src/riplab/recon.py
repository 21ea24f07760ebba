"""Approximate sparse reconstruction and random kernel diameters.

l1 minimization under exact equality constraints (a primal-dual
interior-point solver that stops on a certified duality gap), hull
membership decided by that solver, kernel-diameter lower bounds by
nonconvex search with vertex polish, per-instance upper-bound
certificates of injectivity from a sphere net, and the end-to-end experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import philox
from .ensembles import EnsembleSpec, MeasurementMatrix, generate
from .errors import BudgetError, InfeasibleError, InvalidSpecError
from .geometry import (BallDescriptor, member, row_norms, sample_ambient_batch,
                       sample_weak_lp_ball, weak_lp_envelope)
from .nets import cover_check, sparse_set_net
from .spectral import verify_on_net

FEASIBILITY_TOL = 1e-8
MEMBERSHIP_TOL = 1e-6            # hull_membership: distance that counts as inside
RANK_CUT = 1e-10                 # singular values below RANK_CUT * top are zero
LOWER_STEPS = 400                # subgradient steps per kernel_diameter_lower restart
COVER_PROBES = 2000              # cover_check probes per kernel_diameter_upper

# Sparsity budget k >= c_p * m * log(c1 * n / m), calibrated on seeds
# [0, 50) at n = 32, k = 16 (Bernoulli, l1 ball) and frozen; test seeds
# start at 50.  c_p for p < 1 scales the l1 value by the quasi-convexity
# inflation 2^(1/p - 1).
KM_C1 = 4.0
KM_CP_L1 = 1.7


def km_cp(p: float) -> float:
    return KM_CP_L1 * 2.0 ** (1.0 / p - 1.0)


def _svd_rank(entries: np.ndarray, full_matrices: bool = False):
    """SVD (u, svals, vt) of entries and its numerical rank under RANK_CUT.

    The first rank rows of vt span the row space; with full_matrices the
    remaining rows span the kernel.
    """
    u, svals, vt = np.linalg.svd(entries, full_matrices=full_matrices)
    rank = int(np.sum(svals > RANK_CUT * (svals[0] if svals.size else 0.0)))
    return u, svals, vt, rank


def kernel_basis(m: MeasurementMatrix) -> np.ndarray:
    """Read-only (d, n) orthonormal rows spanning the kernel, via SVD with the
    rank cut at RANK_CUT of the top value."""
    _, _, vt, rank = _svd_rank(m.entries, full_matrices=True)
    basis = vt[rank:]
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True)
class ReconResult:
    b: np.ndarray
    x_hat: np.ndarray
    objective: float             # l1 norm of x_hat
    residual: float              # |G x_hat - b|
    iterations: int              # Newton steps
    gap: float                   # certified duality gap
    t0: np.ndarray | None = None
    error: float | None = None   # |x_hat - t0| when t0 is known

    def __post_init__(self):
        self.b.setflags(write=False)
        self.x_hat.setflags(write=False)
        if self.t0 is not None:
            self.t0.setflags(write=False)


# Primal-dual interior point (l1eq_pd of l1-magic, Candes & Romberg 2005):
# barrier growth factor, backtracking sufficient decrease and step shrink,
# and the caps on Newton steps and backtracks per step.
PD_MU, PD_ALPHA, PD_BETA = 10.0, 0.01, 0.5
PD_MAX_STEPS, PD_MAX_BACKTRACKS = 100, 32
PD_GAP_REL = 1e-7                # stop once gap <= PD_GAP_REL * max(1, |x|_1)


def _dual_bound(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """(b.y, y) after scaling y into the dual feasible set |a^T y|_inf <= 1."""
    scale = max(1.0, float(np.max(np.abs(a.T @ y))))
    return float(b @ y) / scale, y / scale


def _basis_columns(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The first rank(a) columns of a, taken in order, that are independent.

    A column joins when its part orthogonal to the columns already taken
    (Gram-Schmidt, applied twice) exceeds RANK_CUT; columns of a matrix with
    orthonormal rows have norm at most 1.
    """
    rank = a.shape[0]
    q = np.empty((rank, rank))
    taken = []
    for j in order:
        t = len(taken)
        c = a[:, j] - q[:, :t] @ (q[:, :t].T @ a[:, j])
        c -= q[:, :t] @ (q[:, :t].T @ c)
        norm = np.linalg.norm(c)
        if norm > RANK_CUT:
            q[:, t] = c / norm
            taken.append(j)
            if t + 1 == rank:
                break
    return np.array(taken)


def _l1_primal_dual(a: np.ndarray, b: np.ndarray,
                    tol: float) -> tuple[np.ndarray, float, int, np.ndarray]:
    """min |x|_1 s.t. a x = b, for a with orthonormal rows and b != 0.

    Newton steps on the perturbed KKT system of min sum(u) s.t.
    -u <= x <= u, a x = b; each step solves one r x r SPD system.  Stops
    when the duality gap certified by y = -v / max(1, |a^T v|_inf) is
    below PD_GAP_REL relative and |a x - b| <= tol, when backtracking
    collapses or the Newton matrix is singular, or after PD_MAX_STEPS.
    A crossover to a vertex follows.  Returns (x, certified gap, Newton
    steps, the dual y that certifies the gap, with |a^T y|_inf <= 1).
    """
    n = a.shape[1]
    x = a.T @ b
    u = 0.95 * np.abs(x) + 0.10 * np.max(np.abs(x))
    f1, f2 = x - u, -x - u
    lam1, lam2 = -1.0 / f1, -1.0 / f2
    v = -a @ (lam1 - lam2)
    atv = a.T @ v
    rpri = a @ x - b
    tau = PD_MU * 2 * n / -(f1 @ lam1 + f2 @ lam2)

    def residual_norm(lam1, lam2, f1, f2, atv, rpri, tau):
        """Norm of the dual, centrality and primal residuals stacked."""
        parts = (lam1 - lam2 + atv, 1.0 - lam1 - lam2, lam1 * f1 + 1.0 / tau,
                 lam2 * f2 + 1.0 / tau, rpri)
        return math.sqrt(sum(float(r @ r) for r in parts))

    resnorm = residual_norm(lam1, lam2, f1, f2, atv, rpri, tau)
    for steps in range(1, PD_MAX_STEPS + 1):
        w1 = (1.0 / f1 - 1.0 / f2) / tau - atv
        w2 = -1.0 - (1.0 / f1 + 1.0 / f2) / tau
        c1, c2 = -lam1 / f1, -lam2 / f2
        sig1, sig2 = c1 + c2, c2 - c1
        # sig1 - sig2^2 / sig1 in a form that does not cancel near the optimum
        sigx = 4.0 * c1 * c2 / sig1
        try:
            dv = np.linalg.solve((a / sigx) @ a.T,
                                 rpri + a @ ((w1 - w2 * sig2 / sig1) / sigx))
        except np.linalg.LinAlgError:
            break                     # Newton matrix singular: keep the last point
        atdv = a.T @ dv
        dx = (w1 - w2 * sig2 / sig1 - atdv) / sigx
        du = (w2 - sig2 * dx) / sig1
        dlam1 = c1 * (dx - du) - lam1 - 1.0 / (tau * f1)
        dlam2 = -c2 * (dx + du) - lam2 - 1.0 / (tau * f2)
        # longest step keeping the multipliers positive and f1, f2 negative
        s = 1.0
        for val, dval in ((lam1, dlam1), (lam2, dlam2), (-f1, du - dx), (-f2, du + dx)):
            neg = dval < 0
            if np.any(neg):
                s = min(s, float(np.min(-val[neg] / dval[neg])))
        s *= 0.99
        adx = a @ dx
        for _ in range(PD_MAX_BACKTRACKS):
            xp, up = x + s * dx, u + s * du
            f1p, f2p = xp - up, -xp - up
            lam1p, lam2p = lam1 + s * dlam1, lam2 + s * dlam2
            atvp, rprip = atv + s * atdv, rpri + s * adx
            resp = residual_norm(lam1p, lam2p, f1p, f2p, atvp, rprip, tau)
            if resp <= (1.0 - PD_ALPHA * s) * resnorm:
                break
            s *= PD_BETA
        else:
            break                     # backtracking collapsed: keep the last point
        x, u, f1, f2, lam1, lam2 = xp, up, f1p, f2p, lam1p, lam2p
        v, atv, rpri = v + s * dv, atvp, rprip
        tau = PD_MU * 2 * n / -(f1 @ lam1 + f2 @ lam2)
        resnorm = residual_norm(lam1, lam2, f1, f2, atv, rpri, tau)
        obj = float(np.sum(np.abs(x)))
        if (obj - _dual_bound(a, b, -v)[0] <= PD_GAP_REL * max(1.0, obj)
                and np.linalg.norm(rpri) <= tol):
            break

    # The residual drifts as it is updated along the steps; project it out
    # (a has orthonormal rows).  Crossover: the basic solution on the
    # largest independent coordinates replaces an infeasible or worse
    # interior point.  The gap is certified by the better of the
    # interior-point dual and the dual nearest to it with
    # a_T^T y = sign(x_T) on the nonzeros T of the returned x.
    x = x - a.T @ (a @ x - b)
    basis = _basis_columns(a, np.argsort(-np.abs(x), kind="stable"))
    vertex = np.zeros(n)
    vertex[basis] = np.linalg.solve(a[:, basis], b)
    if (np.linalg.norm(a @ vertex - b) <= tol
            and (np.sum(np.abs(vertex)) < np.sum(np.abs(x))
                 or np.linalg.norm(a @ x - b) > tol)):
        x = vertex
    on = np.abs(x) > RANK_CUT * np.max(np.abs(x))
    cols = a[:, on]
    y = -v
    y_on = y + np.linalg.lstsq(cols.T, np.sign(x[on]) - cols.T @ y, rcond=None)[0]
    lower, y = max(_dual_bound(a, b, y), _dual_bound(a, b, y_on), key=lambda d: d[0])
    return x, float(np.sum(np.abs(x))) - lower, steps, y


def _l1_solve(entries: np.ndarray, b: np.ndarray) -> tuple:
    """min |x|_1 s.t. entries x = U_r U_r^T b, on V_r x = diag(1/s_r) U_r^T b.

    Returns (x, certified gap, Newton steps, y, off): the dual y = U_r
    diag(1/s_r) y_r has |entries^T y|_inf <= 1, and off = b - U_r U_r^T b.
    """
    u, svals, vt, rank = _svd_rank(entries)
    coef = u[:, :rank].T @ b
    off = b - u[:, :rank] @ coef
    if not np.any(coef):
        return np.zeros(entries.shape[1]), 0.0, 0, np.zeros_like(b), off
    # |G x - U_r U_r^T b| = |diag(s_r) (V_r x - b')| <= s_1 |V_r x - b'|
    x, gap, steps, y = _l1_primal_dual(vt[:rank], coef / svals[:rank],
                                       FEASIBILITY_TOL / svals[0])
    return x, gap, steps, u[:, :rank] @ (y / svals[:rank]), off


def l1_minimize(m: MeasurementMatrix, b: np.ndarray,
                t0: np.ndarray | None = None) -> ReconResult:
    """argmin |x|_1 subject to G x = b.

    Runs a primal-dual interior-point method on the SVD row-reduced system
    and reports the certified duality gap.  b must lie in the column space
    up to FEASIBILITY_TOL; b = 0 returns 0.  A b that is not a finite
    vector of shape (k,) raises ``InvalidSpecError``.
    """
    b = np.array(b, dtype=float)     # copies: the result freezes its arrays
    if b.shape != (m.k,) or not np.isfinite(b).all():
        raise InvalidSpecError(f"b must be a finite vector of shape ({m.k},)")
    entries = m.entries
    x_hat, gap, iters, _, off = _l1_solve(entries, b)
    if np.linalg.norm(off) > FEASIBILITY_TOL:
        raise InfeasibleError("b is not in the column space of the matrix")
    return ReconResult(
        b=b, x_hat=x_hat,
        objective=float(np.sum(np.abs(x_hat))),
        residual=float(np.linalg.norm(entries @ x_hat - b)),
        iterations=iters, gap=gap,
        t0=None if t0 is None else np.array(t0, dtype=float),
        error=None if t0 is None else float(np.linalg.norm(x_hat - t0)))


@dataclass(frozen=True)
class HullMembership:
    member: bool | None              # None when the solve stopped uncertified
    distance: float                  # |z' - P^T x+| to a hull point, blown-down scale
    margin: float                    # separation margin; > 0 proves non-membership
    direction: np.ndarray            # separating direction d of the margin
    iterations: int                  # Newton steps
    gap: float                       # certified duality gap of the l1 solve

    def __post_init__(self):
        self.direction.setflags(write=False)

    def __bool__(self) -> bool:
        return self.member is True


def hull_membership(z: np.ndarray, points: np.ndarray,
                    blowup: float = 1.0) -> HullMembership:
    """Decide z in blowup * conv(points) by one l1 solve.

    z' = z / blowup is in conv(P) iff min{|x|_1 : P^T x = z', 1^T x = 1} = 1,
    as |x|_1 >= 1^T x with equality iff x >= 0.  The solution clipped at 0
    and renormalized, x+, proves membership if |P^T x+ - z'| <= MEMBERSHIP_TOL;
    d with <d, z'> > max_p <d, p> disproves it: the part of (z', 1) off the
    range of [P^T; 1^T] when z' is off the affine hull, else the dual, each
    without its last entry.
    """
    pts, z = np.asarray(points, dtype=float), np.asarray(z, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0 or z.shape != pts.shape[1:]:
        raise InvalidSpecError("need points of shape (count >= 1, dim) and z of shape (dim,)")
    if not 0.0 < blowup < math.inf:
        raise InvalidSpecError("blowup must be positive and finite")
    zp = z / blowup
    x, gap, steps, y, off = _l1_solve(np.vstack([pts.T, np.ones(len(pts))]),
                                      np.append(zp, 1.0))
    xp = np.maximum(x, 0.0)
    distance = float(np.linalg.norm(pts.T @ (xp / np.sum(xp)) - zp))
    d = (off if np.linalg.norm(off) > FEASIBILITY_TOL else y)[:-1]
    margin = float(d @ zp - np.max(pts @ d))
    member = True if distance <= MEMBERSHIP_TOL else (False if margin > 0.0 else None)
    return HullMembership(member=member, distance=distance, margin=margin,
                          direction=d, iterations=steps, gap=gap)


# ---------------------------------------------------------------------------
# kernel diameter, lower bound by search


def _gauge(z: np.ndarray, ball: BallDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """Minkowski gauge of each row of z for the supported star bodies, and
    a subgradient per row."""
    if ball.family == "l1":
        return np.sum(np.abs(z), axis=1) / ball.radius, np.sign(z) / ball.radius
    if ball.family == "weak-lp":
        perm = np.argsort(-np.abs(z), axis=1, kind="stable")
        scale = np.arange(1, z.shape[1] + 1) ** (1.0 / ball.p)
        scaled = np.abs(np.take_along_axis(z, perm, axis=1)) * scale
        rows, top = np.arange(len(z)), np.argmax(scaled, axis=1)
        j = perm[rows, top]
        g = np.zeros_like(z)
        g[rows, j] = np.copysign(scale[top], z[rows, j]) / ball.radius
        return scaled[rows, top] / ball.radius, g
    raise InvalidSpecError(f"unsupported ball family {ball.family!r}")


def kernel_diameter_lower(m: MeasurementMatrix, ball: BallDescriptor,
                          restarts: int, seed: int) -> float:
    """Lower bound on diam(ker(G) cap ball) by projected subgradient search.

    Minimizes the ball gauge over the unit sphere of kernel coordinates
    (the maximal inscribed kernel vector is the reciprocal).  Each restart
    is a row: the kernel basis vectors first, then Gaussian draws, each
    keeping its own best over LOWER_STEPS steps, so the bound never falls
    as restarts grows.  l1 balls also snap each best to the kernel vertex
    on its top rank+1 coordinates.  Only candidates z with |G z| <= 1e-9
    max(1, |G|) count: the bound is twice the norm of one of them.
    """
    if ball.family not in ("l1", "weak-lp"):
        raise InvalidSpecError("lower bound supports l1 and weak-lp balls")
    if restarts < 1:
        raise InvalidSpecError("restarts must be >= 1")
    v = kernel_basis(m)               # (d, n)
    d = len(v)
    if d == 0:
        return 0.0
    rng = philox(seed, "kernel-lower")
    c = np.vstack([np.eye(d)[:restarts], rng.standard_normal((max(restarts - d, 0), d))])
    c /= row_norms(c)[:, None]
    best = np.zeros(restarts)
    best_z = np.zeros((restarts, m.n))
    for t in range(LOWER_STEPS):
        # stacked products run one gemv per row, so each restart rounds as a
        # search of its own would
        z = (c[:, None] @ v)[:, 0]
        g, sub = _gauge(z, ball)
        better = 1.0 / g > best
        best[better] = 1.0 / g[better]
        best_z[better] = z[better] / g[better, None]
        # c.grad = sub.z = gauge(z) > 0, so no subgradient step is zero
        grad = (v @ sub[:, :, None])[:, :, 0]
        c -= (0.3 / math.sqrt(1.0 + t)) * grad / row_norms(grad)[:, None]
        c /= row_norms(c)[:, None]
    cands, norms = best_z, best
    if ball.family == "l1":
        # the last right singular vector is the unit null vector of the columns
        support = np.argsort(-np.abs(best_z), axis=1, kind="stable")[:, :m.n - d + 1]
        _, _, vt = np.linalg.svd(m.entries[:, support].transpose(1, 0, 2))
        vertex = np.zeros_like(best_z)
        np.put_along_axis(vertex, support, vt[:, -1], axis=1)
        vertex *= ball.radius / np.sum(np.abs(vertex), axis=1, keepdims=True)
        cands = np.vstack([best_z, vertex])
        norms = np.concatenate([best, row_norms(vertex)])
    in_kernel = np.linalg.norm(cands @ m.entries.T, axis=1) <= 1e-9 * max(
        1.0, np.linalg.norm(m.entries))
    return 2.0 * float(np.max(norms[in_kernel], initial=0.0))


# ---------------------------------------------------------------------------
# kernel diameter, upper bound by per-instance net certificate


@dataclass(frozen=True)
class UpperBoundCertificate:
    certified: bool
    rho: float                    # a radius: every kernel vector in the ball has |z| <= rho
    norm_condition: bool          # | |G~ x| - 1 | <= theta/5 on the sphere cover
    cover_probe_pass: bool


def kernel_diameter_upper(m: MeasurementMatrix, ball: BallDescriptor, rho: float,
                          theta: float = 0.5, seed: int = 0,
                          net_budget: float = 2e6,
                          stall_limit: int | None = 20_000) -> UpperBoundCertificate:
    """Per-instance certificate that ker(G~) cap ball lies in rho * B_2.

    G~ = G/sqrt(k); rho is a radius, so the diameter is at most 2 rho.
    An injectivity check: | |G~ x| - 1 | <= theta/5 on a probed
    theta/5-net of the unit sphere gives |G~ x| >= (1 - 3 theta/5) /
    (1 - theta/5) > 0 there, so ker(G) = {0}.  Only rank-n matrices
    certify, and rho and the ball never change the verdict.  The proof
    needs theta < 5/3; theta outside (0, 5/9) is refused.  No probability
    claim is made.
    """
    if not (0.0 < theta < 5.0 / 9.0):
        raise InvalidSpecError("certificate needs 0 < theta < 5/9 to be nonvacuous")
    if not rho > 0:
        raise InvalidSpecError("rho must be positive")
    if ball.family not in ("l1", "weak-lp"):
        raise InvalidSpecError("upper bound supports l1 and weak-lp balls")
    try:
        sphere_net = sparse_set_net(m.n, m.n, theta / 5.0, "sphere", seed, net_budget,
                                    stall_limit=stall_limit)
    except BudgetError as exc:
        raise BudgetError(f"net budget exceeded at rho = {rho}: {exc}") from exc
    probe = cover_check(sphere_net, COVER_PROBES, seed + 2)
    norm_condition = not verify_on_net(m, sphere_net, theta)
    return UpperBoundCertificate(
        certified=bool(norm_condition and probe.pass_), rho=rho,
        norm_condition=norm_condition, cover_probe_pass=probe.pass_)


def max_sparsity_for_budget(k: int, n: int, c_p: float, c1: float = KM_C1) -> int:
    """Largest m >= 1 with k >= c_p * m * log(c1 * n / m); 0 when none."""
    best = 0
    for m in range(1, n + 1):
        if k >= c_p * m * math.log(c1 * n / m):
            best = m
    return best


def rho_from_budget(p: float, k: int, n: int, radius: float = 1.0) -> float | None:
    """Diameter prediction radius * m^(1/2 - 1/p) from the frozen constants."""
    m = max_sparsity_for_budget(k, n, km_cp(p))
    if m == 0:
        return None
    return radius * m ** (0.5 - 1.0 / p)


# ---------------------------------------------------------------------------
# end-to-end experiment


T0_MODELS = ("sparse", "weak-lp-extremal", "random-ball")


def draw_signal(ball: BallDescriptor, model: str, seed: int,
                sparsity: int = 1) -> np.ndarray:
    """Sample t0 from the ball: random sparse, extremal envelope, or bulk."""
    rng = philox(seed, "t0", model)
    n = ball.dim
    if model == "sparse":
        if not 1 <= sparsity <= n:
            raise InvalidSpecError(f"sparsity must be in [1, {n}], got {sparsity}")
        t0 = np.zeros(n)
        supp = rng.choice(n, size=sparsity, replace=False)
        t0[supp] = rng.standard_normal(sparsity)
        return t0 / _gauge(t0[None], ball)[0][0]
    if model == "weak-lp-extremal":
        p = 1.0 if ball.family == "l1" else ball.p
        mags = weak_lp_envelope(n, p)
        signs = rng.integers(0, 2, n) * 2.0 - 1.0
        t0 = (signs * mags)[rng.permutation(n)]
        return t0 / _gauge(t0[None], ball)[0][0]
    if model == "random-ball":
        draw = sample_ambient_batch if ball.family == "l1" else sample_weak_lp_ball
        return draw(rng, ball, 1)[0]
    raise InvalidSpecError(f"unknown signal model {model!r}")


def recon_experiment(spec: EnsembleSpec, ball: BallDescriptor, t0_model: str,
                     seed: int, sparsity: int = 1) -> ReconResult:
    """Draw the matrix, measure a signal from the ball, and recover it."""
    if ball.dim != spec.n:
        raise InvalidSpecError("ball dimension must match the ensemble")
    t0 = draw_signal(ball, t0_model, seed, sparsity)
    if not member(t0, ball, atol=1e-9):
        raise InvalidSpecError("drawn signal escaped the ball")
    mat = generate(spec)
    return l1_minimize(mat, mat.entries @ t0, t0=t0)
