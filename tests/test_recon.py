import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

import riplab
from riplab import recon
from riplab._util import philox
from riplab.ensembles import EnsembleSpec, MeasurementMatrix, generate
from riplab.errors import BudgetError, InfeasibleError, InvalidSpecError
from riplab.geometry import BallDescriptor, member
from riplab.recon import (draw_signal, kernel_basis, kernel_diameter_lower,
                          kernel_diameter_upper, km_cp, l1_minimize,
                          max_sparsity_for_budget, recon_experiment,
                          rho_from_budget)


def exact_l1_kernel_diameter(entries):
    """Vertex oracle: extreme points of ker cap B1 live on supports of size
    rank+1 with a one-dimensional null space."""
    _, svals, _ = np.linalg.svd(entries)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    n = entries.shape[1]
    best = 0.0
    for size in range(1, min(n, rank + 1) + 1):
        for combo in itertools.combinations(range(n), size):
            sub = entries[:, combo]
            _, _, vt = np.linalg.svd(sub, full_matrices=True)
            vec = vt[-1]
            if np.linalg.norm(sub @ vec) > 1e-10 * max(1.0, svals[0]):
                continue
            z = np.zeros(n)
            z[list(combo)] = vec
            l1 = float(np.sum(np.abs(z)))
            if l1 > 0:
                best = max(best, float(np.linalg.norm(z)) / l1)
    return 2.0 * best


def enumerate_l1(entries, b, budget=2_000_000):
    """Oracle for min |x|_1 s.t. entries x = b: the best basic solution over
    all supports of size at most k, returned with the supports tried."""
    k, n = entries.shape
    supports = sum(math.comb(n, size) for size in range(1, k + 1))
    if supports > budget:
        raise BudgetError(f"{supports} supports of size 1..{k} exceed budget {budget}")
    best_x = np.zeros(n)
    best_obj = math.inf if np.linalg.norm(b) > recon.FEASIBILITY_TOL else 0.0
    checked = 0
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(n), size):
            sub = entries[:, combo]
            sol, _, _, _ = np.linalg.lstsq(sub, b, rcond=None)
            if np.linalg.norm(sub @ sol - b) <= recon.FEASIBILITY_TOL:
                obj = float(np.sum(np.abs(sol)))
                if obj < best_obj:
                    best_obj = obj
                    best_x = np.zeros(n)
                    best_x[list(combo)] = sol
            checked += 1
    if math.isinf(best_obj):
        raise InfeasibleError("no feasible basic solution found")
    return best_x, checked


def enumerated_objective(mat, b):
    """|x|_1 of the oracle's solution, as ReconResult.objective computes it."""
    return float(np.sum(np.abs(enumerate_l1(mat.entries, b)[0])))


def first_rows_identity(n, k):
    spec = EnsembleSpec("gaussian", n=n, k=k, seed=0)
    return MeasurementMatrix(entries=np.eye(n)[:k] * math.sqrt(k), spec=spec)


def test_kernel_basis_identity_rows():
    kb = kernel_basis(first_rows_identity(8, 5))
    assert kb.dim == 3
    # basis spans exactly the last three coordinates
    proj = kb.basis.T @ kb.basis
    expected = np.zeros((8, 8))
    expected[5:, 5:] = np.eye(3)
    assert np.allclose(proj, expected, atol=1e-12)


def test_kernel_basis_full_rank_and_residuals():
    square = generate(EnsembleSpec("gaussian", n=6, k=6, seed=3))
    assert kernel_basis(square).dim == 0
    wide = generate(EnsembleSpec("bernoulli", n=8, k=4, seed=5))
    kb = kernel_basis(wide)
    assert kb.dim == 4
    assert np.allclose(kb.basis @ kb.basis.T, np.eye(4), atol=1e-10)
    resid = np.abs(wide.entries @ kb.basis.T).max()
    assert resid <= 1e-9 * np.linalg.norm(wide.entries)


def test_l1_zero_rhs():
    m = generate(EnsembleSpec("bernoulli", n=10, k=5, seed=1))
    res = l1_minimize(m, np.zeros(5))
    assert np.array_equal(res.x_hat, np.zeros(10))
    assert res.objective == 0.0 and res.gap == 0.0
    assert np.array_equal(enumerate_l1(m.entries, np.zeros(5))[0], np.zeros(10))


def test_l1_identity_rows_recover_sparse_prefix_signal():
    m = first_rows_identity(10, 4)
    t0 = np.zeros(10)
    t0[[1, 3]] = [2.0, -1.0]
    b = m.entries @ t0
    res = l1_minimize(m, b, t0=t0)
    assert np.allclose(res.x_hat, t0, atol=1e-7)
    assert res.error <= 1e-7
    assert np.allclose(enumerate_l1(m.entries, b)[0], t0, atol=1e-7)


def test_l1_infeasible_rhs():
    m = first_rows_identity(10, 4)   # column space misses nothing... rows span R^4
    # make an infeasible system: restrict to a rank-deficient matrix
    entries = np.zeros((3, 6))
    entries[0, 0] = entries[1, 1] = 1.0   # row 3 is zero
    mat = MeasurementMatrix(entries=entries,
                            spec=EnsembleSpec("gaussian", n=6, k=3, seed=0))
    with pytest.raises(InfeasibleError):
        l1_minimize(mat, np.array([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("b", [[1.0, np.nan, 0.0, 2.0], [1.0, np.inf, 0.0, 2.0],
                               [1.0, 0.0, 2.0], [[1.0, 0.0, 2.0, 3.0]]],
                         ids=["nan", "inf", "short", "matrix"])
def test_l1_rejects_b_not_a_finite_k_vector(b):
    m = first_rows_identity(10, 4)
    with pytest.raises(InvalidSpecError, match=r"finite vector of shape \(4,\)"):
        l1_minimize(m, np.array(b))


def test_l1_iterative_matches_exact_sample():
    worst = 0.0
    for i in range(20):
        rng = philox(500 + i, "l1-pair")
        n, k = int(rng.integers(8, 13)), int(rng.integers(4, 7))
        mat = generate(EnsembleSpec("bernoulli" if i % 2 else "gaussian",
                                    n=n, k=k, seed=900 + i))
        t0 = np.zeros(n)
        sup = rng.choice(n, 2, replace=False)
        t0[sup] = rng.standard_normal(2)
        b = mat.entries @ t0
        worst = max(worst, abs(enumerated_objective(mat, b) - l1_minimize(mat, b).objective))
    assert worst <= 1e-6


def highs_l1_optimum(entries, b):
    """min |x|_1 s.t. G x = b as an LP over x = x+ - x-, solved by HiGHS."""
    n = entries.shape[1]
    res = linprog(np.ones(2 * n), A_eq=np.hstack([entries, -entries]), b_eq=b,
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


@pytest.mark.parametrize("seed", range(50, 56))
def test_primal_dual_certified_against_highs(seed):
    # criterion 9's instances: n=256 Bernoulli, weak-lp-extremal signals
    for p in (1.0, 0.5):
        ball = (BallDescriptor.l1_ball(256) if p == 1.0
                else BallDescriptor.weak_lp_ball(256, p))
        t0 = draw_signal(ball, "weak-lp-extremal", seed)
        for k in (8, 16, 32):
            mat = generate(EnsembleSpec("bernoulli", n=256, k=k, seed=seed))
            b = mat.entries @ t0
            res = l1_minimize(mat, b)
            opt = highs_l1_optimum(mat.entries, b)
            assert abs(res.objective - opt) <= 1e-7 * opt
            assert np.linalg.norm(mat.entries @ res.x_hat - b) <= 1e-8
            # the gap is a certificate: objective - gap is a dual lower bound
            assert res.gap >= -1e-12
            assert res.objective - res.gap <= opt + 1e-9 * res.objective


def test_primal_dual_rank_deficient_bernoulli():
    # criterion 10's instance i=81: a 6 x 9 Bernoulli matrix of rank 5
    rng = philox(1081, "acc10")
    n, k = int(rng.integers(8, 13)), int(rng.integers(4, 7))
    mat = generate(EnsembleSpec("bernoulli", n=n, k=k, seed=2081))
    assert (n, k) == (9, 6) and kernel_basis(mat).dim == n - 5
    s = int(rng.integers(1, 3))
    t0 = np.zeros(n)
    t0[rng.choice(n, s, replace=False)] = rng.standard_normal(s)
    b = mat.entries @ t0
    res = l1_minimize(mat, b)
    assert abs(res.objective - enumerated_objective(mat, b)) <= 1e-6
    assert res.residual <= 1e-8


def test_primal_dual_deterministic():
    mat = generate(EnsembleSpec("bernoulli", n=64, k=16, seed=3))
    b = mat.entries @ draw_signal(BallDescriptor.weak_lp_ball(64, 0.5),
                                  "weak-lp-extremal", 3)
    first, second = l1_minimize(mat, b), l1_minimize(mat, b)
    assert first.x_hat.tobytes() == second.x_hat.tobytes()
    assert (first.gap, first.iterations) == (second.gap, second.iterations)


def test_kernel_diameter_lower_planted_vector():
    rng = philox(7, "planted")
    entries = rng.standard_normal((4, 8))
    entries[:, -1] = 0.0   # e_8 lies in the kernel; |e_8|_1 = 1
    mat = MeasurementMatrix(entries=entries,
                            spec=EnsembleSpec("gaussian", n=8, k=4, seed=0))
    lo = kernel_diameter_lower(mat, BallDescriptor.l1_ball(8), restarts=30, seed=8)
    assert lo >= 2.0 - 1e-6


def test_kernel_diameter_lower_full_rank_zero():
    square = generate(EnsembleSpec("gaussian", n=6, k=6, seed=9))
    assert kernel_diameter_lower(square, BallDescriptor.l1_ball(6),
                                 restarts=5, seed=1) == 0.0


@pytest.mark.parametrize("restarts", [0, -3])
def test_kernel_diameter_lower_needs_a_restart(restarts):
    mat = generate(EnsembleSpec("gaussian", n=8, k=4, seed=2))
    with pytest.raises(InvalidSpecError, match="restarts must be >= 1"):
        kernel_diameter_lower(mat, BallDescriptor.l1_ball(8), restarts=restarts, seed=1)


def test_kernel_diameter_lower_matches_vertex_oracle():
    for seed in range(5):
        mat = generate(EnsembleSpec("bernoulli", n=8, k=4, seed=seed))
        lo = kernel_diameter_lower(mat, BallDescriptor.l1_ball(8),
                                   restarts=40, seed=seed)
        exact = exact_l1_kernel_diameter(mat.entries)
        assert lo <= exact + 1e-9
        assert abs(lo - exact) <= 1e-6


def weak_lp_gauge(z, p):
    """Gauge of each row of z for the unit weak-lp ball: max_i i^(1/p) z*_i."""
    star = -np.sort(-np.abs(z), axis=1)
    return np.max(star * np.arange(1, z.shape[1] + 1) ** (1.0 / p), axis=1)


def test_kernel_diameter_lower_weak_lp_route():
    mat = generate(EnsembleSpec("gaussian", n=8, k=4, seed=11))
    ball = BallDescriptor.weak_lp_ball(8, 0.5)
    lo = kernel_diameter_lower(mat, ball, restarts=20, seed=12)
    # at least the best of 20k random kernel directions scaled onto the ball
    # (1.000), at most twice the norm of the weak-lp envelope (2.080)
    dirs = philox(12, "weak-lp-route").standard_normal((20_000, 4))
    z = dirs @ kernel_basis(mat).basis
    sampled = float(np.max(2.0 * np.linalg.norm(z, axis=1) / weak_lp_gauge(z, 0.5)))
    envelope = np.arange(1, 9) ** -2.0
    assert sampled <= lo <= 2.0 * np.linalg.norm(envelope)


def one_restart_search(basis, c, p, steps=400):
    """Largest 1/weak-lp gauge along one projected subgradient run from c,
    one vector at a time."""
    c = c / np.linalg.norm(c)
    best = 0.0
    for t in range(steps):
        z = c @ basis
        star_order = np.argsort(-np.abs(z), kind="stable")
        scale = np.arange(1, z.size + 1) ** (1.0 / p)
        top = int(np.argmax(np.abs(z[star_order]) * scale))
        j = int(star_order[top])
        g = float(np.abs(z[j]) * scale[top])
        best = max(best, 1.0 / g)
        sub = np.zeros_like(z)
        sub[j] = math.copysign(scale[top], z[j])
        grad = basis @ sub
        c = c - (0.3 / math.sqrt(1.0 + t)) * grad / np.linalg.norm(grad)
        c /= np.linalg.norm(c)
    return best


def test_kernel_diameter_lower_rows_match_one_restart_search():
    # every row of the batched search rounds as its own one-vector run
    mat = generate(EnsembleSpec("bernoulli", n=16, k=8, seed=21))
    basis = kernel_basis(mat).basis
    starts = np.vstack([np.eye(8), philox(5, "kernel-lower").standard_normal((4, 8))])
    expected = max(one_restart_search(basis, c, 0.5) for c in starts)
    lo = kernel_diameter_lower(mat, BallDescriptor.weak_lp_ball(16, 0.5),
                               restarts=12, seed=5)
    assert lo == 2.0 * expected


@pytest.mark.parametrize("ball", [BallDescriptor.l1_ball(16),
                                  BallDescriptor.weak_lp_ball(16, 0.5)],
                         ids=["l1", "weak-lp"])
def test_kernel_diameter_lower_never_decreases_with_restarts(ball):
    # the starting points for r restarts are a prefix of those for r + 1
    for seed in (3, 4):
        mat = generate(EnsembleSpec("bernoulli", n=16, k=8, seed=seed))
        bounds = [kernel_diameter_lower(mat, ball, restarts=r, seed=seed)
                  for r in range(1, 15)]
        assert all(a <= b for a, b in zip(bounds, bounds[1:]))
        assert bounds[0] > 0.0


def test_kernel_diameter_upper_identity_certifies():
    n = 3
    mat = MeasurementMatrix(entries=np.eye(n) * math.sqrt(n),
                            spec=EnsembleSpec("gaussian", n=n, k=n, seed=0))
    # the weak-lp balls take the required_hull_sparsity route
    for ball in (BallDescriptor.l1_ball(n), BallDescriptor.weak_lp_ball(n, 0.5),
                 BallDescriptor.weak_lp_ball(n, 0.8)):
        cert = kernel_diameter_upper(mat, ball, rho=1.0,
                                     theta=0.5, seed=3, net_budget=1e6,
                                     stall_limit=60_000)
        assert cert.certified
        assert cert.norm_condition and cert.image_condition and cert.cover_probe_pass


def test_kernel_diameter_upper_refuses_kernel_vector():
    rng = philox(13, "refuse")
    entries = rng.standard_normal((2, 3))
    entries[:, -1] = 0.0            # e_3 in kernel, inside B1, norm 1 > rho
    mat = MeasurementMatrix(entries=entries,
                            spec=EnsembleSpec("gaussian", n=3, k=2, seed=0))
    cert = kernel_diameter_upper(mat, BallDescriptor.l1_ball(3), rho=0.5,
                                 theta=0.5, seed=3, net_budget=1e6,
                                 stall_limit=20_000)
    assert not cert.certified
    lo = kernel_diameter_lower(mat, BallDescriptor.l1_ball(3), restarts=10, seed=1)
    assert lo > cert.rho


def test_kernel_diameter_upper_budget_error_at_desk_scale():
    mat = generate(EnsembleSpec("bernoulli", n=32, k=16, seed=60))
    with pytest.raises(BudgetError, match="rho"):
        kernel_diameter_upper(mat, BallDescriptor.l1_ball(32), rho=1.0, seed=3)


def test_kernel_diameter_upper_budget_error_past_float_range():
    # the sphere cover bound (50)^256 overflows a float; it must still refuse
    mat = generate(EnsembleSpec("bernoulli", n=256, k=128, seed=60))
    with pytest.raises(BudgetError, match="rho"):
        kernel_diameter_upper(mat, BallDescriptor.l1_ball(256), rho=1.0, seed=3)


def test_kernel_diameter_upper_rejects_vacuous_theta():
    mat = generate(EnsembleSpec("bernoulli", n=8, k=4, seed=1))
    with pytest.raises(InvalidSpecError):
        kernel_diameter_upper(mat, BallDescriptor.l1_ball(8), rho=1.0, theta=0.8)


@pytest.mark.parametrize("model", ["sparse", "weak-lp-extremal", "random-ball"])
@pytest.mark.parametrize("ball", [BallDescriptor.l1_ball(16),
                                  BallDescriptor.weak_lp_ball(16, 0.5)],
                         ids=["l1", "weak-lp"])
def test_draw_signal_stays_in_ball(model, ball):
    for seed in range(10):
        t0 = draw_signal(ball, model, seed, sparsity=2)
        assert member(t0, ball, atol=1e-9)
        assert np.any(t0)


@pytest.mark.parametrize("sparsity", [0, 17])
def test_draw_signal_rejects_sparsity_outside_1_to_n(sparsity):
    with pytest.raises(InvalidSpecError, match="sparsity"):
        draw_signal(BallDescriptor.l1_ball(16), "sparse", 0, sparsity=sparsity)


# sha256 of the f64 bytes of draw_signal(ball, "random-ball", seed) for
# seeds 0..9, concatenated: pins the l1 and weak-lp bulk samplers bit for bit.
RANDOM_BALL_SHA256 = {
    ("l1", 16): "55e675823d2e1779e518d41d990c7da030bfadb99a93798ef739dc71a6469fc6",
    ("weak-lp", 16): "30ddca71a9757b134318b1353ba1706a1d3cb0c36390d07ff5a5cf09ec6e8a10",
    ("l1", 64): "a5aaf26ddc354477f65388c05d0ff7869dbefc985e2504a3ac3d693e255aa019",
    ("weak-lp", 64): "1fa8feafea162da0698497fde017b347c8e1a41085d071f046dc77f400347177",
}


@pytest.mark.parametrize("family,n", sorted(RANDOM_BALL_SHA256))
def test_draw_signal_random_ball_golden(family, n):
    ball = (BallDescriptor.l1_ball(n) if family == "l1"
            else BallDescriptor.weak_lp_ball(n, 0.5))
    digest = hashlib.sha256()
    for seed in range(10):
        digest.update(draw_signal(ball, "random-ball", seed).tobytes())
    assert digest.hexdigest() == RANDOM_BALL_SHA256[(family, n)]


def test_recon_experiment_end_to_end():
    spec = EnsembleSpec("bernoulli", n=16, k=8, seed=70)
    ball = BallDescriptor.l1_ball(16)
    res = recon_experiment(spec, ball, "sparse", seed=70, sparsity=1)
    assert res.error is not None and res.error >= 0.0
    assert res.residual <= 1e-8
    assert np.allclose(res.b, generate(spec).entries @ res.t0)


def test_recon_experiment_sparse_signal_recovered():
    # 1-sparse signals at n=16, k=8 are typically recovered exactly
    hits = 0
    for seed in range(10):
        res = recon_experiment(EnsembleSpec("gaussian", n=16, k=8, seed=seed),
                               BallDescriptor.l1_ball(16), "sparse", seed=seed)
        hits += res.error < 1e-6
    assert hits >= 8


def test_km_budget_helpers():
    assert km_cp(1.0) == pytest.approx(1.7)
    assert km_cp(0.5) == pytest.approx(1.7 * 2.0)
    prev = 0
    for k in (8, 16, 32, 64):
        m = max_sparsity_for_budget(k, 32, km_cp(1.0))
        assert m >= prev
        prev = m
    rho = rho_from_budget(1.0, 16, 32)
    m16 = max_sparsity_for_budget(16, 32, km_cp(1.0))
    assert rho == pytest.approx(m16 ** -0.5)


def test_public_names_resolve():
    missing = [name for name in riplab.__all__ if not hasattr(riplab, name)]
    assert missing == []
    assert riplab.hull_membership is recon.hull_membership
