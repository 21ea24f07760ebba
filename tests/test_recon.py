import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

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


def first_rows_identity(n, k):
    spec = EnsembleSpec("gaussian", n=n, k=k, seed=0)
    return MeasurementMatrix(entries=np.eye(n)[:k] * math.sqrt(k), spec=spec,
                             normalization="raw")


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
    for mode in ("exact", "iterative"):
        res = l1_minimize(m, np.zeros(5), mode=mode)
        assert np.array_equal(res.x_hat, np.zeros(10))
        assert res.objective == 0.0


def test_l1_identity_rows_recover_sparse_prefix_signal():
    m = first_rows_identity(10, 4)
    t0 = np.zeros(10)
    t0[[1, 3]] = [2.0, -1.0]
    b = m.entries @ t0
    for mode in ("exact", "iterative"):
        res = l1_minimize(m, b, mode=mode, t0=t0)
        assert np.allclose(res.x_hat, t0, atol=1e-7)
        assert res.error <= 1e-7


def test_l1_infeasible_rhs():
    m = first_rows_identity(10, 4)   # column space misses nothing... rows span R^4
    # make an infeasible system: restrict to a rank-deficient matrix
    entries = np.zeros((3, 6))
    entries[0, 0] = entries[1, 1] = 1.0   # row 3 is zero
    mat = MeasurementMatrix(entries=entries,
                            spec=EnsembleSpec("gaussian", n=6, k=3, seed=0),
                            normalization="raw")
    with pytest.raises(InfeasibleError):
        l1_minimize(mat, np.array([1.0, 1.0, 1.0]))


def test_l1_exact_budget_error():
    m = generate(EnsembleSpec("bernoulli", n=40, k=12, seed=2))
    with pytest.raises(BudgetError):
        l1_minimize(m, np.zeros(12) + m.entries[:, 0], mode="exact", budget=100)


def test_l1_exact_solution_is_basic():
    m = generate(EnsembleSpec("gaussian", n=12, k=5, seed=6))
    t0 = np.zeros(12)
    t0[[0, 7]] = [1.0, 0.5]
    res = l1_minimize(m, m.entries @ t0, mode="exact")
    assert np.count_nonzero(res.x_hat) <= 5
    assert res.residual <= 1e-8


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
        exact = l1_minimize(mat, b, mode="exact")
        iterative = l1_minimize(mat, b, mode="iterative")
        worst = max(worst, abs(exact.objective - iterative.objective))
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
    exact = l1_minimize(mat, b, mode="exact")
    res = l1_minimize(mat, b)
    assert abs(res.objective - exact.objective) <= 1e-6
    assert res.residual <= 1e-8
    assert exact.gap is None and res.solver == "primal-dual"


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
                            spec=EnsembleSpec("gaussian", n=8, k=4, seed=0),
                            normalization="raw")
    lo = kernel_diameter_lower(mat, BallDescriptor.l1_ball(8), restarts=30, seed=8)
    assert lo >= 2.0 - 1e-6


def test_kernel_diameter_lower_full_rank_zero():
    square = generate(EnsembleSpec("gaussian", n=6, k=6, seed=9))
    assert kernel_diameter_lower(square, BallDescriptor.l1_ball(6),
                                 restarts=5, seed=1) == 0.0


def test_kernel_diameter_lower_matches_vertex_oracle():
    for seed in range(5):
        mat = generate(EnsembleSpec("bernoulli", n=8, k=4, seed=seed))
        lo = kernel_diameter_lower(mat, BallDescriptor.l1_ball(8),
                                   restarts=40, seed=seed)
        exact = exact_l1_kernel_diameter(mat.entries)
        assert lo <= exact + 1e-9
        assert abs(lo - exact) <= 1e-6


def test_kernel_diameter_lower_weak_lp_route():
    mat = generate(EnsembleSpec("gaussian", n=8, k=4, seed=11))
    ball = BallDescriptor.weak_lp_ball(8, 0.5)
    lo = kernel_diameter_lower(mat, ball, restarts=20, seed=12)
    assert lo > 0.0
    # the reported bound is attained by a kernel vector inside the ball:
    # recompute via the definition on the best direction the search returns
    kb = kernel_basis(mat)
    assert kb.dim == 4


def test_kernel_diameter_upper_identity_certifies():
    n = 3
    mat = MeasurementMatrix(entries=np.eye(n) * math.sqrt(n),
                            spec=EnsembleSpec("gaussian", n=n, k=n, seed=0),
                            normalization="raw")
    cert = kernel_diameter_upper(mat, BallDescriptor.l1_ball(n), rho=1.0,
                                 theta=0.5, seed=3, net_budget=1e6,
                                 stall_limit=60_000)
    assert cert.certified
    assert cert.norm_condition and cert.image_condition and cert.cover_probe_pass


def test_kernel_diameter_upper_refuses_kernel_vector():
    rng = philox(13, "refuse")
    entries = rng.standard_normal((2, 3))
    entries[:, -1] = 0.0            # e_3 in kernel, inside B1, norm 1 > rho
    mat = MeasurementMatrix(entries=entries,
                            spec=EnsembleSpec("gaussian", n=3, k=2, seed=0),
                            normalization="raw")
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
    assert not res.certified and res.bound is None


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
