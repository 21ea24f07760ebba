import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from riplab._util import philox
from riplab.errors import (BudgetError, CoverViolationError, InvalidSpecError,
                           UnsupportedAmbientError)
from riplab.geometry import BallDescriptor, sample_ambient_batch, top_m_l2
from riplab.nets import (Net, certify_cover, cover_check, difference_set_net,
                         gaussian_width, greedy_separated_net, hull_decompose,
                         hull_membership, min_pairwise_distance, net_from_json,
                         net_to_json, sparse_set_net)

GAUSS_WIDTH_HALF_NORMAL = math.sqrt(2.0 / math.pi)    # E|g|, one dimension
GAUSS_WIDTH_MAX2 = 2.0 / math.sqrt(math.pi)           # E max(|g1|,|g2|), quadrature oracle


def lp_hull_member(z, points, blowup):
    """Exact LP feasibility: z in blowup * conv(points)."""
    count = points.shape[0]
    res = linprog(c=np.zeros(count),
                  A_eq=np.vstack([points.T * blowup, np.ones(count)]),
                  b_eq=np.concatenate([z, [1.0]]),
                  bounds=[(0, None)] * count, method="highs")
    return res.status == 0


def test_greedy_sphere_dim1_is_pm_one():
    net = greedy_separated_net(1, 0.5, "sphere", seed=0)
    assert sorted(net.points.ravel().tolist()) == [-1.0, 1.0]
    assert net.certified_separated


def test_greedy_interval_cover():
    net = greedy_separated_net(1, 1.0, "ball", seed=1, stall_limit=2000)
    assert len(net) <= 3
    assert net.min_pairwise > 1.0
    assert cover_check(net, 5000, seed=2).pass_


def test_greedy_dim3_bound_and_cover():
    net = greedy_separated_net(3, 0.5, "ball", seed=2, stall_limit=30000)
    assert len(net) <= 125
    assert cover_check(net, 10_000, seed=3).pass_


def test_greedy_deterministic():
    a = greedy_separated_net(2, 0.4, "ball", seed=9)
    b = greedy_separated_net(2, 0.4, "ball", seed=9)
    assert np.array_equal(a.points, b.points)


def test_greedy_rejects_bad_epsilon():
    with pytest.raises(InvalidSpecError):
        greedy_separated_net(2, 0.0, "ball", seed=0)
    with pytest.raises(InvalidSpecError):
        greedy_separated_net(2, 2.5, "ball", seed=0)


def test_cover_check_origin_ball():
    net = Net(points=np.zeros((1, 3)), epsilon=1.0,
              ambient=BallDescriptor.euclidean_ball(3))
    res = cover_check(net, 2000, seed=4)
    assert res.pass_ and res.max_observed_distance <= 1.0


def test_cover_check_antipode_fails():
    net = Net(points=np.array([[1.0, 0.0]]), epsilon=0.1,
              ambient=BallDescriptor.euclidean_sphere(2))
    res = cover_check(net, 2000, seed=5)
    assert not res.pass_
    assert res.max_observed_distance > 1.5


def test_cover_check_unsupported_ambient():
    net = Net(points=np.zeros((1, 3)), epsilon=1.0,
              ambient=BallDescriptor.weak_lp_ball(3, 0.5))
    with pytest.raises(UnsupportedAmbientError):
        cover_check(net, 10, seed=0)


def test_sparse_net_coordinate_spikes():
    net = sparse_set_net(3, 1, 0.5, "sphere", seed=0)
    rows = {tuple(np.round(r, 9)) for r in net.points}
    spikes = {tuple(r) for r in np.vstack([np.eye(3), -np.eye(3)])}
    assert rows == spikes
    assert len(net) <= 15  # (5/eps)^1 * C(3,1)


def test_sparse_net_full_support_reduces_to_greedy():
    base = greedy_separated_net(4, 0.5, "ball", seed=6)
    net = sparse_set_net(4, 4, 0.5, "ball", seed=6)
    assert np.array_equal(net.points, base.points)
    assert net.certified_separated


def test_sparse_net_sphere_points_unit_norm():
    net = sparse_set_net(6, 2, 0.5, "sphere", seed=7)
    assert np.allclose(np.linalg.norm(net.points, axis=1), 1.0)
    assert np.all(np.count_nonzero(net.points, axis=1) <= 2)


def test_sparse_net_ball_cover_passes():
    net = sparse_set_net(8, 2, 0.25, "ball", seed=8, budget=2e6,
                         stall_limit=30000)
    assert len(net) <= math.comb(8, 2) * 20 ** 2
    assert cover_check(net, 10_000, seed=9).pass_


def test_sparse_net_budget_error():
    with pytest.raises(BudgetError):
        sparse_set_net(30, 6, 0.1, "sphere", seed=0, budget=1e6)


def test_difference_net_scaling_and_reduction():
    net = difference_set_net(6, 3, 1.0, seed=10)           # 2m = n
    ball = sparse_set_net(6, 6, 0.5, "ball", seed=10)
    assert np.array_equal(net.points, ball.points)
    half = difference_set_net(8, 2, 0.5, seed=11)
    assert np.max(np.linalg.norm(half.points, axis=1)) <= 0.5 + 1e-12
    assert half.ambient.sparsity == 4 and half.ambient.radius == 0.5


def test_difference_net_hull_contains_probes():
    n, m, r = 8, 1, 0.5
    net = difference_set_net(n, m, r, seed=12)
    z = (np.eye(n)[0] - np.eye(n)[1]) * r / math.sqrt(2.0)
    res = hull_membership(z, net.points, blowup=2.0)
    assert res.member is True
    # random same-support near pairs of sparse unit vectors
    rng = philox(13, "diff-probes")
    for _ in range(25):
        u = np.zeros(n)
        sup = rng.choice(n, 2 * m, replace=False)
        u[sup[:m]] = 1.0
        v = u + 0.3 * r * rng.standard_normal(n) * (np.abs(u) > 0)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        d = u - v
        if np.linalg.norm(d) > r or not np.any(d):
            continue
        assert hull_membership(d, net.points, blowup=2.0).member is True


def _certified_net(dim, eps, seed=7, stall=150_000):
    net = greedy_separated_net(dim, eps, "ball", seed=seed, stall_limit=stall)
    net = certify_cover(net, 20_000, seed=202)
    assert net.certified_cover
    return net


def test_hull_decompose_net_point_and_zero():
    d = 1.0 / math.sqrt(2.0)
    spokes = np.array([[1, 0], [0, 1], [-1, 0], [0, -1],
                       [d, d], [d, -d], [-d, d], [-d, -d]], dtype=float)
    pts = np.vstack([np.zeros(2), spokes])
    net = Net(points=pts, epsilon=0.75, ambient=BallDescriptor.euclidean_ball(2))
    net = certify_cover(net, 5000, seed=1)
    assert net.certified_cover
    on_point = hull_decompose(pts[1].copy(), net)
    assert on_point.residual_norm == 0.0
    assert len(on_point.terms) == 1 and on_point.terms[0][0] == 1.0
    at_zero = hull_decompose(np.zeros(2), net)
    assert at_zero.residual_norm == 0.0
    assert len(at_zero.terms) == 1 and at_zero.terms[0][1] == 0


def test_hull_decompose_geometric_residual():
    net = _certified_net(2, 0.5, stall=400_000)
    rng = philox(14, "decomp")
    for _ in range(25):
        z = rng.standard_normal(2)
        z = z / np.linalg.norm(z) * rng.uniform()
        hd = hull_decompose(z, net, rounds=20)
        assert hd.residual_norm <= 0.5 ** 20
        # residual is recomputed from the terms exactly
        recon = sum(c * net.points[i] for c, i in hd.terms)
        assert hd.residual_norm == pytest.approx(np.linalg.norm(z - recon), abs=0)
        # coefficients follow the geometric pattern 1, eps, eps^2, ...
        assert [c for c, _ in hd.terms] == [0.5 ** j for j in range(len(hd.terms))]


def test_hull_decompose_refuses_uncertified_and_detects_violations():
    net = greedy_separated_net(2, 0.5, "ball", seed=3)
    with pytest.raises(InvalidSpecError):
        hull_decompose(np.zeros(2), net)
    # a fake "cover" that cannot contract: single far-away point
    liar = Net(points=np.array([[0.9, 0.0]]), epsilon=0.1,
               ambient=BallDescriptor.euclidean_ball(2), certified_cover=True)
    with pytest.raises(CoverViolationError):
        hull_decompose(np.array([-0.5, 0.0]), liar)


def test_hull_membership_vertex_inside_outside():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    assert hull_membership(pts[0], pts, blowup=1.0).member is True
    out = hull_membership(3.0 * np.eye(3)[0], pts, blowup=2.0)
    assert out.member is False
    d = out.direction / np.linalg.norm(out.direction)
    assert d @ np.eye(3)[0] > 0.99
    assert out.margin > 0


def test_hull_membership_sparse_ball_double_hull():
    # points of the m-sparse ball sit inside twice the hull of a half-cover
    n, m = 6, 2
    net = sparse_set_net(n, m, 0.5, "ball", seed=15, stall_limit=20000)
    rng = philox(16, "hull-probes")
    for z in sample_ambient_batch(rng, BallDescriptor.sparse_ball(n, m), 10):
        fw = hull_membership(z, net.points, blowup=2.0)
        assert fw.member is True
        assert lp_hull_member(z, net.points, 2.0)


def test_hull_membership_agrees_with_lp_near_boundary():
    rng = philox(17, "lp-cross")
    pts = rng.standard_normal((30, 4))
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
    for _ in range(20):
        z = rng.standard_normal(4) * 0.6
        fw = hull_membership(z, pts, blowup=1.0)
        exact = lp_hull_member(z, pts, 1.0)
        if fw.member is None:
            pytest.fail("indeterminate Frank-Wolfe result")
        if fw.member != exact:
            # disagreement allowed only within the membership tolerance band
            assert fw.distance <= 2e-6
    # FW distance' consistency: distances match LP verdicts on clear cases


def test_gaussian_width_closed_forms():
    w1 = gaussian_width(BallDescriptor.sparse_sphere(1, 1), 200_000, seed=5)
    assert abs(w1.estimate - GAUSS_WIDTH_HALF_NORMAL) <= 3 * w1.std_error
    w2 = gaussian_width(BallDescriptor.sparse_sphere(2, 1), 200_000, seed=5)
    assert abs(w2.estimate - GAUSS_WIDTH_MAX2) <= 3 * w2.std_error
    wl1 = gaussian_width(BallDescriptor.l1_ball(2), 200_000, seed=5)
    assert abs(wl1.estimate - GAUSS_WIDTH_MAX2) <= 3 * wl1.std_error


def test_gaussian_width_monotone_in_sparsity():
    prev = 0.0
    for m in range(1, 6):
        w = gaussian_width(BallDescriptor.sparse_sphere(8, m), 5000, seed=6)
        assert w.estimate >= prev   # common random numbers: monotone per sample
        prev = w.estimate


def test_gaussian_width_weak_lp_needs_sparsity():
    with pytest.raises(InvalidSpecError):
        gaussian_width(BallDescriptor.weak_lp_ball(8, 0.5), 200, seed=0)
    w = gaussian_width(BallDescriptor.weak_lp_ball(8, 0.5, sparsity=2), 2000, seed=0)
    assert w.estimate > 0


@pytest.mark.parametrize("m", [3, 8], ids=["m<dim", "m=dim"])
def test_gaussian_width_weak_lp_matches_per_row_top_m(m):
    w = gaussian_width(BallDescriptor.weak_lp_ball(8, 0.5, sparsity=m), 500, seed=3)
    g = philox(3, "gaussian-width").standard_normal((500, 8))
    sup = np.array([2.0 * top_m_l2(row, m) for row in g])
    assert w.estimate == pytest.approx(np.mean(sup), rel=1e-14)
    assert w.std_error == pytest.approx(np.std(sup, ddof=1) / math.sqrt(500), rel=1e-14)


def test_width_entropy_regression_bound():
    # l*(U_m) <= c'' sqrt(log |net|) with the frozen c'' = 1.3
    for n, m in [(8, 1), (8, 2), (12, 2), (16, 1), (10, 2)]:
        net = sparse_set_net(n, m, 0.5, "ball", seed=3, budget=1e7)
        w = gaussian_width(BallDescriptor.sparse_sphere(n, m), 20_000, seed=4)
        assert w.estimate <= 1.3 * math.sqrt(math.log(len(net)))


def test_net_json_round_trip():
    net = greedy_separated_net(2, 0.5, "ball", seed=18)
    net = certify_cover(net, 500, seed=19)
    back = net_from_json(net_to_json(net))
    assert np.array_equal(back.points, net.points)
    assert back.epsilon == net.epsilon
    assert back.ambient == net.ambient
    assert back.certified_cover == net.certified_cover
    assert back.probes_used == net.probes_used
    with pytest.raises((InvalidSpecError, KeyError, json.JSONDecodeError)):
        net_from_json(net_to_json(net)[:40])


def test_min_pairwise_blocked_scan_matches_bruteforce():
    rng = philox(20, "pairwise")
    pts = rng.standard_normal((300, 3))
    diffs = pts[:, None, :] - pts[None, :, :]
    dd = np.sqrt(np.sum(diffs * diffs, axis=-1))
    np.fill_diagonal(dd, np.inf)
    assert min_pairwise_distance(pts) == pytest.approx(dd.min(), abs=1e-14)
