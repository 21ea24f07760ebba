import hashlib
import itertools
import json
import logging
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import cKDTree

from riplab._util import philox
from riplab.errors import BudgetError, CoverViolationError, InvalidSpecError
from riplab.geometry import BallDescriptor, sample_ambient_batch, top_m_l2
from riplab import nets as nets_module
from riplab.nets import (Net, _CoverGrid, _far_candidates, _kernel_cols, _kernel_error,
                         certify_cover, cover_check, difference_set_net,
                         gaussian_width, greedy_separated_net, hull_decompose,
                         min_pairwise_distance, net_from_json, net_to_json,
                         sparse_net_bound, sparse_set_net, volumetric_bound)
from riplab.recon import hull_membership

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
    with pytest.raises(InvalidSpecError, match="no uniform sampler"):
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


def _no_greedy_net(*args, **kwargs):
    raise AssertionError("a greedy net was built")


@pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0])
def test_sparse_net_refuses_a_budget_that_is_not_positive(budget, monkeypatch):
    # NaN passes "bound > budget"; this bound (1.56e10) would build a 6-dim net
    monkeypatch.setattr(nets_module, "greedy_separated_net", _no_greedy_net)
    with pytest.raises(InvalidSpecError, match="budget must be > 0"):
        sparse_set_net(6, 6, 0.1, "sphere", seed=0, budget=budget)


def test_net_size_bounds_overflow_to_inf():
    assert volumetric_bound(3, 0.5) == 125.0
    assert sparse_net_bound(8, 2, 0.5) == 28 * 100.0
    assert volumetric_bound(1000, 0.5) == math.inf
    assert sparse_net_bound(256, 256, 0.1) == math.inf
    assert sparse_net_bound(2000, 1000, 0.5) == math.inf


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


def test_hull_decompose_rejects_nan_and_misshapen_targets():
    net = _certified_net(2, 0.5, stall=400_000)
    for bad in (np.array([np.nan, 0.0]), np.zeros(3), np.zeros((1, 2))):
        with pytest.raises(InvalidSpecError):
            hull_decompose(bad, net)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoverViolationError):
            hull_decompose(np.array([np.inf, 0.0]), net)


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


def test_hull_membership_decides_every_probe_near_boundary():
    # 400 probes around 30 points in R^4; some lie within 3e-3 outside the
    # hull, where a projection that stops on a stall cannot decide
    for seed in range(1000, 1020):
        rng = philox(seed, "sweep")
        pts = rng.standard_normal((30, 4))
        pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1.0)
        for _ in range(20):
            z = rng.standard_normal(4) * 0.6
            res = hull_membership(z, pts, blowup=1.0)
            assert res.member is not None
            if res.member != lp_hull_member(z, pts, 1.0):
                assert res.distance <= 1e-6
            if res.member is False:
                d = np.array(res.direction)
                assert float(d @ z - np.max(pts @ d)) > 0.0


def test_hull_membership_off_affine_hull():
    # the points span only the plane x_3 = 0; z sits above their centroid
    pts = philox(18, "flat").standard_normal((10, 3))
    pts[:, 2] = 0.0
    z = np.append(pts[:, :2].mean(axis=0), 0.5)
    res = hull_membership(z, pts, blowup=1.0)
    assert res.member is False and res.margin > 0
    d = np.array(res.direction)
    assert float(d @ z - np.max(pts @ d)) > 0.0


@pytest.mark.parametrize("z,blowup", [
    (np.zeros(2), 1.0), (np.zeros((3, 1)), 1.0), (np.zeros(3), 0.0),
    (np.zeros(3), -1.0), (np.zeros(3), math.inf), (np.zeros(3), math.nan),
], ids=["short-z", "column-z", "blowup-0", "blowup-negative", "blowup-inf",
        "blowup-nan"])
def test_hull_membership_rejects_bad_input(z, blowup):
    with pytest.raises(InvalidSpecError):
        hull_membership(z, np.vstack([np.eye(3), -np.eye(3)]), blowup=blowup)


def test_gaussian_width_closed_forms():
    w1 = gaussian_width(BallDescriptor.sparse_sphere(1, 1), 200_000, seed=5)
    assert abs(w1.estimate - GAUSS_WIDTH_HALF_NORMAL) <= 3 * w1.std_error
    w2 = gaussian_width(BallDescriptor.sparse_sphere(2, 1), 200_000, seed=5)
    assert abs(w2.estimate - GAUSS_WIDTH_MAX2) <= 3 * w2.std_error
    wl1 = gaussian_width(BallDescriptor.l1_ball(2), 200_000, seed=5)
    assert abs(wl1.estimate - GAUSS_WIDTH_MAX2) <= 3 * wl1.std_error


@pytest.mark.parametrize("dim", [4, 32])
def test_gaussian_width_l2_ball_is_scaled_chi_mean(dim):
    # E|g| = sqrt(2) Gamma((dim+1)/2) / Gamma(dim/2) for g ~ N(0, I_dim)
    radius = 1.5
    w = gaussian_width(BallDescriptor.euclidean_ball(dim, radius), 20_000, seed=5)
    chi_mean = math.sqrt(2.0) * math.exp(math.lgamma((dim + 1) / 2) - math.lgamma(dim / 2))
    assert abs(w.estimate - radius * chi_mean) <= 4 * w.std_error


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


@pytest.mark.parametrize("field,value", [
    ("point", math.nan), ("point", math.inf), ("epsilon", -1.0), ("epsilon", 0.0),
    ("epsilon", math.nan), ("epsilon", math.inf),
    # every field must hold a JSON value of its own type
    ("point", "abc"), ("point", [0.5]), ("point", {}),
    pytest.param("point", 10 ** 400, id="point-huge"), ("epsilon", "0.5"), ("epsilon", True),
    pytest.param("epsilon", 10 ** 400, id="epsilon-huge"),
    ("ambient.sparsity", 1.5), ("ambient.p", "abc"), ("ambient.dim", 2.5),
    ("ambient.dim", True), ("ambient.radius", "1"), ("ambient", [2]), ("file", [1]),
    ("certified_cover", "false"), ("certified_separated", 1), ("probes_used", -1),
    ("probes_used", 1.5), ("probes_used", True),
    pytest.param("point", "0.5", id="point-numeric-string"),
    pytest.param("point", True, id="point-bool")])
def test_net_from_json_rejects_non_finite_points_and_bad_epsilon(field, value):
    obj = json.loads(net_to_json(greedy_separated_net(2, 0.5, "ball", seed=18)))
    if field == "point":
        obj["points"][1][0] = value
    elif field == "file":
        obj = value
    elif field.startswith("ambient."):
        obj["ambient"][field.removeprefix("ambient.")] = value
    else:
        obj[field] = value
    with pytest.raises(InvalidSpecError):
        net_from_json(json.dumps(obj))


def test_cover_check_rejects_non_finite_points():
    # a NaN distance would drop out of the running maximum and pass any net
    pts = np.array([[0.0, 0.0], [np.nan, 0.5]])
    net = Net(points=pts, epsilon=0.1, ambient=BallDescriptor.euclidean_ball(2))
    with pytest.raises(InvalidSpecError):
        cover_check(net, 100, seed=0)


def _bruteforce_min_pairwise(points):
    best = min(float(np.sum((a - b) ** 2)) for a, b in itertools.combinations(points, 2))
    return math.sqrt(best)


def test_min_pairwise_blocked_scan_matches_bruteforce():
    # the float64 re-check makes the result the float64 brute-force minimum
    # exactly, at any scale (the power-of-two prescale covers subnormals) and
    # whether or not block edges split the rows
    pts = philox(20, "pairwise").standard_normal((300, 3))
    for scale in (1.0, 1e3, 1e-3, 1e-310):
        expected = _bruteforce_min_pairwise(scale * pts)
        for block in (37, 2048):
            assert min_pairwise_distance(scale * pts, block=block) == expected


@pytest.mark.parametrize("i,j", [(0, 1), (36, 37), (37, 38), (198, 199), (5, 150),
                                 (150, 5)])
def test_min_pairwise_finds_planted_pair(i, j):
    # block 37: (36, 37) straddles a block edge, (37, 38) starts a block
    pts = philox(24, "planted").standard_normal((200, 3))
    pts[j] = pts[i] + 1e-6 * np.array([0.6, 0.0, 0.8])
    assert min_pairwise_distance(pts, block=37) == _bruteforce_min_pairwise(pts)
    assert min_pairwise_distance(pts, block=37) == pytest.approx(1e-6, rel=1e-6)


def test_min_pairwise_equals_float64_bruteforce_tied_lattice():
    # 0.1 steps are not representable, so the tied pairs differ in their last
    # bits and the exact minimum is decided by the float64 re-check
    grid = 0.1 * np.array(list(itertools.product(range(7), repeat=3)), dtype=float)
    pts = grid - 0.3
    assert min_pairwise_distance(pts, block=50) == _bruteforce_min_pairwise(pts)


def test_min_pairwise_equals_float64_bruteforce_sparse_union():
    net = sparse_set_net(6, 2, 0.5, "ball", seed=22)
    assert len(net) > 100
    assert min_pairwise_distance(net.points) == _bruteforce_min_pairwise(net.points)


# sha256 over points.tobytes() and repr(min_pairwise) of the nets at
# dims 1-6, eps in (0.25, 0.5, 1.0), seed 0, in that order.  The two
# slowest grid points of each stall setting are left out to keep the test
# near a second: (6, 0.25) at the default limit, and eps = 0.25 at dims 5
# and 6 at the explicit one.
GOLDEN_STALL = 3000
GREEDY_NET_GOLDEN = {
    ("ball", "default"):
        "055958265c2d99c29cb595a43ae4b3954dc16a5535365b79af2a2510671edabf",
    ("ball", "explicit"):
        "9c4a446e952e750ee51d8b5a8b3ce2f24bbdf44c26977c255b1f1d1c139ab146",
    ("sphere", "default"):
        "754fe390311779e413e09e5fd24b669b36b6322295a63405508540e4f356eae4",
    ("sphere", "explicit"):
        "faf4675e841db3a1c14c4f5593def28e0c3b2e877ff0c02c5011d01c32dde29f",
}


@pytest.mark.parametrize("ambient,stall", list(GREEDY_NET_GOLDEN),
                         ids=[f"{a}-{s}" for a, s in GREEDY_NET_GOLDEN])
def test_greedy_net_bytes_golden(ambient, stall):
    h = hashlib.sha256()
    for dim in range(1, 7):
        for eps in (0.25, 0.5, 1.0):
            if eps == 0.25 and (dim == 6 or (dim == 5 and stall == "explicit")):
                continue
            limit = GOLDEN_STALL if stall == "explicit" else None
            net = greedy_separated_net(dim, eps, ambient, seed=0, stall_limit=limit)
            h.update(net.points.tobytes())
            h.update(repr(net.min_pairwise).encode())
    assert h.hexdigest() == GREEDY_NET_GOLDEN[(ambient, stall)]


@pytest.mark.parametrize("dim", [1, 4, 8])
def test_far_candidates_margins_match_exact_test(dim):
    """Candidates at squared distance eps^2 (1 +- 10^-j) from net points."""
    eps = 0.3
    eps2 = eps * eps
    rng = philox(23, "margins", dim)
    # net points in 0.69 B_2, more than 2.2 eps apart, so the point a
    # candidate is placed around is its nearest one
    draws = 0.69 * sample_ambient_batch(rng, BallDescriptor.euclidean_ball(dim), 400)
    net = draws[:1]
    for p in draws[1:]:
        if np.min(np.linalg.norm(net - p, axis=1)) > 2.2 * eps:
            net = np.vstack([net, p])
    cands, designed = [], []
    for j in range(3, 13):
        for sign in (1.0, -1.0):
            for _ in range(8):
                v = rng.standard_normal(dim)
                r = eps * math.sqrt(1.0 + sign * 10.0 ** -j)
                cands.append(net[rng.integers(len(net))] + r * v / np.linalg.norm(v))
                designed.append(j)
    cands, designed = np.array(cands), np.array(designed)
    assert np.all(np.linalg.norm(cands, axis=1) <= 1.0)
    err = _kernel_error(dim)
    keep, borderline = _far_candidates(cands, _kernel_cols(net), eps2 - err, eps2 + err,
                                       chunk=2)
    kept = np.zeros(len(cands), dtype=bool)
    kept[keep] = True
    rechecked = np.zeros(len(cands), dtype=bool)
    rechecked[keep] = borderline
    exact = np.array([np.min(np.einsum("ij,ij->i", net - c, net - c)) > eps2
                      for c in cands])
    assert not np.any(exact & ~kept), "dropped a candidate the exact test accepts"
    assert not np.any(~exact & kept & ~rechecked), "passed a reject without re-check"
    # the margins are narrow: a relative gap of 1e-3 is decided in float32,
    # one of 1e-12 is not
    assert np.array_equal(kept[designed == 3], exact[designed == 3])
    assert not np.any(rechecked[designed == 3])
    assert np.all(rechecked[designed == 12])


# sha256 over points.tobytes() and repr(min_pairwise) of criterion 2's
# eight nets (seed 7, dims 1-4, eps 0.3 and 0.5 at stall limits 150 000 and
# 400 000), recorded before the covered-cell grid and the grouped draws
LONG_NET_GOLDEN = "03cf7cbcfa75106eba00cb003f82a6a81c656dff975e14b3d1315569e30b22a1"


@pytest.mark.parametrize("group", [None, 1], ids=["grouped", "ungrouped"])
def test_long_greedy_nets_bytes_golden(group, monkeypatch):
    if group is not None:
        monkeypatch.setattr(nets_module, "_GREEDY_GROUP", group)
    stalls = {0.3: 150_000, 0.5: 400_000}
    h = hashlib.sha256()
    for dim in (1, 2, 3, 4):
        for eps in (0.3, 0.5):
            net = greedy_separated_net(dim, eps, "ball", seed=7, stall_limit=stalls[eps])
            h.update(net.points.tobytes())
            h.update(repr(net.min_pairwise).encode())
    assert h.hexdigest() == LONG_NET_GOLDEN


def _exact_separated(cands, points, eps2):
    """The greedy filter's float64 verdict: farther than eps from every point."""
    return np.array([np.min(np.einsum("ij,ij->i", points - c, points - c)) > eps2
                     for c in cands])


@pytest.mark.parametrize("dim,eps,ambient", [(1, 0.3, "ball"), (2, 0.3, "ball"),
                                             (4, 0.5, "ball"), (3, 0.4, "sphere")])
def test_cover_grid_rejects_only_exact_rejections(dim, eps, ambient):
    """Marked cells lie within eps of one net point; nothing in them passes."""
    eps2 = eps * eps
    net = greedy_separated_net(dim, eps, ambient, seed=31, stall_limit=2000).points
    grid = _CoverGrid.fit(dim, eps)
    grid.mark(net)
    rng = philox(31, "cover-grid", dim, ambient)
    # candidates at squared distance eps^2 (1 +- 10^-j) from net points
    cands = []
    for j in range(1, 13):
        for sign in (1.0, -1.0):
            v = rng.standard_normal((64, dim))
            r = eps * math.sqrt(1.0 + sign * 10.0 ** -j)
            cands.append(net[rng.integers(len(net), size=64)]
                         + r * v / np.linalg.norm(v, axis=1, keepdims=True))
    cands = np.concatenate(cands)
    covered = np.ones(len(cands), dtype=bool)
    covered[grid.uncovered(cands)] = False
    assert not np.any(covered & _exact_separated(cands, net, eps2))
    # every marked cell: its far corner from some net point is inside the
    # shrunken ball, and uniform points drawn in it are all grid rejections
    cells = np.flatnonzero(grid.marked)
    lo = -1.0 + (np.stack(np.unravel_index(cells, grid.shape), axis=1)
                 - grid.border) * grid.side
    inside = lo + grid.side * rng.uniform(size=lo.shape)
    # a cell or a point in it is within eps of a net point only if its
    # centre is within eps plus half the cell diagonal, so only those
    # (cell, point) pairs are evaluated; a cell in no pair keeps far2 = inf
    reach = (eps + 0.5 * grid.side * math.sqrt(dim)) * (1.0 + 1e-9)
    near_cells = cKDTree(lo + 0.5 * grid.side).query_ball_point(net, reach)
    far2 = np.full(len(cells), np.inf)
    rejected = np.zeros(len(cells), dtype=bool)
    for p, idx in zip(net, near_cells):
        idx = np.asarray(idx, dtype=np.intp)
        far = np.maximum(np.abs(lo[idx] - p), np.abs(lo[idx] + grid.side - p))
        far2[idx] = np.minimum(far2[idx], np.einsum("ij,ij->i", far, far))
        # the float64 test of _exact_separated, restricted to the near points
        diffs = p - inside[idx]
        rejected[idx] |= np.einsum("ij,ij->i", diffs, diffs) <= eps2
    assert np.all(far2 <= eps2 * (1.0 - 1e-9))
    assert grid.uncovered(inside).size == 0
    assert np.all(rejected)
    # the grid is not vacuous: it rejects most ambient draws the exact test rejects
    probes = sample_ambient_batch(rng, nets_module._ambient_descriptor(ambient, dim), 4096)
    by_grid = len(probes) - grid.uncovered(probes).size
    assert by_grid >= 0.8 * np.sum(~_exact_separated(probes, net, eps2))


def _greedy_counts(caplog, *args, **kwargs):
    """(net, [drawn, grid rejections, kernel rows, exact re-checks], cell side)
    from the DEBUG line; the side is None when the net had no grid."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="riplab"):
        net = greedy_separated_net(*args, **kwargs)
    (line,) = [r.getMessage() for r in caplog.records if "candidates drawn" in r.getMessage()]
    counts, side = line.split(":", 1)[1].split("; cell side ")
    return (net, [int(w) for w in counts.split() if w.isdigit()],
            None if side == "none" else float(side))


def test_greedy_without_grid_sends_every_candidate_to_the_kernel(caplog):
    assert _CoverGrid.fit(6, 0.25) is None
    # round(2^(23/11)) = 4 cells per axis: too few for any grid
    assert _CoverGrid.fit(11, 0.5) is None
    net, (drawn, gridded, kernel, rechecked), side = _greedy_counts(
        caplog, 6, 0.25, "ball", seed=0, stall_limit=100)
    assert side is None
    assert gridded == 0 and kernel == drawn and drawn % 512 == 0
    assert len(net) > 100 and 0 <= rechecked <= kernel


def test_greedy_logs_grid_and_kernel_counts(caplog):
    net, (drawn, gridded, kernel, rechecked), side = _greedy_counts(
        caplog, 3, 0.3, "ball", seed=7, stall_limit=150_000)
    assert len(net) == 150
    assert side == pytest.approx(_CoverGrid.fit(3, 0.3).side, rel=1e-3)
    assert drawn == gridded + kernel and drawn % 512 == 0
    assert gridded > kernel > rechecked >= 0
    # dim 4 at eps 0.3: a 2^20-cell cap forces a side near 0.093 and sends a
    # fifth of the candidates to the float32 kernel; 2^23 cells keep it below
    # a tenth
    net, (drawn, gridded, kernel, rechecked), side = _greedy_counts(
        caplog, 4, 0.3, "ball", seed=7, stall_limit=150_000)
    assert len(net) == 637
    assert side < 0.06
    assert drawn == gridded + kernel and kernel < drawn / 10


@pytest.fixture(scope="module")
def criterion_2_nets():
    """Criterion 2's eight greedy nets (seed 7, dims 1-4, eps 0.3 and 0.5)."""
    stalls = {0.3: 150_000, 0.5: 400_000}
    return {(dim, eps): greedy_separated_net(dim, eps, "ball", seed=7,
                                             stall_limit=stalls[eps])
            for dim in (1, 2, 3, 4) for eps in (0.3, 0.5)}


# sha256 over repr(cover_check(net, 20_000, seed=202)) of criterion 2's
# eight nets in order, then of the 1148-point sparse net of the
# certify-nets benchmark (several distance slabs per draw, a partial last
# slab), recorded before the probes were scanned in slabs
COVER_CHECK_GOLDEN = "fd185746397297588e16e940cbadcefd97ec112c4359fc76b31824e9d0122243"


def test_cover_check_results_golden(criterion_2_nets):
    h = hashlib.sha256()
    for net in criterion_2_nets.values():
        h.update(repr(cover_check(net, 20_000, seed=202)).encode())
    sparse = sparse_set_net(8, 2, 0.25, "ball", 8, stall_limit=30_000)
    assert len(sparse) == 1148
    h.update(repr(cover_check(sparse, 20_000, seed=202)).encode())
    assert h.hexdigest() == COVER_CHECK_GOLDEN


@pytest.mark.parametrize("slab", [1, 1000, 1 << 30])
def test_cover_check_does_not_depend_on_the_slab_size(slab, monkeypatch):
    net = sparse_set_net(6, 2, 0.5, "ball", 3)
    whole = cover_check(net, 5000, seed=4)
    monkeypatch.setattr(nets_module, "_COVER_SLAB", slab)
    assert cover_check(net, 5000, seed=4) == whole


# sha256 over repr(terms) and repr(residual_norm) of 50 decompositions on
# criterion 2's dim-2, eps-0.5 net, recorded before the loop dropped the
# numpy wrappers
HULL_DECOMPOSE_GOLDEN = "5dd1fbb003e2fd29b1e570d7acb0aa83252be44a485dbc20b68fc978cdb98a7f"


def test_hull_decompose_golden(criterion_2_nets):
    net = certify_cover(criterion_2_nets[2, 0.5], 20_000, seed=202)
    rng = philox(7, "hull-golden")
    h = hashlib.sha256()
    for _ in range(50):
        z = rng.standard_normal(2)
        z = z / np.linalg.norm(z) * rng.uniform() ** 0.5
        hd = hull_decompose(z, net, rounds=20)
        h.update(repr(hd.terms).encode())
        h.update(repr(hd.residual_norm).encode())
    assert h.hexdigest() == HULL_DECOMPOSE_GOLDEN
