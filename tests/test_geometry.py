import itertools
import math

import numpy as np
import pytest

from riplab._util import philox
from riplab.errors import InvalidSpecError
from riplab.geometry import (BallDescriptor, block_norm_witness,
                             hull_inclusion_check, member,
                             quasiconvexity_constant_check, rearrange,
                             sample_ambient_batch,
                             sample_unit_cap, sample_weak_lp_ball, top_m_l2,
                             truncation_cover_point, truncation_error_bound,
                             weak_lp_cap_radius, weak_lp_dual_bound_check)


def weak_lp_member_by_thresholds(x, p, radius):
    # the definition: |{i : |x_i| >= s}| <= (s/radius)^(-p) for all s > 0;
    # only the entry magnitudes are breakpoints
    mags = np.abs(x)
    for s in np.unique(mags[mags > 0]):
        if np.sum(mags >= s) > (s / radius) ** -p + 1e-9:
            return False
    return True


def test_member_unit_spike_everywhere():
    e1 = np.eye(4)[0]
    for ball in [BallDescriptor.l1_ball(4), BallDescriptor.euclidean_ball(4),
                 BallDescriptor("lp", 4, p=0.5), BallDescriptor.weak_lp_ball(4, 0.5),
                 BallDescriptor.sparse_ball(4, 1)]:
        assert member(e1, ball)


def test_member_weak_lp_flat_vector_fails():
    # two equal entries need the second sorted value <= 2^(-1/p) = 1/4
    assert not member(np.array([1.0, 1.0]), BallDescriptor.weak_lp_ball(2, 0.5))


def test_member_sparse_support_count():
    x = np.array([1.0, 2.0, 3.0, 0.0]) / math.sqrt(14.0)
    assert not member(x, BallDescriptor.sparse_sphere(4, 2))
    assert member(x, BallDescriptor.sparse_sphere(4, 3))


def test_weak_lp_sorted_criterion_matches_threshold_definition():
    rng = philox(1, "weaklp-equiv")
    ball = BallDescriptor.weak_lp_ball(12, 0.7, radius=1.3)
    agree = 0
    for _ in range(300):
        x = rng.standard_normal(12) * rng.uniform(0.1, 1.5)
        assert member(x, ball) == weak_lp_member_by_thresholds(x, 0.7, 1.3)
        agree += 1
    assert agree == 300


def test_lp_ball_inside_weak_lp_ball():
    rng = philox(2, "lp-in-weaklp")
    for p in (0.4, 0.7):
        weak = BallDescriptor.weak_lp_ball(16, p)
        for _ in range(200):
            # gauge-normalized lp point
            x = rng.standard_normal(16)
            x /= np.sum(np.abs(x) ** p) ** (1.0 / p)
            x *= rng.uniform()
            assert member(x, weak, atol=1e-9)


def test_rearrange_ties_and_values():
    re = rearrange(np.array([-2.0, 1.0, 2.0, 1.0]))
    assert np.array_equal(re.values, [2.0, 2.0, 1.0, 1.0])
    # ties broken by lower original index: |x_0| = |x_2| = 2, then 1, 1
    assert list(re.permutation) == [0, 2, 1, 3]


def test_top_m_l2_basics():
    x = np.array([3.0, 4.0, 0.0, 1.0])
    assert top_m_l2(x, 4) == pytest.approx(np.linalg.norm(x))
    assert top_m_l2(x, 1) == 4.0


def test_top_m_l2_matches_support_bruteforce():
    rng = philox(3, "topm")
    for _ in range(50):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(1, n + 1))
        x = rng.standard_normal(n)
        brute = max(np.linalg.norm(x[list(sup)])
                    for sup in itertools.combinations(range(n), m))
        assert top_m_l2(x, m) == pytest.approx(brute, abs=1e-12)


def test_dual_bound_spike_and_zero():
    res = weak_lp_dual_bound_check(np.eye(8)[0], p=0.5, m=1, probes=200, seed=4)
    assert res.pass_ and res.max_ratio <= 0.5 + 1e-9
    res0 = weak_lp_dual_bound_check(np.zeros(8), p=0.5, m=2, probes=10, seed=4)
    assert res0.pass_ and res0.max_ratio == 0.0


def test_dual_bound_random_vectors():
    rng = philox(5, "dual")
    for i in range(5):
        x = rng.standard_normal(8)
        res = weak_lp_dual_bound_check(x, p=0.5, m=2, probes=10_000, seed=100 + i)
        assert res.pass_, res.max_ratio


def test_block_witness_values():
    z = np.zeros(8)
    z[:2] = [0.6, 0.3]
    assert block_norm_witness(z, 2) == pytest.approx(np.linalg.norm(z[:2]))
    flat = np.ones(9) / 3.0           # in sqrt(9) B1 cap B2
    assert block_norm_witness(flat, 9) == pytest.approx(1.0)
    # a batch gives each row's one-vector value, bit for bit
    rows = philox(11, "witness-rows").standard_normal((40, 7))
    for m in (1, 3, 7):
        assert block_norm_witness(rows, m).tolist() == [block_norm_witness(z, m) for z in rows]


@pytest.mark.parametrize("which,p", [("weak-lp", 0.5), ("l1", None)])
def test_hull_inclusion_probes(which, p):
    res = hull_inclusion_check(which, n=12, m=3, probes=10_000, seed=6, p=p)
    assert res.pass_, res.max_block_sum
    assert res.max_block_sum <= 2.0


def test_truncation_sparse_input_is_fixed_point():
    x = np.zeros(32)
    x[:3] = [0.8, 0.5, math.sqrt(1 - 0.89)]
    res = truncation_cover_point(x, p=1.0, m=3, delta=0.5)
    assert res.error == 0.0
    assert np.array_equal(res.z, x)


def test_truncation_epsilon_instantiation():
    # p = 1, delta = 1/40^2: guaranteed error 2 sqrt(delta) = 1/20
    assert truncation_error_bound(1.0, 1.0 / 1600.0) == pytest.approx(0.05)


def test_truncation_extremal_envelope_within_bound():
    n, p, m, delta = 64, 0.5, 2, 0.1
    mags = m ** (1.0 / p - 0.5) * np.arange(1, n + 1) ** (-1.0 / p)
    x = mags / np.linalg.norm(mags)
    res = truncation_cover_point(x, p, m, delta)
    assert res.error <= truncation_error_bound(p, delta)
    assert np.count_nonzero(res.z) <= math.ceil(m / delta)
    assert abs(np.linalg.norm(res.z) - 1.0) < 1e-12


def test_truncation_precondition_rejects_outsiders():
    x = np.ones(16) / 4.0   # unit sphere but far from weak-lp decay at m=1
    with pytest.raises(InvalidSpecError):
        truncation_cover_point(x, p=0.5, m=1, delta=0.1)


def test_quasiconvexity_explicit_pair():
    # (e1 + e2)/4 at p = 1/2: second value 1/4 <= 2^(-2)
    ball = BallDescriptor.weak_lp_ball(4, 0.5)
    z = (np.eye(4)[0] + np.eye(4)[1]) / 4.0
    assert member(z, ball)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
def test_quasiconvexity_sampled(p):
    assert quasiconvexity_constant_check(p, trials=10_000, n=32, seed=7)


def test_weak_lp_samplers_stay_inside():
    rng = philox(8, "samplers")
    ball = BallDescriptor.weak_lp_ball(16, 0.5)
    points = sample_weak_lp_ball(rng, ball, 200)
    assert points.shape == (200, 16)
    for x in points:
        assert member(x, ball, atol=1e-9)
    for cap in (BallDescriptor.weak_lp_ball(16, 0.5, radius=weak_lp_cap_radius(0.5, 2)),
                BallDescriptor.l1_ball(16, radius=math.sqrt(2))):
        points = sample_unit_cap(rng, cap, 200)
        assert points.shape == (200, 16)
        for z in points:
            assert np.linalg.norm(z) <= 1.0 + 1e-9
            assert member(z, cap, atol=1e-9)
    with pytest.raises(InvalidSpecError):
        sample_unit_cap(rng, BallDescriptor.euclidean_ball(4), 1)


def test_l1_sampler_and_batch_ambients():
    rng = philox(9, "ambients")
    pts = sample_ambient_batch(rng, BallDescriptor.l1_ball(6, 2.0), 100)
    assert pts.shape == (100, 6)
    assert np.all(np.sum(np.abs(pts), axis=1) <= 2.0 + 1e-12)
    pts = sample_ambient_batch(rng, BallDescriptor.sparse_sphere(10, 3), 50)
    assert pts.shape == (50, 10)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)
    assert np.all(np.count_nonzero(pts, axis=1) <= 3)
    with pytest.raises(InvalidSpecError, match="no uniform sampler"):
        sample_ambient_batch(rng, BallDescriptor.weak_lp_ball(4, 0.5), 1)


def _one_draw_reference(rng, ball, count):
    """The sampler written out as one call: the bits a single draw must keep."""
    fam, dim, rad = ball.family, ball.dim, ball.radius
    if fam == "l1":
        e = rng.standard_exponential((count, dim))
        signs = rng.integers(0, 2, (count, dim)) * 2.0 - 1.0
        radial = np.float_power(rng.uniform(size=(count, 1)), 1.0 / dim)
        return signs * (e / e.sum(axis=1, keepdims=True)) * (rad * radial)
    m = dim if fam == "l2" else ball.sparsity
    g = rng.standard_normal((count, m))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    if fam != "sparse-sphere":
        g *= rng.uniform(size=(count, 1)) ** (1.0 / m)
    g *= rad
    if m == dim:
        return g
    out = np.zeros((count, dim))
    supports = np.argpartition(rng.random((count, dim)), m - 1, axis=1)[:, :m]
    np.put_along_axis(out, supports, g, axis=1)
    return out


@pytest.mark.parametrize("ball", [
    BallDescriptor.euclidean_ball(4), BallDescriptor.euclidean_ball(4, radius=2.0),
    BallDescriptor.euclidean_ball(9), BallDescriptor.euclidean_sphere(3),
    BallDescriptor.sparse_ball(10, 3, radius=0.7), BallDescriptor.sparse_sphere(10, 3),
    BallDescriptor.l1_ball(6, radius=2.0)],
    ids=["l2", "l2-r2", "l2-dim9", "sphere", "sparse-ball", "sparse-sphere", "l1"])
def test_grouped_draw_same_bits_as_consecutive_single_draws(ball):
    # 512-row draws as the greedy nets make them, and a short last draw
    sizes = (512, 512, 512, 276)
    grouped_rng, single_rng, reference_rng = (philox(17, "grouped") for _ in range(3))
    grouped = sample_ambient_batch(grouped_rng, ball, sum(sizes), per_call=512)
    single = np.concatenate([sample_ambient_batch(single_rng, ball, c) for c in sizes])
    reference = np.concatenate([_one_draw_reference(reference_rng, ball, c) for c in sizes])
    assert grouped.shape == (sum(sizes), ball.dim)
    assert grouped.tobytes() == single.tobytes() == reference.tobytes()
    # all three left the stream at the same place
    assert grouped_rng.random() == single_rng.random() == reference_rng.random()


def test_grouped_draw_rejects_empty_calls():
    with pytest.raises(InvalidSpecError):
        sample_ambient_batch(philox(1, "x"), BallDescriptor.euclidean_ball(2), 10, per_call=0)


def test_sparse_ball_scaling_identity():
    # scaling the sparse ball commutes with intersecting a smaller ball:
    # |z| <= r and m-sparse iff z in r * (unit sparse ball) iff z/r in it
    rng = philox(10, "scaling")
    for _ in range(100):
        r = float(rng.uniform(0.1, 1.0))
        z = sample_ambient_batch(rng, BallDescriptor.sparse_ball(12, 3, radius=r), 1)[0]
        assert member(z, BallDescriptor.sparse_ball(12, 3, radius=r), atol=1e-12)
        assert member(z / r, BallDescriptor.sparse_ball(12, 3), atol=1e-9)


def test_descriptor_json_round_trip():
    for ball in [BallDescriptor.l1_ball(5, 2.0), BallDescriptor.weak_lp_ball(6, 0.5),
                 BallDescriptor.sparse_sphere(7, 2)]:
        assert BallDescriptor.from_json(ball.to_json()) == ball


def test_descriptor_validation():
    with pytest.raises(InvalidSpecError):
        BallDescriptor("weak-lp", 4)            # missing p
    with pytest.raises(InvalidSpecError):
        BallDescriptor("lp", 4, p=3.0)          # p out of range
    with pytest.raises(InvalidSpecError):
        BallDescriptor.sparse_sphere(4, 9)      # sparsity > dim
