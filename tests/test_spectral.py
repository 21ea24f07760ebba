import itertools
import json
import math

import numpy as np
import pytest

from riplab import spectral
from riplab._util import philox
from riplab.ensembles import EnsembleSpec, MeasurementMatrix, generate, row_normalize
from riplab.errors import BudgetError, EmptySupportError, InvalidSpecError
from riplab.geometry import BallDescriptor
from riplab.nets import Net, sparse_set_net
from riplab.spectral import (SupportSet, check_uup, fisher_yates_prefix,
                             gram_extremal_eigs, rip_exact, rip_monte_carlo,
                             verify_on_net)


def scaled_identity(n):
    spec = EnsembleSpec("gaussian", n=n, k=n, seed=0)
    return MeasurementMatrix(entries=np.eye(n) * math.sqrt(n), spec=spec,
                             normalization="raw")


def first_rows_identity(n, k):
    spec = EnsembleSpec("gaussian", n=n, k=k, seed=0)
    return MeasurementMatrix(entries=np.eye(n)[:k] * math.sqrt(k), spec=spec,
                             normalization="raw")


@pytest.mark.parametrize("sparsity", [1, 3, 7])
def test_kernel_matches_per_support_eigvalsh(sparsity):
    m = generate(EnsembleSpec("gaussian", n=7, k=5, seed=12))
    supports = np.array(list(itertools.combinations(range(7), sparsity)))
    lmin, lmax = spectral._extremal_eigs(spectral._gram(m), supports)
    for i, sup in enumerate(supports):
        cols = m.entries[:, sup]
        eigs = np.linalg.eigvalsh(cols.T @ cols / 5.0)
        assert lmin[i] == pytest.approx(eigs[0], abs=1e-12)
        assert lmax[i] == pytest.approx(eigs[-1], abs=1e-12)


@pytest.mark.parametrize("run", [
    lambda m: rip_exact(m, 3),
    lambda m: rip_monte_carlo(m, 3, trials=500, seed=2),
], ids=["exact", "monte-carlo"])
def test_reports_do_not_depend_on_chunking(run, monkeypatch):
    # 120 exact supports and 500 trials against chunks of 7 supports
    m = generate(EnsembleSpec("gaussian", n=10, k=6, seed=3))
    whole = run(m)
    monkeypatch.setattr(spectral, "_GATHER_DOUBLES", 7 * 3 * 3)
    assert run(m) == whole


def test_gram_eigs_identity_blocks():
    m = first_rows_identity(6, 4)
    for sup in [(0, 1), (0, 2, 3), (1,)]:
        lmin, lmax = gram_extremal_eigs(m, SupportSet(indices=sup, n=6))
        assert lmin == pytest.approx(1.0, abs=1e-12)
        assert lmax == pytest.approx(1.0, abs=1e-12)


def test_gram_eigs_singleton_is_column_norm():
    m = generate(EnsembleSpec("gaussian", n=8, k=4, seed=5))
    for j in (0, 3, 7):
        lmin, lmax = gram_extremal_eigs(m, SupportSet(indices=(j,), n=8))
        expected = float(np.sum(m.entries[:, j] ** 2)) / 4.0
        assert lmin == pytest.approx(expected, abs=1e-12)
        assert lmax == pytest.approx(expected, abs=1e-12)


def test_gram_eigs_bernoulli_pair_closed_form():
    m = generate(EnsembleSpec("bernoulli", n=8, k=4, seed=42))
    sup = SupportSet(indices=(0, 1), n=8)
    lmin, lmax = gram_extremal_eigs(m, sup)
    cols = m.entries[:, [0, 1]]
    g = cols.T @ cols / 4.0
    tr, det = np.trace(g), np.linalg.det(g)
    disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
    assert lmin == pytest.approx((tr - disc) / 2, abs=1e-12)
    assert lmax == pytest.approx((tr + disc) / 2, abs=1e-12)


def test_gram_eigs_errors():
    m = generate(EnsembleSpec("bernoulli", n=8, k=4, seed=1))
    with pytest.raises(EmptySupportError):
        gram_extremal_eigs(m, SupportSet(indices=(), n=8))
    with pytest.raises(InvalidSpecError):
        gram_extremal_eigs(row_normalize(m), SupportSet(indices=(0,), n=8))


def test_support_set_validation():
    with pytest.raises(InvalidSpecError):
        SupportSet(indices=(3, 1), n=8)
    with pytest.raises(InvalidSpecError):
        SupportSet(indices=(0, 8), n=8)
    assert SupportSet.of([3, 1, 1], 8).indices == (1, 3)


def test_interlacing_on_nested_supports():
    m = generate(EnsembleSpec("gaussian", n=10, k=6, seed=3))
    rng = philox(4, "interlace")
    for _ in range(20):
        big = sorted(rng.choice(10, 4, replace=False))
        small = sorted(rng.choice(big, 2, replace=False))
        lo_b, hi_b = gram_extremal_eigs(m, SupportSet.of(big, 10))
        lo_s, hi_s = gram_extremal_eigs(m, SupportSet.of(small, 10))
        assert lo_b <= lo_s + 1e-12
        assert hi_s <= hi_b + 1e-12


def test_gram_bounds_random_unit_vectors():
    m = generate(EnsembleSpec("bernoulli", n=10, k=5, seed=9))
    rng = philox(5, "gram-bounds")
    for sup in [(0, 2, 5), (1, 8), (3, 4, 6, 9)]:
        support = SupportSet(indices=sup, n=10)
        lmin, lmax = gram_extremal_eigs(m, support)
        cols = m.entries[:, list(sup)]
        for _ in range(100):
            x = rng.standard_normal(len(sup))
            x /= np.linalg.norm(x)
            q = float(np.sum((cols @ x) ** 2)) / 5.0
            assert lmin - 1e-10 <= q <= lmax + 1e-10


def test_rip_exact_identity_is_isometry():
    m = scaled_identity(4)   # sqrt(4) squares back exactly
    for sparsity in (1, 2, 4):
        rep = rip_exact(m, sparsity)
        assert rep.theta == 0.0
        assert rep.method == "exact-enumeration"


def test_rip_exact_full_sparsity_single_support():
    m = generate(EnsembleSpec("gaussian", n=5, k=5, seed=2))
    rep = rip_exact(m, 5)
    lmin, lmax = gram_extremal_eigs(m, SupportSet(indices=tuple(range(5)), n=5))
    assert rep.theta == pytest.approx(max(1 - lmin, lmax - 1, 0.0), abs=1e-15)
    assert rep.witness_min.indices == tuple(range(5))


def test_rip_exact_monotone_in_sparsity():
    m = generate(EnsembleSpec("bernoulli", n=10, k=5, seed=7))
    t1 = rip_exact(m, 1).theta
    t2 = rip_exact(m, 2).theta
    assert t2 >= t1


def test_rip_exact_budget_error_mentions_mc():
    m = generate(EnsembleSpec("bernoulli", n=40, k=10, seed=1))
    with pytest.raises(BudgetError, match="monte_carlo"):
        rip_exact(m, 10, budget=1000)


def test_rip_exact_matches_dense_grid_oracle_small():
    # vector form of the definition on a dense unit-sphere grid per support
    m = generate(EnsembleSpec("gaussian", n=6, k=4, seed=8))
    rep = rip_exact(m, 2)
    worst_hi, worst_lo = 0.0, 0.0
    angles = np.linspace(0, 2 * math.pi, 3000, endpoint=False)
    circle = np.stack([np.cos(angles), np.sin(angles)])
    for sup in itertools.combinations(range(6), 2):
        q = np.sum((m.entries[:, sup] @ circle) ** 2, axis=0) / 4.0
        worst_hi = max(worst_hi, float(q.max()) - 1.0)
        worst_lo = max(worst_lo, 1.0 - float(q.min()))
    assert rep.theta_upper == pytest.approx(worst_hi, abs=1e-3)
    assert rep.theta_lower == pytest.approx(worst_lo, abs=1e-3)


def test_fisher_yates_prefix_is_uniform_support():
    counts = {}
    for t in range(4000):
        sup = tuple(sorted(fisher_yates_prefix(philox(3, "fy", t), 5, 2)))
        counts[sup] = counts.get(sup, 0) + 1
    assert len(counts) == 10
    for c in counts.values():
        assert abs(c / 4000 - 0.1) < 0.03


@pytest.mark.parametrize("n,m", [(12, 1), (12, 5), (12, 12), (512, 256)])
def test_fisher_yates_prefix_matches_sequential_draws(n, m):
    # one vector draw of the offsets must equal m scalar draws, which numpy
    # does not promise; perfbench/reference.py rebuilds supports this way
    for t in range(50):
        rng = philox(9, "fy-seq", n, m, t)
        arr = np.arange(n)
        for j in range(m):
            swap = j + int(rng.integers(0, n - j))
            arr[j], arr[swap] = arr[swap], arr[j]
        assert np.array_equal(fisher_yates_prefix(philox(9, "fy-seq", n, m, t), n, m),
                              arr[:m])


def test_rip_mc_single_trial_matches_its_support():
    m = generate(EnsembleSpec("bernoulli", n=12, k=6, seed=4))
    rep = rip_monte_carlo(m, 3, trials=1, seed=11)
    lmin, lmax = gram_extremal_eigs(m, rep.witness_max)
    assert rep.theta == pytest.approx(max(1 - lmin, lmax - 1, 0.0), abs=1e-12)


def test_rip_mc_exhaustive_equals_exact():
    m = generate(EnsembleSpec("bernoulli", n=10, k=5, seed=6))
    exact = rip_exact(m, 2)
    trials = 2500
    seen = {tuple(sorted(fisher_yates_prefix(philox(13, "rip-mc", t), 10, 2)))
            for t in range(trials)}
    assert len(seen) == math.comb(10, 2)   # coupon collection complete
    mc = rip_monte_carlo(m, 2, trials=trials, seed=13)
    assert mc.theta == pytest.approx(exact.theta, abs=1e-12)
    assert mc.theta_lower == pytest.approx(exact.theta_lower, abs=1e-12)
    assert mc.theta_upper == pytest.approx(exact.theta_upper, abs=1e-12)


def test_rip_mc_prefix_monotone_in_trials():
    m = generate(EnsembleSpec("gaussian", n=20, k=8, seed=14))
    t_small = rip_monte_carlo(m, 3, trials=100, seed=21).theta
    t_big = rip_monte_carlo(m, 3, trials=10_000, seed=21).theta
    assert t_big >= t_small
    assert t_big <= rip_exact(m, 3).theta + 1e-12


def test_check_uup_identity_and_zero_column():
    assert check_uup(scaled_identity(6), theta=0.3, lam=2.0).holds
    m = generate(EnsembleSpec("gaussian", n=6, k=4, seed=1))
    entries = m.entries.copy()
    entries[:, 2] = 0.0
    broken = MeasurementMatrix(entries=entries, spec=m.spec, normalization="raw")
    res = check_uup(broken, theta=0.9, lam=3.0)
    assert not res.holds


def test_check_uup_degenerate_bound():
    m = generate(EnsembleSpec("bernoulli", n=6, k=3, seed=1))
    res = check_uup(m, theta=0.5, lam=100.0)
    assert res.holds and res.degenerate and res.support_bound == 0


def test_check_uup_mc_flagged_lower_bound():
    m = generate(EnsembleSpec("bernoulli", n=30, k=10, seed=2))
    res = check_uup(m, theta=0.9, lam=4.0, method="monte-carlo", trials=50, seed=3)
    assert res.lower_bound_only
    assert res.report.trials == 50


def test_check_uup_calibrated_lambda_seed_sweep():
    # frozen oversampling law: lambda = c1 log(c1' n/(k theta^3))/theta^2
    n, k, theta = 64, 32, 0.5
    lam = 2.0 * math.log(1.0 * n / (k * theta ** 3)) / theta ** 2
    hold = sum(check_uup(generate(EnsembleSpec("bernoulli", n=n, k=k, seed=s)),
                         theta, lam).holds for s in range(20))
    assert hold >= 19   # >= 95 percent


def test_verify_on_net_coordinate_spikes():
    m = generate(EnsembleSpec("gaussian", n=8, k=5, seed=4))
    norm = row_normalize(m)
    net = Net(points=np.eye(8), epsilon=0.1,
              ambient=BallDescriptor.euclidean_sphere(8))
    res = verify_on_net(norm, net, theta=0.5)
    col_norms = np.linalg.norm(norm.entries, axis=0)
    expected_bad = {int(i) for i in np.nonzero(np.abs(col_norms - 1) > 0.1)[0]}
    assert {i for i, _ in res.violations} == expected_bad
    assert res.all_pass == (not expected_bad)


def test_verify_on_net_identity_passes_and_contracts():
    norm = row_normalize(scaled_identity(6))
    net = sparse_set_net(6, 2, 0.5, "sphere", seed=5)
    res = verify_on_net(norm, net, theta=0.5)
    assert res.all_pass and not res.violations


def test_verify_on_net_agrees_with_plain_loop():
    # sphere cover of the 2-sparse set at eps = 0.1, re-checked independently
    m = row_normalize(generate(EnsembleSpec("gaussian", n=32, k=24, seed=6)))
    net = sparse_set_net(32, 2, 0.1, "sphere", seed=7)
    res = verify_on_net(m, net, theta=0.5)
    bad = []
    for i, point in enumerate(net.points):
        dev = abs(np.linalg.norm(m.entries @ point) - 1.0)
        if dev > 0.1:
            bad.append(i)
    assert [i for i, _ in res.violations] == bad
    assert res.all_pass == (not bad)


def test_verify_on_net_requires_normalized_and_flags_empty():
    m = generate(EnsembleSpec("gaussian", n=4, k=2, seed=1))
    net = Net(points=np.empty((0, 4)), epsilon=0.1,
              ambient=BallDescriptor.euclidean_sphere(4))
    with pytest.raises(InvalidSpecError):
        verify_on_net(m, net, theta=0.5)
    res = verify_on_net(row_normalize(m), net, theta=0.5)
    assert res.all_pass and res.degenerate


def test_theta_scaling_in_k():
    # fixed sparsity: accuracy decays like k^(-1/2); fit within [-0.6, -0.4]
    ks = [32, 64, 128]
    means = []
    for k in ks:
        vals = [rip_monte_carlo(generate(EnsembleSpec("bernoulli", n=128, k=k,
                                                      seed=s)), 4, 300, seed=s).theta
                for s in range(5)]
        means.append(np.mean(vals))
    slope = np.polyfit(np.log(ks), np.log(means), 1)[0]
    assert -0.6 <= slope <= -0.4, slope


def test_report_json_shape():
    m = generate(EnsembleSpec("bernoulli", n=8, k=4, seed=4))
    rep = rip_monte_carlo(m, 2, trials=10, seed=1)
    obj = json.loads(rep.to_json())
    assert set(obj) == {"m", "theta", "theta_lower", "theta_upper", "method",
                        "witness_min", "witness_max", "trials"}
    assert obj["trials"] == 10
    exact = json.loads(rip_exact(m, 2).to_json())
    assert "trials" not in exact
