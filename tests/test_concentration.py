import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats

from riplab import concentration
from riplab.concentration import (C_FLOOR, TailReport, _squared_images,
                                  bernstein_psi2_consistency, expectation_check,
                                  tail_profile)
from riplab.ensembles import EnsembleSpec, estimate_psi2
from riplab.errors import InvalidSpecError

THREE_POINT = ((-math.sqrt(2.0), 0.25), (0.0, 0.5), (math.sqrt(2.0), 0.25))


def test_bernoulli_coordinate_direction_exact():
    spec = EnsembleSpec("bernoulli", n=8, k=4, seed=1)
    e0 = np.eye(8)[0]
    bias = expectation_check(spec, directions=1, trials=500, seed=2,
                             direction_vectors=e0[:, None])
    assert bias == 0.0
    rep = tail_profile(spec, e0, trials=2000, seed=3)
    assert all(t == 0.0 for t in rep.empirical_tail)
    assert math.isinf(rep.fitted_c0)
    assert bernstein_psi2_consistency(1.2, rep, spec.k)   # inf sentinel passes


def test_gaussian_expectation_bias_small():
    spec = EnsembleSpec("gaussian", n=16, k=8, seed=4)
    bias = expectation_check(spec, directions=5, trials=10_000, seed=5)
    assert bias <= 0.05


def test_quadratic_homogeneity():
    spec = EnsembleSpec("bernoulli", n=8, k=4, seed=6)
    x = np.arange(1.0, 9.0) / 10.0
    a = _squared_images(spec, x, 200, seed=7)
    b = _squared_images(spec, 2.0 * x, 200, seed=7)
    assert np.allclose(b, 4.0 * a, rtol=1e-13)


def test_tail_monotone_and_limit_at_zero():
    spec = EnsembleSpec("gaussian", n=8, k=4, seed=8)
    x = np.ones(8) / math.sqrt(8.0)
    grid = (1e-12, 0.2, 0.4, 0.6, 0.8, 1.0)
    rep = tail_profile(spec, x, trials=3000, seed=9, t_grid=grid)
    tails = rep.empirical_tail
    assert tails[0] == 1.0          # any deviation exceeds a vanishing threshold
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert all(0.0 <= t <= 1.0 for t in tails)


def test_gaussian_images_are_chi_square():
    spec = EnsembleSpec("gaussian", n=12, k=8, seed=10)
    x = np.full(12, 1.0 / math.sqrt(12.0))
    trials = 20_000
    vals = _squared_images(spec, x, trials, seed=11)
    ks = stats.kstest(vals * spec.k, stats.chi2(df=spec.k).cdf).statistic
    assert ks <= 1.63 / math.sqrt(trials)


def test_fitted_c0_tracks_chi_square_rate():
    spec = EnsembleSpec("gaussian", n=16, k=16, seed=12)
    x = np.ones(16) / 4.0
    rep = tail_profile(spec, x, trials=50_000, seed=13)
    tg = np.array(rep.t_grid)
    exact_tail = stats.chi2.sf(16 * (1 + tg), 16) + stats.chi2.cdf(16 * (1 - tg), 16)
    exact_c0 = float(np.min(-np.log(exact_tail) / (tg ** 2 * 16)))
    assert rep.fitted_c0 == pytest.approx(exact_c0, rel=0.15)


@pytest.mark.parametrize("kind,support", [
    ("gaussian", None), ("bernoulli", None),
    ("custom-bounded-symmetric", THREE_POINT)])
def test_bernstein_consistency_across_ensembles(kind, support):
    spec = EnsembleSpec(kind, n=16, k=16, seed=14, support=support)
    rng = np.random.default_rng(15)
    x = rng.standard_normal(16)
    x /= np.linalg.norm(x)
    rep = tail_profile(spec, x, trials=50_000, seed=16)
    est = estimate_psi2(spec, directions=8, samples=20_000)
    assert bernstein_psi2_consistency(est.alpha_hat, rep, spec.k), \
        (rep.fitted_c0, est.alpha_hat, C_FLOOR / est.alpha_hat ** 4)


def test_c0_times_k_trend_over_seeds():
    # concentration sharpens with k: c0*k non-decreasing for a 10-seed majority
    x8 = np.ones(16) / 4.0
    wins = 0
    for s in range(10):
        lo = tail_profile(EnsembleSpec("gaussian", n=16, k=8, seed=s), x8,
                          trials=20_000, seed=100 + s)
        hi = tail_profile(EnsembleSpec("gaussian", n=16, k=16, seed=s), x8,
                          trials=20_000, seed=200 + s)
        if hi.fitted_c0 * 16 >= lo.fitted_c0 * 8:
            wins += 1
    assert wins >= 6


def test_tail_profile_input_validation():
    spec = EnsembleSpec("gaussian", n=4, k=2, seed=0)
    with pytest.raises(InvalidSpecError):
        tail_profile(spec, np.zeros(4), trials=100, seed=0)
    with pytest.raises(InvalidSpecError):
        tail_profile(spec, np.ones(4), trials=100, seed=0, t_grid=(0.5, 1.5))


def test_tail_profile_rejects_non_finite_and_misshapen_x_and_no_trials():
    spec = EnsembleSpec("gaussian", n=4, k=2, seed=0)
    for x in (np.array([1.0, np.nan, 0.0, 0.0]), np.array([np.inf, 0.0, 0.0, 0.0]),
              np.ones(5)):
        with pytest.raises(InvalidSpecError):
            tail_profile(spec, x, trials=100, seed=0)
    for trials in (0, -5):
        with pytest.raises(InvalidSpecError):
            tail_profile(spec, np.ones(4), trials=trials, seed=0)


@pytest.mark.parametrize("column", [[np.nan, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                                    [np.inf, 0.0, 0.0, 0.0]], ids=["nan", "zero", "inf"])
def test_expectation_check_rejects_bad_direction_columns(column):
    spec = EnsembleSpec("gaussian", n=4, k=2, seed=0)
    ys = np.column_stack([np.ones(4), column])
    with pytest.raises(InvalidSpecError):
        expectation_check(spec, directions=2, trials=100, seed=0, direction_vectors=ys)
    with pytest.raises(InvalidSpecError):
        expectation_check(spec, directions=1, trials=100, seed=0,
                          direction_vectors=np.ones(4))
    # no directions at all
    for directions, ys in ((0, None), (-1, None), (1, np.ones((4, 0)))):
        with pytest.raises(InvalidSpecError):
            expectation_check(spec, directions=directions, trials=100, seed=0,
                              direction_vectors=ys)


# sha256 over _squared_images, the tail report JSON and the expectation
# bias at 1300 trials (five full matrix chunks and a partial one) for a
# Gaussian and a Bernoulli ensemble, recorded before the chunks ran on a
# pool
CHUNKS_GOLDEN = "0d475cf9d31e38619668480d3827e0b7c75b8f4675d2ac8ef6a1e0daeacdd423"


@pytest.mark.parametrize("cores", [1, 2])
def test_matrix_chunks_same_bits_for_every_core_count(cores, monkeypatch):
    monkeypatch.setattr(concentration, "available_cores", lambda: cores)
    h = hashlib.sha256()
    for kind in ("gaussian", "bernoulli"):
        spec = EnsembleSpec(kind, n=12, k=6, seed=31)
        x = np.arange(1.0, 13.0) / 10.0
        h.update(_squared_images(spec, x, 1300, seed=32).tobytes())
        h.update(tail_profile(spec, x, 1300, seed=33).to_json().encode())
        h.update(repr(expectation_check(spec, 3, 1300, seed=34)).encode())
    assert h.hexdigest() == CHUNKS_GOLDEN


def test_report_serialization():
    rep = TailReport(t_grid=(0.5, 1.0), empirical_tail=(0.25, 0.0),
                     fitted_c0=0.3, trials=100, directions=1)
    obj = json.loads(rep.to_json())
    assert obj["fitted_c0"] == 0.3
    inf_rep = TailReport(t_grid=(0.5,), empirical_tail=(0.0,), fitted_c0=math.inf,
                         trials=10, directions=1)
    assert json.loads(inf_rep.to_json())["fitted_c0"] == "inf"
