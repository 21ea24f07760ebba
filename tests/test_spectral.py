import hashlib
import itertools
import json
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from riplab import spectral
from riplab._util import blas_threads, philox
from riplab.ensembles import KINDS, EnsembleSpec, MeasurementMatrix, generate
from riplab.errors import BudgetError, InvalidSpecError
from riplab.geometry import BallDescriptor
from riplab.nets import Net, sparse_set_net
from riplab.spectral import (EXACT_METHOD, MC_METHOD, RipReport, SupportSet, check_uup,
                             gram_extremal_eigs, max_passing_sparsity, rip_exact,
                             rip_monte_carlo, verify_on_net)


def fisher_yates_prefix(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """First m entries of a Fisher-Yates shuffle of range(n): the one-stream
    oracle for the library's blocked shuffle of many trials."""
    return spectral._fisher_yates_rows(spectral._fisher_yates_offsets(rng, n, m)[None], n)[0]


def scaled_identity(n):
    spec = EnsembleSpec("gaussian", n=n, k=n, seed=0)
    return MeasurementMatrix(entries=np.eye(n) * math.sqrt(n), spec=spec)


def first_rows_identity(n, k):
    spec = EnsembleSpec("gaussian", n=n, k=k, seed=0)
    return MeasurementMatrix(entries=np.eye(n)[:k] * math.sqrt(k), spec=spec)


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


@pytest.mark.parametrize("run", [
    lambda m: rip_exact(m, 3),
    lambda m: rip_monte_carlo(m, 3, trials=500, seed=2),
], ids=["exact", "monte-carlo"])
@pytest.mark.parametrize("cores", [1, 8])
def test_reports_do_not_depend_on_core_count(run, cores, monkeypatch):
    # chunks of 16 supports: 120 exact supports and 500 trials make at least
    # 8 chunks, so the stack is split over one worker per core
    m = generate(EnsembleSpec("gaussian", n=10, k=6, seed=3))
    whole = run(m)
    budget = 16 * 3 * 3
    first = 16 // cores             # the first share: one chunk over the workers
    stacks, evaluated, runs = [], Counter(), []
    eigvalsh, kernel = np.linalg.eigvalsh, spectral._extremal_eigs

    def spy(a):
        stacks.append(a.size)
        evaluated.update(sub.tobytes() for sub in a)
        return eigvalsh(a)

    def kernel_spy(gram, supports, **kwargs):
        runs.append((gram, supports))
        return kernel(gram, supports, **kwargs)

    monkeypatch.setattr(spectral, "_GATHER_DOUBLES", budget)
    monkeypatch.setattr(spectral, "available_cores", lambda: cores)
    monkeypatch.setattr(spectral, "_extremal_eigs", kernel_spy)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert run(m) == whole
    (gram, supports), = runs
    subs = [gram[np.ix_(sup, sup)].tobytes() for sup in supports]
    # the first share in full, and no support (trial) evaluated twice
    assert Counter(subs[:first]) <= evaluated <= Counter(subs)
    assert max(stacks) <= budget // cores    # doubles in flight stay within one chunk


def _scaled(m, factor):
    return MeasurementMatrix(entries=m.entries * factor, spec=m.spec)


def _with_entry(m, value):
    entries = m.entries.copy()
    entries[0, 0] = value
    return MeasurementMatrix(entries=entries, spec=m.spec)


def _mc_supports(n, sparsity, trials, seed):
    return np.array([np.sort(fisher_yates_prefix(philox(seed, "rip-mc", t), n, sparsity))
                     for t in range(trials)])


def _unscreened(m, sparsity, supports, method, trials=None):
    """eigvalsh on every gathered submatrix, then first-index argmax of each deviation."""
    gram = spectral._gram(m)
    with blas_threads(1):
        eigs = np.concatenate([np.linalg.eigvalsh(gram[s[:, :, None], s[:, None, :]])
                               for s in np.array_split(supports, -(-len(supports) // 64))])
    lows, highs = 1.0 - eigs[:, 0], eigs[:, -1] - 1.0
    i, j = int(np.argmax(lows)), int(np.argmax(highs))
    return RipReport(m=sparsity, theta_lower=float(lows[i]), theta_upper=float(highs[j]),
                     theta=max(float(lows[i]), float(highs[j]), 0.0), method=method,
                     witness_min=SupportSet.of(supports[i], m.n),
                     witness_max=SupportSet.of(supports[j], m.n), trials=trials)


def _outcome(call):
    try:
        return call().to_json()
    except InvalidSpecError as exc:
        return repr(exc)


def _near_copies(seed, copies=3):
    """Copies of a 4 x 4 Gaussian matrix, each column scaled by 1 + j 2^-52, |j| <= 4.

    A support holding near-copies of a column is singular up to rounding,
    so which one wins the lambda_min race is decided in the last bits.
    """
    rng = np.random.default_rng(seed)
    base = generate(EnsembleSpec("gaussian", n=4, k=4, seed=seed)).entries
    entries = np.concatenate([base * (1 + rng.integers(-4, 5, size=4) * 2.0 ** -52)
                              for _ in range(copies)], axis=1)
    spec = EnsembleSpec("gaussian", n=entries.shape[1], k=4, seed=seed)
    return MeasurementMatrix(entries=entries, spec=spec)


BERNOULLI_DUPLICATES = generate(EnsembleSpec("bernoulli", n=40, k=4, seed=2))
GAUSSIAN = generate(EnsembleSpec("gaussian", n=12, k=4, seed=7))
SCREEN_CASES = {
    # (matrix, sparsity, whether some support must skip eigvalsh)
    "bernoulli-duplicate-columns": (BERNOULLI_DUPLICATES, 3, True),
    "near-copied-columns": (_near_copies(1), 3, True),
    "gaussian-m-eq-k": (GAUSSIAN, 4, True),
    "gaussian-m-gt-k": (GAUSSIAN, 6, False),
    "scaled-identity-ties": (scaled_identity(9), 3, False),
    "scale-1e-9": (_scaled(GAUSSIAN, 1e-9), 3, False),
    "scale-1e9": (_scaled(GAUSSIAN, 1e9), 3, True),
    # a Gram matrix that is not finite raises InvalidSpecError
    "inf-entry": (_with_entry(GAUSSIAN, np.inf), 3, None),
    "overflow": (_scaled(GAUSSIAN, 1e200), 3, None),
}


@pytest.mark.parametrize("cores", [1, 2, 8])
@pytest.mark.parametrize("case", SCREEN_CASES)
@pytest.mark.parametrize("method", [EXACT_METHOD, MC_METHOD])
def test_screening_changes_no_report(method, case, cores, monkeypatch):
    m, sparsity, screens = SCREEN_CASES[case]
    if method == EXACT_METHOD:
        supports = np.array(list(itertools.combinations(range(m.n), sparsity)))
        run = lambda: rip_exact(m, sparsity)
    else:
        supports = _mc_supports(m.n, sparsity, 400, seed=5)
        run = lambda: rip_monte_carlo(m, sparsity, 400, seed=5)
    trials = None if method == EXACT_METHOD else len(supports)
    reference = _outcome(lambda: _unscreened(m, sparsity, supports, method, trials))
    evaluated = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        evaluated.append(len(a))
        return eigvalsh(a)

    # chunks of 4 supports
    monkeypatch.setattr(spectral, "_GATHER_DOUBLES", 4 * sparsity * sparsity)
    monkeypatch.setattr(spectral, "available_cores", lambda: cores)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert _outcome(run) == reference
    if case == "scaled-identity-ties":       # every support ties: the first one wins
        assert json.loads(reference)["witness_min"] == supports[0].tolist()
    if screens is None:
        assert reference.startswith("InvalidSpecError(") and not evaluated
    else:
        assert (sum(evaluated) < len(supports)) == screens


def test_screening_holds_under_fast_thread_switching(monkeypatch):
    # more workers than cores, switching threads every microsecond, so shares
    # finish and tighten the shared bars in many orders
    m, sparsity, _ = SCREEN_CASES["near-copied-columns"]
    supports = _mc_supports(m.n, sparsity, 2000, seed=9)
    reference = _unscreened(m, sparsity, supports, MC_METHOD, len(supports))
    monkeypatch.setattr(spectral, "_GATHER_DOUBLES", 4 * sparsity * sparsity)
    monkeypatch.setattr(spectral, "available_cores", lambda: 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert rip_monte_carlo(m, sparsity, 2000, seed=9) == reference
    finally:
        sys.setswitchinterval(interval)


def test_failed_batched_cholesky_is_nan():
    # the screen reads a failed factorization from numpy's private gufunc as NaN
    cholesky = np.linalg._umath_linalg.cholesky_lo
    stack = np.array([[[4.0, 2.0], [2.0, 3.0]], [[1.0, 2.0], [2.0, 1.0]],
                      [[-1.0, 0.0], [0.0, 1.0]]])
    with np.errstate(invalid="ignore"):
        factors = cholesky(stack)
    assert np.allclose(factors[0], np.linalg.cholesky(stack[0]))
    assert np.isnan(factors[1:]).all()
    # and so does the transposed call with out= that the screen makes
    out = np.zeros_like(stack)
    assert spectral._factor_completes(stack, out).tolist() == [True, False, False]
    assert np.array_equal(out.transpose(0, 2, 1), factors, equal_nan=True)


@pytest.mark.parametrize("size", [3, 32, 128])
def test_transposed_cholesky_matches_c_ordered(size):
    # the screen factors exactly symmetric stacks through transposed views;
    # that must give the C-ordered call's factors, NaN fills and masks
    cholesky = np.linalg._umath_linalg.cholesky_lo
    rng = np.random.default_rng(size)
    a = rng.standard_normal((16, size, size + 2))
    h = a @ a.transpose(0, 2, 1)
    h += h.transpose(0, 2, 1).copy()
    lam = np.linalg.eigvalsh(h)[:, 0]
    # shifts below, near and past lambda_min: rows shifted past it by a
    # relative 1e-6 or more fail, rows within 1e-13 of it may go either way
    ratio = np.array([0.0, 0.5, 1 - 1e-6, 1 + 1e-6, 1.5, 1e3, 1 - 1e-13, 1 + 1e-13] * 2)
    h[:, np.arange(size), np.arange(size)] -= (ratio * lam)[:, None]
    assert np.array_equal(h, h.transpose(0, 2, 1))
    with np.errstate(invalid="ignore"):
        c_ordered = cholesky(h)
    factors = np.empty_like(h)
    ok = spectral._factor_completes(h, factors)
    assert np.array_equal(factors.transpose(0, 2, 1), c_ordered, equal_nan=True)
    assert np.array_equal(ok, ~np.isnan(c_ordered).any(axis=(1, 2)))
    assert np.isnan(factors[~ok]).all() and np.isfinite(factors[ok]).all()
    assert ok[ratio < 1 - 1e-7].all() and not ok[ratio > 1 + 1e-7].any()


@pytest.mark.parametrize("method", [EXACT_METHOD, MC_METHOD], ids=["exact", "monte-carlo"])
def test_screening_at_production_size(method, monkeypatch):
    # real gather chunks, on matrices and seeds not used to tune the screen:
    # all C(24, 6) = 134 596 supports of 6 columns, and criterion 4's size,
    # 600 supports of 128 columns in shares of 64 // cores
    if method == EXACT_METHOD:
        m, sparsity, trials = generate(EnsembleSpec("bernoulli", n=24, k=12, seed=17)), 6, None
        supports = np.array(list(itertools.combinations(range(m.n), sparsity)))
        run = lambda: rip_exact(m, sparsity)
    else:
        m, sparsity, trials = generate(EnsembleSpec("bernoulli", n=512, k=128, seed=11)), 128, 600
        supports = _mc_supports(m.n, sparsity, trials, seed=11)
        run = lambda: rip_monte_carlo(m, sparsity, trials, seed=11)
    reference = _unscreened(m, sparsity, supports, method, trials)
    evaluated = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        evaluated.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert run() == reference
    assert sum(evaluated) < len(supports)


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
    with pytest.raises(InvalidSpecError, match="nonempty"):
        gram_extremal_eigs(m, SupportSet(indices=(), n=8))


@pytest.mark.parametrize("entries", ["inf-entry", "nan-entry", "overflow"])
@pytest.mark.parametrize("call", [
    lambda m: rip_exact(m, 2),
    lambda m: rip_monte_carlo(m, 2, trials=10, seed=1),
    lambda m: gram_extremal_eigs(m, SupportSet(indices=(0, 1), n=m.n)),
    lambda m: check_uup(m, 0.5, 2.0),
], ids=["exact", "monte-carlo", "gram-eigs", "check-uup"])
def test_non_finite_gram_raises_invalid_spec(call, entries):
    m = generate(EnsembleSpec("gaussian", n=6, k=4, seed=2))
    if entries == "overflow":           # finite entries whose Gram overflows
        m = _scaled(m, 1e200)
    else:
        m = _with_entry(m, np.inf if entries == "inf-entry" else np.nan)
    with pytest.raises(InvalidSpecError, match="not finite"):
        call(m)


THREE_POINT = ((-math.sqrt(2.0), 0.25), (0.0, 0.5), (math.sqrt(2.0), 0.25))


@pytest.mark.parametrize("kind", KINDS)
def test_gram_is_exactly_symmetric(kind):
    # the Cholesky screen factors gathered Gram submatrices through
    # transposed views, which is the same matrix only if the Gram is symmetric
    support = THREE_POINT if kind == "custom-bounded-symmetric" else None
    rng = np.random.default_rng(8)
    for n in (1, 3, 45, 255, 699):
        for k in sorted({1, max(1, n // 2), n}):
            m = generate(EnsembleSpec(kind, n=n, k=k, seed=n + k, support=support))
            cols = np.sort(rng.choice(n, size=max(1, n // 3), replace=False)).tolist()
            # the same entries in a column-strided array
            strided = MeasurementMatrix(entries=np.repeat(m.entries, 2, axis=1)[:, ::2],
                                        spec=m.spec)
            gram = spectral._gram(m)
            assert np.array_equal(spectral._gram(strided), gram)
            for g in (gram, spectral._gram(m, cols)):
                assert np.array_equal(g, g.T)


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


def test_rip_mc_trials_over_budget_raise_before_drawing():
    m = generate(EnsembleSpec("bernoulli", n=16, k=8, seed=1))
    with pytest.raises(BudgetError, match="101 trials exceed budget 100"):
        rip_monte_carlo(m, 3, trials=101, seed=0, budget=100)
    assert rip_monte_carlo(m, 3, trials=100, seed=0, budget=100).trials == 100
    # the default budget refuses trials whose offsets alone would not fit in memory
    with pytest.raises(BudgetError):
        rip_monte_carlo(m, 3, trials=10 ** 11, seed=0)
    with pytest.raises(BudgetError):
        check_uup(m, 0.5, 2.0, method=MC_METHOD, trials=101, budget=100)


def _no_eigenvalue_work(*args, **kwargs):
    raise AssertionError("eigenvalue work ran")


@pytest.mark.parametrize("budget", [math.nan, 0, -1.0])
def test_rip_exact_refuses_a_budget_that_is_not_positive(budget, monkeypatch):
    # NaN passes "count > budget", so it used to enumerate all 252 supports
    m = generate(EnsembleSpec("bernoulli", n=10, k=5, seed=1))
    monkeypatch.setattr(spectral, "_extremal_eigs", _no_eigenvalue_work)
    with pytest.raises(InvalidSpecError, match="budget must be > 0"):
        rip_exact(m, 5, budget=budget)


@pytest.mark.parametrize("budget", [math.nan, 0, -1.0])
def test_rip_mc_refuses_a_budget_that_is_not_positive(budget, monkeypatch):
    m = generate(EnsembleSpec("bernoulli", n=10, k=5, seed=1))
    widths = _offset_draws(monkeypatch)
    monkeypatch.setattr(spectral, "_extremal_eigs", _no_eigenvalue_work)
    with pytest.raises(InvalidSpecError, match="budget must be > 0"):
        rip_monte_carlo(m, 5, trials=10, seed=0, budget=budget)
    assert widths == []


def test_an_infinite_budget_is_no_cap():
    m = generate(EnsembleSpec("bernoulli", n=10, k=5, seed=1))
    assert rip_exact(m, 5, budget=math.inf) == rip_exact(m, 5)
    assert (rip_monte_carlo(m, 5, trials=10, seed=0, budget=math.inf)
            == rip_monte_carlo(m, 5, trials=10, seed=0))


@pytest.mark.parametrize("sparsity", [0, 17])
def test_rip_mc_sparsity_out_of_range(sparsity):
    m = generate(EnsembleSpec("bernoulli", n=16, k=8, seed=1))
    with pytest.raises(InvalidSpecError, match="need 1 <= sparsity <= n"):
        rip_monte_carlo(m, sparsity, trials=10, seed=0)


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


@pytest.mark.parametrize("n,m", [(12, 1), (12, 12), (512, 256)])
def test_fisher_yates_rows_equal_one_row_draws(n, m):
    # rip_monte_carlo shuffles all trials at once; each row must be the
    # shuffle that the trial's own stream gives alone
    def streams():
        return [philox(9, "fy-rows", n, m, t) for t in range(50)]

    offsets = np.stack([spectral._fisher_yates_offsets(rng, n, m) for rng in streams()])
    rows = spectral._fisher_yates_rows(offsets, n)
    for row, rng in zip(rows, streams()):
        assert np.array_equal(row, fisher_yates_prefix(rng, n, m))


# Reports recorded with one Fisher-Yates loop per trial and the eigenvalue
# stack evaluated serially at one BLAS thread (the witnesses of m=256 are
# long, so that report is kept as its SHA-256).
MC_GOLDEN = {
    9: '{"m": 9, "theta": 0.48413120879979643, "theta_lower": 0.3806749133434122, '
       '"theta_upper": 0.48413120879979643, "method": "monte-carlo", '
       '"witness_min": [97, 131, 138, 232, 345, 357, 426, 431, 492], '
       '"witness_max": [67, 170, 182, 298, 305, 357, 385, 435, 449], "trials": 600}',
    256: "5ba6a3de9cf94126b0b6a7a14b775a1e7fece430fc30d3753bbb30a57c81fa22",
}


@pytest.mark.parametrize("sparsity", [9, 256])
def test_rip_mc_reports_match_recorded(sparsity):
    mat = generate(EnsembleSpec("bernoulli", n=512, k=256, seed=0))
    text = rip_monte_carlo(mat, sparsity, trials=600, seed=0).to_json()
    if sparsity == 256:
        assert json.loads(text)["theta"] == 3.12355830033607
        text = hashlib.sha256(text.encode()).hexdigest()
    assert text == MC_GOLDEN[sparsity]


def test_rip_mc_supports_are_prefixes_of_one_stream(monkeypatch):
    # each trial's support at m' is the first m' entries of the Fisher-Yates
    # stream that gives its support at m, so supports are nested in m and
    # theta is monotone in m (Cauchy interlacing): bisection for m* is exact
    captured = []
    kernel = spectral._extremal_eigs

    def spy(gram, supports, **kwargs):
        captured.append(supports.copy())
        return kernel(gram, supports, **kwargs)

    monkeypatch.setattr(spectral, "_extremal_eigs", spy)
    mat = generate(EnsembleSpec("bernoulli", n=40, k=20, seed=5))
    trials, seed, full = 60, 31, 12
    thetas = [rip_monte_carlo(mat, m, trials, seed).theta for m in range(1, full + 1)]
    for t in range(trials):
        stream = fisher_yates_prefix(philox(seed, "rip-mc", t), mat.n, full)
        for m, supports in enumerate(captured, start=1):
            assert np.array_equal(supports[t], np.sort(stream[:m]))
    assert thetas == sorted(thetas)


def _offset_draws(monkeypatch):
    """Widths of the rows that ``_fisher_yates_offsets`` draws from now on, one per call."""
    widths = []
    draw = spectral._fisher_yates_offsets

    def spy(rng, n, m):
        widths.append(m)
        return draw(rng, n, m)

    monkeypatch.setattr(spectral, "_fisher_yates_offsets", spy)
    return widths


@pytest.mark.parametrize("k", [32, 256])
def test_rip_mc_search_draws_less_than_twice_its_stream(k, monkeypatch):
    # the m* search doubles, then bisects, on one matrix: requests 1, 2, 4,
    # ... redraw at 1, 4, 16, ..., so every earlier draw adds up to less than
    # the final one
    mat = generate(EnsembleSpec("bernoulli", n=512, k=k, seed=0))
    trials, seed = 600, 0
    widths = _offset_draws(monkeypatch)
    max_passing_sparsity(mat, 0.5, trials, seed)
    (held_trials, held_seed, rows), = mat._mc_stream
    assert (held_trials, held_seed) == (trials, seed)
    assert sum(widths) < 2 * trials * rows.shape[1]
    if k == 32:                     # m* = 2: widths 1 and 4
        assert len(widths) <= 2 * trials


@pytest.mark.parametrize("k", [32, 64, 128, 256])
def test_max_passing_sparsity_equals_a_linear_scan(k, monkeypatch):
    # seeds past criterion 4's 0-19; the scan runs on its own matrix, so the
    # search's reports also equal those of a matrix with another stream history
    theta, trials = 0.5, 600
    grams = []
    gram = spectral._gram
    monkeypatch.setattr(spectral, "_gram", lambda m: grams.append(m) or gram(m))
    for seed in range(20, 25):
        spec = EnsembleSpec("bernoulli", n=512, k=k, seed=seed)
        mat = generate(spec)
        scan = [rip_monte_carlo(mat, 1, trials, seed)]     # scan[s - 1] is at sparsity s
        while scan[-1].theta <= theta:
            scan.append(rip_monte_carlo(mat, len(scan) + 1, trials, seed))
        grams.clear()
        m_star, passing, failing = max_passing_sparsity(generate(spec), theta, trials, seed)
        assert len(grams) == 1                              # one Gram per search
        assert m_star == len(scan) - 1
        assert passing == (scan[-2] if m_star else None)
        assert failing == scan[-1]


def test_max_passing_sparsity_is_zero_when_one_column_fails():
    mat = generate(EnsembleSpec("gaussian", n=16, k=4, seed=3))
    one = rip_monte_carlo(mat, 1, trials=50, seed=0)
    assert one.theta > 0.05
    assert max_passing_sparsity(mat, 0.05, 50, 0) == (0, None, one)


@pytest.mark.parametrize("make", [
    lambda: scaled_identity(8),
    lambda: generate(EnsembleSpec("bernoulli", n=6, k=1, seed=2)),   # +-1 entries
], ids=["k-equals-n", "k-below-n"])
def test_max_passing_sparsity_reaches_min_k_n(make):
    mat = make()
    top = min(mat.k, mat.n)
    full = rip_monte_carlo(mat, top, trials=50, seed=0)
    assert full.theta <= 0.5        # interlacing: every smaller sparsity passes too
    assert max_passing_sparsity(mat, 0.5, 50, 0) == (top, full, None)


@pytest.mark.parametrize("theta,trials,error", [
    (0.0, 10, InvalidSpecError),
    (1.0, 10, InvalidSpecError),
    (math.nan, 10, InvalidSpecError),
    (0.5, 0, InvalidSpecError),
    (0.5, 2_000_001, BudgetError),
], ids=["theta-0", "theta-1", "theta-nan", "no-trials", "over-budget"])
def test_max_passing_sparsity_rejects_bad_input(theta, trials, error, monkeypatch):
    mat = generate(EnsembleSpec("bernoulli", n=12, k=6, seed=1))
    widths = _offset_draws(monkeypatch)
    with pytest.raises(error):
        max_passing_sparsity(mat, theta, trials, 0)
    assert widths == []             # raised before any support was drawn


def test_rip_mc_reports_do_not_depend_on_call_order():
    # one matrix asked in a scrambled order, with the stream widened and
    # reused, gives the reports of fresh matrices, and MC_GOLDEN's bits
    spec = EnsembleSpec("bernoulli", n=512, k=256, seed=0)
    mat = generate(spec)
    for trials, order in ((600, (256, 1, 128, 9)), (30, (256, 1, 128, 9, 512))):
        reports = {m: rip_monte_carlo(mat, m, trials, seed=0) for m in order}
        for m, rep in reports.items():
            assert rep == rip_monte_carlo(generate(spec), m, trials, seed=0)
        if trials == 600:
            assert reports[9].to_json() == MC_GOLDEN[9]
            text = reports[256].to_json()
            assert hashlib.sha256(text.encode()).hexdigest() == MC_GOLDEN[256]


def test_rip_mc_new_key_replaces_the_stream(monkeypatch):
    mat = generate(EnsembleSpec("bernoulli", n=40, k=20, seed=5))
    first = rip_monte_carlo(mat, 5, trials=50, seed=1)
    rip_monte_carlo(mat, 5, trials=50, seed=2)
    rip_monte_carlo(mat, 5, trials=60, seed=2)
    assert [entry[:2] for entry in mat._mc_stream] == [(60, 2)]
    widths = _offset_draws(monkeypatch)
    assert rip_monte_carlo(mat, 5, trials=50, seed=1) == first
    assert widths == [5] * 50
    assert [entry[:2] for entry in mat._mc_stream] == [(50, 1)]


def test_rip_mc_equal_matrices_draw_their_own_streams(monkeypatch):
    spec = EnsembleSpec("bernoulli", n=40, k=20, seed=5)
    a, b = generate(spec), generate(spec)
    widths = _offset_draws(monkeypatch)
    assert rip_monte_carlo(a, 4, trials=30, seed=3) == rip_monte_carlo(b, 4, trials=30, seed=3)
    assert widths == [4] * 60
    assert a._mc_stream[0][2] is not b._mc_stream[0][2]


def test_rip_mc_stream_widens_and_never_narrows(monkeypatch):
    mat = generate(EnsembleSpec("bernoulli", n=40, k=20, seed=5))
    shuffle = spectral._fisher_yates_rows
    raced = []

    def racing(offsets, n):
        # a wider request on another thread finishes while this draw runs
        if not raced:
            raced.append(None)
            raced[0] = spectral._mc_rows(mat, 9, 20, 4)
        return shuffle(offsets, n)

    monkeypatch.setattr(spectral, "_fisher_yates_rows", racing)
    narrow = spectral._mc_rows(mat, 1, 20, 4)
    assert narrow.shape == (20, 1) and raced[0].shape == (20, 9)
    assert mat._mc_stream[0][2] is raced[0]
    assert np.array_equal(narrow, raced[0][:, :1])
    # a wider request redraws at twice its width, capped at n
    assert spectral._mc_rows(mat, 12, 20, 4).shape == (20, 24)
    assert spectral._mc_rows(mat, 30, 20, 4).shape == (20, 40)
    assert spectral._mc_rows(mat, 3, 20, 4) is mat._mc_stream[0][2]


def test_rip_mc_stream_survives_racing_threads(monkeypatch):
    # eight threads on two cores ask one matrix for growing and shrinking
    # widths; a lost update would leave a narrower stream than the widest drawn
    mat = generate(EnsembleSpec("bernoulli", n=40, k=20, seed=5))
    drawn, held = [], []
    seen = threading.Lock()
    shuffle = spectral._fisher_yates_rows

    def spy(offsets, n):
        drawn.append(offsets.shape[1])
        with seen:              # the held widths, in the order they were read
            held.append(mat._mc_stream[0][2].shape[1] if mat._mc_stream else 0)
        return shuffle(offsets, n)

    monkeypatch.setattr(spectral, "_fisher_yates_rows", spy)
    results = []

    def work(widths):
        for w in widths:
            results.append(spectral._mc_rows(mat, w, 20, 4)[:, :w].copy())

    threads = [threading.Thread(target=work, args=([1 + (i * 7 + j) % 19 for j in range(12)],))
               for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    (_, _, final), = mat._mc_stream
    assert final.shape[1] == max(drawn)
    assert held == sorted(held)
    assert len(results) == 8 * 12
    for rows in results:
        assert np.array_equal(rows, final[:, :rows.shape[1]])


def test_rip_mc_stream_stays_off_repr_and_eq():
    spec = EnsembleSpec("bernoulli", n=6, k=1, seed=2)
    a, b = generate(spec), generate(spec)
    text = repr(a)
    rip_monte_carlo(a, 2, trials=10, seed=0)
    assert a._mc_stream and not b._mc_stream
    assert repr(a) == text == repr(b) and "_mc_stream" not in text
    assert a == a
    one = [MeasurementMatrix(entries=np.ones((1, 1)), spec=spec) for _ in range(2)]
    rip_monte_carlo(one[0], 1, trials=3, seed=0)
    assert one[0] == one[1]
    with pytest.raises(ValueError, match="ambiguous"):   # as for any ndarray field
        a == b


def test_fisher_yates_working_memory_is_bounded():
    # the whole (trials, n) tile would be 655 MB
    spec = EnsembleSpec("gaussian", n=4096, k=1, seed=0)
    mat = MeasurementMatrix(entries=np.ones((1, 4096)), spec=spec)
    tracemalloc.start()
    try:
        rows = spectral._mc_rows(mat, 2, 20_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (20_000, 2)
    assert peak < 64 * 2 ** 20
    for t in (0, 19_999):
        assert np.array_equal(rows[t], fisher_yates_prefix(philox(0, "rip-mc", t), 4096, 2))


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
    broken = MeasurementMatrix(entries=entries, spec=m.spec)
    res = check_uup(broken, theta=0.9, lam=3.0)
    assert not res.holds


def test_check_uup_degenerate_bound():
    m = generate(EnsembleSpec("bernoulli", n=6, k=3, seed=1))
    res = check_uup(m, theta=0.5, lam=100.0)
    assert res.holds and res.report is None


def test_check_uup_mc_flagged_lower_bound():
    m = generate(EnsembleSpec("bernoulli", n=30, k=10, seed=2))
    res = check_uup(m, theta=0.9, lam=4.0, method="monte-carlo", trials=50, seed=3)
    assert res.report.method == MC_METHOD
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
    net = Net(points=np.eye(8), epsilon=0.1,
              ambient=BallDescriptor.euclidean_sphere(8))
    violations = verify_on_net(m, net, theta=0.5)
    col_norms = np.linalg.norm(m.entries / math.sqrt(5), axis=0)
    expected_bad = {int(i) for i in np.nonzero(np.abs(col_norms - 1) > 0.1)[0]}
    assert {i for i, _ in violations} == expected_bad


def test_verify_on_net_identity_passes_and_contracts():
    net = sparse_set_net(6, 2, 0.5, "sphere", seed=5)
    assert verify_on_net(scaled_identity(6), net, theta=0.5) == ()


def test_verify_on_net_agrees_with_plain_loop():
    # sphere cover of the 2-sparse set at eps = 0.1, re-checked independently
    m = generate(EnsembleSpec("gaussian", n=32, k=24, seed=6))
    net = sparse_set_net(32, 2, 0.1, "sphere", seed=7)
    violations = verify_on_net(m, net, theta=0.5)
    bad = []
    for i, point in enumerate(net.points):
        dev = abs(np.linalg.norm((m.entries / math.sqrt(24)) @ point) - 1.0)
        if dev > 0.1:
            bad.append(i)
    assert [i for i, _ in violations] == bad


def test_verify_on_net_flags_empty():
    m = generate(EnsembleSpec("gaussian", n=4, k=2, seed=1))
    net = Net(points=np.empty((0, 4)), epsilon=0.1,
              ambient=BallDescriptor.euclidean_sphere(4))
    assert verify_on_net(m, net, theta=0.5) == ()


def test_verify_on_net_counts_a_nan_deviation_as_a_violation():
    # every comparison with NaN is false, so "dev > theta/5" would pass the point
    entries = np.eye(3) * math.sqrt(3)
    entries[0, 0] = math.nan
    m = MeasurementMatrix(entries=entries, spec=EnsembleSpec("gaussian", n=3, k=3, seed=0))
    net = Net(points=np.eye(3), epsilon=0.1, ambient=BallDescriptor.euclidean_sphere(3))
    violations = verify_on_net(m, net, theta=0.5)
    # e_0 maps to the NaN column; BLAS may spread the NaN to the other images
    assert 0 in [i for i, _ in violations]
    assert all(math.isnan(dev) for _, dev in violations)


@pytest.mark.parametrize("theta", [math.nan, 0.0, 1.0, -0.5])
def test_verify_on_net_rejects_theta_outside_0_1(theta):
    # every comparison with NaN is false, so an unchecked NaN would pass every point
    m = generate(EnsembleSpec("gaussian", n=4, k=2, seed=1))
    net = Net(points=np.eye(4), epsilon=0.1, ambient=BallDescriptor.euclidean_sphere(4))
    with pytest.raises(InvalidSpecError, match="0 < theta < 1"):
        verify_on_net(m, net, theta=theta)


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
