"""Extremal eigenvalues of normalized Gram submatrices and near-isometry checks.

The accuracy theta of a k x n measurement matrix G at sparsity m is the
worst deviation of the spectrum of (G_A^T G_A)/k from 1 over supports A
of size m: that of G~ = G/sqrt(k), which every function here forms from
G itself.  Exact enumeration suffices at size exactly m because
principal-submatrix interlacing makes smaller supports redundant.

Exact, Monte-Carlo and single-support evaluations share one kernel: form
the Gram matrix once, gather the principal submatrix of every support
and take batched LAPACK eigenvalues of the stack.  A stack larger than
one gather chunk is split over up to one worker per core (the calling
thread and helpers from the process's shared pool), each at one BLAS
thread.  Reports keep only the supports that maximize 1 - lambda_min and
lambda_max - 1, so in such a stack at m <= k, past the first worker's
share, a support skips the eigenvalue call when two shifted Cholesky
factorizations prove it below the best values found so far.  Every
reported number still comes from LAPACK eigvalsh at one BLAS thread, so
reports do not depend on the core count, the BLAS thread setting or the
caller's threads.  Monte-Carlo supports come from one vectorized
Fisher-Yates loop over blocks of trials, each trial driven by its own
seeded offsets.  A trial's support at sparsity m is the sorted m-prefix of
its stream, so a matrix remembers the stream of its last (trials, seed),
trials x width int64, and later calls at any sparsity within that width
reuse it.  The nested supports make the sampled theta monotone in m, so
``max_passing_sparsity`` finds m*, the largest m whose sampled theta stays
within a bound, by doubling and then bisecting over one Gram matrix.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from dataclasses import dataclass

import numpy as np

from ._util import available_cores, blas_threads, derive_seed, parallel_map, rekey
from .ensembles import MeasurementMatrix
from .errors import BudgetError, InvalidSpecError
from .nets import Net

EXACT_METHOD = "exact-enumeration"
MC_METHOD = "monte-carlo"

# default cap on the supports one exact or Monte Carlo evaluation draws
SUPPORT_BUDGET = 2_000_000


@dataclass(frozen=True)
class SupportSet:
    indices: tuple[int, ...]
    n: int

    def __post_init__(self):
        if any(not (0 <= i < self.n) for i in self.indices):
            raise InvalidSpecError("support indices must lie in [0, n)")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise InvalidSpecError("support indices must be strictly increasing")

    @classmethod
    def of(cls, indices, n: int) -> "SupportSet":
        return cls(indices=tuple(sorted(int(i) for i in set(indices))), n=n)

    def __len__(self) -> int:
        return len(self.indices)


# Doubles per gathered stack of principal submatrices (8 MiB) in flight in
# one call, however many supports it evaluates and however many workers.
_GATHER_DOUBLES = 1 << 20
_U = 2.0 ** -53             # unit roundoff of binary64


def _factor_completes(h, factors):
    """Mask of the matrices of the symmetric (s, m, m) stack h whose Cholesky factors complete.

    numpy's stacked gufunc behind ``np.linalg.cholesky``, looked up per
    call so that importing riplab does not need it, factors every matrix
    and fills a failed factor with NaN.  The factors go to ``factors``, an
    (s, m, m) C-ordered stack.  Both stacks reach the gufunc as transposed,
    Fortran-ordered views: for a symmetric h that is the same matrix, so
    LAPACK gets the same input, while numpy's copies to and from its
    column-major buffers walk memory with unit stride instead of a stride
    of m doubles.
    """
    with np.errstate(all="ignore"):
        np.linalg._umath_linalg.cholesky_lo(h.transpose(0, 2, 1),
                                            out=factors.transpose(0, 2, 1))
    # a failed factorization comes back filled with NaN
    return np.isfinite(factors.reshape(len(h), -1)[:, ::h.shape[-1] + 1]).all(axis=1)


def _margin(m, t, diag_sums, bar):
    """Screening margin tau at threshold t for supports with these sums of |a_ii|."""
    g = (m + 1) * _U / (1 - (m + 1) * _U)
    return 6 * g * (m * abs(t) + diag_sums) + 5 * _U * max(1.0, abs(bar))


def _cleared(gram, idx, bar_low, bar_high):
    """Mask of the rows A of idx proven to stay below both bars.

    bar_low and bar_high are the best fl(1 - lambda_min) and
    fl(lambda_max - 1) of eigvalsh so far.  A row is cleared when the
    Cholesky factorizations of fl((t - tau) I - A) at t = bar_high + 1 and
    of fl(A - (t + tau) I) at t = 1 - bar_low both complete.  Completion
    on H proves lambda_min(H) >= -gamma/(1 - gamma) tr H with gamma =
    gamma_(m+2) (Demmel; Rump, BIT 46, 2006; the m + 2 covers LAPACK's
    scaling by a reciprocal pivot).  Assuming LAPACK eigvalsh errs by at
    most 3(m + 1) u sum|a_ii| on an extremal eigenvalue, these two terms
    and the rounding of the diagonal shift sum to at most about
    (4m + 6) u sum|a_ii| + (m + 2) m u |t|, inside the 6 gamma_(m+1)
    (m |t| + sum|a_ii|) of ``_margin``; its 5 u max(1, |bar|) covers the
    rounding of t, of the shift t -+ tau and of the subtraction from 1, so
    a cleared row's fl(1 - lambda_min) and fl(lambda_max - 1) lie
    strictly below the bars: it can neither beat nor tie a support that
    eigvalsh saw.  Both shifted matrices are built in place in one
    gathered stack and factored into one reused stack of factors, so two
    stacks are in flight.  The gathered stack is exactly symmetric, since
    ``_gram`` is, and the diagonal shifts keep it so, which lets
    ``_factor_completes`` factor it through transposed views.
    """
    m = idx.shape[1]
    h = gram[idx[:, :, None], idx[:, None, :]]
    diag = h.reshape(len(h), -1)[:, ::m + 1]        # a view: writes go to h
    a = diag.copy()
    sums = np.abs(a).sum(axis=1)
    t = bar_high + 1.0
    np.negative(h, out=h)
    diag[...] = (t - _margin(m, t, sums, bar_high))[:, None] - a
    factors = np.empty_like(h)
    ok = _factor_completes(h, factors)
    if not ok.any():
        return ok
    t = 1.0 - bar_low
    np.negative(h, out=h)
    diag[...] = a - (t + _margin(m, t, sums, bar_low))[:, None]
    return ok & _factor_completes(h, factors)


def _extremal_eigs(gram: np.ndarray, supports: np.ndarray, screen: bool = False):
    """(lambda_min, lambda_max) arrays of gram[A, A] over the rows A of (s, m) supports.

    A stack of more than one chunk (``_GATHER_DOUBLES`` doubles) goes to
    min(cores, chunks) ``parallel_map`` workers (this thread and helpers
    from the shared pool).  Each takes shares of ``step`` supports in
    turn, gathers a share's submatrices at once and writes its slices of
    the outputs, so the eigenvalue stacks in flight stay within one chunk.
    Each principal submatrix goes through its own LAPACK call at one BLAS
    thread, so a support's eigenvalues depend neither on which stack it
    lands in nor on how many workers or BLAS threads the machine has.

    With ``screen`` (for m <= k; above k every Gram is singular), the first
    share is evaluated in full, split over the workers, and sets two bars,
    the best 1 - lambda_min and lambda_max - 1 so far, which tighten under a
    lock as shares finish.  Every later share is screened first: a support
    that ``_cleared`` proves below both bars gets lambda_min = +inf and
    lambda_max = -inf instead of eigenvalues, and the rest go to eigvalsh.  A
    screened share holds its shifted copy and its Cholesky factors at once,
    twice the doubles of its gathered submatrices.  A cleared support lies
    strictly below both maxima, so first-index argmax reductions of the
    outputs equal those of the unscreened eigenvalues, whatever order the
    shares finish in.
    """
    count, size = supports.shape
    per_chunk = max(1, _GATHER_DOUBLES // (size * size))
    # workers <= per_chunk keeps step >= 1 and workers * step submatrices in one chunk
    workers = min(available_cores(), -(-count // per_chunk), per_chunk)
    step = per_chunk // workers
    lmin, lmax = np.empty(count), np.empty(count)
    screening = screen and count > step
    shares = [slice(lo, lo + step) for lo in range(0, count, step)]
    if screening:
        # the first share, split over the workers, sets the bars before any
        # share is screened
        head = -(-step // workers)
        shares[:1] = [slice(lo, min(lo + head, step)) for lo in range(0, step, head)]
    bars = [-math.inf, -math.inf]
    lock = threading.Lock()

    def stack(rows):
        idx = supports[rows]
        if screening and rows.start >= step:
            with lock:
                bar_low, bar_high = bars
            # bars stay -inf until a share finishes, which with fewer first-share
            # pieces than workers can be after a later share starts
            if math.isfinite(bar_low) and math.isfinite(bar_high):
                cleared = _cleared(gram, idx, bar_low, bar_high)
                lmin[rows][cleared], lmax[rows][cleared] = math.inf, -math.inf
                idx, rows = idx[~cleared], rows.start + np.flatnonzero(~cleared)
            if not len(idx):
                return
        eigs = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        lmin[rows], lmax[rows] = eigs[:, 0], eigs[:, -1]
        if screening:
            low, high = np.max(1.0 - eigs[:, 0]), np.max(eigs[:, -1] - 1.0)
            with lock:
                bars[0], bars[1] = max(bars[0], float(low)), max(bars[1], float(high))

    with blas_threads(1):
        parallel_map(stack, shares, threads=workers)
    return lmin, lmax


def _gram(m: MeasurementMatrix, cols=slice(None)) -> np.ndarray:
    """(G_cols^T G_cols)/k of the matrix, all columns by default.

    The result is exactly symmetric: numpy computes the product of a
    C-ordered g with its own transpose as one BLAS syrk and mirrors the
    triangle it gets.  A non-finite entry, or a product that overflows,
    raises ``InvalidSpecError``.
    """
    g = np.ascontiguousarray(m.entries[:, cols])
    with np.errstate(over="ignore", invalid="ignore"):
        gram = g.T @ g / m.k
    if not np.isfinite(gram).all():
        raise InvalidSpecError("the Gram matrix of the entries is not finite")
    return gram


def gram_extremal_eigs(m: MeasurementMatrix, a: SupportSet) -> tuple[float, float]:
    """Extremal eigenvalues of (G_A^T G_A)/k for the column subset A."""
    if len(a) == 0:
        raise InvalidSpecError("support must be nonempty")
    if a.n != m.n:
        raise InvalidSpecError("support ambient dimension does not match matrix")
    gram = _gram(m, list(a.indices))
    lmin, lmax = _extremal_eigs(gram, np.arange(len(a))[None, :])
    return max(float(lmin[0]), 0.0), float(lmax[0])


@dataclass(frozen=True)
class RipReport:
    m: int
    theta_lower: float            # max over supports of 1 - lambda_min (signed)
    theta_upper: float            # max over supports of lambda_max - 1 (signed)
    theta: float                  # max of the positive parts, always >= 0
    method: str
    witness_min: SupportSet
    witness_max: SupportSet
    trials: int | None = None

    def to_json(self) -> str:
        obj = {"m": self.m, "theta": self.theta, "theta_lower": self.theta_lower,
               "theta_upper": self.theta_upper, "method": self.method,
               "witness_min": list(self.witness_min.indices),
               "witness_max": list(self.witness_max.indices)}
        if self.trials is not None:
            obj["trials"] = self.trials
        return json.dumps(obj)


def _rip_report(m, gram, sparsity, method, supports, trials=None):
    """RipReport of m, whose ``_gram`` is gram, over the rows of the (s, sparsity) supports.

    Each witness is the first support that maximizes its deviation, so the
    report depends neither on the order that shares finish in nor on which
    supports the screen (on for sparsity <= k) clears.
    """
    lmin, lmax = _extremal_eigs(gram, supports, screen=sparsity <= m.k)
    lows, highs = 1.0 - lmin, lmax - 1.0
    i_low, i_high = int(np.argmax(lows)), int(np.argmax(highs))
    tl, tu = float(lows[i_low]), float(highs[i_high])
    return RipReport(m=sparsity, theta_lower=tl, theta_upper=tu,
                     theta=max(tl, tu, 0.0), method=method,
                     witness_min=SupportSet.of(supports[i_low], m.n),
                     witness_max=SupportSet.of(supports[i_high], m.n),
                     trials=trials)


def rip_exact(m: MeasurementMatrix, sparsity: int,
              budget: int = SUPPORT_BUDGET) -> RipReport:
    """Exact accuracy at the given sparsity by enumerating all supports."""
    if not (1 <= sparsity <= m.n):
        raise InvalidSpecError("need 1 <= sparsity <= n")
    if not budget > 0:           # also refuses NaN, which passes count > budget
        raise InvalidSpecError(f"budget must be > 0, got {budget!r}")
    count = math.comb(m.n, sparsity)
    if count > budget:
        raise BudgetError(
            f"C({m.n},{sparsity}) = {count} supports exceed budget {budget}; "
            "use rip_monte_carlo")
    supports = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m.n), sparsity)),
        dtype=np.intp, count=count * sparsity).reshape(count, sparsity)
    return _rip_report(m, _gram(m), sparsity, EXACT_METHOD, supports)


def _fisher_yates_offsets(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Offsets of the first m Fisher-Yates swaps of range(n): step j swaps j, j + offset."""
    return rng.integers(0, n - np.arange(m))


def _fisher_yates_rows(offsets: np.ndarray, n: int) -> np.ndarray:
    """First m entries of the shuffle of range(n) that each row of (rows, m) offsets drives.

    Rows are shuffled in blocks whose (block, n) working array stays within
    ``_GATHER_DOUBLES``, and only the first m columns of each are kept.
    Step j runs for every row of a block at once, so a block is m numpy
    steps.  Rows are independent, so the blocking changes no entry.
    """
    rows, m = offsets.shape
    out = np.empty((rows, m), dtype=np.intp)
    block = max(1, _GATHER_DOUBLES // n)
    for lo in range(0, rows, block):
        part = offsets[lo:lo + block]
        arr = np.tile(np.arange(n), (len(part), 1))
        r = np.arange(len(part))
        for j in range(m):
            swap = j + part[:, j]
            head = arr[:, j].copy()
            arr[:, j] = arr[r, swap]
            arr[r, swap] = head
        out[lo:lo + block] = arr[:, :m]
    return out


# guards the check-and-set of a matrix's remembered support stream
_mc_lock = threading.Lock()


def _mc_rows(m: MeasurementMatrix, sparsity: int, trials: int, seed: int) -> np.ndarray:
    """Fisher-Yates rows, at least ``sparsity`` wide, of m's stream for (trials, seed).

    Row t is the start of the shuffle of range(n) that the draws of
    philox(seed, "rip-mc", t) drive; a narrower width gives its prefix.  The
    matrix remembers one (trials, seed) stream, and a call with another key
    replaces it.  The first draw for a key is exactly ``sparsity`` wide, so
    a one-shot call does no extra work; a wider request later redraws at
    min(n, 2 sparsity), so a search that grows m draws O(log m) times.  A
    narrower draw that finishes after a wider one (threads mapping
    sparsities over one matrix) does not replace it.
    """
    with _mc_lock:
        held = m._mc_stream[0] if m._mc_stream else None
    if held is not None and held[:2] == (trials, seed):
        if held[2].shape[1] >= sparsity:
            return held[2]
        width = min(m.n, 2 * sparsity)
    else:
        width = sparsity
    rng = np.random.Generator(np.random.Philox())
    offsets = np.empty((trials, width), dtype=np.int64)
    for t in range(trials):
        # the draws of philox(seed, "rip-mc", t)
        rekey(rng.bit_generator, derive_seed(seed, "rip-mc", t))
        offsets[t] = _fisher_yates_offsets(rng, m.n, width)
    rows = _fisher_yates_rows(offsets, m.n)
    rows.setflags(write=False)
    with _mc_lock:
        held = m._mc_stream[0] if m._mc_stream else None
        if held is None or held[:2] != (trials, seed) or held[2].shape[1] < width:
            m._mc_stream[:] = [(trials, seed, rows)]
    return rows


def _check_trials(trials: int, budget: int) -> None:
    """The Monte Carlo trial count checks, made before any support is drawn."""
    if trials < 1:
        raise InvalidSpecError("trials must be >= 1")
    if not budget > 0:           # also refuses NaN, which passes trials > budget
        raise InvalidSpecError(f"budget must be > 0, got {budget!r}")
    if trials > budget:
        raise BudgetError(f"{trials} trials exceed budget {budget} supports")


def rip_monte_carlo(m: MeasurementMatrix, sparsity: int, trials: int,
                    seed: int, budget: int = SUPPORT_BUDGET) -> RipReport:
    """Sampled lower bound on the exact accuracy over uniform random supports.

    Each trial index owns its own seeded support draw, so results are
    independent of execution order.  A trial's support at sparsity m is the
    sorted m-prefix of one Fisher-Yates stream, which the matrix remembers
    for its last (trials, seed) (``_mc_rows``), so repeated calls on one
    matrix, such as a search for the largest passing m, draw it once or a
    few times instead of once per call.  Supports go through the same
    eigenvalue kernel as ``rip_exact``, so a run that draws every support
    reproduces the exact theta bit for bit.  More than ``budget`` trials
    raise ``BudgetError`` before any support is drawn.
    """
    if not (1 <= sparsity <= m.n):
        raise InvalidSpecError("need 1 <= sparsity <= n")
    _check_trials(trials, budget)
    return _mc_report(m, _gram(m), sparsity, trials, seed)


def _mc_report(m, gram, sparsity, trials, seed):
    """``rip_monte_carlo``'s report, on m's Gram, after its checks."""
    supports = np.sort(_mc_rows(m, sparsity, trials, seed)[:, :sparsity], axis=1)
    return _rip_report(m, gram, sparsity, MC_METHOD, supports, trials=trials)


def max_passing_sparsity(m: MeasurementMatrix, theta: float, trials: int,
                         seed: int) -> tuple[int, RipReport | None, RipReport | None]:
    """Largest sparsity m* whose Monte Carlo accuracy stays <= theta, with two reports.

    Returns (m*, passing, failing): the reports at m* (None when m* = 0) and
    at m* + 1 (None when m* = min(k, n)), each equal to ``rip_monte_carlo``
    at that sparsity with these trials and seed.  A trial's support at s is
    a prefix of its support at s + 1, so by Cauchy interlacing the sampled
    theta cannot fall as s grows, and every search order finds the same m*.
    This one doubles s from 1, capped at min(k, n), up to the first failure
    and then bisects, which keeps it far from min(k, n), where a probe costs
    the most.  The Gram is formed once per search.
    """
    if not 0.0 < theta < 1.0:
        raise InvalidSpecError("need 0 < theta < 1")
    _check_trials(trials, SUPPORT_BUDGET)
    gram = _gram(m)
    top = min(m.k, m.n)
    reports = {}

    def passes(s):
        reports[s] = _mc_report(m, gram, s, trials, seed)
        return reports[s].theta <= theta

    lo, hi = 0, 1
    while passes(hi):
        if hi == top:
            return top, reports[top], None
        lo, hi = hi, min(2 * hi, top)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo, reports.get(lo), reports[hi]


@dataclass(frozen=True)
class UupCheck:
    holds: bool
    report: RipReport | None     # at the support bound min(floor(k/lam), n): report.m


def check_uup(m: MeasurementMatrix, theta: float, lam: float,
              method: str = EXACT_METHOD, trials: int = 1000,
              seed: int = 0, budget: int = SUPPORT_BUDGET) -> UupCheck:
    """Test the near-isometry property with accuracy theta at oversampling lam.

    Checks that all column subsets of size at most floor(k/lam) deviate by
    at most theta.  floor(k/lam) = 0 is reported as a vacuous pass, not an
    error (report None), because parameter sweeps hit it.
    """
    if not (0.0 < theta < 1.0):
        raise InvalidSpecError("need 0 < theta < 1")
    if not lam > 1.0:
        raise InvalidSpecError("need lam > 1")
    bound = int(m.k / lam)
    if bound == 0:
        return UupCheck(holds=True, report=None)
    bound = min(bound, m.n)
    if method == EXACT_METHOD:
        report = rip_exact(m, bound, budget=budget)
    elif method == MC_METHOD:
        report = rip_monte_carlo(m, bound, trials, seed, budget=budget)
    else:
        raise InvalidSpecError(f"unknown method {method!r}")
    return UupCheck(holds=report.theta <= theta, report=report)


def verify_on_net(m: MeasurementMatrix, net: Net, theta: float) -> tuple:
    """Violations (point index, |deviation|) of | |G~ x| - 1 | <= theta/5, G~ = G/sqrt(k)."""
    if not 0.0 < theta < 1.0:
        raise InvalidSpecError("need 0 < theta < 1")
    if net.dim != m.n:
        raise InvalidSpecError("net dimension does not match the matrix")
    images = net.points @ (m.entries / math.sqrt(m.k)).T
    dev = np.abs(np.linalg.norm(images, axis=1) - 1.0)
    bad = np.nonzero(~(dev <= theta / 5.0))[0]    # a NaN deviation is a violation
    return tuple((int(i), float(dev[i])) for i in bad)
