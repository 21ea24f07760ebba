"""Extremal eigenvalues of normalized Gram submatrices and near-isometry checks.

The accuracy theta of a k x n measurement matrix at sparsity m is the
worst deviation of the spectrum of (G_A^T G_A)/k from 1 over supports A
of size m.  Exact enumeration suffices at size exactly m because
principal-submatrix interlacing makes smaller supports redundant.

Exact, Monte-Carlo and single-support evaluations share one kernel: form
the Gram matrix once, gather the principal submatrix of every support and
take batched LAPACK eigenvalues of the stack.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import philox
from .ensembles import RAW, ROW_NORMALIZED, MeasurementMatrix
from .errors import BudgetError, EmptySupportError, InvalidSpecError
from .nets import Net

EXACT_METHOD = "exact-enumeration"
MC_METHOD = "monte-carlo"


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


# Doubles per gathered stack of principal submatrices (8 MiB), so memory
# stays flat however many supports a call evaluates.
_GATHER_DOUBLES = 1 << 20


def _extremal_eigs(gram: np.ndarray, supports: np.ndarray):
    """(lambda_min, lambda_max) arrays of gram[A, A] over the rows A of (s, m) supports.

    Each principal submatrix goes through its own LAPACK call, so a
    support's eigenvalues do not depend on which chunk it lands in.
    """
    count, size = supports.shape
    step = max(1, _GATHER_DOUBLES // (size * size))
    lmin, lmax = np.empty(count), np.empty(count)
    for lo in range(0, count, step):
        idx = supports[lo:lo + step]
        eigs = np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])
        lmin[lo:lo + step], lmax[lo:lo + step] = eigs[:, 0], eigs[:, -1]
    return lmin, lmax


def _gram(m: MeasurementMatrix, cols=slice(None)) -> np.ndarray:
    """(G_cols^T G_cols)/k of the raw matrix, all columns by default."""
    if m.normalization != RAW:
        raise InvalidSpecError("pass the raw matrix; division by k is internal")
    g = m.entries[:, cols]
    return g.T @ g / m.k


def gram_extremal_eigs(m: MeasurementMatrix, a: SupportSet) -> tuple[float, float]:
    """Extremal eigenvalues of (G_A^T G_A)/k for the column subset A."""
    if len(a) == 0:
        raise EmptySupportError("support must be nonempty")
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


def _report_from_deviations(sparsity, method, lows, highs, supports, trials=None, n=0):
    """lows/highs are per-support (1 - lmin, lmax - 1); max-reduced, order-free."""
    i_low = int(np.argmax(lows))
    i_high = int(np.argmax(highs))
    tl, tu = float(lows[i_low]), float(highs[i_high])
    return RipReport(m=sparsity, theta_lower=tl, theta_upper=tu,
                     theta=max(tl, tu, 0.0), method=method,
                     witness_min=SupportSet.of(supports[i_low], n),
                     witness_max=SupportSet.of(supports[i_high], n),
                     trials=trials)


def rip_exact(m: MeasurementMatrix, sparsity: int,
              budget: int = 2_000_000) -> RipReport:
    """Exact accuracy at the given sparsity by enumerating all supports."""
    if not (1 <= sparsity <= m.n):
        raise InvalidSpecError("need 1 <= sparsity <= n")
    count = math.comb(m.n, sparsity)
    if count > budget:
        raise BudgetError(
            f"C({m.n},{sparsity}) = {count} supports exceed budget {budget}; "
            "use rip_monte_carlo")
    gram = _gram(m)
    supports = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m.n), sparsity)),
        dtype=np.intp, count=count * sparsity).reshape(count, sparsity)
    lmin, lmax = _extremal_eigs(gram, supports)
    return _report_from_deviations(sparsity, EXACT_METHOD, 1.0 - lmin, lmax - 1.0,
                                   supports, n=m.n)


def fisher_yates_prefix(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """First m entries of a Fisher-Yates shuffle of range(n)."""
    arr = np.arange(n)
    offsets = rng.integers(0, n - np.arange(m))
    for j in range(m):
        swap = j + int(offsets[j])
        arr[j], arr[swap] = arr[swap], arr[j]
    return arr[:m]


def rip_monte_carlo(m: MeasurementMatrix, sparsity: int, trials: int,
                    seed: int) -> RipReport:
    """Sampled lower bound on the exact accuracy over uniform random supports.

    Each trial index owns its own seeded support draw, so results are
    independent of execution order.  Supports go through the same
    eigenvalue kernel as ``rip_exact``, so a run that draws every support
    reproduces the exact theta bit for bit.
    """
    if trials < 1:
        raise InvalidSpecError("trials must be >= 1")
    if not (1 <= sparsity <= m.n):
        raise InvalidSpecError("sparsity exceeds ambient dimension")
    gram = _gram(m)
    draws = [fisher_yates_prefix(philox(seed, "rip-mc", t), m.n, sparsity)
             for t in range(trials)]
    supports = np.sort(np.stack(draws), axis=1)
    lmin, lmax = _extremal_eigs(gram, supports)
    return _report_from_deviations(sparsity, MC_METHOD, 1.0 - lmin, lmax - 1.0, supports,
                                   trials=trials, n=m.n)


@dataclass(frozen=True)
class UupCheck:
    holds: bool
    report: RipReport | None
    support_bound: int
    degenerate: bool = False
    lower_bound_only: bool = False


def check_uup(m: MeasurementMatrix, theta: float, lam: float,
              method: str = EXACT_METHOD, trials: int = 1000,
              seed: int = 0, budget: int = 2_000_000) -> UupCheck:
    """Test the near-isometry property with accuracy theta at oversampling lam.

    Checks that all column subsets of size at most floor(k/lam) deviate by
    at most theta.  floor(k/lam) = 0 is reported as a vacuous pass, not an
    error, because parameter sweeps hit it.
    """
    if not (0.0 < theta < 1.0):
        raise InvalidSpecError("need 0 < theta < 1")
    if lam <= 1.0:
        raise InvalidSpecError("need lam > 1")
    bound = int(m.k / lam)
    if bound == 0:
        return UupCheck(holds=True, report=None, support_bound=0, degenerate=True)
    bound = min(bound, m.n)
    if method == EXACT_METHOD:
        report = rip_exact(m, bound, budget=budget)
        lower_only = False
    elif method == MC_METHOD:
        report = rip_monte_carlo(m, bound, trials, seed)
        lower_only = True
    else:
        raise InvalidSpecError(f"unknown method {method!r}")
    return UupCheck(holds=report.theta <= theta, report=report,
                    support_bound=bound, lower_bound_only=lower_only)


@dataclass(frozen=True)
class NetVerification:
    all_pass: bool
    violations: tuple[tuple[int, float], ...]   # (point index, |deviation|)
    degenerate: bool = False


def verify_on_net(m: MeasurementMatrix, net: Net, theta: float) -> NetVerification:
    """Check | |G~ x| - 1 | <= theta/5 at every net point."""
    if m.normalization != ROW_NORMALIZED:
        raise InvalidSpecError("verify_on_net needs the row-normalized matrix")
    if net.dim != m.n:
        raise InvalidSpecError("net dimension does not match the matrix")
    if len(net) == 0:
        return NetVerification(all_pass=True, violations=(), degenerate=True)
    images = net.points @ m.entries.T
    dev = np.abs(np.linalg.norm(images, axis=1) - 1.0)
    bad = np.nonzero(dev > theta / 5.0)[0]
    return NetVerification(all_pass=bad.size == 0,
                           violations=tuple((int(i), float(dev[i])) for i in bad))
