"""Empirical norm-preservation and tail concentration of |G~ x|^2.

The probability space is over fresh matrices (one per trial), matching
the hypothesis being tested: the row-normalized operator preserves the
norm of each fixed vector in expectation and concentrates around it at
an exponential rate in k.

Matrices are drawn in chunks of ``MATRIX_CHUNK``, each from its own
counter stream, and the chunks run on every core the process may use.
Per-chunk results are combined in chunk order, so reports do not depend
on the core count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import available_cores, blas_threads, parallel_map, philox
from .ensembles import MATRIX_CHUNK, EnsembleSpec, sample_matrix_chunk
from .errors import InvalidSpecError

# Floor for fitted_c0 * alpha_hat^4, calibrated once on the Gaussian
# ensemble at k = n = 16 with 1e5 trials (fitted_c0 = 0.287 against the
# exact chi-square value 0.288, alpha_hat^4 ~= 8.1, product ~= 2.3) and
# frozen with a 2x margin.
C_FLOOR = 1.0

DEFAULT_T_GRID = tuple(round(0.1 * i, 1) for i in range(1, 11))

# grid points with fewer exceedance events than this are excluded from the fit
MIN_EXCEEDANCES = 10


@dataclass(frozen=True)
class TailReport:
    t_grid: tuple[float, ...]
    empirical_tail: tuple[float, ...]
    fitted_c0: float               # +inf sentinel when no exceedances at all
    trials: int
    directions: int
    excluded_t: tuple[float, ...] = ()   # tails too rare to fit (noise guard)

    def to_json(self) -> str:
        return json.dumps({
            "t_grid": list(self.t_grid),
            "empirical_tail": list(self.empirical_tail),
            "fitted_c0": self.fitted_c0 if math.isfinite(self.fitted_c0) else "inf",
            "trials": self.trials,
            "directions": self.directions,
            "excluded_t": list(self.excluded_t),
        })


def _map_chunks(spec: EnsembleSpec, trials: int, seed: int, fn) -> list:
    """fn(lo, block) over the matrix chunks of ``trials`` trials, in chunk order.

    ``lo`` is a chunk's first trial and ``block`` its (count, k, n) stack.
    Each chunk index owns its own counter stream, so the chunks run on
    min(cores, chunks) ``parallel_map`` workers (this thread and helpers
    from the shared pool) at one BLAS thread, and each result depends only
    on its chunk, the same for every core count.
    """
    starts = range(0, trials, MATRIX_CHUNK)

    def one(idx):
        lo = starts[idx]
        return fn(lo, sample_matrix_chunk(spec, seed, idx, min(MATRIX_CHUNK, trials - lo)))

    with blas_threads(1):
        return parallel_map(one, range(len(starts)),
                            threads=min(available_cores(), len(starts)))


def _squared_images(spec: EnsembleSpec, x: np.ndarray, trials: int,
                    seed: int) -> np.ndarray:
    """|G~ x|^2 over ``trials`` fresh matrices drawn from ``spec``'s ensemble."""
    vals = np.empty(trials)

    def chunk(lo, block):
        z = block @ x
        vals[lo:lo + len(block)] = np.sum(z * z, axis=1) / spec.k

    _map_chunks(spec, trials, seed, chunk)
    return vals


def expectation_check(spec: EnsembleSpec, directions: int, trials: int,
                      seed: int, direction_vectors: np.ndarray | None = None) -> float:
    """Max over unit directions of |mean |G~ x|^2 - 1| over fresh matrices.

    Directions are random by default; pass ``direction_vectors`` (columns)
    to test specific ones, e.g. coordinate vectors.  No directions, or
    columns that are zero or not finite, raise InvalidSpecError.
    """
    if trials < 100:
        raise InvalidSpecError("trials must be >= 100")
    if direction_vectors is not None:
        ys = np.asarray(direction_vectors, dtype=float)
        if ys.ndim != 2 or ys.shape[0] != spec.n or ys.shape[1] < 1:
            raise InvalidSpecError(f"direction vectors must be ({spec.n}, d) columns")
        if not np.isfinite(ys).all() or not ys.any(axis=0).all():
            raise InvalidSpecError("direction vectors must be finite and nonzero")
        directions = ys.shape[1]
    elif directions < 1:
        raise InvalidSpecError("directions must be >= 1")
    else:
        rng = philox(seed, "expectation-directions")
        ys = rng.standard_normal((spec.n, directions))
    ys = ys / np.linalg.norm(ys, axis=0)

    def chunk(lo, block):
        z = np.einsum("tkn,nd->tkd", block, ys)
        return np.sum(np.sum(z * z, axis=1) / spec.k, axis=0)

    sums = np.zeros(directions)
    for part in _map_chunks(spec, trials, seed, chunk):   # in chunk order: same bits
        sums += part
    return float(np.max(np.abs(sums / trials - 1.0)))


def tail_profile(spec: EnsembleSpec, x: np.ndarray, trials: int,
                 seed: int, t_grid=DEFAULT_T_GRID) -> TailReport:
    """Empirical tails P(| |G~ x|^2 - |x|^2 | >= t |x|^2) and the fitted rate.

    fitted_c0 is the largest c with tail(t) <= exp(-c t^2 k) across grid
    points that saw at least MIN_EXCEEDANCES events; rarer points are
    excluded (recorded) to avoid log-of-noise instability.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n,):
        raise InvalidSpecError(f"x must have shape ({spec.n},), got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidSpecError("x must be finite")
    if not np.any(x):
        raise InvalidSpecError("x must be nonzero")
    if trials < 1:
        raise InvalidSpecError("trials must be >= 1")
    if any(not (0.0 < t <= 1.0) for t in t_grid):
        raise InvalidSpecError("t grid must lie in (0, 1]")
    xsq = float(x @ x)
    vals = _squared_images(spec, x, trials, seed)
    dev = np.abs(vals - xsq) / xsq
    tails, rates, excluded = [], [], []
    for t in t_grid:
        count = int(np.sum(dev >= t))
        tail = count / trials
        tails.append(tail)
        if count >= MIN_EXCEEDANCES:
            rates.append(-math.log(tail) / (t * t * spec.k))
        elif count > 0:
            excluded.append(t)
    fitted = min(rates) if rates else math.inf
    return TailReport(t_grid=tuple(t_grid), empirical_tail=tuple(tails),
                      fitted_c0=fitted, trials=trials, directions=1,
                      excluded_t=tuple(excluded))


def bernstein_psi2_consistency(alpha_hat: float, report: TailReport,
                               k: int) -> bool:
    """Check the fitted rate against the psi2-driven floor C_FLOOR / alpha^4."""
    if math.isinf(report.fitted_c0):
        return True
    if alpha_hat <= 0:
        raise InvalidSpecError("alpha_hat must be positive")
    return report.fitted_c0 >= C_FLOOR / alpha_hat ** 4
