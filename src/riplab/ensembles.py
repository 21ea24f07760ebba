"""Isotropic subgaussian measurement ensembles with counter-based seeding.

Rows are independent copies of an isotropic random vector with unit
coordinate variance, so G satisfies E|Gx|^2 = k|x|^2.  G is a matrix's
only form; the functions that need G~ = G/sqrt(k) form it themselves.

Row i of a matrix is the start of the Philox stream keyed by (seed, i).
A call keeps one bit generator and re-keys it row by row, stacks the
rows' raws into blocks and runs the per-kind transform (Box-Muller, sign
bit or support lookup) once over each block.  The transform works entry
by entry, so row i stays a pure function of (seed, i): rows can be drawn
in any order or subset, and in blocks of any size, with identical bits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._util import atomic_write_bytes, derive_seed, philox, rekey
from .errors import InvalidSpecError
from .geometry import row_norms

KINDS = ("gaussian", "bernoulli", "uniform-sphere-row", "custom-bounded-symmetric")

_BINARY_MAGIC = b"RIPL"
_BINARY_VERSION = 1

# 53-bit mantissa scaling for raw u64 -> double in [0,1)
_INV53 = 2.0 ** -53

# Entries per block of rows in sample_rows (at most 2^20 raws, 8 MiB, at two
# raws an entry); a row longer than this is a block of its own.
_BLOCK_ENTRIES = 1 << 19


@dataclass(frozen=True)
class EnsembleSpec:
    """Parameters identifying one random measurement matrix.

    ``support`` is only meaningful for kind ``custom-bounded-symmetric``:
    a tuple of (value, probability) atoms that must be symmetric about 0
    and have unit variance, so rows stay isotropic.
    """

    kind: str
    n: int
    k: int
    seed: int
    support: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpecError(f"unknown ensemble kind {self.kind!r}")
        if not (1 <= self.k <= self.n):
            raise InvalidSpecError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not (0 <= self.seed < 2**64):
            raise InvalidSpecError("seed must fit in an unsigned 64-bit integer")
        if self.kind == "custom-bounded-symmetric":
            if not self.support:
                raise InvalidSpecError("custom-bounded-symmetric requires a support")
            _validate_symmetric_support(self.support)
        elif self.support is not None:
            raise InvalidSpecError(f"kind {self.kind!r} does not take a support")


def _validate_symmetric_support(support: tuple[tuple[float, float], ...]) -> None:
    values = [float(v) for v, _ in support]
    probs = [float(p) for _, p in support]
    if any(p <= 0 for p in probs):
        raise InvalidSpecError("support probabilities must be positive")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise InvalidSpecError("support probabilities must sum to 1")
    atoms = dict(zip(values, probs))
    if len(atoms) != len(values):
        raise InvalidSpecError("duplicate support values")
    for v, p in atoms.items():
        if abs(atoms.get(-v, -1.0) - p) > 1e-12:
            raise InvalidSpecError("support must be symmetric about 0")
    var = sum(p * v * v for v, p in atoms.items())
    if abs(var - 1.0) > 1e-9:
        raise InvalidSpecError(f"support variance must be 1, got {var}")


@dataclass(frozen=True)
class MeasurementMatrix:
    entries: np.ndarray
    spec: EnsembleSpec
    # the Monte Carlo support stream of the last (trials, seed) drawn on this
    # matrix, as [(trials, seed, rows)]; see spectral._mc_rows
    _mc_stream: list = field(default_factory=list, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class Psi2Estimate:
    alpha_hat: float             # NaN, not subgaussian, when a projection is not finite
    isotropy_max_deviation: float


def _stacked_rows(bg: np.random.Philox, seed: int, rows, count: int) -> np.ndarray:
    """``count`` raw u64 values: an equal share from the start of each row's stream.

    Row r's share is the first raws of the Philox stream keyed by (seed, r),
    so it is a pure function of (seed, r); ``bg`` is re-keyed for each row.
    """
    per_row = count // len(rows)
    return np.concatenate([rekey(bg, seed, r).random_raw(per_row) for r in rows])


def _box_muller(raw: np.ndarray) -> np.ndarray:
    """One standard normal per raw pair; entry j uses raws 2j and 2j+1.

    Overwrites ``raw``.  The raws are shifted once, each half is converted
    once into a contiguous array (the transcendental ufuncs take a slow path
    on strided input), and every later step runs in place.  With s the top
    53 bits, (s + 1) 2^-53 = s 2^-53 + 2^-53 exactly.
    """
    np.right_shift(raw, 11, out=raw)
    u1 = raw[0::2].astype(np.float64)
    u1 *= _INV53
    u1 += _INV53                                   # (0, 1]
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 = raw[1::2].astype(np.float64)
    u2 *= _INV53                                   # [0, 1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def _entries(kind: str, draw, count: int,
             support: tuple[tuple[float, float], ...] | None) -> np.ndarray:
    """``count`` ensemble entries from ``draw(c)``, a source of c raw u64 values.

    uniform-sphere-row entries come out Gaussian; callers scale each row.
    """
    if kind == "bernoulli":
        return 1.0 - 2.0 * (draw(count) & np.uint64(1)).astype(np.float64)
    if kind in ("gaussian", "uniform-sphere-row"):
        return _box_muller(draw(2 * count))
    if kind == "custom-bounded-symmetric":
        values = np.array([v for v, _ in support])
        cum = np.cumsum([p for _, p in support])
        cum[-1] = 1.0
        u = np.right_shift(draw(count), 11).astype(np.float64) * _INV53
        return values[np.searchsorted(cum, u, side="right")]
    raise InvalidSpecError(f"unknown ensemble kind {kind!r}")  # pragma: no cover


def sample_rows(kind: str, n: int, seed: int, rows: range | list,
                support: tuple[tuple[float, float], ...] | None = None) -> np.ndarray:
    """Draw the requested rows of the ensemble; any order, any subset."""
    out = np.empty((len(rows), n))
    bg = np.random.Philox()
    step = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        draw = partial(_stacked_rows, bg, seed, block)
        out[lo:lo + len(block)] = _entries(kind, draw, len(block) * n,
                                           support).reshape(-1, n)
    if kind == "uniform-sphere-row":
        out *= (math.sqrt(n) / row_norms(out))[:, None]
    return out


MATRIX_CHUNK = 256


def sample_matrix_chunk(spec: EnsembleSpec, seed: int, index: int,
                        count: int = MATRIX_CHUNK) -> np.ndarray:
    """(count, k, n) stack of fresh ensemble realizations for one chunk index.

    Bulk sampler for Monte-Carlo loops over matrices: each chunk index owns
    its own counter stream, so chunks are independent, order-free, and
    deterministic in (seed, index).  Unlike ``generate``, rows are not
    individually addressable.
    """
    n, k = spec.n, spec.k
    bg = np.random.Philox(key=np.array([derive_seed(seed, "matrices"), index],
                                       dtype=np.uint64))
    block = _entries(spec.kind, bg.random_raw, count * k * n, spec.support)
    block = block.reshape(count, k, n)
    if spec.kind == "uniform-sphere-row":
        block *= math.sqrt(n) / np.linalg.norm(block, axis=2, keepdims=True)
    return block


def generate(spec: EnsembleSpec) -> MeasurementMatrix:
    """Realize the k x n measurement matrix for ``spec``.

    Deterministic: row i is a pure function of (spec.seed, i), so rows can
    be produced independently and in any order with identical bits.
    """
    entries = sample_rows(spec.kind, spec.n, spec.seed, range(spec.k), spec.support)
    return MeasurementMatrix(entries=entries, spec=spec)


def _psi2_of_samples(z: np.ndarray) -> float:
    """Smallest s with mean exp(z^2/s^2) <= 2, by bisection.

    The bracket [max|z|/sqrt(700), 2 max|z|] always contains the root:
    at the lower end a single sample contributes exp(700) to the mean,
    at the upper end every term is at most exp(1/4) < 2.
    """
    peak = float(np.max(np.abs(z)))
    if peak == 0.0:
        return 0.0
    z2 = z * z
    lo, hi = peak / math.sqrt(700.0), 2.0 * peak

    def excess(s: float) -> float:
        return float(np.mean(np.exp(np.minimum(z2 / (s * s), 700.0)))) - 2.0

    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def estimate_psi2(spec: EnsembleSpec, directions: int, samples: int) -> Psi2Estimate:
    """Estimate the psi2 constant and isotropy defect over random unit directions."""
    if directions < 1:
        raise InvalidSpecError("directions must be >= 1")
    if samples < 100:
        raise InvalidSpecError("samples must be >= 100")
    x = sample_rows(spec.kind, spec.n, derive_seed(spec.seed, "psi2-rows"),
                    range(samples), spec.support)
    rng = philox(spec.seed, "psi2-directions")
    ys = rng.standard_normal((spec.n, directions))
    ys /= np.linalg.norm(ys, axis=0)
    z = x @ ys  # samples x directions
    if not np.all(np.isfinite(z)):
        return Psi2Estimate(math.nan, math.nan)
    alphas = [_psi2_of_samples(z[:, d]) for d in range(directions)]
    iso_dev = float(np.max(np.abs(np.mean(z * z, axis=0) - 1.0)))
    return Psi2Estimate(alpha_hat=float(max(alphas)), isotropy_max_deviation=iso_dev)


def matrix_to_csv(m: MeasurementMatrix) -> str:
    """Row-major CSV with 17 significant digits (round-trip exact for f64)."""
    lines = [",".join(format(v, ".17g") for v in row) for row in m.entries]
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    try:
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in text.strip().splitlines() if line.strip()])
    except ValueError as exc:     # a non-numeric field or ragged rows
        raise InvalidSpecError(f"malformed matrix CSV: {exc}") from exc
    if rows.ndim != 2:
        raise InvalidSpecError("matrix CSV has no rows")
    return rows


def matrix_to_binary(m: MeasurementMatrix) -> bytes:
    """Magic "RIPL", version byte, little-endian u32 dims, f64 entries."""
    header = _BINARY_MAGIC + struct.pack("<BII", _BINARY_VERSION, m.k, m.n)
    return header + np.ascontiguousarray(m.entries, dtype="<f8").tobytes()


def matrix_from_binary(data: bytes) -> np.ndarray:
    if data[:4] != _BINARY_MAGIC or len(data) < 13:
        raise InvalidSpecError("bad magic bytes or a short header; not a riplab matrix file")
    version, k, n = struct.unpack("<BII", data[4:13])
    if version != _BINARY_VERSION:
        raise InvalidSpecError(f"unsupported matrix format version {version}")
    body = np.frombuffer(data[13:], dtype="<f8")
    if body.size != k * n:
        raise InvalidSpecError("matrix payload size does not match header dims")
    return body.reshape(k, n).copy()


def write_matrix(path, m: MeasurementMatrix, fmt: str = "binary") -> None:
    if fmt == "binary":
        atomic_write_bytes(path, matrix_to_binary(m))
    elif fmt == "csv":
        atomic_write_bytes(path, matrix_to_csv(m).encode())
    else:
        raise InvalidSpecError(f"unknown matrix format {fmt!r}")
