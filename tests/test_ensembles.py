import hashlib
import math

import numpy as np
import pytest

from riplab import ensembles
from riplab.ensembles import (EnsembleSpec, estimate_psi2, generate, matrix_from_binary,
                              matrix_from_csv, matrix_to_binary, matrix_to_csv,
                              sample_matrix_chunk, sample_rows)
from riplab.errors import InvalidSpecError

BERNOULLI_PSI2 = 1.0 / math.sqrt(math.log(2.0))      # solve exp(1/s^2) = 2
GAUSSIAN_PSI2 = math.sqrt(8.0 / 3.0)                 # solve (1-2/s^2)^(-1/2) = 2

THREE_POINT = ((-math.sqrt(2.0), 0.25), (0.0, 0.5), (math.sqrt(2.0), 0.25))

ALL_SPECS = [
    EnsembleSpec("gaussian", n=16, k=8, seed=5),
    EnsembleSpec("bernoulli", n=16, k=8, seed=5),
    EnsembleSpec("uniform-sphere-row", n=16, k=8, seed=5),
    EnsembleSpec("custom-bounded-symmetric", n=16, k=8, seed=5, support=THREE_POINT),
]


def test_generate_deterministic_and_sign_valued():
    spec = EnsembleSpec("bernoulli", n=4, k=2, seed=7)
    a = generate(spec)
    b = generate(spec)
    assert a.entries.shape == (2, 4)
    assert np.array_equal(a.entries, b.entries)
    assert set(np.unique(a.entries)) <= {-1.0, 1.0}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_rows_depend_only_on_seed_and_index(spec):
    full = generate(spec).entries
    some = sample_rows(spec.kind, spec.n, spec.seed, [6, 1, 3], spec.support)
    assert np.array_equal(some, full[[6, 1, 3]])


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_rows_do_not_depend_on_blocking(spec, monkeypatch):
    # blocks of 3 rows: 8 matrix rows make blocks of 3, 3 and 2
    whole = generate(spec).entries.tobytes()
    psi2 = estimate_psi2(spec, 3, 100)
    monkeypatch.setattr(ensembles, "_BLOCK_ENTRIES", 3 * spec.n)
    assert generate(spec).entries.tobytes() == whole
    assert estimate_psi2(spec, 3, 100) == psi2


def test_gaussian_long_row_moments():
    row = generate(EnsembleSpec("gaussian", n=1000, k=1, seed=1)).entries[0]
    assert abs(row.mean()) < 0.1
    assert abs(row.var() - 1.0) < 0.15


def test_all_sign_matrices_equidistributed():
    # n=k=2: the 16 sign patterns must each appear with frequency 1/16 +- 0.02
    counts = {}
    for seed in range(10_000):
        m = generate(EnsembleSpec("bernoulli", n=2, k=2, seed=seed))
        key = tuple(int(v) for v in m.entries.ravel())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 16
    for c in counts.values():
        assert abs(c / 10_000 - 1.0 / 16.0) < 0.02


@pytest.mark.parametrize("n,k", [(4, 5), (4, 0), (0, 0)])
def test_invalid_dims_rejected(n, k):
    with pytest.raises(InvalidSpecError):
        EnsembleSpec("bernoulli", n=n, k=k, seed=0)


def test_custom_support_validation():
    with pytest.raises(InvalidSpecError):   # asymmetric
        EnsembleSpec("custom-bounded-symmetric", n=4, k=2, seed=0,
                     support=((1.0, 0.5), (-2.0, 0.5)))
    with pytest.raises(InvalidSpecError):   # variance != 1
        EnsembleSpec("custom-bounded-symmetric", n=4, k=2, seed=0,
                     support=((2.0, 0.5), (-2.0, 0.5)))
    with pytest.raises(InvalidSpecError):   # probabilities
        EnsembleSpec("custom-bounded-symmetric", n=4, k=2, seed=0,
                     support=((1.0, 0.7), (-1.0, 0.7)))
    with pytest.raises(InvalidSpecError):   # support on a non-custom kind
        EnsembleSpec("bernoulli", n=4, k=2, seed=0, support=THREE_POINT)


def test_custom_three_point_values():
    spec = EnsembleSpec("custom-bounded-symmetric", n=64, k=8, seed=9,
                        support=THREE_POINT)
    vals = generate(spec).entries
    assert set(np.round(np.unique(vals), 12)) <= set(
        np.round([-math.sqrt(2.0), 0.0, math.sqrt(2.0)], 12))


def test_bernoulli_row_norms_exact():
    m = generate(EnsembleSpec("bernoulli", n=25, k=6, seed=2))
    assert np.allclose(np.linalg.norm(m.entries, axis=1), 5.0, atol=0)


def test_gaussian_row_square_norm_chi2_mean():
    # squared row norm is chi2_n: mean n, sd sqrt(2n); average of `trials`
    # rows must sit within 4 standard errors
    n, trials = 32, 400
    rows = sample_rows("gaussian", n, 11, range(trials))
    mean = float(np.sum(rows * rows, axis=1).mean())
    assert abs(mean - n) < 4.0 * math.sqrt(2.0 * n / trials)


def test_sphere_rows_have_norm_sqrt_n():
    m = generate(EnsembleSpec("uniform-sphere-row", n=9, k=5, seed=4))
    assert np.allclose(np.linalg.norm(m.entries, axis=1), 3.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_isotropy_over_random_directions(spec):
    samples = 30_000
    x = sample_rows(spec.kind, spec.n, 77, range(samples), spec.support)
    rng = np.random.default_rng(123)
    for _ in range(20):
        y = rng.standard_normal(spec.n)
        y /= np.linalg.norm(y)
        z = x @ y
        # tolerance constant fitted once at 1.5x the 5/sqrt(samples) scale
        assert abs(float(np.mean(z * z)) - 1.0) <= 1.5 * 5.0 / math.sqrt(samples)


def test_psi2_bernoulli_closed_form():
    # along a coordinate the marginal is exactly +-1: psi2 = 1/sqrt(ln 2)
    est = estimate_psi2(EnsembleSpec("bernoulli", n=1, k=1, seed=3),
                        directions=4, samples=5000)
    assert abs(est.alpha_hat - BERNOULLI_PSI2) < 1e-9


def test_psi2_gaussian_closed_form():
    est = estimate_psi2(EnsembleSpec("gaussian", n=16, k=8, seed=3),
                        directions=8, samples=30_000)
    assert abs(est.alpha_hat - GAUSSIAN_PSI2) < 0.1 * GAUSSIAN_PSI2


def test_psi2_isotropy_deviation_small():
    est = estimate_psi2(EnsembleSpec("gaussian", n=16, k=8, seed=3),
                        directions=20, samples=100_000)
    assert est.isotropy_max_deviation <= 0.05


def test_sample_matrix_chunk_deterministic_and_isotropic():
    spec = EnsembleSpec("bernoulli", n=8, k=4, seed=21)
    a = sample_matrix_chunk(spec, 5, 0, 16)
    b = sample_matrix_chunk(spec, 5, 0, 16)
    assert np.array_equal(a, b)
    assert a.shape == (16, 4, 8)
    assert set(np.unique(a)) <= {-1.0, 1.0}


# sha256 of the f64 bytes of generate(spec) and sample_matrix_chunk(spec, 5, 3, 8)
# at n=64, k=32, seed=5: any change to a per-kind transform shows up here.
GOLDEN_SHA256 = {
    "gaussian": ("5828e59582415fcbb7128c931b70186bfaa87b4b4919abadd958559ec2542d7f",
                 "c8213a54deacc94545e5a852b1121a23f298224ea7215bcb73a461b40ee3835b"),
    "bernoulli": ("e957f9619c03bed5fd28d24278bbac0b39610c82999bb589d7c3098088e1887d",
                  "cd0d049b627f7a07829feae541d278b2e1179edbbdf55891e3a0de4f4be73949"),
    "uniform-sphere-row": (
        "4a3e83e1daf85ff02af06419afe426690bab00146b9f6789e575d04b8f698762",
        "e7f239b6fa4ebb61de6645a4fa6d1567a277d8c42b7ebb9036c0d17d14d30167"),
    "custom-bounded-symmetric": (
        "485e8111541e1fa5277d662df6d4e918b5872f83437e289b42d2fee0617669ca",
        "6785ef6a51cc5796cfc95b9b3854d9fde3387152f6dcbd000d9dd1f354beb02b"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
def test_sampler_bytes_golden(kind):
    support = THREE_POINT if kind == "custom-bounded-symmetric" else None
    spec = EnsembleSpec(kind, n=64, k=32, seed=5, support=support)
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                for a in (generate(spec).entries, sample_matrix_chunk(spec, 5, 3, 8)))
    assert got == GOLDEN_SHA256[kind]


def test_matrix_csv_round_trip_exact():
    m = generate(EnsembleSpec("gaussian", n=7, k=3, seed=13))
    back = matrix_from_csv(matrix_to_csv(m))
    assert np.array_equal(back, m.entries)


def test_matrix_binary_round_trip_and_header():
    m = generate(EnsembleSpec("gaussian", n=7, k=3, seed=13))
    blob = matrix_to_binary(m)
    assert blob[:4] == b"RIPL"
    assert np.array_equal(matrix_from_binary(blob), m.entries)
    with pytest.raises(InvalidSpecError):
        matrix_from_binary(b"XXXX" + blob[4:])
    with pytest.raises(InvalidSpecError):
        matrix_from_binary(blob[:-8])
    with pytest.raises(InvalidSpecError):
        matrix_from_binary(blob[:12])          # a header cut short


@pytest.mark.parametrize("text", ["", "\n\n", "1,2\n3\n", "1,abc\n", "1,,2\n"],
                         ids=["empty", "blank", "ragged", "non-numeric", "empty-field"])
def test_matrix_from_csv_rejects_malformed_text(text):
    with pytest.raises(InvalidSpecError):
        matrix_from_csv(text)


def test_entries_immutable():
    m = generate(EnsembleSpec("bernoulli", n=4, k=2, seed=7))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0
