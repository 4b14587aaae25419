import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from levyheat import AllocationLimit
from levyheat.noise_field import (
    ROW_BLOCK,
    NoiseLattice,
    _E2,
    _ndtri,
    _raw_to_normal,
    noise_rows,
    sample_noise,
)
from levyheat.solver import BATCH

N_REPS = 10_000


@pytest.fixture(scope="module")
def replicas():
    """(N_REPS, 20, 16) block of small lattices, one per seed."""
    nt, nx, dt, dx = 20, 16, 0.05, 0.25
    reps = np.empty((N_REPS, nt, nx))
    for s in range(N_REPS):
        reps[s] = sample_noise(dt, dx, nt, nx, seed=s).increments
    return reps


class TestDeterminism:
    def test_same_seed_identical(self):
        a = sample_noise(0.1, 0.2, 8, 5, seed=42)
        b = sample_noise(0.1, 0.2, 8, 5, seed=42)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seed_differs(self):
        a = sample_noise(0.1, 0.2, 8, 5, seed=42)
        b = sample_noise(0.1, 0.2, 8, 5, seed=43)
        assert not np.array_equal(a.increments, b.increments)

    def test_streaming_matches_matrix(self):
        full = sample_noise(0.1, 0.2, 7, 13, seed=99).increments
        for i in range(7):
            row, = noise_rows(0.1, 0.2, 13, [99], i, i + 1)
            assert np.array_equal(row[0], full[i])

    @pytest.mark.parametrize("b,nx,start,stop", [
        (1, 4099, 5, 40),       # 15 rows per refill
        (BATCH, 1001, 3, 12),   # 2 rows per refill
    ])
    def test_stream_matches_matrix_across_refills(self, b, nx, start, stop):
        assert nx % 4 and ROW_BLOCK // (b * nx) < stop - start
        seeds = range(100, 100 + b)
        full = np.array([sample_noise(0.1, 0.2, stop, nx, s).increments
                         for s in seeds])
        got = np.array([row.copy() for row in
                        noise_rows(0.1, 0.2, nx, seeds, start, stop)])
        assert np.array_equal(got, full[:, start:].swapaxes(0, 1))

    def test_longer_run_shares_prefix(self):
        # counter addressing: extending nt must not disturb earlier rows
        short = sample_noise(0.1, 0.2, 7, 13, seed=99).increments
        long = sample_noise(0.1, 0.2, 9, 13, seed=99).increments
        assert np.array_equal(long[:7], short)


class TestStatistics:
    def test_cell_variance(self):
        # 1e6 cells; sample variance of iid normals has SE sigma^2 sqrt(2/N)
        lat = sample_noise(0.2, 0.05, 1000, 1000, seed=7)
        target = 0.2 * 0.05
        three_se = 3.0 * target * np.sqrt(2.0 / lat.increments.size)
        assert abs(lat.increments.var() - target) < three_se
        assert abs(lat.increments.mean()) < 3.0 * np.sqrt(target / lat.increments.size)

    def test_sheet_covariance(self, replicas):
        # dt=0.05, dx=0.25: W_1(1) spans 20 rows x 4 cols, W_0.5(2) 10 x 8;
        # the sheet covariance is min(1, 0.5) * min(1, 2) = 0.5
        a = replicas[:, :20, :4].sum(axis=(1, 2))
        b = replicas[:, :10, :8].sum(axis=(1, 2))
        prod = a * b
        se = prod.std(ddof=1) / np.sqrt(N_REPS)
        assert abs(prod.mean() - 0.5) < 3.0 * se

    @pytest.mark.parametrize("cell_a,cell_b", [
        ((0, 0), (3, 5)),
        ((0, 0), (17, 2)),
        ((3, 5), (17, 2)),
        ((19, 15), (0, 0)),
    ])
    def test_disjoint_cells_uncorrelated(self, replicas, cell_a, cell_b):
        r = np.corrcoef(replicas[:, cell_a[0], cell_a[1]],
                        replicas[:, cell_b[0], cell_b[1]])[0, 1]
        assert abs(r) < 4.0 / np.sqrt(N_REPS)

    def test_sign_structure(self, replicas):
        # regions on opposite sides of the origin carry independent mass
        left = replicas[:, :, :8].sum(axis=(1, 2))
        right = replicas[:, :, 8:].sum(axis=(1, 2))
        r = np.corrcoef(left, right)[0, 1]
        assert abs(r) < 4.0 / np.sqrt(N_REPS)


def uniforms(raw):
    """The uniforms _raw_to_normal feeds the quantile, from raw words."""
    u = ((raw >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53)


class TestQuantile:
    """The numpy Cephes ndtri against scipy.special.ndtri."""

    @pytest.fixture(scope="class")
    def draws(self):
        raw = np.random.Philox(key=2024).random_raw(1 << 22)
        u = uniforms(raw)
        return u, _raw_to_normal(raw, 1.0), ndtri(u)

    def test_central_branch_is_bit_exact(self, draws):
        u, got, ref = draws
        central = (u > _E2) & (u <= 1.0 - _E2)
        assert central.sum() > 0.7 * u.size
        assert np.array_equal(got[central], ref[central])

    def test_tails_within_five_ulp(self, draws):
        u, got, ref = draws
        tail = (u <= _E2) | (u > 1.0 - _E2)
        assert tail.sum() > 0.25 * u.size
        ulp = np.abs(got[tail] - ref[tail]) / np.spacing(np.abs(ref[tail]))
        assert ulp.max() <= 5.0

    def test_branch_edges_are_bit_exact(self):
        edges = [_E2, 1.0 - _E2, math.exp(-32.0)]
        u = np.array([v for e in edges
                      for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 1.0))])
        got = _ndtri(u.copy(), np.empty_like(u), np.empty((3, u.size)))
        assert np.array_equal(got, ndtri(u))

    def test_sample_noise_converts_in_place(self):
        nt, nx = 1 << 11, 1 << 11
        tracemalloc.start()
        try:
            lat = sample_noise(0.1, 0.2, nt, nx, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * lat.increments.nbytes

    def test_stream_scratch_is_half_a_refill(self):
        # one chunk's stream at the bundled nx: its 61,440-cell refill
        # (0.47 MiB) is converted through a 32,768-cell scratch (1 MiB).
        # Warm, it peaks at 1.58 MiB, and at 2.55 MiB with a refill-sized
        # scratch; the first draw in a process traces 0.7 MiB more.
        for _ in noise_rows(0.01, 1 / 16, 8, range(2), 1, 3):
            pass
        tracemalloc.start()
        try:
            for _ in noise_rows(0.01, 1 / 16, 256, range(BATCH), 1, 50):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * 2 ** 20


class TestLimitsAndIO:
    def test_extreme_raw_words_are_finite(self):
        from scipy.special import ndtri
        raw = np.array([2**64 - 1, 2**64 - 2**11, 2**64 - 2**12, 0],
                       dtype=np.uint64)
        got = _raw_to_normal(raw, 1.0)
        assert np.all(np.isfinite(got))
        # the all-ones 53-bit word maps to the largest double below 1
        assert got[0] == got[1] == ndtri(1.0 - 2.0**-53)
        assert got[2] == ndtri(1.0 - 2.0**-52)
        assert got[3] == ndtri(2.0**-54)

    def test_allocation_limit(self):
        # 2^27 cells, twice MAX_CELLS; the check raises before any draw
        with pytest.raises(AllocationLimit):
            sample_noise(0.1, 0.2, 1 << 13, 1 << 14, seed=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_noise(-0.1, 0.2, 4, 4, seed=1)
        with pytest.raises(ValueError):
            sample_noise(0.1, 0.2, 0, 4, seed=1)
        with pytest.raises(ValueError):
            NoiseLattice(0.1, 0.2, 2, 2, 1, np.zeros((3, 2)))
