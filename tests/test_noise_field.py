import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from levyheat.noise_field import (
    ROW_BLOCK,
    _E2,
    _ndtri,
    _raw_to_normal,
    noise_rows,
)
from levyheat.solver import BATCH

N_REPS = 10_000


def whole_lattice(dt, dx, nt, nx, seed):
    """The (nt, nx) lattice of one seed from one draw of nt nx raw words,
    converted at once: the reference noise_rows must match in every
    batch, start row and refill size."""
    raw = np.random.Philox(key=seed).random_raw(nt * nx)
    return _raw_to_normal(raw, math.sqrt(dt * dx)).reshape(nt, nx)


def streamed(dt, dx, nx, seeds, start, stop):
    """noise_rows as one (stop - start, len(seeds), nx) array."""
    return np.array([row.copy() for row in
                     noise_rows(dt, dx, nx, seeds, start, stop)])


@pytest.fixture(scope="module")
def replicas():
    """(N_REPS, 20, 16) block of small lattices, one per seed, from one
    stream."""
    return streamed(0.05, 0.25, 16, range(N_REPS), 0, 20).swapaxes(0, 1)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = streamed(0.1, 0.2, 5, [42], 0, 8)
        b = streamed(0.1, 0.2, 5, [42], 0, 8)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = streamed(0.1, 0.2, 5, [42], 0, 8)
        b = streamed(0.1, 0.2, 5, [43], 0, 8)
        assert not np.array_equal(a, b)

    def test_streaming_matches_matrix(self):
        full = whole_lattice(0.1, 0.2, 7, 13, seed=99)
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
        full = np.array([whole_lattice(0.1, 0.2, stop, nx, s)
                         for s in seeds])
        got = streamed(0.1, 0.2, nx, seeds, start, stop)
        assert np.array_equal(got, full[:, start:].swapaxes(0, 1))

    def test_longer_run_shares_prefix(self):
        # counter addressing: extending a stream must not disturb earlier
        # rows, which are the head of the seed's whole lattice
        short = streamed(0.1, 0.2, 13, [99], 0, 7)[:, 0]
        long = streamed(0.1, 0.2, 13, [99], 0, 9)[:, 0]
        assert np.array_equal(long[:7], short)
        assert np.array_equal(long, whole_lattice(0.1, 0.2, 9, 13, seed=99))


class TestStatistics:
    def test_cell_variance(self):
        # 1e6 cells; sample variance of iid normals has SE sigma^2 sqrt(2/N)
        cells = streamed(0.2, 0.05, 1000, [7], 0, 1000)
        target = 0.2 * 0.05
        three_se = 3.0 * target * np.sqrt(2.0 / cells.size)
        assert abs(cells.var() - target) < three_se
        assert abs(cells.mean()) < 3.0 * np.sqrt(target / cells.size)

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

    def test_raw_to_normal_converts_in_place(self):
        # a whole 32 MiB buffer of raw words becomes its own float64 view,
        # through one 1 MiB scratch
        raw = np.random.Philox(key=3).random_raw(1 << 22)
        ref = _raw_to_normal(raw[:4096].copy(), 0.5)
        tracemalloc.start()
        try:
            got = _raw_to_normal(raw, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(got, raw) and got.dtype == np.float64
        assert np.array_equal(got[:4096], ref)
        assert peak < 0.05 * raw.nbytes

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
