"""Compiled scatter-plan engine: bit-identity, caches, stats, lanes.

Covers the `slice_and_dice_compiled` engine (`repro.core.compiled`) and
the satellite fixes that ride with it: true-LRU table-cache eviction,
minimal-dtype tile tables + `table_bytes`, and per-call (not stale)
cache events on interleaved grid/interp traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.jit
from repro.core import CompiledSliceAndDiceGridder, SliceAndDiceGridder
from repro.gridding import GriddingSetup, make_gridder
from repro.kernels import KernelLUT, beatty_kernel
from repro.robustness import inject_faults
from tests.conftest import (
    random_samples,
    reverse_unprobed_spokes,
    sampled_probe_key,
)

#: a coordinate whose window-shifted value (shift W/2 = 3 at W = 6) is
#: 4 - 2**-51: the last candidate column's ``(W-1) + frac`` rounds to
#: exactly ``W`` and fails the boundary check ``fwd < W``
EDGE = 1.0 - 2.0 ** -51

def setup_3d() -> GriddingSetup:
    return GriddingSetup((16, 16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))


def random_grid_stack(rng, k, grid_shape):
    return rng.standard_normal((k,) + grid_shape) + 1j * rng.standard_normal(
        (k,) + grid_shape
    )


# ----------------------------------------------------------------------
# bit-identity to the serial engine (the numerical contract)
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_grid_bit_identical_2d(self, small_setup, rng):
        coords, values = random_samples(rng, 400, small_setup.grid_shape)
        ser = SliceAndDiceGridder(small_setup)
        com = CompiledSliceAndDiceGridder(small_setup)
        assert np.array_equal(com.grid(coords, values), ser.grid(coords, values))
        # second call exercises the plan-hit path — still bit-identical
        assert np.array_equal(com.grid(coords, values), ser.grid(coords, values))

    def test_grid_bit_identical_3d(self, rng):
        setup = setup_3d()
        coords, values = random_samples(rng, 200, setup.grid_shape)
        ser = SliceAndDiceGridder(setup)
        com = CompiledSliceAndDiceGridder(setup)
        assert np.array_equal(com.grid(coords, values), ser.grid(coords, values))

    def test_grid_batch_bit_identical(self, small_setup, rng):
        coords, _ = random_samples(rng, 300, small_setup.grid_shape)
        stack = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
        ser = SliceAndDiceGridder(small_setup)
        com = CompiledSliceAndDiceGridder(small_setup)
        assert np.array_equal(
            com.grid_batch(coords, stack), ser.grid_batch(coords, stack)
        )

    def test_interp_bit_identical_2d(self, small_setup, rng):
        coords, _ = random_samples(rng, 400, small_setup.grid_shape)
        grid = random_grid_stack(rng, 1, small_setup.grid_shape)[0]
        ser = SliceAndDiceGridder(small_setup)
        com = CompiledSliceAndDiceGridder(small_setup)
        assert np.array_equal(com.interp(grid, coords), ser.interp(grid, coords))
        assert np.array_equal(com.interp(grid, coords), ser.interp(grid, coords))

    def test_interp_batch_bit_identical_3d(self, rng):
        setup = setup_3d()
        coords, _ = random_samples(rng, 150, setup.grid_shape)
        gstack = random_grid_stack(rng, 3, setup.grid_shape)
        ser = SliceAndDiceGridder(setup)
        com = CompiledSliceAndDiceGridder(setup)
        assert np.array_equal(
            com.interp_batch(gstack, coords), ser.interp_batch(gstack, coords)
        )

    @pytest.mark.parametrize("ndim", (2, 3))
    def test_rounding_edge_bit_identical(self, rng, ndim):
        """At the ``(W-1) + frac -> W`` rounding edge the compile takes
        the generator's compressed path; both directions must still
        match the serial engine, which drops the same entries."""
        shape = (32, 32) if ndim == 2 else (16, 16, 16)
        setup = GriddingSetup(shape, KernelLUT(beatty_kernel(6, 2.0), 64))
        m = 40
        coords = rng.uniform(0, shape[0], (m, ndim))
        coords[::7, 0] = EDGE     # edge on the first axis
        coords[3::7, -1] = EDGE   # edge on the last axis
        coords[5] = EDGE          # edge on every axis
        stack = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        gstack = random_grid_stack(rng, 3, shape)
        ser = SliceAndDiceGridder(setup)
        com = CompiledSliceAndDiceGridder(setup)
        assert np.array_equal(com.grid(coords, stack[0]), ser.grid(coords, stack[0]))
        assert com.stats.plan_nnz < m * setup.width ** ndim  # compressed
        assert np.array_equal(
            com.grid_batch(coords, stack), ser.grid_batch(coords, stack)
        )
        assert np.array_equal(
            com.interp(gstack[0], coords), ser.interp(gstack[0], coords)
        )
        assert np.array_equal(
            com.interp_batch(gstack, coords), ser.interp_batch(gstack, coords)
        )

    def test_address_trace_matches_serial(self, small_setup, rng):
        coords, _ = random_samples(rng, 100, small_setup.grid_shape)
        ser = SliceAndDiceGridder(small_setup)
        com = CompiledSliceAndDiceGridder(small_setup)
        assert np.array_equal(com.address_trace(coords), ser.address_trace(coords))


class TestCsrBackend:
    def test_csr_allclose_both_directions(self, small_setup, rng):
        coords, values = random_samples(rng, 400, small_setup.grid_shape)
        gstack = random_grid_stack(rng, 3, small_setup.grid_shape)
        ser = SliceAndDiceGridder(small_setup)
        csr = CompiledSliceAndDiceGridder(small_setup)
        # the sparse kernels keep the serial engine's summation order
        assert np.array_equal(csr.grid(coords, values), ser.grid(coords, values))
        assert np.array_equal(
            csr.interp_batch(gstack, coords), ser.interp_batch(gstack, coords)
        )

    def test_csr_matrix_has_no_duplicates(self, tiny_setup, rng):
        # W <= T guarantees unique (sample, row) pairs, so summing
        # duplicates must not merge anything
        coords, _ = random_samples(rng, 100, tiny_setup.grid_shape)
        com = CompiledSliceAndDiceGridder(tiny_setup)
        plan, _ = com._fetch_plan(tiny_setup.check_coords(coords))
        merged = plan.matrix.copy()
        merged.sum_duplicates()
        assert merged.nnz == plan.nnz


def wide_range_stack(rng, k, m):
    """``(k, 2m)`` values spanning 1e-150..1e150 whose second half
    exactly cancels the first (``v`` then ``-v``)."""
    mags = 10.0 ** rng.uniform(-150, 150, (k, m))
    v = mags * np.exp(2j * np.pi * rng.uniform(size=(k, m)))
    return np.concatenate([v, -v], axis=1)


def cancelling_samples(rng, k, m, grid_shape):
    """Coordinates where every point appears twice, carrying ``v`` and
    ``-v``, shuffled so the pairs land far apart in sample order."""
    coords = rng.uniform(0, 1, (m, len(grid_shape))) * np.asarray(grid_shape)
    perm = rng.permutation(2 * m)
    return np.concatenate([coords, coords])[perm], wide_range_stack(rng, k, m)[:, perm]


def wide_range_grids(rng, k, grid_shape):
    """``(k,) + grid_shape`` grids spanning 1e-150..1e150 whose odd
    planes along axis 0 negate the even ones."""
    half = (grid_shape[0] // 2,) + tuple(grid_shape[1:])
    v = wide_range_stack(rng, k, int(np.prod(half)) // 2)
    stack = np.empty((k,) + tuple(grid_shape), dtype=complex)
    stack[:, 0::2] = v.reshape((k,) + half)
    stack[:, 1::2] = -stack[:, 0::2]
    return stack


class TestSparseKernelBitIdentity:
    """The NumPy lane's sparse kernels sum in the serial engine's order
    with the same rounding: values over 300 decades plus exact
    cancellations make any reordering or fused multiply-add visible."""

    @pytest.mark.parametrize("ndim", (2, 3))
    def test_wide_range_bit_identical(self, small_setup, rng, ndim):
        setup = small_setup if ndim == 2 else setup_3d()
        coords, stack = cancelling_samples(rng, 3, 150, setup.grid_shape)
        gstack = wide_range_grids(rng, 3, setup.grid_shape)
        ser = SliceAndDiceGridder(setup)
        com = CompiledSliceAndDiceGridder(setup)
        assert np.array_equal(com.grid(coords, stack[0]), ser.grid(coords, stack[0]))
        assert np.array_equal(com.grid_batch(coords, stack), ser.grid_batch(coords, stack))
        assert np.array_equal(com.interp(gstack[0], coords), ser.interp(gstack[0], coords))
        assert np.array_equal(
            com.interp_batch(gstack, coords), ser.interp_batch(gstack, coords)
        )
        assert com.stats.exec_lane == "numpy"

    @pytest.mark.parametrize("ndim", (2, 3))
    def test_complex64_accumulates_in_float32(self, rng, ndim):
        grid_shape = (32, 32) if ndim == 2 else (16, 16, 16)
        setup = GriddingSetup(
            grid_shape, KernelLUT(beatty_kernel(4, 2.0), 32), dtype=np.complex64
        )
        coords, values = random_samples(rng, 300, grid_shape)
        gstack = random_grid_stack(rng, 3, grid_shape)
        stack = np.stack([values, 2 * values, -values])
        ser = SliceAndDiceGridder(setup)
        com = CompiledSliceAndDiceGridder(setup)
        grids = com.grid_batch(coords, stack)
        samples = com.interp_batch(gstack, coords)
        plan, _ = com._fetch_plan(setup.check_coords(coords))
        assert plan.matrix.data.dtype == np.float32
        assert grids.dtype == samples.dtype == np.complex64
        close = dict(rtol=1e-5, atol=1e-5)
        assert np.allclose(grids, ser.grid_batch(coords, stack), **close)
        assert np.allclose(samples, ser.interp_batch(gstack, coords), **close)


# ----------------------------------------------------------------------
# execution lanes: the numba lanes run inside the compiled engine
# ----------------------------------------------------------------------
class TestExecutionLanes:
    def test_injected_jit_fault_demotes_stickily(self, small_setup, rng, monkeypatch):
        """numba "available" (fake module object): the injected
        jit:scatter fault fires before dispatch, the call replays on
        NumPy, and the lane never comes back — one "jit" event."""
        monkeypatch.setattr(repro.core.jit, "_numba", object())
        monkeypatch.delenv(repro.core.jit.JIT_DISABLE_ENV, raising=False)
        coords, values = random_samples(rng, 300, small_setup.grid_shape)
        grid = random_grid_stack(rng, 1, small_setup.grid_shape)[0]
        com = CompiledSliceAndDiceGridder(small_setup, lane="numba-serial")
        ref = CompiledSliceAndDiceGridder(small_setup, lane="numpy")
        assert com.degradations == ()
        with inject_faults(jit_errors=1) as inj:
            out = com.grid(coords, values)
            assert inj.jit_errors == 0
        np.testing.assert_allclose(
            out, ref.grid(coords, values), rtol=1e-12, atol=0
        )
        assert com.stats.exec_lane == "numpy"
        assert len(com.stats.degradations) == 1
        # sticky: the fake numba would fail to compile if the lane were
        # retried, which would record a second event
        np.testing.assert_allclose(
            com.interp(grid, coords), ref.interp(grid, coords),
            rtol=1e-12, atol=0,
        )
        assert com.stats.exec_lane == "numpy"
        assert com.stats.degradations == ()
        assert len(com.degradations) == 1
        event = com.degradations[0]
        assert event.component == "jit"
        assert (event.from_stage, event.to_stage) == ("numba-serial", "numpy")
        assert "InjectedFault" in event.reason


# ----------------------------------------------------------------------
# plan cache behaviour and per-call stats
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_miss_then_hit_events(self, small_setup, rng):
        coords, values = random_samples(rng, 200, small_setup.grid_shape)
        com = CompiledSliceAndDiceGridder(small_setup)
        com.grid(coords, values)
        assert (com.stats.cache_misses, com.stats.cache_hits) == (1, 0)
        # the entry generator's select work: W candidates per axis
        w, d = small_setup.width, small_setup.ndim
        assert com.stats.boundary_checks == 200 * w * d
        assert com.stats.lut_lookups == 200 * w * d
        assert com.stats.plan_compile_seconds > 0
        assert com.stats.table_bytes == 0
        assert com.stats.table_build_seconds == 0.0
        com.grid(coords, values)
        assert (com.stats.cache_misses, com.stats.cache_hits) == (0, 1)
        assert com.stats.boundary_checks == 0
        assert com.stats.lut_lookups == 0
        assert com.stats.plan_compile_seconds == 0.0
        # no divergence on the gather: every lane slot does useful work
        assert com.stats.simd_lane_slots == com.stats.simd_active_lanes

    @pytest.mark.parametrize("dtype", (np.complex128, np.complex64))
    def test_plan_is_one_int32_matrix(self, rng, dtype):
        setup = GriddingSetup(
            (32, 32), KernelLUT(beatty_kernel(6, 2.0), 64), dtype=dtype
        )
        coords, _ = random_samples(rng, 200, setup.grid_shape)
        com = CompiledSliceAndDiceGridder(setup)
        plan, hit = com._fetch_plan(setup.check_coords(coords))
        mat = plan.matrix
        assert not hit
        assert mat.shape == (com.layout.n_columns * com.layout.n_tiles, 200)
        assert mat.indices.dtype == mat.indptr.dtype == np.int32
        assert mat.data.dtype == setup.real_dtype
        assert plan.nnz == mat.nnz == 200 * setup.width ** 2
        assert plan.nbytes == (
            mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        )
        # the sample-major copy exists only once asked for, and counts
        by_sample = plan.by_sample()
        assert plan.nbytes == sum(
            a.nbytes
            for m_ in (mat, by_sample)
            for a in (m_.data, m_.indices, m_.indptr)
        )

    def test_plan_nnz_counts_passing_checks(self, tiny_setup, rng):
        # interior samples pass exactly W^d checks per sample
        m, w = 50, tiny_setup.width
        coords = rng.uniform(w, 16 - w, size=(m, 2))
        com = CompiledSliceAndDiceGridder(tiny_setup)
        com.grid(coords, np.ones(m, dtype=complex))
        assert com.stats.plan_nnz == m * w**2
        assert com.stats.interpolations == m * w**2

    def test_grid_and_interp_share_one_plan(self, small_setup, rng):
        coords, values = random_samples(rng, 200, small_setup.grid_shape)
        grid = random_grid_stack(rng, 1, small_setup.grid_shape)[0]
        com = CompiledSliceAndDiceGridder(small_setup)
        com.grid(coords, values)          # compiles
        com.interp(grid, coords)          # must reuse, not recompile
        assert (com.stats.cache_hits, com.stats.cache_misses) == (1, 0)

    def test_invalidate_cache_forces_recompile(self, small_setup, rng):
        coords, values = random_samples(rng, 200, small_setup.grid_shape)
        com = CompiledSliceAndDiceGridder(small_setup)
        com.grid(coords, values)
        com.invalidate_cache()
        com.grid(coords, values)
        assert com.stats.cache_misses == 1

    def test_plan_cache_lru_eviction(self, small_setup, rng):
        com = CompiledSliceAndDiceGridder(small_setup, plan_cache_size=2)
        trajs = [
            random_samples(rng, 50 + i, small_setup.grid_shape)[0]
            for i in range(3)
        ]
        values = [np.ones(50 + i, dtype=complex) for i in range(3)]
        com.grid(trajs[0], values[0])     # miss A
        com.grid(trajs[1], values[1])     # miss B
        com.grid(trajs[0], values[0])     # hit A -> A most recently used
        com.grid(trajs[2], values[2])     # miss C -> evicts B, not A
        com.grid(trajs[0], values[0])
        assert com.stats.cache_hits == 1  # A survived
        com.grid(trajs[1], values[1])
        assert com.stats.cache_misses == 1  # B was evicted

    def test_plan_cache_disabled(self, small_setup, rng):
        coords, values = random_samples(rng, 100, small_setup.grid_shape)
        com = CompiledSliceAndDiceGridder(small_setup, plan_cache_size=0)
        com.grid(coords, values)
        com.grid(coords, values)
        assert com.stats.cache_misses == 1  # recompiled every call

    def test_zero_samples(self, tiny_setup):
        com = CompiledSliceAndDiceGridder(tiny_setup)
        empty = np.zeros((0, 2))
        out = com.grid_batch(empty, np.zeros((2, 0), dtype=complex))
        assert out.shape == (2,) + tiny_setup.grid_shape and not out.any()
        gstack = np.zeros((2,) + tiny_setup.grid_shape, dtype=complex)
        assert com.interp_batch(gstack, empty).shape == (2, 0)
        assert com.address_trace(empty).size == 0


# ----------------------------------------------------------------------
# trajectory identity: a full-content key, never a sampled one
# ----------------------------------------------------------------------
class TestTrajectoryIdentity:
    @staticmethod
    def _trajectories(rng):
        from repro.trajectories import radial_trajectory

        n_readout = 32
        coords = np.mod(radial_trajectory(64, n_readout), 1.0) * 64
        values = rng.standard_normal(coords.shape[0]) + 1j * rng.standard_normal(
            coords.shape[0]
        )
        other, other_values = reverse_unprobed_spokes(coords, n_readout, values)
        # a sampled key cannot tell the two apart
        assert sampled_probe_key(coords) == sampled_probe_key(other)
        assert not np.array_equal(coords, other)
        return coords, values, other, other_values

    @pytest.mark.parametrize("cls", [SliceAndDiceGridder, CompiledSliceAndDiceGridder])
    def test_block_reversed_trajectory_misses(self, rng, cls):
        setup = GriddingSetup((64, 64), KernelLUT(beatty_kernel(6, 2.0), 64))
        coords, values, other, other_values = self._trajectories(rng)
        g = cls(setup)
        g.grid(coords, values)
        assert g.stats.cache_misses == 1
        got = g.grid(other, other_values)
        assert (g.stats.cache_misses, g.stats.cache_hits) == (1, 0)
        assert np.array_equal(got, cls(setup).grid(other, other_values))
        grid = random_grid_stack(rng, 1, setup.grid_shape)[0]
        assert np.array_equal(g.interp(grid, other), cls(setup).interp(grid, other))
        assert g.stats.cache_hits == 1

    def test_same_array_skips_the_hash(self, small_setup, rng, monkeypatch):
        import repro.core.slice_and_dice as snd

        coords, values = random_samples(rng, 100, small_setup.grid_shape)
        com = CompiledSliceAndDiceGridder(small_setup)
        calls = []
        real = snd.trajectory_fingerprint
        monkeypatch.setattr(
            snd, "trajectory_fingerprint", lambda c: calls.append(1) or real(c)
        )
        com.grid(coords, values)
        com.grid(coords, values)
        assert len(calls) == 1               # same object: key reused
        com.grid(coords.copy(), values)      # equal content, new object
        assert len(calls) == 2
        assert com.stats.cache_hits == 1


# ----------------------------------------------------------------------
# satellite: true-LRU table-cache eviction (serial engine)
# ----------------------------------------------------------------------
class TestTableCacheLru:
    def test_rehit_entry_survives_eviction(self, small_setup, rng):
        ser = SliceAndDiceGridder(small_setup, table_cache_size=2)
        trajs = [
            random_samples(rng, 50 + i, small_setup.grid_shape)[0]
            for i in range(3)
        ]
        values = [np.ones(50 + i, dtype=complex) for i in range(3)]
        ser.grid(trajs[0], values[0])     # miss A
        ser.grid(trajs[1], values[1])     # miss B
        ser.grid(trajs[0], values[0])     # hit A — under FIFO this would
        assert ser.stats.cache_hits == 1  # not protect A from eviction
        ser.grid(trajs[2], values[2])     # miss C -> must evict B (LRU)
        ser.grid(trajs[0], values[0])
        assert ser.stats.cache_hits == 1, "re-hit entry was evicted (FIFO?)"
        ser.grid(trajs[1], values[1])
        assert ser.stats.cache_misses == 1


# ----------------------------------------------------------------------
# satellite: minimal-dtype tile tables + table_bytes
# ----------------------------------------------------------------------
class TestTableMemory:
    def test_tiles_use_minimal_dtype(self, small_setup, rng):
        coords, _ = random_samples(rng, 100, small_setup.grid_shape)
        ser = SliceAndDiceGridder(small_setup)
        _, _, _, tiles = ser._per_axis_tables(small_setup.check_coords(coords))
        # 32/8 = 4 tiles per axis -> uint8 suffices
        assert all(t.dtype == np.uint8 for t in tiles)

    def test_table_bytes_reported_and_shrunk(self, small_setup, rng):
        coords, values = random_samples(rng, 100, small_setup.grid_shape)
        ser = SliceAndDiceGridder(small_setup)
        ser.grid(coords, values)
        reported = ser.stats.table_bytes
        assert reported > 0
        t, m, d = ser.tile_size, 100, 2
        # masks (1 B) + weights (8 B) + tiles (1 B, not the historical
        # 8 B int64) per (T, M) entry per axis
        assert reported == d * t * m * (1 + 8 + 1)
        assert reported < d * t * m * (1 + 8 + 8)  # the shrink
        # hits report the resident bytes too
        ser.grid(coords, values)
        assert ser.stats.table_bytes == reported

    def test_minimal_dtype_does_not_change_output(self, rng):
        # 3D with mixed tile counts exercises the int64 promotion in
        # depth arithmetic (NEP 50: small uint * int would overflow)
        setup = setup_3d()
        coords, values = random_samples(rng, 200, setup.grid_shape)
        ser = SliceAndDiceGridder(setup)
        naive = make_gridder("naive", setup)
        np.testing.assert_allclose(
            ser.grid(coords, values), naive.grid(coords, values), atol=1e-12
        )


# ----------------------------------------------------------------------
# satellite: per-call cache events on interleaved grid/interp traffic
# ----------------------------------------------------------------------
class TestInterleavedStats:
    @pytest.mark.parametrize("cls", [SliceAndDiceGridder, CompiledSliceAndDiceGridder])
    def test_interp_after_grid_on_other_trajectory(self, small_setup, rng, cls):
        """Stats must reflect the call that produced them, never a
        previous call's build on a different fingerprint."""
        a, values = random_samples(rng, 120, small_setup.grid_shape)
        b, _ = random_samples(rng, 80, small_setup.grid_shape)
        grid = random_grid_stack(rng, 1, small_setup.grid_shape)[0]
        g = cls(small_setup)
        g.grid(a, values)                      # miss: builds A
        assert g.stats.cache_misses == 1
        g.interp(grid, b)                      # different trajectory: miss
        assert (g.stats.cache_misses, g.stats.cache_hits) == (1, 0)
        assert g.stats.samples_processed == 80
        g.interp(grid, a)                      # back to A: per-call hit
        assert (g.stats.cache_misses, g.stats.cache_hits) == (0, 1)
        assert g.stats.table_build_seconds == 0.0
        g.grid(b, np.ones(80, dtype=complex))  # B again: hit, build=0
        assert (g.stats.cache_misses, g.stats.cache_hits) == (0, 1)
        assert g.stats.table_build_seconds == 0.0


# ----------------------------------------------------------------------
# registry / plan integration
# ----------------------------------------------------------------------
class TestIntegration:
    def test_registered_name(self, tiny_setup):
        g = make_gridder("slice_and_dice_compiled", tiny_setup)
        assert g.name == "slice_and_dice_compiled"

    def test_nufft_plan_roundtrip_matches_serial(self, rng):
        from repro.nufft import NufftPlan
        from repro.trajectories import radial_trajectory

        coords = radial_trajectory(16, 32)
        ser = NufftPlan((16, 16), coords, gridder="slice_and_dice")
        com = NufftPlan((16, 16), coords, gridder="slice_and_dice_compiled")
        img = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        assert np.array_equal(com.forward(img), ser.forward(img))
        ksp = rng.standard_normal(coords.shape[0]) + 1j * rng.standard_normal(
            coords.shape[0]
        )
        assert np.array_equal(com.adjoint(ksp), ser.adjoint(ksp))
        # iteration 2+: zero select work
        com.adjoint(ksp)
        assert com.gridder.stats.boundary_checks == 0
