"""Integration tests spanning multiple subsystems."""

import numpy as np
import pytest

from repro import (
    JigsawConfig,
    JigsawSimulator,
    NufftPlan,
    golden_angle_radial,
    liver_like_phantom,
    nrmsd_percent,
    shepp_logan_2d,
)
from repro.nudft import nudft_adjoint
from repro.recon import cg_reconstruction, rel_l2_error


class TestFullPipelineAllGridders:
    """Acquire -> reconstruct with every gridder backend; all must give
    the same image."""

    @pytest.fixture(scope="class")
    def acquisition(self):
        n = 32
        phantom = shepp_logan_2d(n).astype(complex)
        coords = golden_angle_radial(64, 64)
        ref_plan = NufftPlan((n, n), coords, gridder="naive")
        return n, phantom, coords, ref_plan.forward(phantom)

    @pytest.mark.parametrize("gridder", ["naive", "binning", "slice_and_dice"])
    def test_cg_recon_identical_across_gridders(self, acquisition, gridder):
        n, phantom, coords, kspace = acquisition
        plan = NufftPlan((n, n), coords, gridder=gridder)
        rec = cg_reconstruction(plan, kspace, n_iterations=8).image
        ref_plan = NufftPlan((n, n), coords, gridder="naive")
        ref = cg_reconstruction(ref_plan, kspace, n_iterations=8).image
        assert rel_l2_error(rec, ref) < 1e-8


class TestJigsawInTheLoop:
    """The hardware simulator as the NuFFT's gridding backend:
    reconstruct through the fixed-point datapath and compare with the
    double-precision pipeline — the Fig. 9 experiment in miniature."""

    def test_fixed_point_recon_close_to_double(self):
        n = 32
        g = 2 * n
        phantom = liver_like_phantom(n, rng=0).astype(complex)
        coords = golden_angle_radial(96, 96)
        ell = 32

        plan = NufftPlan(
            (n, n), coords, width=6, table_oversampling=ell, gridder="naive"
        )
        kspace = plan.forward(phantom)

        # double-precision adjoint recon
        ref_img = plan.adjoint(kspace)

        # fixed-point gridding via JIGSAW, then the same FFT + apod
        cfg = JigsawConfig(grid_dim=g, window_width=6, table_oversampling=ell)
        sim = JigsawSimulator(cfg)
        hw_grid = sim.grid_2d(plan.grid_coords, kspace).grid
        spectrum = np.fft.ifftn(hw_grid) * g * g
        hw_img = plan._fused_crop_deapodize(spectrum)

        assert nrmsd_percent(hw_img, ref_img) < 0.2

    def test_hardware_beats_low_precision_table(self):
        """Fig. 9's qualitative claim: a coarse table (L=32) with
        16-bit fixed point reconstructs within a fraction of a percent
        of the L=1024-class double reference."""
        n = 24
        coords = golden_angle_radial(72, 72)
        phantom = shepp_logan_2d(n).astype(complex)
        fine = NufftPlan((n, n), coords, width=6, table_oversampling=1024,
                         gridder="naive")
        kspace = fine.forward(phantom)
        ref = fine.adjoint(kspace)

        cfg = JigsawConfig(grid_dim=2 * n, window_width=6, table_oversampling=32)
        sim = JigsawSimulator(cfg)
        coarse = NufftPlan((n, n), coords, width=6, table_oversampling=32,
                           gridder="naive")
        hw_grid = sim.grid_2d(coarse.grid_coords, kspace).grid
        spectrum = np.fft.ifftn(hw_grid) * (2 * n) ** 2
        hw_img = coarse._fused_crop_deapodize(spectrum)
        assert nrmsd_percent(hw_img, ref) < 1.0


class TestNufftMatchesNudftThroughRecon:
    def test_adjoint_chain(self):
        rng = np.random.default_rng(0)
        n = 16
        from repro.trajectories import random_trajectory

        coords = random_trajectory(300, 2, rng=1)
        vals = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        plan = NufftPlan((n, n), coords, table_oversampling=4096)
        fast = plan.adjoint(vals)
        exact = nudft_adjoint(vals, coords, (n, n))
        assert rel_l2_error(fast, exact) < 5e-4


class TestStatsSurviveThePlan:
    def test_gridder_stats_accessible_after_adjoint(self):
        coords = golden_angle_radial(16, 32)
        plan = NufftPlan((16, 16), coords, width=4)
        plan.adjoint(np.ones(coords.shape[0], dtype=complex))
        stats = plan.gridder.stats
        assert stats.samples_processed == coords.shape[0]
        assert stats.interpolations == coords.shape[0] * 16
