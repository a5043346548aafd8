"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gridding import GriddingSetup
from repro.kernels import KernelLUT, beatty_kernel


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_setup() -> GriddingSetup:
    """A 32x32 grid with the paper's W=6 Kaiser-Bessel kernel."""
    return GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))


@pytest.fixture
def tiny_setup() -> GriddingSetup:
    """A 16x16 grid with a narrow W=4 kernel (fast tests)."""
    return GriddingSetup((16, 16), KernelLUT(beatty_kernel(4, 2.0), 32))


def random_samples(
    rng: np.random.Generator, m: int, grid_shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Random coordinates (grid units) and complex values."""
    coords = rng.uniform(0, 1, size=(m, len(grid_shape))) * np.asarray(grid_shape)
    values = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return coords, values


def sampled_probe_key(coords: np.ndarray) -> tuple:
    """The rows a sampled trajectory key would read: the shape, the
    first/middle/last rows, and the sum of at most 16 strided rows."""
    m = coords.shape[0]
    step = max(1, m // 16)
    return (
        coords.shape,
        coords[0].tobytes(),
        coords[m // 2].tobytes(),
        coords[-1].tobytes(),
        float(coords[::step].sum()),
    )


def reverse_unprobed_spokes(
    coords: np.ndarray, n_readout: int, *arrays: np.ndarray
) -> list[np.ndarray]:
    """A different trajectory with the same :func:`sampled_probe_key`.

    Reverses the order of the whole spokes lying strictly between the
    4th and 5th strided probe rows, so every probed row keeps its value
    while a block of rows moves.  Returns ``coords`` and each of
    ``arrays`` in the new order.
    """
    m = coords.shape[0]
    step = max(1, m // 16)
    lo, hi = 4 * step, 5 * step
    first = -(-(lo + 1) // n_readout)       # first spoke starting after lo
    last = (hi - 1) // n_readout
    if (last + 1) * n_readout - 1 >= hi:    # the last spoke must end before hi
        last -= 1
    assert first < last, "trajectory too short to hold a reversible block"
    order = np.arange(m)
    block = order[first * n_readout:(last + 1) * n_readout]
    order[first * n_readout:(last + 1) * n_readout] = (
        block.reshape(-1, n_readout)[::-1].ravel()
    )
    return [np.asarray(a)[order] for a in (coords,) + arrays]
