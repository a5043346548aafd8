"""Slice-and-Dice — the paper's primary contribution (§III).

Slice-and-Dice is a binning-free gridding model: the oversampled grid
is split into virtual tiles of dimension ``T^d`` which are *stacked*
into "dice"; one worker (thread / pipeline) owns one relative position
("column") across every tile.  Sample coordinates are decomposed by
``divmod(coord, T)`` into a tile coordinate and a relative coordinate,
and a two-part boundary check — forward distance ``< W`` plus a wrap
test ``rel < column`` — replaces binning's pre-sort entirely:

- no pre-processing pass,
- no duplicate sample processing,
- boundary checks fall from ``M * N^d`` to ``M * T^d``,
- as long as ``W <= T``, each sample touches **at most one point per
  column**, so workers never interact.

Public surface:

- :mod:`~repro.core.decomposition` — the coordinate arithmetic
  (shared with the JIGSAW select-unit model).
- :class:`~repro.core.DiceLayout` — the stacked-tile ("dice") memory
  layout and its grid <-> dice transforms.
- :class:`~repro.core.SliceAndDiceGridder` — the gridder, in both the
  faithful column-parallel schedule and the GPU-style blocked variant.
- :class:`~repro.core.ParallelSliceAndDiceGridder` — the multicore
  engine: columns sharded across a worker pool with shared-memory
  accumulators, bit-identical to the serial gridder.
- :class:`~repro.core.CompiledSliceAndDiceGridder` — the window
  entries generated once per trajectory and kept as a
  :class:`~repro.core.CompiledPlan` (one CSR matrix); every repeat call
  is one sparse kernel call per RHS stack with zero select work,
  bit-identical to the serial gridder.  Its entry generator is the one
  the streaming engine runs per chunk.  Its ``lane=`` option runs the
  plan through the numba-fused CSR loops of :mod:`~repro.core.jit`
  (serial and row/sample-sharded ``prange`` lanes), degrading to the
  NumPy lane when numba is absent;
  :class:`~repro.core.JitSliceAndDiceGridder` is that engine with
  ``lane="auto"``, registered as ``slice_and_dice_jit``.
"""

from .compiled import (
    CompiledPlan,
    CompiledSliceAndDiceGridder,
    JitSliceAndDiceGridder,
)
from .jit import jit_available
from .decomposition import (
    CoordinateDecomposition,
    decompose_coordinates,
    column_forward_distance,
    column_tile_index,
)
from .layout import DiceLayout
from .parallel import ParallelSliceAndDiceGridder, shard_plan
from .slice_and_dice import SliceAndDiceGridder, TableFetch

__all__ = [
    "CompiledPlan",
    "CompiledSliceAndDiceGridder",
    "CoordinateDecomposition",
    "decompose_coordinates",
    "column_forward_distance",
    "column_tile_index",
    "DiceLayout",
    "JitSliceAndDiceGridder",
    "jit_available",
    "ParallelSliceAndDiceGridder",
    "shard_plan",
    "SliceAndDiceGridder",
    "TableFetch",
]
