"""Trajectory-compiled scatter plans for Slice-and-Dice gridding.

The Slice-and-Dice select pass is *coordinate-only* (§IV): which
``(sample, column)`` pairs pass the two-part boundary check, which tile
each pair lands in, and what its separable kernel weight is depend on
the trajectory alone — never on the sample values.  JIGSAW exploits
this in hardware by streaming the select units once per sample; the
software counterpart is to run the select pass **once per trajectory**
and compile its result into three flat arrays over the exact
``M * W^d`` passing checks:

- ``sample_idx`` — which sample contributes,
- ``flat_idx``   — the global dice address ``row * n_tiles + depth``,
- ``weight``     — the combined separable kernel weight.

With the plan in hand, the NumPy lane evaluates each right-hand side
as **one** SciPy sparse kernel call over a lazily built real-weight
CSR matrix ``A`` (rows are dice addresses, columns are samples):
adjoint gridding is ``A @ v`` and forward interpolation is ``A.T @ x``
(``A.T`` is a CSC view, no copy).  The complex vector is viewed as an
``(n, 2)`` real array, so a single ``csr_matvecs``/``csc_matvecs`` call
handles the real and imaginary parts together and fuses the gather,
multiply and accumulate into one memory pass — no boundary-check
arithmetic, no per-column Python loop, no LUT reads, no gather scratch.
A complex64 setup keeps ``float32`` matrix data and accumulates
natively in single precision.  Per-call cost drops from ``O(M * T^d)``
to ``O(M * W^d)``, which is the payoff case for iterative
reconstruction: every CG iteration and every SENSE coil pass after the
first reuses the plan and does **zero select work**
(``stats.cache_hits`` / ``stats.boundary_checks == 0`` make this
observable per call).

Bit-identity
------------
The plan stores entries in **row-major order**: columns (rows of the
dice) ascending, and within each row the passing samples ascending —
exactly the order :meth:`SliceAndDiceGridder._flatten_select` emits and
the serial engine visits.  ``(dice address, sample)`` pairs are unique,
and SciPy's COO->CSR conversion is a stable counting sort, so each CSR
row (one ``(row, depth)`` dice word) keeps its entries in ascending
sample order.  SciPy's ``csr_matvecs``/``csc_matvecs`` start from zeros
and do ``y += a * x`` once per stored entry, in stored order, as a
separate multiply and add, so

- per dice word, adjoint contributions sum in ascending sample order —
  the serial engine's per-column ``bincount`` order, and
- per sample, forward contributions (the CSC view walks dice addresses
  ascending) sum in ascending dice address, i.e. ascending row — the
  serial engine's row-loop order,

both starting from ``0.0`` (``0.0 + x == x`` exactly).  The weights
themselves are produced by the very same ``_select_column``
expressions the serial engine evaluates.  Hence at complex128 the
NumPy lane is **bit-identical** (``np.array_equal``) to
:class:`SliceAndDiceGridder` in both directions — asserted in
``tests/test_core_compiled.py`` over values spanning 1e-150..1e150 and
exact-cancellation pairs.  At complex64 the matrix accumulates in
float32, as the numba lanes do, so that lane is ``allclose`` to the
serial engine rather than bit-identical.

Execution lanes
---------------
``lane=`` picks what runs over the plan entries: ``"numpy"`` (default;
the sparse kernel calls above) or the numba-fused loops of
:mod:`repro.core.jit` — ``"numba-serial"``, ``"numba-parallel"``, or
``"auto"`` (parallel at or above ``parallel_threshold`` entries).
Every call goes through one lane path: select the lane, try the fused
kernel, and on any failure demote stickily to ``"numpy"`` with one
recorded :class:`~repro.errors.DegradationEvent` and replay the call on
NumPy.  ``stats.exec_lane`` and ``stats.degradations`` report the lane
that ran and the events fired since the last call.  The streaming
engine inherits the same path for its chunk accumulates.

Plan cache
----------
Plans are memoized per trajectory with the same O(1)
``_coords_fingerprint`` keying and true-LRU eviction as the select
tables, and the same contract: in-place coordinate mutation requires
:meth:`invalidate_cache`.  The fingerprint samples a few rows, so two
different trajectories can collide on it and share a plan; call
:meth:`invalidate_cache` when switching between trajectories that
differ only in unsampled rows.  The per-axis tables themselves are
only a *transient* input to compilation here (``table_cache_size=0``
by default) — the plan replaces them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from ..errors import DegradationEvent
from ..gridding.base import GriddingSetup, GriddingStats
from . import jit as _jit
from .slice_and_dice import SliceAndDiceGridder

__all__ = [
    "CompiledPlan",
    "CompiledSliceAndDiceGridder",
    "JitSliceAndDiceGridder",
    "plan_stats",
]


@dataclass
class CompiledPlan:
    """A trajectory's select pass, flattened to scatter-plan arrays.

    Entries are stored in row-major order (dice rows ascending, samples
    ascending within a row) — the property both directions'
    bit-identity rests on (module docstring).  ``row_starts[r] :
    row_starts[r + 1]`` is row ``r``'s contiguous slice, which is what
    the row-sharded ``numba-parallel`` adjoint slabs on.
    """

    sample_idx: np.ndarray  #: int64 ``(nnz,)`` contributing sample per entry
    flat_idx: np.ndarray    #: int64 ``(nnz,)`` global dice address per entry
    weight: np.ndarray      #: ``setup.real_dtype`` ``(nnz,)`` separable kernel weight
    row_starts: np.ndarray  #: int64 ``(n_rows + 1,)`` per-row slice offsets
    m: int                  #: samples in the compiled trajectory
    n_rows: int             #: dice rows (``T^d`` columns)
    n_tiles: int            #: dice depth (tiles per column)
    compile_seconds: float  #: wall-clock of the flatten pass (+ the CSR build, once built)
    table_build_seconds: float  #: wall-clock of the transient table build
    table_bytes: int        #: bytes of the transient per-axis tables
    _sample_order: np.ndarray | None = field(default=None, repr=False)
    _sample_starts: np.ndarray | None = field(default=None, repr=False)
    _csr: sparse.csr_matrix | None = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        """Passing checks compiled into the plan (``M * W^d`` in the
        interior; fewer only if the kernel LUT zeroes edge weights)."""
        return int(self.sample_idx.size)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the plan's flat arrays and, once built, of
        its sample-major view and CSR matrix."""
        total = (
            self.sample_idx.nbytes
            + self.flat_idx.nbytes
            + self.weight.nbytes
            + self.row_starts.nbytes
        )
        if self._sample_order is not None:
            total += self._sample_order.nbytes + self._sample_starts.nbytes
        if self._csr is not None:
            mat = self._csr
            total += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        return int(total)

    def sample_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Lazy sample-major view: ``(order, starts)``.

        ``order`` is the **stable** argsort of ``sample_idx`` — within
        one sample, entries keep their row-ascending plan order, so a
        pass over ``order[starts[lo]:starts[hi]]`` accumulates each
        sample's contributions in exactly the serial row order.  This
        is the slab structure the sample-sharded ``numba-parallel``
        forward uses; the NumPy lane does not need it.
        """
        if self._sample_order is None:
            self._sample_order = np.argsort(self.sample_idx, kind="stable")
            counts = np.bincount(self.sample_idx, minlength=self.m)
            starts = np.zeros(self.m + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            self._sample_starts = starts
        return self._sample_order, self._sample_starts

    def csr(self) -> sparse.csr_matrix:
        """Lazy ``(n_rows * n_tiles, m)`` real-weight CSR matrix of the
        plan: rows are dice addresses, columns are samples.

        ``(flat_idx, sample_idx)`` pairs are unique (``W <= T`` gives at
        most one passing point per column per sample), so the COO->CSR
        conversion never merges duplicates, and its stable counting sort
        keeps each row's entries in ascending sample order.  The data
        keeps the weights' ``setup.real_dtype`` and the indices are
        int32 whenever the plan fits, so a complex64 setup runs the
        kernels in float32 with no upcast.  The build time is added to
        :attr:`compile_seconds`.
        """
        if self._csr is None:
            t0 = time.perf_counter()
            self._csr = sparse.csr_matrix(
                (self.weight, (self.flat_idx, self.sample_idx)),
                shape=(self.n_rows * self.n_tiles, self.m),
            )
            self.compile_seconds += time.perf_counter() - t0
        return self._csr


def _real_pair_matvec(mat, vector: np.ndarray) -> np.ndarray:
    """``mat @ vector`` for a real sparse ``mat`` and a complex vector,
    as one sparse kernel call on the ``(n, 2)`` real view of
    ``vector`` (real and imaginary parts side by side)."""
    vector = np.ascontiguousarray(vector)
    real = vector.real.dtype
    return (mat @ vector.view(real).reshape(-1, 2)).view(vector.dtype).reshape(-1)


def plan_stats(
    ndim: int,
    n_columns: int,
    m: int,
    n_rhs: int,
    plan: CompiledPlan,
    hit: bool,
    dice_bytes: int = 0,
) -> GriddingStats:
    """Per-call stats for a compiled-plan pass.

    A plan **miss** pays the full select pass once — ``M * T^d``
    boundary checks, ``nnz * d`` LUT reads, and ``M * T^d`` issued lane
    slots (the compile is the streaming pass) — plus the recorded
    table-build and plan-compile seconds.  A plan **hit** is the paper's
    select-unit-reuse payoff: zero boundary checks, zero LUT reads, and
    every issued lane slot does useful work (``simd_active_lanes ==
    simd_lane_slots == nnz`` — the gather has no divergence to waste
    slots on).  Value work (``interpolations`` MACs, dice accesses)
    always scales with the batch.

    ``dice_bytes`` is the caller's dice residency; the
    reported ``peak_bytes`` adds the plan itself and — on a miss — the
    transient select tables, giving the pass' true transient high
    water instead of the pooled-buffer bytes alone.
    """
    return GriddingStats(
        boundary_checks=0 if hit else m * n_columns,
        interpolations=plan.nnz * n_rhs,
        samples_processed=m,
        presort_operations=0,
        grid_accesses=plan.nnz * n_rhs,
        lut_lookups=0 if hit else plan.nnz * ndim,
        simd_active_lanes=plan.nnz,
        simd_lane_slots=plan.nnz if hit else m * n_columns,
        cache_hits=1 if hit else 0,
        cache_misses=0 if hit else 1,
        table_build_seconds=0.0 if hit else plan.table_build_seconds,
        table_bytes=0 if hit else plan.table_bytes,
        plan_compile_seconds=0.0 if hit else plan.compile_seconds,
        plan_nnz=plan.nnz,
        peak_bytes=(
            dice_bytes + plan.nbytes + (0 if hit else plan.table_bytes)
        ),
    )


class CompiledSliceAndDiceGridder(SliceAndDiceGridder):
    """Slice-and-Dice with the select pass compiled per trajectory.

    First call on a trajectory builds the per-axis tables (transient),
    flattens them into a :class:`CompiledPlan`, and caches the plan;
    every subsequent call — every further CG iteration, coil, or RHS —
    is one sparse kernel call per RHS with **zero select work**.

    Parameters
    ----------
    setup:
        Shared problem description; requires ``W <= tile_size`` and
        ``tile_size | G`` per axis.
    tile_size:
        Virtual tile dimension ``T`` (8 in the paper).
    lane:
        ``"numpy"`` (default; SciPy sparse kernels, bit-identical to
        the serial engine at complex128), ``"numba-serial"``,
        ``"numba-parallel"``, or ``"auto"`` (parallel for plans at or above
        ``parallel_threshold`` entries, serial below, where thread
        launch overhead would dominate).  A numba lane degrades to
        ``"numpy"`` with a recorded
        :class:`~repro.errors.DegradationEvent` when numba is
        unavailable, and stickily on a runtime JIT failure.
    parallel_threshold:
        Plan-entry count at which ``lane="auto"`` switches from the
        serial to the parallel kernels.
    plan_cache_size:
        Trajectories whose compiled plans are kept (true LRU; ``0``
        disables plan caching and recompiles every call).
    table_cache_size:
        Select-table cache of the parent class.  Defaults to ``0``
        here: the tables are only a transient compilation input, and
        keeping both them and the plan resident would double memory.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gridding import GriddingSetup, make_gridder
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> com = make_gridder("slice_and_dice_compiled", setup)
    >>> ser = make_gridder("slice_and_dice", setup)
    >>> rng = np.random.default_rng(0)
    >>> coords = rng.uniform(0, 32, (100, 2))
    >>> values = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    >>> bool(np.array_equal(com.grid(coords, values), ser.grid(coords, values)))
    True
    >>> com.stats.cache_misses, com.stats.plan_nnz     # compile call
    (1, 3600)
    >>> _ = com.grid(coords, values)
    >>> com.stats.cache_hits, com.stats.boundary_checks  # plan reuse
    (1, 0)
    """

    name = "slice_and_dice_compiled"

    #: accepted ``lane=`` values
    _LANES = ("auto", "numba-parallel", "numba-serial", "numpy")
    #: requested lanes that need numba (demoted at construction without it)
    _NUMBA_LANES = ("auto", "numba-parallel", "numba-serial")
    #: ``component`` of this engine's lane-demotion events
    _LANE_COMPONENT = "jit"

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        lane: str = "numpy",
        parallel_threshold: int = 1 << 15,
        plan_cache_size: int = 4,
        table_cache_size: int = 0,
    ):
        super().__init__(
            setup,
            tile_size=tile_size,
            engine="columns",
            table_cache_size=table_cache_size,
        )
        if lane not in self._LANES:
            raise ValueError(f"lane must be one of {self._LANES}, got {lane!r}")
        if plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0, got {plan_cache_size}"
            )
        self.plan_cache_size = int(plan_cache_size)
        #: fingerprint -> CompiledPlan; dict order doubles as LRU order
        self._plan_cache: dict[tuple, CompiledPlan] = {}
        self.requested_lane = lane
        self.parallel_threshold = int(parallel_threshold)
        #: sticky record of every demotion this engine performed
        self.degradations: tuple[DegradationEvent, ...] = ()
        self._pending_events: list[DegradationEvent] = []
        self._used_lane = "numpy"
        self._lane = lane
        if lane in self._NUMBA_LANES and not _jit.jit_available():
            reason = (
                f"numba disabled via {_jit.JIT_DISABLE_ENV}"
                if _jit._numba is not None
                else "numba not importable"
            )
            self._demote(lane, reason)

    # ------------------------------------------------------------------
    # execution lanes: select, launch, demote, stamp
    # ------------------------------------------------------------------
    def _record(self, event: DegradationEvent) -> None:
        self.degradations = self.degradations + (event,)
        self._pending_events.append(event)

    def _demote(self, lane: str, reason: str) -> None:
        """Sticky demotion to the NumPy lane: record once, never retry
        the failed lane on this instance."""
        self._record(
            DegradationEvent(self._LANE_COMPONENT, lane, "numpy", reason)
        )
        self._lane = "numpy"

    def _select_lane(self, nnz: int) -> str:
        """The lane an ``nnz``-entry pass runs on."""
        if nnz == 0:
            return "numpy"
        if self._lane == "auto":
            if nnz >= self.parallel_threshold:
                return "numba-parallel"
            return "numba-serial"
        return self._lane

    def _launch(self, lane: str, direction: str, *args) -> bool:
        """Run the ``direction`` (``"scatter"``/``"gather"``) kernel of
        fused lane ``lane`` (see :func:`repro.core.jit.launch`).

        Returns ``False`` after a failure — the lane is then demoted
        stickily and the caller replays the pass on NumPy.  Fault,
        dispatch, and compile failures fire before any entry is
        written, and this engine's NumPy paths overwrite their whole
        output, so a replay never double-counts.
        """
        kernel = direction + (
            "-parallel" if lane == "numba-parallel" else "-serial"
        )
        try:
            _jit.launch(kernel, *args, jit=lane != "serial")
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            self._demote(lane, repr(exc))
            return False
        self._used_lane = lane
        return True

    def _stamp(self, stats: GriddingStats) -> GriddingStats:
        """Attach the executed lane and the events fired since the last
        stamp to a call's freshly built stats."""
        stats.exec_lane = self._used_lane
        if self._pending_events:
            stats.degradations = stats.degradations + tuple(
                self._pending_events
            )
            self._pending_events = []
        return stats

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop cached plans *and* the parent's cached select tables."""
        super().invalidate_cache()
        self._plan_cache.clear()

    def _dice_bytes(self, plan: CompiledPlan, k_rhs: int) -> int:
        """Dice residency of a ``K``-RHS pass (the ``dice_bytes`` input
        of :func:`plan_stats`)."""
        return k_rhs * plan.n_rows * plan.n_tiles * self.setup.dtype.itemsize

    def _fetch_plan(self, coords: np.ndarray) -> tuple[CompiledPlan, bool]:
        """The trajectory's compiled plan plus whether it was a cache hit.

        Same fingerprint keying, LRU move-to-end, and in-place-mutation
        contract as the parent's table cache.
        """
        key = self._coords_fingerprint(coords) if self.plan_cache_size else None
        if key is not None:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.pop(key)
                self._plan_cache[key] = cached
                return cached, True

        tables, fetch = self._fetch_tables(coords)
        t0 = time.perf_counter()
        sample_idx, flat_idx, weight, row_starts = self._flatten_select(tables)
        compile_seconds = time.perf_counter() - t0
        plan = CompiledPlan(
            sample_idx=sample_idx,
            flat_idx=flat_idx,
            weight=weight,
            row_starts=row_starts,
            m=coords.shape[0],
            n_rows=self.layout.n_columns,
            n_tiles=self.layout.n_tiles,
            compile_seconds=compile_seconds,
            table_build_seconds=fetch.build_seconds,
            table_bytes=fetch.table_bytes,
        )
        if key is not None:
            while len(self._plan_cache) >= self.plan_cache_size:
                self._plan_cache.pop(next(iter(self._plan_cache)))
            self._plan_cache[key] = plan
        return plan, False

    # ------------------------------------------------------------------
    # gridding (adjoint): A @ v
    # ------------------------------------------------------------------
    def _grid_impl(
        self, coords: np.ndarray, values: np.ndarray, grid: np.ndarray
    ) -> None:
        plan, hit = self._fetch_plan(coords)
        dice_flat = self._apply_grid(plan, values[None, :])
        try:
            grid += self.layout.dice_to_grid(
                dice_flat[0].reshape(plan.n_rows, plan.n_tiles)
            )
        finally:
            self._release_buffer(dice_flat)
        self.stats = self._stamp(plan_stats(
            self.setup.ndim, self.layout.n_columns, coords.shape[0], 1, plan,
            hit, dice_bytes=self._dice_bytes(plan, 1),
        ))

    def _grid_batch_impl(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Batched adjoint gridding from the compiled plan.

        One plan fetch (hit after the first call per trajectory), then
        one sparse kernel call (or one fused numba pass) per RHS.
        """
        k_rhs = values_stack.shape[0]
        plan, hit = self._fetch_plan(coords)
        dice_flat = self._apply_grid(plan, values_stack)
        try:
            for k in range(k_rhs):
                out[k] = self.layout.dice_to_grid(
                    dice_flat[k].reshape(plan.n_rows, plan.n_tiles)
                )
        finally:
            self._release_buffer(dice_flat)
        self.stats = self._stamp(plan_stats(
            self.setup.ndim, self.layout.n_columns, coords.shape[0], k_rhs,
            plan, hit, dice_bytes=self._dice_bytes(plan, k_rhs),
        ))

    def _apply_grid(
        self, plan: CompiledPlan, values_stack: np.ndarray
    ) -> np.ndarray:
        """``(K, n_rows * n_tiles)`` raveled dice for a value stack.

        The dice always comes from :meth:`_acquire_buffer` (the caller
        releases it to the pool, so a fresh matvec result must be copied
        in, never returned) and is released back on any failure
        mid-fill.
        """
        k_rhs = values_stack.shape[0]
        lane = self._select_lane(plan.nnz)
        # the fused lanes accumulate into the dice; the NumPy lane
        # overwrites it row by row
        dice_flat = self._acquire_buffer(
            (k_rhs, plan.n_rows * plan.n_tiles), zero=lane != "numpy"
        )
        try:
            sample, flat, wgt = plan.sample_idx, plan.flat_idx, plan.weight
            if lane == "numba-parallel":
                args = (values_stack, sample, flat, wgt, plan.row_starts, dice_flat)
            else:
                args = (values_stack, sample, flat, wgt, dice_flat)
            if lane == "numpy" or not self._launch(lane, "scatter", *args):
                self._used_lane = "numpy"
                mat = plan.csr()
                for k in range(k_rhs):
                    dice_flat[k] = _real_pair_matvec(mat, values_stack[k])
        except BaseException:
            self._release_buffer(dice_flat)
            raise
        return dice_flat

    # ------------------------------------------------------------------
    # interpolation (forward): A.T @ x
    # ------------------------------------------------------------------
    def _interp_batch_impl(
        self, grid_stack: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        """Batched forward interpolation from the compiled plan.

        The transpose pass over the same plan: ``A.T @ x`` per RHS,
        summing each sample's weighted dice words.
        """
        k_rhs = grid_stack.shape[0]
        m = coords.shape[0]
        plan, hit = self._fetch_plan(coords)
        dice_flat = self._acquire_buffer(
            (k_rhs, plan.n_rows * plan.n_tiles), zero=False
        )
        try:
            for k in range(k_rhs):
                dice_flat[k] = self.layout.grid_to_dice(grid_stack[k]).reshape(-1)
            out = self._apply_interp(plan, dice_flat, m)
        finally:
            self._release_buffer(dice_flat)
        self.stats = self._stamp(plan_stats(
            self.setup.ndim, self.layout.n_columns, m, k_rhs, plan, hit,
            dice_bytes=self._dice_bytes(plan, k_rhs),
        ))
        return out

    def _apply_interp(
        self, plan: CompiledPlan, dice_flat: np.ndarray, m: int
    ) -> np.ndarray:
        """``(K, m)`` interpolated samples from the raveled dice stack
        (the forward counterpart of :meth:`_apply_grid`)."""
        k_rhs = dice_flat.shape[0]
        lane = self._select_lane(plan.nnz)
        if lane != "numpy":
            out = np.zeros((k_rhs, m), dtype=self.setup.dtype)
            if lane == "numba-parallel":
                args = (dice_flat, plan.flat_idx, plan.weight, *plan.sample_view(), out)
            else:
                args = (dice_flat, plan.sample_idx, plan.flat_idx, plan.weight, out)
            if self._launch(lane, "gather", *args):
                return out
        self._used_lane = "numpy"
        mat_t = plan.csr().T  # CSC view, no copy
        if k_rhs == 1:
            return _real_pair_matvec(mat_t, dice_flat[0])[None]
        out = np.empty((k_rhs, m), dtype=self.setup.dtype)
        for k in range(k_rhs):
            out[k] = _real_pair_matvec(mat_t, dice_flat[k])
        return out

    # ------------------------------------------------------------------
    def address_trace(self, coords: np.ndarray) -> np.ndarray:
        """Dice addresses in processing order — exactly the plan's
        ``flat_idx`` (row-major), so the trace is free once compiled."""
        coords = self.setup.check_coords(coords)
        if coords.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        plan, _ = self._fetch_plan(coords)
        return plan.flat_idx.copy()


class JitSliceAndDiceGridder(CompiledSliceAndDiceGridder):
    """``slice_and_dice_jit``: the compiled engine with ``lane="auto"``.

    Same constructor as :class:`CompiledSliceAndDiceGridder`; only the
    registry name and the default lane differ.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gridding import GriddingSetup, make_gridder
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> jit = make_gridder("slice_and_dice_jit", setup)
    >>> ref = make_gridder("slice_and_dice_compiled", setup)
    >>> rng = np.random.default_rng(0)
    >>> coords = rng.uniform(0, 32, (100, 2))
    >>> values = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    >>> bool(np.allclose(jit.grid(coords, values),
    ...                  ref.grid(coords, values), rtol=1e-12, atol=0))
    True
    >>> jit.stats.exec_lane in ("numba-serial", "numba-parallel", "numpy")
    True
    """

    name = "slice_and_dice_jit"

    def __init__(self, setup: GriddingSetup, *args, lane: str = "auto", **kwargs):
        super().__init__(setup, *args, lane=lane, **kwargs)
