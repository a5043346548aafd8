"""Trajectory-compiled scatter plans for Slice-and-Dice gridding.

The Slice-and-Dice select pass is *coordinate-only* (§IV): which
``(sample, column)`` pairs pass the two-part boundary check, which tile
each pair lands in, and what its separable kernel weight is depend on
the trajectory alone — never on the sample values.  JIGSAW exploits
this in hardware by evaluating each sample's boundary check and LUT
weight as the sample streams past; the software counterpart here is the
**entry generator** (:meth:`CompiledSliceAndDiceGridder._chunk_entries`),
which does the same in sample order, and a plan that keeps its output
**once per trajectory** as one real-weight CSR matrix ``A`` over the
exact ``M * W^d`` passing checks: rows are dice addresses
``row * n_tiles + depth``, columns are samples.

With the plan in hand, the NumPy lane evaluates a whole right-hand-side
stack as **one** SciPy sparse kernel call: adjoint gridding is
``A @ V`` and forward interpolation is ``A.T @ X`` (``A.T`` is a CSC
view, no copy).  A ``(K, n)`` complex stack is viewed as an ``(n, 2K)``
real array, so a single ``csr_matvecs``/``csc_matvecs`` call handles
the real and imaginary parts of every RHS together and fuses the
gather, multiply and accumulate into one memory pass — no
boundary-check arithmetic, no per-column Python loop, no LUT reads, no
gather scratch.  A complex64 setup keeps ``float32`` matrix data and
accumulates natively in single precision.  Per-call cost drops from
``O(M * T^d)`` to ``O(M * W^d)``, which is the payoff case for
iterative reconstruction: every CG iteration and every SENSE coil pass
after the first reuses the plan and does **zero select work**
(``stats.cache_hits`` / ``stats.boundary_checks == 0`` make this
observable per call).

Entry generator
---------------
Per axis, only the ``W`` candidate columns of a sample can pass the
two-part boundary check (:mod:`repro.core.decomposition`): the columns
``p = (rel - j) mod T`` at forward offsets ``j = 0..W-1``.  The
generator evaluates exactly those, with the serial engine's
expressions — ``fwd = j + frac``, ``mask = fwd < W``, the LUT weight at
``lut.index_of(fwd)``, the wrapped tile ``(tile - (rel < p)) mod
count`` — ordering each axis' ``W`` columns by ascending ``p``.  The
flat dice address is separable, ``Σ_a p_a·T^(d-1-a)·n_tiles +
tile_a·Π_{b>a} count_b``, so a block's ``(m, W^d)`` index and weight
arrays are one broadcast add and one broadcast multiply over the
per-axis factors.  The only entries that can fail the check are the
rounding edge where ``(W-1) + frac`` rounds up to ``W``; a block
containing one is compressed on a slow path.  The streaming engine
(:mod:`repro.gridding.streaming`) runs the same generator chunk by
chunk, so both engines share one select implementation.

Bit-identity
------------
The weights are the generator's left fold of the per-axis LUT reads in
axis order — ``w0 * w1 * ...``, rounded exactly like the serial
engine's column scan — so every weight is bit-equal to the serial
engine's.  The generator emits entries sample by sample, ascending row
within a sample: that is the CSR of ``A.T``.  ``A`` is its transpose
through SciPy's CSC->CSR conversion, a **stable** counting sort, and
``(dice address, sample)`` pairs are unique (``W <= T`` gives at most
one passing point per column per sample), so each row of ``A`` (one
dice word) holds its entries in ascending sample order.  SciPy's
``csr_matvecs``/``csc_matvecs`` start from zeros and do ``y += a * x``
once per stored entry, in stored order, as a separate multiply and add,
for every column of the dense operand independently, so

- per dice word, adjoint contributions sum in ascending sample order —
  the serial engine's per-column ``bincount`` order, and
- per sample, forward contributions (the CSC view walks dice addresses
  ascending) sum in ascending dice address, i.e. ascending row — the
  serial engine's row-loop order,

both starting from ``0.0`` (``0.0 + x == x`` exactly), whatever the
number of RHS.  Hence at complex128 the NumPy lane is **bit-identical**
(``np.array_equal``) to :class:`SliceAndDiceGridder` in both directions
— asserted in ``tests/test_core_compiled.py`` over values spanning
1e-150..1e150, exact-cancellation pairs, and rounding-edge coordinates.
At complex64 the matrix accumulates in float32, as the numba lanes do,
so that lane is ``allclose`` to the serial engine rather than
bit-identical.

Execution lanes
---------------
``lane=`` picks what runs over the plan: ``"numpy"`` (default; the
sparse kernel calls above) or the numba-fused CSR loops of
:mod:`repro.core.jit` over ``A``'s own arrays — ``"numba-serial"``,
``"numba-parallel"``, or ``"auto"`` (parallel at or above
``parallel_threshold`` entries).  Every call goes through one lane
path: select the lane, try the fused kernel, and on any failure demote
stickily to ``"numpy"`` with one recorded
:class:`~repro.errors.DegradationEvent` and replay the call on NumPy.
``stats.exec_lane`` and ``stats.degradations`` report the lane that ran
and the events fired since the last call.  The streaming engine
inherits the same path for its chunk accumulates.

Plan cache
----------
Plans are memoized per trajectory with true-LRU eviction, keyed on
:func:`~repro.core.slice_and_dice.trajectory_fingerprint` — a SHA-1
over the shape, dtype, and every coordinate byte — so two different
trajectories never share a plan.  The key of the last array seen is
remembered by identity: a caller that passes the same array object on
every call (as :class:`~repro.nufft.NufftPlan` does) pays the hash
once.  Hence an in-place coordinate mutation requires
:meth:`invalidate_cache`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .decomposition import decompose_coordinates
from ..errors import DegradationEvent
from ..gridding.base import GriddingSetup, GriddingStats
from . import jit as _jit
from .slice_and_dice import SliceAndDiceGridder

__all__ = [
    "CompiledPlan",
    "CompiledSliceAndDiceGridder",
    "JitSliceAndDiceGridder",
]

#: samples per generation block: every per-axis ``(W, block)``
#: temporary stays cache-resident, and numpy's inner loops run over a
#: block's samples rather than over the ``W`` candidates
_BLOCK = 8192


def _outer(ufunc, parts: list[np.ndarray], out: np.ndarray) -> None:
    """Per-sample outer combination of ``d`` per-axis ``(W, m)`` factors.

    Writes the sample-major ``(m, W, ..., W)`` array ``out[s, k0, ...,
    k_{d-1}] = ufunc(...ufunc(parts[0][k0, s], parts[1][k1, s])...,
    parts[d-1][k_{d-1}, s])`` — a left fold in axis order, so a weight
    product is rounded exactly like the column scan's ``w0 * w1 * ...``.
    The fold runs candidate-major (inner loop over samples) and is then
    transposed into place.
    """
    m = parts[0].shape[1]
    acc = parts[0]
    for part in parts[1:]:
        acc = ufunc(acc[:, None, :], part[None, :, :]).reshape(-1, m)
    out.reshape(m, -1)[...] = acc.T


@dataclass
class ChunkEntries:
    """A run of samples' window entries, in sample order.

    Entry ``e`` adds ``value[sample] * weight[e]`` to dice word
    ``flat[e]``.  Entries run sample by sample and, within a sample, in
    ascending dice row — so ``(indptr(), flat, weight)`` is the CSR of
    the run's ``A.T`` (rows are samples).  ``aug_idx`` is the caller's
    index buffer: any prefix it reserved, then ``flat``.  ``flat`` and
    ``weight`` are views into the caller's buffers.
    """

    m: int                  #: samples in the run
    wd: int                 #: candidate entries per sample, ``W^d``
    aug_idx: np.ndarray     #: integer caller prefix, then ``flat``
    weight: np.ndarray      #: real ``(nnz,)`` separable kernel weight per entry
    sample: np.ndarray | None  #: int64 ``(nnz,)``; ``None``: dense, ``e // wd``
    checks: int             #: boundary checks evaluated, ``m * W * d``
    seconds: float          #: wall-clock of the generation
    transient_bytes: int    #: generation temporaries, freed on return

    @property
    def nnz(self) -> int:
        return int(self.weight.size)

    @property
    def flat(self) -> np.ndarray:
        """``(nnz,)`` global dice address per entry."""
        return self.aug_idx[self.aug_idx.size - self.nnz:]

    def indptr(self) -> np.ndarray:
        """int64 ``(m + 1,)`` per-sample entry offsets."""
        if self.sample is None:
            return np.arange(0, self.nnz + 1, self.wd, dtype=np.int64)
        return np.searchsorted(self.sample, np.arange(self.m + 1))

    def weigh(self, values: np.ndarray, out: np.ndarray) -> None:
        """``out[e] = values[sample(e)] * weight[e]`` for a real
        ``(m,)`` value vector (one real part of one RHS)."""
        if self.sample is None:
            np.multiply(
                values[:, None],
                self.weight.reshape(self.m, self.wd),
                out=out.reshape(self.m, self.wd),
            )
        else:
            np.take(values, self.sample, out=out, mode="clip")
            out *= self.weight


@dataclass
class CompiledPlan:
    """A trajectory's select pass as one real-weight CSR matrix ``A``.

    ``A`` has shape ``(n_rows * n_tiles, m)``: rows are dice addresses,
    columns are samples, indices are int32 whenever they fit, and each
    row holds its entries in ascending sample order — the property both
    directions' bit-identity rests on (module docstring).
    """

    matrix: sparse.csr_matrix  #: ``A``; data in ``setup.real_dtype``
    n_rows: int             #: dice rows (``T^d`` columns)
    n_tiles: int            #: dice depth (tiles per column)
    checks: int             #: boundary checks the compile evaluated
    compile_seconds: float  #: wall-clock of generation + transpose
    build_bytes: int        #: transient bytes of the compile, freed on return
    _by_sample: sparse.csr_matrix | None = field(default=None, repr=False)

    @property
    def nnz(self) -> int:
        """Passing checks compiled into the plan (``M * W^d``, fewer
        only at the ``(W-1) + frac -> W`` rounding edge)."""
        return int(self.matrix.nnz)

    @property
    def nbytes(self) -> int:
        """Resident bytes of ``A`` and, once built, of its sample-major
        copy."""
        return sum(
            mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
            for mat in (self.matrix, self._by_sample)
            if mat is not None
        )

    def by_sample(self) -> sparse.csr_matrix:
        """Lazy sample-major CSR ``A.T``, built only for the
        sample-sharded ``numba-parallel`` forward.  The stable
        conversion keeps each sample's entries in ascending dice
        address, i.e. the serial row order."""
        if self._by_sample is None:
            self._by_sample = self.matrix.T.tocsr()
        return self._by_sample


def _real_pair_matmul(mat, stack: np.ndarray) -> np.ndarray:
    """``(K, rows)`` rows of ``mat @ stack[k]`` for a real sparse
    ``mat`` and a complex ``(K, n)`` stack, as one sparse kernel call
    on the ``(n, 2K)`` real view of ``stack.T`` (real and imaginary
    parts side by side).  The result is a transposed view of the
    kernel's output (C-contiguous only for ``K == 1``)."""
    real = stack.real.dtype
    pairs = np.ascontiguousarray(stack.T).view(real)
    return (mat @ pairs).view(stack.dtype).T


class CompiledSliceAndDiceGridder(SliceAndDiceGridder):
    """Slice-and-Dice with the select pass compiled per trajectory.

    First call on a trajectory runs the entry generator once over the
    whole trajectory, transposes its output into a
    :class:`CompiledPlan`, and caches the plan; every subsequent call —
    every further CG iteration, coil, or RHS — is one sparse kernel call
    for the whole RHS stack with **zero select work**.

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
    ):
        super().__init__(
            setup, tile_size=tile_size, engine="columns", table_cache_size=0
        )
        if lane not in self._LANES:
            raise ValueError(f"lane must be one of {self._LANES}, got {lane!r}")
        if plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0, got {plan_cache_size}"
            )
        self.plan_cache_size = int(plan_cache_size)
        #: fingerprint -> CompiledPlan; dict order doubles as LRU order
        self._plan_cache: dict[str, CompiledPlan] = {}
        self._candidates = self._candidate_tables()
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

    def _launch(self, lane: str, direction: str, kernel: str, *args) -> bool:
        """Run CSR kernel ``kernel`` (a :func:`repro.core.jit.launch`
        name) as the ``direction`` (``"scatter"``/``"gather"``) pass of
        fused lane ``lane``.

        Returns ``False`` after a failure — the lane is then demoted
        stickily and the caller replays the pass on NumPy.  Fault,
        dispatch, and compile failures fire before any entry is
        written, and this engine's NumPy paths overwrite their whole
        output, so a replay never double-counts.
        """
        try:
            _jit.launch(direction, kernel, *args, jit=lane != "serial")
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
    # entry generation (the select + weight stages)
    # ------------------------------------------------------------------
    def _candidate_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-``rel`` tables of the ``W`` candidate columns, ``(W, T)``.

        Column ``k`` of the ascending order is at forward offset
        ``j = (min(rel, W-1) - k) mod W``, i.e. column ``p = (rel - j)
        mod T``; it *wraps* into the previous tile iff ``rel < p``,
        i.e. iff ``j > rel`` (the columns ``p <= rel`` come first).
        Returns ``(j, wrap, p)``; ``j`` as float64, ready to add to a
        fraction (``int + float`` converts the int exactly, so the sum
        is the serial engine's ``fwd`` bit for bit).
        """
        w, t = self.setup.width, self.tile_size
        rel = np.arange(t)
        k = np.arange(w)[:, None]
        j = np.mod(np.minimum(rel, w - 1) - k, w)
        wrap = j > rel
        return j.astype(np.float64), wrap, rel - j + t * wrap

    def _axis_factors(self, coords: np.ndarray):
        """Per-axis ``(W, m)`` candidate factors of a block of samples.

        Returns ``(masks, weights, addrs)``: per axis the boundary
        check (``None`` when every candidate passes — all but the
        rounding edge), the LUT weight, and the axis' share of the
        flat dice address.
        """
        setup = self.setup
        lut = setup.lut
        w, t = setup.width, self.tile_size
        j_of, wrap_of, col_of = self._candidates
        row_stride = self.layout.n_columns * self.layout.n_tiles
        tile_stride = self.layout.n_tiles
        masks, weights, addrs = [], [], []
        for axis in range(setup.ndim):
            # one axis at a time: elementwise the same decomposition,
            # without (m, d)-shaped passes
            dec = decompose_coordinates(
                coords[:, axis:axis + 1], setup.grid_shape[axis:axis + 1],
                t, lut.width,
            )
            count = dec.tile_counts[0]
            row_stride //= t
            tile_stride //= count
            rel, tile = dec.rel[:, 0], dec.tile[:, 0]
            fwd = np.take(j_of, rel, axis=1)
            fwd += dec.frac[:, 0]
            masks.append(fwd < w if fwd.max() >= w else None)
            weights.append(
                lut.table[lut.index_of(fwd)].astype(setup.real_dtype, copy=False)
            )
            # address = p * row_stride + ((tile - wrap) mod count) *
            # tile_stride; the mod only bites when tile == 0 wraps
            addr = np.take(
                col_of * row_stride - wrap_of * tile_stride, rel, axis=1
            )
            addr += tile * tile_stride
            edge = np.flatnonzero(tile == 0)
            addr[:, edge] += (
                np.take(wrap_of, rel[edge], axis=1) * count * tile_stride
            )
            addrs.append(addr)
        return masks, weights, addrs

    def _chunk_entries(
        self, coords: np.ndarray, aug_idx: np.ndarray, wgt: np.ndarray
    ) -> ChunkEntries:
        """Generate the window entries of ``coords`` into caller buffers.

        ``wgt`` holds ``m * W^d`` weights; ``aug_idx`` holds the same
        number of dice addresses after a prefix the caller reserves
        (its first ``aug_idx.size - m * W^d`` slots are left alone).
        Evaluates the ``W`` candidate columns per axis (module
        docstring) block by block, laid out ``(W, block)`` so every
        numpy pass runs over samples, and combines the axes with
        broadcast adds/multiplies written straight into the buffers.
        When every check passes — always, except at the ``(W-1) + frac
        → W`` rounding edge — the entries are dense: ``W^d`` per
        sample, in ascending row order.  Otherwise the failing entries
        are compressed out and the result carries an explicit sample
        index.
        """
        t0 = time.perf_counter()
        w, d = self.setup.width, self.setup.ndim
        m = coords.shape[0]
        wd = w ** d
        prefix = aug_idx.size - m * wd
        flat = aug_idx[prefix:]
        edges = []  # (lo, hi, masks) of blocks holding a rounding edge
        for lo in range(0, m, _BLOCK):
            hi = min(lo + _BLOCK, m)
            masks, weights, addrs = self._axis_factors(coords[lo:hi])
            _outer(np.add, addrs, flat[lo * wd:hi * wd])
            _outer(np.multiply, weights, wgt[lo * wd:hi * wd])
            if any(mk is not None for mk in masks):
                edges.append((lo, hi, masks))
        # generation temporaries of one block: ~4 (b,) decomposition
        # arrays per axis, the kept (W, b) factors (mask, float64 LUT
        # read, weight, address) plus ~4 in-flight ones, and the
        # (W^(d-1), b) and (W^d, b) folds of _outer
        b = min(m, _BLOCK)
        transient = (
            4 * d * b * 8
            + (d * 25 + 4 * 8) * w * b
            + (wd + wd // w) * b * 8
        )
        sample = None
        if edges:
            keep_mask = np.ones(m * wd, dtype=bool)
            for lo, hi, masks in edges:
                full = np.ones((w, hi - lo), dtype=bool)
                _outer(
                    np.logical_and,
                    [full if mk is None else mk for mk in masks],
                    keep_mask[lo * wd:hi * wd],
                )
            keep = np.flatnonzero(keep_mask)
            nnz = keep.size
            aug_idx[prefix:prefix + nnz] = flat[keep]
            wgt[:nnz] = wgt[keep]
            sample = keep // wd
            aug_idx, wgt = aug_idx[:prefix + nnz], wgt[:nnz]
            # kept masks + combined mask + keep/sample + compressed copies
            transient += len(edges) * d * w * b + m * wd + nnz * (24 + 8)
        return ChunkEntries(
            m=m,
            wd=wd,
            aug_idx=aug_idx,
            weight=wgt,
            sample=sample,
            checks=m * w * d,
            seconds=time.perf_counter() - t0,
            transient_bytes=transient,
        )

    # ------------------------------------------------------------------
    # plan cache
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> None:
        """Drop cached plans and the remembered key of the last
        coordinate array."""
        super().invalidate_cache()
        self._plan_cache.clear()

    def _plan_stats(
        self, m: int, n_rhs: int, plan: CompiledPlan, hit: bool
    ) -> GriddingStats:
        """Per-call stats for a compiled-plan pass, stamped with the lane.

        A plan **miss** pays the generator's select work once — ``M * W * d``
        boundary checks and LUT reads, ``M * W^d`` issued lane slots — plus
        the recorded compile seconds; no select tables are built.  A plan
        **hit** is the paper's select-unit-reuse payoff: zero boundary
        checks, zero LUT reads, and every issued lane slot does useful
        work (``simd_active_lanes == simd_lane_slots == nnz`` — the
        gather has no divergence to waste slots on).  Value work
        (``interpolations`` MACs, dice accesses) always scales with the
        batch.  ``peak_bytes`` is the ``K``-RHS dice plus the plan and —
        on a miss — the compile's transient bytes.
        """
        dice_bytes = n_rhs * plan.n_rows * plan.n_tiles * self.setup.dtype.itemsize
        return self._stamp(GriddingStats(
            boundary_checks=0 if hit else plan.checks,
            interpolations=plan.nnz * n_rhs,
            samples_processed=m,
            presort_operations=0,
            grid_accesses=plan.nnz * n_rhs,
            lut_lookups=0 if hit else plan.checks,
            simd_active_lanes=plan.nnz,
            simd_lane_slots=(
                plan.nnz if hit else m * self.setup.width ** self.setup.ndim
            ),
            cache_hits=1 if hit else 0,
            cache_misses=0 if hit else 1,
            plan_compile_seconds=0.0 if hit else plan.compile_seconds,
            plan_nnz=plan.nnz,
            peak_bytes=(
                dice_bytes + plan.nbytes + (0 if hit else plan.build_bytes)
            ),
        ))

    def _compile(self, coords: np.ndarray) -> CompiledPlan:
        """Generate the trajectory's entries in one pass and transpose
        them (a stable counting sort) into the dice-major matrix."""
        t0 = time.perf_counter()
        m = coords.shape[0]
        n_flat = self.layout.n_columns * self.layout.n_tiles
        nnz = m * self.setup.width ** self.setup.ndim
        index = np.int32 if n_flat <= np.iinfo(np.int32).max else np.int64
        entries = self._chunk_entries(
            coords,
            np.empty(nnz, dtype=index),
            np.empty(nnz, dtype=self.setup.real_dtype),
        )
        by_sample = sparse.csr_matrix(
            (entries.weight, entries.flat, entries.indptr()),
            shape=(m, n_flat),
        )
        matrix = by_sample.T.tocsr()
        build_bytes = entries.transient_bytes + sum(
            a.nbytes for a in (by_sample.data, by_sample.indices, by_sample.indptr)
        )
        return CompiledPlan(
            matrix=matrix,
            n_rows=self.layout.n_columns,
            n_tiles=self.layout.n_tiles,
            checks=entries.checks,
            compile_seconds=time.perf_counter() - t0,
            build_bytes=build_bytes,
        )

    def _fetch_plan(self, coords: np.ndarray) -> tuple[CompiledPlan, bool]:
        """The trajectory's compiled plan plus whether it was a cache hit.

        Same fingerprint keying, LRU move-to-end, and in-place-mutation
        contract as the parent's table cache.
        """
        key = self._coords_key(coords) if self.plan_cache_size else None
        if key is not None:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.pop(key)
                self._plan_cache[key] = cached
                return cached, True
        plan = self._compile(coords)
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
        self.stats = self._plan_stats(coords.shape[0], 1, plan, hit)

    def _grid_batch_impl(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Batched adjoint gridding from the compiled plan.

        One plan fetch (hit after the first call per trajectory), then
        one sparse kernel call (or one fused numba pass) for the stack.
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
        self.stats = self._plan_stats(coords.shape[0], k_rhs, plan, hit)

    def _apply_grid(
        self, plan: CompiledPlan, values_stack: np.ndarray
    ) -> np.ndarray:
        """``(K, n_rows * n_tiles)`` raveled dice for a value stack.

        The dice always comes from :meth:`_acquire_buffer` (the caller
        releases it to the pool, so a fresh matmul result must be copied
        in, never returned) and is released back on any failure
        mid-fill.
        """
        k_rhs = values_stack.shape[0]
        lane = self._select_lane(plan.nnz)
        # the fused lanes accumulate into the dice; the NumPy lane
        # overwrites it
        dice_flat = self._acquire_buffer(
            (k_rhs, plan.n_rows * plan.n_tiles), zero=lane != "numpy"
        )
        try:
            mat = plan.matrix
            kernel = "rows-parallel" if lane == "numba-parallel" else "rows-serial"
            if lane == "numpy" or not self._launch(
                lane, "scatter", kernel,
                values_stack, mat.indptr, mat.indices, mat.data, dice_flat,
            ):
                self._used_lane = "numpy"
                dice_flat[...] = _real_pair_matmul(mat, values_stack)
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

        The transpose pass over the same plan: ``A.T @ X`` for the
        stack, summing each sample's weighted dice words.
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
        self.stats = self._plan_stats(m, k_rhs, plan, hit)
        return out

    def _apply_interp(
        self, plan: CompiledPlan, dice_flat: np.ndarray, m: int
    ) -> np.ndarray:
        """``(K, m)`` interpolated samples from the raveled dice stack
        (the forward counterpart of :meth:`_apply_grid`)."""
        lane = self._select_lane(plan.nnz)
        if lane != "numpy":
            out = np.zeros((dice_flat.shape[0], m), dtype=self.setup.dtype)
            if lane == "numba-parallel":
                mat, kernel = plan.by_sample(), "rows-parallel"
            else:
                mat, kernel = plan.matrix, "cols-serial"
            if self._launch(
                lane, "gather", kernel,
                dice_flat, mat.indptr, mat.indices, mat.data, out,
            ):
                return out
        self._used_lane = "numpy"
        return _real_pair_matmul(plan.matrix.T, dice_flat)

    # ------------------------------------------------------------------
    def address_trace(self, coords: np.ndarray) -> np.ndarray:
        """Dice addresses in the serial engine's processing order (dice
        rows ascending, samples ascending within a row), read off the
        plan's matrix."""
        coords = self.setup.check_coords(coords)
        if coords.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        plan, _ = self._fetch_plan(coords)
        mat = plan.matrix
        addr = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        return addr[np.lexsort((mat.indices, addr // plan.n_tiles))]


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
