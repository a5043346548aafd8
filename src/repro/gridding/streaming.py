"""Streaming chunked gridding: bounded-memory NUFFT at 10⁸ samples.

Every one-shot engine materializes O(M·W^d) state per trajectory — the
``M``-length select tables and the compiled scatter plan — so the
trajectory size, not compute, is the scaling wall.  The paper's
Slice-and-Dice decomposition is fundamentally a *locality* argument:
the dice accumulator is O(grid) and every sample touches at most one
point per column, so nothing about the algorithm requires the whole
sample stream to be resident.  This module exploits that:

- :class:`SampleStream` feeds fixed-size chunks from in-memory arrays
  (including ``np.memmap``), generators, or raw binary files read
  O(chunk) at a time;
- :class:`StreamingSliceAndDiceGridder` generates each chunk's window
  entries on the fly, **in sample order**, and accumulates them into
  one pooled dice — JIGSAW's select → weight → accumulate pipeline,
  which evaluates each sample's boundary check and LUT weight as the
  sample streams past and never stores a scatter plan.  Nothing is
  compiled or cached per chunk: the entries land in persistent scratch
  that is reused chunk after chunk, so peak memory is
  **O(chunk·W^d + grid)** however long the stream is;
- a *pipelined* mode generates chunk ``k+1``'s entries on a prefetch
  worker thread while chunk ``k`` accumulates, degrading stickily to
  unpipelined streaming (with a recorded
  :class:`~repro.errors.DegradationEvent`) if the worker fails.

Chunk entries
-------------
Each chunk's entries come from the compiled engine's entry generator
(:meth:`~repro.core.CompiledSliceAndDiceGridder._chunk_entries`; the
construction is in :mod:`repro.core.compiled`), so the two engines
share one select implementation: per axis only the ``W`` candidate
columns are evaluated (``m * W * d`` boundary checks), and a chunk's
``(m, W^d)`` dice addresses and weights come out sample by sample,
ascending row within a sample — the CSR matrix of the chunk's ``A.T``.
The one-shot compiled plan is the same generator's output over the
whole trajectory, transposed once; here it lands in persistent scratch
and is consumed chunk by chunk.  The fused lanes run
:func:`repro.core.jit.csr_cols` (scatter) and
:func:`~repro.core.jit.csr_rows` (gather) over the chunk's CSR arrays.

Incremental-accumulation bit-identity
-------------------------------------
The adjoint's correctness argument rests on two facts:

1. :meth:`~repro.core.DiceLayout.dice_to_grid` is a pure
   reshape/transpose — **no additions** happen outside the dice — so
   chunked accumulation is decided entirely inside the dice words.
2. Per dice word, the one-shot compiled engine accumulates
   contributions in ascending global sample order.  A sample reaches any one word at
   most once (one point per column), so entries emitted sample by
   sample also reach each word in ascending sample order; chunks
   partition the stream in order, so concatenating the chunks'
   per-word sequences reproduces the global ascending order exactly.
   The NumPy lane makes the *partial-sum chain* identical too by
   seeding each chunk's ``bincount`` with the current dice values
   (index ``arange(n_flat)`` entries prepended): a fresh ``bincount``
   accumulator starts at ``0.0`` and ``0.0 + seed == seed`` exactly,
   so every chunk continues the exact float64 addition chain of the
   one-shot pass — streamed output is ``np.array_equal`` to the
   one-shot compiled engine at complex128 for **any** chunk size.  At
   complex64 the NumPy lane rounds the dice to float32 at each chunk
   boundary (``np.bincount`` internally accumulates in float64), so it
   is close-but-not-bit-equal there; the JIT and serial lanes
   accumulate natively in the working dtype in entry order and are
   bit-identical to the one-shot compiled engine's numba lanes at
   *both* precisions.

The forward direction is simpler: each chunk owns a disjoint slice of
the output sample vector, and within a chunk each sample's
contributions accumulate in ascending row order — the order the
generator emits them and the serial order — so streamed interpolation
is bit-identical in every lane and dtype.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from ..core.compiled import ChunkEntries, CompiledSliceAndDiceGridder
from ..core.jit import jit_available
from ..errors import DegradationEvent
from ..robustness.checkpoint import StreamCheckpoint
from ..robustness.faults import (
    corrupt_chunk,
    stage_worker_faults,
    worker_fault_point,
)
from ..robustness.validate import apply_quality_policy
from .base import GriddingSetup, GriddingStats

__all__ = [
    "SampleStream",
    "StreamingSliceAndDiceGridder",
    "choose_chunk_samples",
]

#: default fixed chunk size (samples) — large enough that per-chunk
#: Python overhead amortizes, small enough that the per-chunk working
#: set stays in the tens of megabytes on 2-D problems
DEFAULT_CHUNK_SAMPLES = 65536


class SampleStream:
    """A source of fixed-size ``(coords, values)`` sample chunks.

    Construct via the classmethods; iterate with :meth:`chunks`.
    Array- and file-backed streams are re-iterable; generator-backed
    streams (:meth:`from_chunks`) are single-use, like the generator
    they wrap.

    Attributes
    ----------
    m:
        Total samples when known (arrays/files), else ``None``
        (generator sources) — the engine never needs it up front.

    Examples
    --------
    >>> import numpy as np
    >>> coords = np.arange(10, dtype=np.float64).reshape(5, 2)
    >>> values = np.ones(5, dtype=complex)
    >>> stream = SampleStream.from_arrays(coords, values, chunk_samples=2)
    >>> [c.shape[0] for c, v in stream.chunks()]
    [2, 2, 1]
    """

    def __init__(self, factory, m: int | None = None, single_use: bool = False):
        self._factory = factory
        self._consumed = False
        self.m = None if m is None else int(m)
        self.single_use = bool(single_use)

    def chunks(self):
        """Iterate ``(coords, values_or_None)`` chunk pairs in order."""
        if self.single_use and self._consumed:
            raise RuntimeError(
                "generator-backed SampleStream is single-use; rebuild it "
                "(array/file streams are re-iterable)"
            )
        self._consumed = True
        return self._factory()

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        coords: np.ndarray,
        values: np.ndarray | None = None,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    ) -> "SampleStream":
        """Chunk in-memory (or ``np.memmap``) arrays.

        ``values`` may be ``(M,)`` or batched ``(K, M)``.  Each chunk
        is lifted into a fresh in-RAM array (``np.ascontiguousarray``),
        so a memmap source only ever has O(chunk) pages hot.
        """
        chunk_samples = _check_chunk_samples(chunk_samples)
        m = int(coords.shape[0])
        if values is not None and values.shape[-1] != m:
            raise ValueError(
                f"{values.shape[-1]} values but {m} coordinates"
            )

        def factory():
            for lo in range(0, m, chunk_samples):
                hi = min(lo + chunk_samples, m)
                c = np.ascontiguousarray(coords[lo:hi])
                v = (
                    None
                    if values is None
                    else np.ascontiguousarray(values[..., lo:hi])
                )
                yield c, v

        return cls(factory, m=m)

    @classmethod
    def from_chunks(cls, iterable, m: int | None = None) -> "SampleStream":
        """Wrap an iterable/generator of ``(coords, values)`` pairs.

        Chunks may be ragged; ``values`` may be ``None`` for
        interpolation streams.  Single-use when given a generator.
        """
        it = iter(iterable)
        return cls(lambda: it, m=m, single_use=True)

    @classmethod
    def from_file(
        cls,
        coords_path,
        *,
        m: int,
        ndim: int,
        values_path=None,
        coords_dtype=np.float64,
        values_dtype=np.complex128,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    ) -> "SampleStream":
        """Stream raw binary files with O(chunk) resident bytes.

        ``coords_path`` holds a C-order ``(m, ndim)`` array of
        ``coords_dtype``; ``values_path`` (optional) a ``(m,)`` array
        of ``values_dtype``.  Chunks are read with offset
        ``np.fromfile`` reads, so — unlike an ``np.memmap`` over the
        whole file — neither the virtual address space nor the resident
        set ever holds more than one chunk.  This is the 10⁸-sample
        path: the trajectory lives on disk, RSS stays O(chunk + grid).
        """
        chunk_samples = _check_chunk_samples(chunk_samples)
        m = int(m)
        ndim = int(ndim)
        coords_path = Path(coords_path)
        values_path = None if values_path is None else Path(values_path)
        cdt = np.dtype(coords_dtype)
        vdt = np.dtype(values_dtype)

        def factory():
            for lo in range(0, m, chunk_samples):
                hi = min(lo + chunk_samples, m)
                n = hi - lo
                c = np.fromfile(
                    coords_path,
                    dtype=cdt,
                    count=n * ndim,
                    offset=lo * ndim * cdt.itemsize,
                ).reshape(n, ndim)
                v = None
                if values_path is not None:
                    v = np.fromfile(
                        values_path,
                        dtype=vdt,
                        count=n,
                        offset=lo * vdt.itemsize,
                    )
                yield c, v

        return cls(factory, m=m)


def _check_chunk_samples(chunk_samples: int) -> int:
    chunk_samples = int(chunk_samples)
    if chunk_samples < 1:
        raise ValueError(f"chunk_samples must be >= 1, got {chunk_samples}")
    return chunk_samples


def choose_chunk_samples(
    m: int,
    grid_shape: tuple[int, ...],
    width: int,
    dtype=np.complex128,
    max_bytes: int | None = None,
    k_rhs: int = 1,
    tile_size: int = 8,
) -> int:
    """Largest chunk size that keeps a streamed pass under ``max_bytes``.

    Models the streamed working set as a fixed part (the dice plus the
    seeded-``bincount`` index/weight prefix, both O(grid)) and a
    per-sample part (chunk coordinate/value slices plus per-entry
    scratch, all O(chunk)).  The per-entry term is an upper bound: it
    models 56 bytes per entry where the engine holds about 24, so a
    budget is met with room to spare, and existing budgets keep the
    chunk schedules they were tuned for.  Returns ``m`` (one chunk)
    when the whole trajectory fits.

    Raises
    ------
    ValueError
        If the fixed O(grid) part alone exceeds ``max_bytes`` — no
        chunk size can satisfy the budget.

    Examples
    --------
    >>> choose_chunk_samples(10**8, (256, 256), 4, max_bytes=2**30) > 0
    True
    >>> choose_chunk_samples(1000, (64, 64), 4, max_bytes=None)
    1000
    """
    m = int(m)
    if max_bytes is None:
        return max(m, 1)
    cdt = np.dtype(dtype)
    rdt = np.dtype(np.float32 if cdt == np.dtype(np.complex64) else np.float64)
    ndim = len(grid_shape)
    n_flat = int(np.prod(grid_shape))
    wd = int(width) ** ndim
    # fixed: dice (K RHS) + aug-bincount seed prefix (int64 idx + weight)
    fixed = k_rhs * n_flat * cdt.itemsize + n_flat * (8 + rdt.itemsize)
    if fixed >= max_bytes:
        raise ValueError(
            f"grid-resident state ({fixed} bytes) alone exceeds "
            f"max_bytes={max_bytes}; no chunk size can satisfy the budget"
        )
    # per sample: coords + values + per-axis terms over T columns +
    # per entry 8 + 8 + 8 + r + 2r + r bytes (an upper bound on the
    # entry scratch; see the docstring)
    per_sample = (
        ndim * 8
        + k_rhs * cdt.itemsize
        + ndim * tile_size * (1 + rdt.itemsize + 2)
        + wd * (8 + 8 + rdt.itemsize + 2 * rdt.itemsize + 8 + rdt.itemsize)
    )
    chunk = int((max_bytes - fixed) // per_sample)
    return max(1, min(chunk, max(m, 1)))


class StreamingSliceAndDiceGridder(CompiledSliceAndDiceGridder):
    """Chunked streaming Slice-and-Dice with plan-free chunk entries.

    Array calls (:meth:`grid` etc.) are chunked internally after the
    usual public-boundary gate; :meth:`grid_stream` /
    :meth:`interp_stream` accept a :class:`SampleStream` whose chunks
    are gated individually (corruption hook + quality policy + torus
    wrap), so out-of-core sources get the same robustness contract.

    Parameters
    ----------
    setup:
        Shared problem description (same constraints as the parent).
    chunk_samples:
        Fixed chunk size; the per-chunk working set — not ``M`` —
        bounds peak memory.
    lane:
        Per-chunk accumulate lane: ``"auto"`` (JIT when numba is
        importable, else NumPy), ``"jit"`` (fused entry-order loops;
        degrades to NumPy with a recorded event when unavailable),
        ``"numpy"`` (seeded ``bincount`` — bit-identical to the
        one-shot compiled engine at complex128), or ``"serial"`` (the
        raw Python reference loops — slow, dependency-free, exactly
        entry-ordered).  Lane selection, sticky demotion, and event
        stamping are the compiled engine's; events carry component
        ``"streaming"``.
    pipelined:
        Generate the next chunk's entries on a prefetch worker thread
        while the current chunk accumulates (two scratch slots instead
        of one).  A worker failure demotes stickily to unpipelined
        streaming (recorded :class:`~repro.errors.DegradationEvent`);
        results are bit-identical either way.
    plan_cache_size:
        Accepted for signature compatibility with the compiled engine
        and validated (``>= 0``), but it has no effect here: chunk
        entries are generated per call and never cached.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gridding import GriddingSetup, make_gridder
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> stm = make_gridder("slice_and_dice_streaming", setup, chunk_samples=32)
    >>> ref = make_gridder("slice_and_dice_compiled", setup)
    >>> rng = np.random.default_rng(0)
    >>> coords = rng.uniform(0, 32, (100, 2))
    >>> values = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    >>> bool(np.array_equal(stm.grid(coords, values), ref.grid(coords, values)))
    True
    >>> stm.stats.chunks, stm.stats.peak_bytes < ref.stats.peak_bytes
    (4, True)
    >>> stm.stats.boundary_checks, stm.stats.cache_misses  # 100 * W * d, no plans
    (1200, 0)
    """

    name = "slice_and_dice_streaming"

    _LANES = ("auto", "jit", "numpy", "serial")
    #: ``"auto"`` falls back to NumPy per call without an event
    _NUMBA_LANES = ("jit",)
    _LANE_COMPONENT = "streaming"

    #: cooperative :class:`~repro.robustness.CancelToken` checked once
    #: per chunk; set per call by the owner (the NuFFT plan / service
    #: worker) and cleared in its ``finally`` so cached gridders never
    #: retain a stale token
    cancel_token = None
    #: :class:`~repro.robustness.CheckpointConfig` driving snapshot /
    #: resume of streamed adjoints; same set-and-clear ownership rule
    checkpoint = None
    #: per-call resume record: ``{"chunk_cursor", "sample_cursor"}``
    #: when the last adjoint was seeded from a checkpoint, else None
    last_resume = None

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
        lane: str = "auto",
        pipelined: bool = False,
        plan_cache_size: int = 8,
    ):
        if plan_cache_size < 0:
            raise ValueError(
                f"plan_cache_size must be >= 0, got {plan_cache_size}"
            )
        super().__init__(
            setup, tile_size=tile_size, lane=lane, plan_cache_size=0
        )
        self.chunk_samples = _check_chunk_samples(chunk_samples)
        self.pipelined = bool(pipelined)
        #: sticky pipelining health — a failed prefetch worker disables
        #: pipelining for the life of the instance, never mid-retries it
        self._pipeline_ok = True
        self._reset_scratch()

    # ------------------------------------------------------------------
    # lanes + pipeline demotion
    # ------------------------------------------------------------------
    def _select_lane(self, nnz: int) -> str:
        """``"jit"`` (and ``"auto"`` while numba imports) run the serial
        kernels: a chunk's entries are sample-major, so its scatter is
        a column pass whose dice-word writes cannot be sharded
        race-free."""
        if self._lane == "auto":
            return "numba-serial" if jit_available() else "numpy"
        return "numba-serial" if self._lane == "jit" else self._lane

    def _demote_pipeline(self, exc: BaseException) -> None:
        self._record(
            DegradationEvent("streaming", "pipelined", "unpipelined", repr(exc))
        )
        self._pipeline_ok = False

    def invalidate_cache(self) -> None:
        super().invalidate_cache()
        self._reset_scratch()

    # ------------------------------------------------------------------
    # persistent scratch
    # ------------------------------------------------------------------
    def _reset_scratch(self) -> None:
        #: per slot (two when pipelined — the prefetch worker fills one
        #: while the caller accumulates from the other): int64 indices
        #: with an ``arange(n_flat)`` prefix, and the entry weights
        self._aug_idx: list[np.ndarray | None] = [None, None]
        self._entry_wgt: list[np.ndarray | None] = [None, None]
        #: caller-side seeded-bincount weights (dice seed + weighted
        #: values) — doubles as the forward gather buffer
        self._aug_wgt: np.ndarray | None = None
        #: ``repeat(arange(m), W^d)``: sample index of dense entries,
        #: built only by the NumPy lane's forward
        self._dense_sample: np.ndarray | None = None

    def _slot_scratch(
        self, slot: int, n_flat: int, nnz: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Slot ``slot``'s ``(n_flat + nnz)`` seeded index and ``(nnz,)``
        weight buffers, grown (never shrunk) on demand."""
        rdt = self.setup.real_dtype
        idx, wgt = self._aug_idx[slot], self._entry_wgt[slot]
        if idx is None or idx.size < n_flat + nnz or wgt.dtype != rdt:
            idx = np.empty(n_flat + nnz, dtype=np.int64)
            idx[:n_flat] = np.arange(n_flat, dtype=np.int64)
            wgt = np.empty(nnz, dtype=rdt)
            self._aug_idx[slot], self._entry_wgt[slot] = idx, wgt
        return idx[:n_flat + nnz], wgt[:nnz]

    def _weight_scratch(self, size: int) -> np.ndarray:
        buf = self._aug_wgt
        if buf is None or buf.size < size or buf.dtype != self.setup.real_dtype:
            buf = self._aug_wgt = np.empty(size, dtype=self.setup.real_dtype)
        return buf[:size]

    def _samples(self, entries: ChunkEntries) -> np.ndarray:
        """Per-entry sample index (compressed chunks carry their own)."""
        if entries.sample is not None:
            return entries.sample
        nnz = entries.m * entries.wd
        dense = self._dense_sample
        if dense is None or dense.size < nnz:
            dense = self._dense_sample = np.repeat(
                np.arange(entries.m, dtype=np.int64), entries.wd
            )
        return dense[:nnz]

    def _scratch_bytes(self) -> int:
        arrays = self._aug_idx + self._entry_wgt + [
            self._aug_wgt, self._dense_sample,
        ]
        return sum(a.nbytes for a in arrays if a is not None)

    # ------------------------------------------------------------------
    # chunk entry generation (the select + weight stages)
    # ------------------------------------------------------------------
    def _entries(self, coords: np.ndarray, slot: int = 0) -> ChunkEntries | None:
        """One chunk's entries, generated into scratch slot ``slot``
        (``None`` for an empty chunk)."""
        m = coords.shape[0]
        if not m:
            return None
        n_flat = self.layout.n_columns * self.layout.n_tiles
        nnz = m * self.setup.width ** self.setup.ndim
        return self._chunk_entries(coords, *self._slot_scratch(slot, n_flat, nnz))

    # ------------------------------------------------------------------
    # per-chunk scatter / gather (the accumulate stage)
    # ------------------------------------------------------------------
    def _scatter_chunk_numpy(
        self, entries: ChunkEntries, values_stack: np.ndarray, dice_flat: np.ndarray
    ) -> None:
        """Seeded ``bincount`` accumulate: one bincount per real part
        whose first ``n_flat`` entries re-deposit the current dice
        values, so every per-word partial-sum chain continues the
        one-shot chain exactly (bit-identical at complex128)."""
        self._used_lane = "numpy"
        n_flat = dice_flat.shape[1]
        aug_wgt = self._weight_scratch(n_flat + entries.nnz)
        seed, suffix = aug_wgt[:n_flat], aug_wgt[n_flat:]
        for k in range(values_stack.shape[0]):
            dice_k, values_k = dice_flat[k], values_stack[k]
            for dice_part, value_part in (
                (dice_k.real, values_k.real), (dice_k.imag, values_k.imag)
            ):
                seed[...] = dice_part
                entries.weigh(value_part, suffix)
                dice_part[...] = np.bincount(
                    entries.aug_idx, weights=aug_wgt, minlength=n_flat
                )

    def _scatter_chunk(
        self, entries: ChunkEntries, values_stack: np.ndarray, dice_flat: np.ndarray
    ) -> None:
        """Accumulate one chunk's entries into the persistent dice.

        Fault, dispatch, and compile failures of a fused launch fire
        before any entry is written (:meth:`_launch`), so the NumPy
        replay cannot double-count into the dice earlier chunks share."""
        if entries.nnz == 0:
            return
        lane = self._select_lane(entries.nnz)
        if lane == "numpy" or not self._launch(
            lane, "scatter", "cols-serial", values_stack, entries.indptr(),
            entries.flat, entries.weight, dice_flat,
        ):
            self._scatter_chunk_numpy(entries, values_stack, dice_flat)

    def _gather_chunk_numpy(
        self, entries: ChunkEntries, dice_flat: np.ndarray, out: np.ndarray
    ) -> None:
        """Gather, weight, and segment-sum keyed by sample; per sample
        the ``bincount`` adds in ascending row order (the serial order)."""
        self._used_lane = "numpy"
        sample = self._samples(entries)
        buf = self._weight_scratch(entries.nnz)
        for k in range(dice_flat.shape[0]):
            dice_k, out_k = dice_flat[k], out[k]
            for dice_part, out_part in (
                (dice_k.real, out_k.real), (dice_k.imag, out_k.imag)
            ):
                np.take(dice_part, entries.flat, out=buf, mode="clip")
                buf *= entries.weight
                out_part[...] = np.bincount(
                    sample, weights=buf, minlength=entries.m
                )

    def _gather_chunk(
        self, entries: ChunkEntries, dice_flat: np.ndarray
    ) -> np.ndarray:
        """One chunk's forward interpolation: ``(K, m_chunk)``."""
        out = np.zeros((dice_flat.shape[0], entries.m), dtype=self.setup.dtype)
        lane = self._select_lane(entries.nnz)
        if lane == "numpy" or not self._launch(
            lane, "gather", "rows-serial", dice_flat, entries.indptr(),
            entries.flat, entries.weight, out,
        ):
            self._gather_chunk_numpy(entries, dice_flat, out)
        return out

    # ------------------------------------------------------------------
    # chunk iteration + pipelined entry prefetch
    # ------------------------------------------------------------------
    def _array_chunks(self, coords: np.ndarray, values_stack: np.ndarray | None):
        """Chunk pre-gated arrays (the template-method impl path)."""
        m = coords.shape[0]
        for lo in range(0, m, self.chunk_samples):
            hi = min(lo + self.chunk_samples, m)
            v = None if values_stack is None else values_stack[:, lo:hi]
            yield coords[lo:hi], v

    def _gate_chunk(
        self, index: int, coords: np.ndarray, values: np.ndarray | None
    ):
        """Per-chunk public-boundary gate for stream sources.

        Corruption hook + quality policy + torus wrap, exactly the
        :meth:`Gridder._gate_samples` contract applied chunk-wise —
        under ``quality_policy="raise"`` a poisoned mid-stream chunk
        aborts the pass (the caller's ``finally`` releases the dice,
        leaving no partial accumulation behind).
        """
        coords = self.setup.coerce_coords(coords)
        values_stack = None
        if values is not None:
            values_stack = np.asarray(values, dtype=self.setup.dtype)
            if values_stack.ndim == 1:
                values_stack = values_stack[None, :]
            if values_stack.shape[-1] != coords.shape[0]:
                raise ValueError(
                    f"chunk {index}: {values_stack.shape[-1]} values but "
                    f"{coords.shape[0]} coordinates"
                )
        coords, values_stack = corrupt_chunk(index, coords, values_stack)
        coords, values_stack, bad, report = apply_quality_policy(
            coords, values_stack, self.setup.quality_policy,
            self.setup.grid_shape,
        )
        return self.setup.check_coords(coords), values_stack, bad, report

    def _entry_chunks(self, chunk_iter):
        """Yield ``(coords, values, entries)`` per chunk, in order
        (``entries`` is ``None`` for an empty chunk).

        Unpipelined: generate each chunk's entries inline into scratch
        slot 0.  Pipelined: a one-worker prefetch pool generates chunk
        ``k+1``'s entries into the other slot while the caller
        accumulates chunk ``k`` (the next job is submitted *before* the
        current chunk is yielded).  The chunk pull itself stays on the
        calling thread so source/gate exceptions surface exactly as in
        the unpipelined path.
        """
        if not (self.pipelined and self._pipeline_ok):
            for coords_c, values_c in chunk_iter:
                yield coords_c, values_c, self._entries(coords_c)
            return

        chunk_iter = iter(chunk_iter)
        stage_worker_faults(1)

        def generate(chunk_coords, slot):
            worker_fault_point(0)
            return self._entries(chunk_coords, slot)

        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="stream-prefetch"
        )

        def submitted():
            # alternate slots per non-empty chunk: the slot a job fills
            # was last read by the chunk two back, already accumulated
            slot = 0
            for coords_c, values_c in chunk_iter:
                fut = None
                if coords_c.shape[0]:
                    fut = executor.submit(generate, coords_c, slot)
                    slot ^= 1
                yield coords_c, values_c, fut

        try:
            queue = submitted()
            cur = next(queue, None)
            while cur is not None:
                nxt = next(queue, None)
                coords_c, values_c, fut = cur
                try:
                    entries = None if fut is None else fut.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    # sticky demotion: let the in-flight job release its
                    # slot, regenerate inline, and finish the pass (and
                    # all later passes) unpipelined
                    self._demote_pipeline(exc)
                    if nxt is not None and nxt[2] is not None:
                        nxt[2].exception()
                    yield coords_c, values_c, self._entries(coords_c)
                    if nxt is not None:
                        yield nxt[0], nxt[1], self._entries(nxt[0])
                    for coords_r, values_r in chunk_iter:
                        yield coords_r, values_r, self._entries(coords_r)
                    return
                yield coords_c, values_c, entries
                cur = nxt
        finally:
            executor.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _chunk_stats(
        self,
        entries: ChunkEntries,
        k_rhs: int,
        coords_c: np.ndarray,
        values_c: np.ndarray | None,
    ) -> GriddingStats:
        """One chunk's stats: the checks and LUT reads the generator
        evaluated, the entries accumulated, and the streaming gauges.
        No plan is compiled or cached, so ``cache_hits``/``cache_misses``
        stay 0 and ``plan_compile_seconds`` carries the generation."""
        n_flat = self.layout.n_columns * self.layout.n_tiles
        chunk_io = coords_c.nbytes + (0 if values_c is None else values_c.nbytes)
        scratch = self._scratch_bytes()
        nnz = entries.nnz
        return GriddingStats(
            boundary_checks=entries.checks,
            interpolations=nnz * k_rhs,
            samples_processed=entries.m,
            presort_operations=0,
            grid_accesses=nnz * k_rhs,
            lut_lookups=entries.checks,
            simd_active_lanes=nnz,
            simd_lane_slots=entries.m * entries.wd,
            plan_compile_seconds=entries.seconds,
            plan_nnz=nnz,
            chunks=1,
            chunk_bytes=chunk_io + scratch,
            # dice + chunk + scratch + generation temporaries + one
            # float64 bincount result
            peak_bytes=(
                k_rhs * n_flat * self.setup.dtype.itemsize
                + chunk_io + scratch + entries.transient_bytes
                + n_flat * 8
            ),
        )

    # ------------------------------------------------------------------
    # template-method impls (array path, chunked internally)
    # ------------------------------------------------------------------
    def _grid_batch_impl(
        self, coords: np.ndarray, values_stack: np.ndarray, out: np.ndarray
    ) -> None:
        k_rhs = values_stack.shape[0]
        total = self._stream_into_dice(
            self._array_chunks(coords, values_stack), k_rhs, out
        )
        self.stats = self._stamp(total)

    def _grid_impl(
        self, coords: np.ndarray, values: np.ndarray, grid: np.ndarray
    ) -> None:
        self._grid_batch_impl(
            coords, values[None, :], grid[None]
        )

    def _interp_batch_impl(
        self, grid_stack: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        k_rhs = grid_stack.shape[0]
        m = coords.shape[0]
        out = np.empty((k_rhs, m), dtype=self.setup.dtype)
        total = GriddingStats()
        n_flat = self.layout.n_columns * self.layout.n_tiles
        dice_flat = self._acquire_buffer((k_rhs, n_flat), zero=False)
        try:
            for k in range(k_rhs):
                dice_flat[k] = self.layout.grid_to_dice(grid_stack[k]).reshape(-1)
            lo = 0
            for coords_c, _, entries in self._entry_chunks(
                self._array_chunks(coords, None)
            ):
                if self.cancel_token is not None:
                    self.cancel_token.check()
                m_c = coords_c.shape[0]
                if m_c == 0:
                    continue
                out[:, lo:lo + m_c] = self._gather_chunk(entries, dice_flat)
                total.accumulate(
                    self._chunk_stats(entries, k_rhs, coords_c, None)
                )
                lo += m_c
        finally:
            self._release_buffer(dice_flat)
        self.stats = self._stamp(total)
        return out

    def _stream_into_dice(self, chunk_iter, k_rhs: int, out: np.ndarray):
        """Shared adjoint core: accumulate gated chunks into one pooled
        dice, then unstack into ``out`` (``(K,) + grid_shape``).

        The dice is released on *every* exit path — a mid-stream
        failure (corrupted chunk under ``raise``, a source error) can
        strand no pooled storage and leaves no partial accumulation
        visible anywhere: the next call starts from a freshly zeroed
        dice.

        Lifecycle hooks, both opt-in via instance attributes:

        - ``self.cancel_token`` is checked once per chunk, *before* the
          chunk is scattered — cancellation (or a deadline) aborts at a
          chunk boundary with the dice released and, when checkpointing
          is on, the latest snapshot still in the store for resume.
        - ``self.checkpoint`` (a
          :class:`~repro.robustness.CheckpointConfig`) seeds the dice
          from a matching stored snapshot and skips the first
          ``chunk_cursor`` chunks of the replayed stream (skipped
          chunks never have entries generated or scattered), then
          saves a fresh snapshot every ``every`` accumulated chunks.
          Because the accumulation chain is seeded (module docstring),
          the resumed output is bit-identical to an uninterrupted run.
          A stale snapshot (fingerprint/shape mismatch) is ignored with
          a recorded :class:`~repro.errors.DegradationEvent` — never
          blended in.
        """
        total = GriddingStats()
        n_flat = self.layout.n_columns * self.layout.n_tiles
        token = self.cancel_token
        ckpt = self.checkpoint
        self.last_resume = None
        snap = None
        if ckpt is not None and ckpt.resume:
            candidate = ckpt.store.load(ckpt.key)
            if candidate is not None:
                if candidate.matches(ckpt.fingerprint, (k_rhs, n_flat)):
                    snap = candidate
                else:
                    self._record(
                        DegradationEvent(
                            "checkpoint", "resume", "fresh",
                            f"stale snapshot for key {ckpt.key!r} ignored",
                        )
                    )
        cursor = 0
        sample_cursor = 0
        skip = 0
        dice_flat = self._acquire_buffer((k_rhs, n_flat), zero=True)
        try:
            if snap is not None:
                dice_flat[...] = snap.dice
                cursor = snap.chunk_cursor
                sample_cursor = snap.sample_cursor
                skip = snap.chunk_cursor
                self.last_resume = {
                    "chunk_cursor": snap.chunk_cursor,
                    "sample_cursor": snap.sample_cursor,
                }

            if skip:
                def remaining(it=chunk_iter, n=skip):
                    for index, chunk in enumerate(it):
                        if index < n:
                            continue
                        yield chunk
                chunk_iter = remaining()

            for coords_c, values_c, entries in self._entry_chunks(chunk_iter):
                if token is not None:
                    token.check()
                if coords_c.shape[0]:
                    self._scatter_chunk(entries, values_c, dice_flat)
                    total.accumulate(
                        self._chunk_stats(entries, k_rhs, coords_c, values_c)
                    )
                    sample_cursor += coords_c.shape[0]
                cursor += 1
                if ckpt is not None and cursor % ckpt.every == 0:
                    ckpt.store.save(
                        ckpt.key,
                        StreamCheckpoint(
                            fingerprint=ckpt.fingerprint,
                            chunk_cursor=cursor,
                            sample_cursor=sample_cursor,
                            dice=dice_flat.copy(),
                        ),
                    )
            for k in range(k_rhs):
                out[k] = self.layout.dice_to_grid(
                    dice_flat[k].reshape(
                        self.layout.n_columns, self.layout.n_tiles
                    )
                )
        finally:
            self._release_buffer(dice_flat)
        if ckpt is not None and ckpt.delete_on_success:
            ckpt.store.delete(ckpt.key)
        return total

    # ------------------------------------------------------------------
    # stream entry points
    # ------------------------------------------------------------------
    def grid_stream(
        self, stream: SampleStream, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Adjoint gridding of a :class:`SampleStream`.

        Each chunk passes the full public-boundary gate individually
        (chunk corruption hook, quality policy, torus wrap).  The
        output rank follows the stream's value chunks: ``(M,)`` chunks
        produce one grid, ``(K, M)`` chunks a ``(K,)``-stacked grid.

        Under ``quality_policy="raise"`` a poisoned chunk aborts the
        whole pass; under ``"drop"``/``"zero"`` the offending samples
        degrade per policy and streaming continues, with the merged
        :class:`~repro.robustness.DataQualityReport` in
        ``stats.quality``.
        """
        total_quality = None
        batched = False
        k_rhs = 1

        def gated():
            nonlocal total_quality, batched, k_rhs
            for index, (coords, values) in enumerate(stream.chunks()):
                if values is None:
                    raise ValueError(
                        "grid_stream requires value chunks; this stream "
                        "yields coordinates only"
                    )
                if index == 0:
                    batched = np.asarray(values).ndim == 2
                coords, values_stack, _, report = self._gate_chunk(
                    index, coords, values
                )
                if index == 0:
                    k_rhs = values_stack.shape[0]
                elif values_stack.shape[0] != k_rhs:
                    raise ValueError(
                        f"chunk {index} has {values_stack.shape[0]} RHS, "
                        f"expected {k_rhs}"
                    )
                if total_quality is None:
                    total_quality = report
                else:
                    total_quality.accumulate(report)
                yield coords, values_stack

        gate = gated()
        # pull the first chunk eagerly so K is known before the dice
        # buffer is sized (also surfaces an empty stream cleanly)
        first = next(gate, None)
        shape = self.setup.grid_shape
        if first is None:
            grid = self._out_grid(out, shape)
            self.stats = self._stamp(GriddingStats())
            self._tag_stats()
            return grid

        def chunks_with_first():
            yield first
            yield from gate

        stacked_shape = (k_rhs,) + shape
        dtype = self.setup.dtype
        if out is None:
            grid_out = np.empty(stacked_shape, dtype=dtype)
        else:
            expect = stacked_shape if batched else shape
            if tuple(out.shape) != expect or out.dtype != dtype:
                raise ValueError(
                    f"out must have dtype {dtype} and shape {expect}, got "
                    f"dtype {out.dtype} and shape {out.shape}"
                )
            grid_out = out[None] if not batched else out
        total = self._stream_into_dice(chunks_with_first(), k_rhs, grid_out)
        total.quality = total_quality
        self.stats = self._stamp(total)
        self._tag_stats()
        return grid_out if batched else grid_out[0]

    def interp_stream(self, grid_stack: np.ndarray, stream: SampleStream):
        """Forward interpolation streamed back out in sample order.

        A generator yielding one value array per chunk — ``(m_c,)`` for
        an unstacked ``grid_stack``, ``(K, m_c)`` for a stacked one —
        each chunk's slots aligned with its input coordinates (dropped/
        zeroed samples yield ``0`` in place, as in :meth:`interp`).
        The staged dice is released when the generator finishes *or*
        is closed early, so abandoning a stream cannot strand pooled
        storage.
        """
        batched = np.asarray(grid_stack).ndim == self.setup.ndim + 1
        grid_stack = self._check_batch_grids(np.asarray(grid_stack))
        k_rhs = grid_stack.shape[0]
        n_flat = self.layout.n_columns * self.layout.n_tiles

        def run():
            total = GriddingStats()
            total_quality = None
            dice_flat = self._acquire_buffer((k_rhs, n_flat), zero=False)
            try:
                for k in range(k_rhs):
                    dice_flat[k] = self.layout.grid_to_dice(
                        grid_stack[k]
                    ).reshape(-1)
                for index, (coords, _values) in enumerate(stream.chunks()):
                    if self.cancel_token is not None:
                        self.cancel_token.check()
                    m_raw = np.atleast_2d(np.asarray(coords)).shape[0]
                    coords_c, _, bad, report = self._gate_chunk(
                        index, coords, None
                    )
                    if total_quality is None:
                        total_quality = report
                    else:
                        total_quality.accumulate(report)
                    if coords_c.shape[0] == 0:
                        vals = np.zeros(
                            (k_rhs, 0), dtype=self.setup.dtype
                        )
                    else:
                        entries = self._entries(coords_c)
                        vals = self._gather_chunk(entries, dice_flat)
                        total.accumulate(
                            self._chunk_stats(entries, k_rhs, coords_c, None)
                        )
                    vals = self._restore_sample_slots(
                        vals, bad, report, m_raw, batched=True
                    )
                    yield vals if batched else vals[0]
            finally:
                self._release_buffer(dice_flat)
                total.quality = total_quality
                self.stats = self._stamp(total)
                self._tag_stats()

        return run()
