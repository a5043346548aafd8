"""Multicore column-sharded Slice-and-Dice gridding.

The paper's central parallelism claim (§III/§IV) is that Slice-and-Dice
is *output-parallel with zero synchronization*: each pipeline owns one
column (relative position) across all dice, so column accumulators
never alias — no atomics, no reduction pass, no pre-sort.  JIGSAW
realizes this with one hardware pipeline and one private accumulator
SRAM per column; :class:`ParallelSliceAndDiceGridder` realizes exactly
the same ownership model with OS processes on a multicore host:

- the ``T^d`` columns are split into contiguous slabs (the *shard
  plan*), one per worker;
- every worker reuses the memoized per-axis select tables read-only
  (shared copy-on-write pages under the ``fork`` start method);
- each worker accumulates into a **disjoint** row slab of a
  ``multiprocessing.shared_memory`` dice array — the software analogue
  of the per-pipeline SRAMs, with no locks and no reduction pass.

The forward direction (interpolation) is the transpose: column outputs
overlap on samples, so the race-free private quantity is the *sample
stream* instead — each worker owns a contiguous slab of samples and
scans all columns in row order, which keeps the per-sample accumulation
order identical to the serial engine.

Bit-identity
------------
Both directions are bit-identical (``np.array_equal``) to
:class:`SliceAndDiceGridder`: every shard executes the exact same NumPy
operations on the exact same operands as the corresponding slice of
the serial pass, and no cross-shard reduction (whose float ordering
could differ) ever happens.  ``tests/test_gridding_parallel.py``
asserts this across backends, dimensions, and batch sizes.

Degradation ladder
------------------
``backend="auto"`` picks the strongest mechanism available:

1. ``"process"`` — forked workers + ``multiprocessing.shared_memory``
   (POSIX platforms).
2. ``"thread"`` — a thread pool writing disjoint slices of an ordinary
   array, for spawn-only platforms or when shared memory cannot be
   allocated; NumPy kernels release the GIL so slabs still overlap.
3. ``"serial"`` — the inherited single-process engine, chosen when the
   pool would not help: ``workers=1``, a single usable core, or a
   problem below ``min_parallel_ops`` boundary checks.

The ladder is *supervised* at runtime, not just at spawn: a process
pass whose workers crash is retried up to ``max_retries`` times (a
transient crash costs one retry, nothing else), workers that exceed
``worker_timeout`` seconds are terminated, and a process pass that
keeps failing degrades to threads, then to a fresh full serial pass —
which is bit-identical to the serial engine by construction, so a
degraded result is never a different result.  Every step down is
recorded as a :class:`repro.errors.DegradationEvent` in
``stats.degradations``; only when the serial rung *also* fails does
the call raise :class:`repro.errors.EngineFailure` (chaining the
original cause).  Thread-rung hangs cannot be preempted from within
Python — the chaos CI job runs under a global pytest timeout for that
case.

The chosen shard plan, backend, and per-worker wall-clock are reported
in ``GriddingStats`` (``shard_plan``, ``parallel_backend``,
``worker_seconds``, ``workers_used``) so the schedule is observable,
not asserted.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import DegradationEvent, EngineFailure
from ..gridding.base import GriddingSetup, GriddingStats
from ..robustness.faults import stage_worker_faults, worker_fault_point
from .slice_and_dice import SliceAndDiceGridder

try:  # pragma: no cover - present since Python 3.8, but degrade anyway
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = ["ParallelSliceAndDiceGridder", "shard_plan"]


def shard_plan(n_items: int, n_shards: int) -> tuple[tuple[int, int], ...]:
    """Split ``range(n_items)`` into at most ``n_shards`` contiguous slabs.

    Slabs are near-equal ``(lo, hi)`` half-open intervals covering
    ``[0, n_items)`` in order; empty slabs are dropped, so the result
    never has more entries than items.

    Examples
    --------
    >>> shard_plan(10, 4)
    ((0, 2), (2, 5), (5, 7), (7, 10))
    >>> shard_plan(3, 8)
    ((0, 1), (1, 2), (2, 3))
    """
    if n_items <= 0:
        return ()
    n_shards = max(1, min(int(n_shards), n_items))
    bounds = np.linspace(0, n_items, n_shards + 1).astype(np.int64)
    return tuple(
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(n_shards)
        if bounds[i] < bounds[i + 1]
    )


class _SharedMemoryUnavailable(RuntimeError):
    """Shared-memory allocation failed; caller should degrade to threads."""


#: work closure staged for forked children (fork inherits it copy-on-write;
#: never touched by the children's writes, so the pages stay shared)
_FORK_WORK = None


def _shard_entry(
    worker_id, shm_name, aux_name, out_shape, out_dtype, n_workers, lo, hi
):
    """Forked worker: run the staged shard work against shared memory.

    Maps the shared output buffer (in the setup's working ``out_dtype``)
    and the small report buffer, executes ``_FORK_WORK(out, lo, hi)``
    (inherited from the parent at fork time), and records ``(passing
    checks, elapsed seconds)`` in its own report row.  All writes land
    in slices disjoint from every other worker's, so no locking is
    needed.
    """
    worker_fault_point(worker_id)  # chaos hook: staged crash/hang fires here
    shm = _shared_memory.SharedMemory(name=shm_name)
    aux = _shared_memory.SharedMemory(name=aux_name)
    try:
        out = np.ndarray(out_shape, dtype=out_dtype, buffer=shm.buf)
        report = np.ndarray((n_workers, 2), dtype=np.float64, buffer=aux.buf)
        t0 = time.perf_counter()
        interpolations = _FORK_WORK(out, lo, hi)
        report[worker_id, 0] = interpolations
        report[worker_id, 1] = time.perf_counter() - t0
        del out, report
    finally:
        shm.close()
        aux.close()


def _processes_available() -> bool:
    """True when the fork + shared-memory backend can work at all."""
    return (
        _shared_memory is not None
        and "fork" in multiprocessing.get_all_start_methods()
    )


class ParallelSliceAndDiceGridder(SliceAndDiceGridder):
    """Multicore Slice-and-Dice: columns sharded across a worker pool.

    Bit-identical to :class:`SliceAndDiceGridder` (``engine="columns"``)
    for :meth:`grid`, :meth:`grid_batch`, :meth:`interp`, and
    :meth:`interp_batch`; see the module docstring for the ownership
    model and the degradation ladder.

    Parameters
    ----------
    setup:
        Shared problem description; requires ``W <= tile_size`` and
        ``tile_size | G`` per axis.
    tile_size:
        Virtual tile dimension ``T`` (8 in the paper).  ``T^d`` is also
        the number of shardable columns, so it bounds useful workers.
    workers:
        ``"auto"`` (default) uses ``os.cpu_count()``; any positive int
        pins the pool size.  Always capped by the sharded quantity
        (columns for gridding, samples for interpolation); ``1`` runs
        the serial engine.
    backend:
        ``"auto"`` (default), ``"process"``, ``"thread"``, or
        ``"serial"``.  ``"auto"`` prefers processes, falls back to
        threads; an explicit ``"process"`` still degrades to threads if
        shared memory cannot be allocated.
    min_parallel_ops:
        Serial-fallback threshold on the boundary-check count
        ``M * T^d`` — below it, pool startup costs more than it saves.
        Set ``0`` to force the pool even for tiny problems (tests).
    worker_timeout:
        Seconds a process-backend worker may run before the whole pass
        is terminated and treated as a failure (retry, then degrade);
        ``None`` (default) waits indefinitely.  Thread workers cannot
        be preempted and ignore this.
    max_retries:
        Process-backend passes retried after a worker crash or timeout
        before degrading to threads (default 1; ``0`` degrades on the
        first failure).
    table_cache_size:
        Trajectory-keyed select-table cache size (see the serial class).

    Raises
    ------
    ValueError
        For an invalid ``workers``, ``backend``, ``min_parallel_ops``,
        or any constraint the serial class rejects.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gridding import GriddingSetup, make_gridder
    >>> from repro.kernels import KernelLUT, beatty_kernel
    >>> setup = GriddingSetup((32, 32), KernelLUT(beatty_kernel(6, 2.0), 64))
    >>> par = make_gridder("slice_and_dice_parallel", setup,
    ...                    workers=2, backend="thread", min_parallel_ops=0)
    >>> ser = make_gridder("slice_and_dice", setup)
    >>> rng = np.random.default_rng(0)
    >>> coords = rng.uniform(0, 32, (100, 2))
    >>> values = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    >>> bool(np.array_equal(par.grid(coords, values), ser.grid(coords, values)))
    True
    >>> par.stats.workers_used, par.stats.parallel_backend, par.stats.shard_plan
    (2, 'thread', ((0, 32), (32, 64)))
    """

    name = "slice_and_dice_parallel"

    def __init__(
        self,
        setup: GriddingSetup,
        tile_size: int = 8,
        workers: int | str = "auto",
        backend: str = "auto",
        min_parallel_ops: int = 1 << 16,
        table_cache_size: int = 4,
        worker_timeout: float | None = None,
        max_retries: int = 1,
    ):
        super().__init__(
            setup,
            tile_size=tile_size,
            engine="columns",
            table_cache_size=table_cache_size,
        )
        if workers != "auto":
            if not isinstance(workers, (int, np.integer)) or isinstance(workers, bool):
                raise ValueError(f"workers must be 'auto' or a positive int, got {workers!r}")
            if workers < 1:
                raise ValueError(f"workers must be >= 1, got {workers}")
            workers = int(workers)
        if backend not in ("auto", "process", "thread", "serial"):
            raise ValueError(
                f"backend must be 'auto', 'process', 'thread', or 'serial', got {backend!r}"
            )
        if min_parallel_ops < 0:
            raise ValueError(f"min_parallel_ops must be >= 0, got {min_parallel_ops}")
        if worker_timeout is not None and not worker_timeout > 0:
            raise ValueError(
                f"worker_timeout must be positive or None, got {worker_timeout}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.backend = backend
        self.min_parallel_ops = int(min_parallel_ops)
        self.worker_timeout = None if worker_timeout is None else float(worker_timeout)
        self.max_retries = int(max_retries)

    # ------------------------------------------------------------------
    # schedule resolution
    # ------------------------------------------------------------------
    def _resolve_workers(self, n_items: int) -> int:
        """Pool size for ``n_items`` shardable units (>= 1, <= n_items)."""
        w = (os.cpu_count() or 1) if self.workers == "auto" else self.workers
        return max(1, min(w, n_items))

    def _resolve_backend(self) -> str:
        """The configured backend after platform auto-detection."""
        if self.backend != "auto":
            return self.backend
        return "process" if _processes_available() else "thread"

    def _serial_fallback(self, m: int, n_workers: int, backend: str) -> bool:
        """True when the pool would not pay for itself on this call."""
        return (
            backend == "serial"
            or n_workers <= 1
            or m * self.layout.n_columns < self.min_parallel_ops
        )

    def _annotate(self, plan, backend: str, seconds, events=()) -> None:
        """Record the executed shard schedule in ``self.stats``."""
        self.stats.workers_used = len(plan)
        self.stats.parallel_backend = backend
        self.stats.shard_plan = tuple(plan)
        self.stats.worker_seconds = tuple(float(s) for s in seconds)
        self.stats.degradations = tuple(events)

    # ------------------------------------------------------------------
    # worker-pool dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, work, out_shape, plan, backend):
        """Run ``work(out, lo, hi)`` per shard, supervising the ladder.

        Returns ``(out, interpolations, worker_seconds, backend_used,
        events)``.  The process rung is retried up to ``max_retries``
        times on worker crash/timeout, then the pass degrades process →
        thread → serial; the serial rung reruns ``work`` once over the
        full range on a fresh zeroed output, so its result is
        bit-identical to the serial engine.  Raises
        :class:`repro.errors.EngineFailure` only when every rung fails.
        """
        events: list[DegradationEvent] = []
        if backend == "process":
            for attempt in range(1 + self.max_retries):
                stage_worker_faults(len(plan))
                try:
                    out, interps, seconds = self._run_processes(work, out_shape, plan)
                    return out, interps, seconds, "process", tuple(events)
                except _SharedMemoryUnavailable as exc:
                    # spawn-only platform or exhausted /dev/shm: retrying
                    # cannot help, go straight to threads
                    events.append(DegradationEvent(
                        "parallel", "process", "thread", repr(exc)
                    ))
                    break
                except EngineFailure as exc:
                    if attempt < self.max_retries:
                        events.append(DegradationEvent(
                            "parallel", "process", "process",
                            f"retry {attempt + 1}/{self.max_retries}: {exc}",
                        ))
                    else:
                        events.append(DegradationEvent(
                            "parallel", "process", "thread", repr(exc)
                        ))
            backend = "thread"
        if backend == "thread":
            stage_worker_faults(len(plan))
            try:
                out, interps, seconds = self._run_threads(work, out_shape, plan)
                return out, interps, seconds, "thread", tuple(events)
            except Exception as exc:
                events.append(DegradationEvent(
                    "parallel", "thread", "serial", repr(exc)
                ))
        # last rung: one full serial pass on a fresh zeroed output —
        # exactly what the serial engine would compute
        stage_worker_faults(0)
        try:
            out = np.zeros(out_shape, dtype=self.setup.dtype)
            t0 = time.perf_counter()
            interps = work(out, plan[0][0], plan[-1][1])
            seconds = (time.perf_counter() - t0,)
            return out, interps, seconds, "serial", tuple(events)
        except Exception as exc:
            raise EngineFailure(
                "parallel gridding failed on every rung of the degradation "
                f"ladder ({'; '.join(str(e) for e in events)})"
            ) from exc

    def _run_threads(self, work, out_shape, plan):
        """Thread-pool backend: disjoint slices of one ordinary array."""
        out = np.zeros(out_shape, dtype=self.setup.dtype)

        def run_shard(item):
            worker_id, bounds = item
            worker_fault_point(worker_id)
            t0 = time.perf_counter()
            interps = work(out, bounds[0], bounds[1])
            return interps, time.perf_counter() - t0

        with ThreadPoolExecutor(max_workers=len(plan)) as pool:
            results = list(pool.map(run_shard, enumerate(plan)))
        return out, sum(r[0] for r in results), tuple(r[1] for r in results)

    def _run_processes(self, work, out_shape, plan):
        """Fork + shared-memory backend: disjoint slices of one segment.

        The output lives in a ``multiprocessing.shared_memory`` block;
        each forked worker maps it and writes only its own shard's
        slice.  A second small segment carries per-worker (passing
        checks, seconds) reports back.  Both segments are closed and
        unlinked on every exit path — including worker failure — so no
        ``/dev/shm`` entries leak.
        """
        global _FORK_WORK
        if not _processes_available():
            raise _SharedMemoryUnavailable("fork start method not available")
        n_bytes = int(np.prod(out_shape)) * np.dtype(self.setup.dtype).itemsize
        try:
            shm = _shared_memory.SharedMemory(create=True, size=max(1, n_bytes))
        except OSError as exc:
            raise _SharedMemoryUnavailable(str(exc)) from exc
        try:
            aux = _shared_memory.SharedMemory(create=True, size=len(plan) * 16)
        except OSError as exc:
            shm.close()
            shm.unlink()
            raise _SharedMemoryUnavailable(str(exc)) from exc

        out_view = report = None
        try:
            out_view = np.ndarray(out_shape, dtype=self.setup.dtype, buffer=shm.buf)
            out_view[...] = 0
            report = np.ndarray((len(plan), 2), dtype=np.float64, buffer=aux.buf)
            report[...] = 0.0
            _FORK_WORK = work
            try:
                procs = self._spawn_workers(shm.name, aux.name, out_shape, plan)
                self._join_workers(procs)
            finally:
                _FORK_WORK = None
            failed = [i for i, p in enumerate(procs) if p.exitcode != 0]
            if failed:
                raise EngineFailure(
                    f"parallel gridding worker(s) {failed} exited nonzero "
                    f"(exitcodes {[procs[i].exitcode for i in failed]})"
                )
            out = out_view.copy()
            interps = int(report[:, 0].sum())
            seconds = tuple(float(s) for s in report[:, 1])
            return out, interps, seconds
        finally:
            # ndarray views must be dropped before close() releases the
            # exported buffer; then unlink on every path (no shm leaks)
            del out_view, report
            shm.close()
            aux.close()
            for segment in (shm, aux):
                try:
                    segment.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass

    def _join_workers(self, procs) -> None:
        """Join workers, enforcing ``worker_timeout`` across the pass.

        The timeout is one deadline for the whole pass (the shards run
        concurrently, so per-worker deadlines would add up to the same
        wall clock).  Workers still alive at the deadline are terminated
        — then joined so no zombie outlives the call — and the pass
        raises :class:`repro.errors.EngineFailure` for the supervisor to
        retry or degrade.
        """
        if self.worker_timeout is None:
            for proc in procs:
                proc.join()
            return
        deadline = time.monotonic() + self.worker_timeout
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
        hung = [i for i, p in enumerate(procs) if p.is_alive()]
        if hung:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                proc.join()
            raise EngineFailure(
                f"parallel gridding worker(s) {hung} exceeded "
                f"worker_timeout={self.worker_timeout}s and were terminated"
            )

    def _spawn_workers(self, shm_name, aux_name, out_shape, plan):
        """Start one forked process per shard; returns the started procs."""
        ctx = multiprocessing.get_context("fork")
        procs = []
        for i, (lo, hi) in enumerate(plan):
            proc = ctx.Process(
                target=_shard_entry,
                args=(
                    i, shm_name, aux_name, out_shape,
                    self.setup.dtype.str, len(plan), lo, hi,
                ),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        return procs

    # ------------------------------------------------------------------
    # gridding (adjoint): shard the columns
    # ------------------------------------------------------------------
    def _run_grid(self, coords: np.ndarray, values_stack: np.ndarray):
        """Column-sharded dice accumulation for a ``(K, M)`` value stack.

        Returns ``(dice, interpolations, fetch, shards, backend,
        seconds, events)`` — ``fetch`` the pass' :class:`TableFetch`,
        ``events`` its recorded degradations.
        """
        m = coords.shape[0]
        n_rows = self.layout.n_columns
        k_rhs = values_stack.shape[0]
        n_workers = self._resolve_workers(n_rows)
        backend = self._resolve_backend()
        out_shape = (k_rhs, n_rows, self.layout.n_tiles)

        if self._serial_fallback(m, n_workers, backend):
            t0 = time.perf_counter()
            dice, interpolations, _, fetch = self._run_engine(coords, values_stack)
            return dice, interpolations, fetch, ((0, n_rows),), "serial", (
                time.perf_counter() - t0,
            ), ()

        tables, fetch = self._fetch_tables(coords)
        shards = shard_plan(n_rows, n_workers)

        def work(out, row_lo, row_hi):
            return self._process_stream(
                tables, values_stack, out, 0, m, row_lo=row_lo, row_hi=row_hi
            )

        dice, interpolations, seconds, backend, events = self._dispatch(
            work, out_shape, shards, backend
        )
        return dice, interpolations, fetch, shards, backend, seconds, events

    def _grid_impl(self, coords: np.ndarray, values: np.ndarray, grid: np.ndarray) -> None:
        m = coords.shape[0]
        dice, interpolations, fetch, shards, backend, seconds, events = self._run_grid(
            coords, values[None, :]
        )
        grid += self.layout.dice_to_grid(dice[0])
        self._fill_stats(m, n_rhs=1, interpolations=interpolations,
                         lane_slots=m * self.layout.n_columns, fetch=fetch)
        self._annotate(shards, backend, seconds, events)

    def _grid_batch_impl(
        self,
        coords: np.ndarray,
        values_stack: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Column-sharded batched gridding: one select pass, ``K`` RHS.

        Same contract as the serial
        :meth:`SliceAndDiceGridder._grid_batch_impl` (bit-identical
        output, select work paid once per batch); the shard plan covers
        columns and is reported in ``stats``.  The dice itself is *not*
        pooled here — the process backend places it in
        :mod:`multiprocessing.shared_memory`, which a regular
        in-process buffer pool cannot hand out.
        """
        m, k_rhs = coords.shape[0], values_stack.shape[0]
        dice, interpolations, fetch, shards, backend, seconds, events = self._run_grid(
            coords, values_stack
        )
        for k in range(k_rhs):
            out[k] = self.layout.dice_to_grid(dice[k])
        self._fill_stats(m, n_rhs=k_rhs, interpolations=interpolations,
                         lane_slots=m * self.layout.n_columns, fetch=fetch)
        self._annotate(shards, backend, seconds, events)

    # ------------------------------------------------------------------
    # interpolation (forward): shard the sample stream
    # ------------------------------------------------------------------
    def _interp_batch_impl(self, grid_stack: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Sample-sharded batched interpolation (transpose of gridding).

        Column outputs overlap on samples, so the race-free private
        quantity here is the sample stream: each worker owns a
        contiguous slab of ``out[:, lo:hi]`` and scans all columns in
        row order — per-sample accumulation order matches the serial
        engine exactly, keeping the output bit-identical.
        """
        k_rhs = grid_stack.shape[0]
        m = coords.shape[0]
        dice = np.empty(
            (k_rhs, self.layout.n_columns, self.layout.n_tiles),
            dtype=self.setup.dtype,
        )
        for k in range(k_rhs):
            dice[k] = self.layout.grid_to_dice(grid_stack[k])

        tables, fetch = self._fetch_tables(coords)

        def stream(out, lo, hi):
            return self._interp_stream(tables, dice, out, lo, hi)

        n_workers = self._resolve_workers(m)
        backend = self._resolve_backend()
        if self._serial_fallback(m, n_workers, backend):
            t0 = time.perf_counter()
            out = np.zeros((k_rhs, m), dtype=self.setup.dtype)
            interpolations = stream(out, 0, m)
            shards, backend, seconds = ((0, m),), "serial", (time.perf_counter() - t0,)
            events = ()
        else:
            shards = shard_plan(m, n_workers)
            out, interpolations, seconds, backend, events = self._dispatch(
                stream, (k_rhs, m), shards, backend
            )

        self.stats = GriddingStats(
            boundary_checks=m * self.layout.n_columns,
            interpolations=interpolations * k_rhs,
            samples_processed=m,
            presort_operations=0,
            grid_accesses=interpolations * k_rhs,
            lut_lookups=interpolations * self.setup.ndim,
            cache_hits=1 if fetch.hit else 0,
            cache_misses=0 if fetch.hit else 1,
            table_build_seconds=fetch.build_seconds,
            table_bytes=fetch.table_bytes,
        )
        self._annotate(shards, backend, seconds, events)
        return out
