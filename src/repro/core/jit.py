"""Numba-JIT kernels for the compiled scatter-plan engine's fused lanes.

The compiled engine (:mod:`repro.core.compiled`) keeps a trajectory's
``M * W^d`` window entries as one CSR matrix ``A`` (rows are dice
addresses, columns are samples), and its NumPy lane runs one SciPy
sparse call per RHS stack over it.  This module holds the loops that
run the same single pass over any CSR matrix's ``(indptr, indices,
data)`` arrays, and can shard it over threads:

- :func:`csr_rows` — ``y[k, r] += Σ x[k, indices[e]] * data[e]`` over
  row ``r``'s entries, accumulated in a register in stored order (a
  matvec; ``prange`` over rows in its parallel build — rows own their
  accumulators, so the shards never race);
- :func:`csr_cols` — ``y[k, indices[e]] += x[k, r] * data[e]``, rows
  ascending and each row's entries in stored order (the transposed
  matvec; serial only).

The compiled engine's adjoint (``scatter``) is :func:`csr_rows` over
``A``; its serial forward (``gather``) is :func:`csr_cols` over ``A``,
and its sample-sharded forward is the parallel :func:`csr_rows` over
the plan's lazy sample-major copy
(:meth:`~repro.core.compiled.CompiledPlan.by_sample`).  The streaming
engine runs the same two loops over each chunk's sample-major entries:
:func:`csr_cols` to scatter, :func:`csr_rows` to gather.

The engine side — lane selection, sticky demotion, replay on NumPy,
and event stamping — lives in
:class:`~repro.core.CompiledSliceAndDiceGridder` (``lane=``), which
runs these loops through :func:`launch`.  ``slice_and_dice_jit`` /
:class:`JitSliceAndDiceGridder` is that engine with ``lane="auto"``.

Numerics
--------
The NumPy lane's sparse kernels add each product once, in ascending
sample order per dice word and ascending row order per sample, so for
float64 the serial loops perform the exact same additions on the exact
same products in the exact same order — the serial JIT lane is
**bit-identical** to the NumPy lane at complex128.  The parallel build
keeps every accumulator's addition order (a row's entries stay in
stored order; a sample's entries in the sample-major copy stay in
ascending row order), so it is bit-identical to the serial lane as
well.  At complex64 every lane accumulates natively in float32; the
NumPy lane sums real and imaginary parts separately while the JIT lanes
multiply complex64 values, so they may differ by the usual
``O(sqrt(nnz/m)) * eps_f32`` segment-sum error — gated at NRMSD <= 1e-6
in the identity tests.

Availability
------------
numba is an **optional** dependency.  When it is not importable (or
disabled via ``REPRO_JIT_DISABLE=numba``), :func:`jit_available` is
false and the engine demotes its numba lanes to NumPy with a recorded
:class:`repro.errors.DegradationEvent`.  :func:`launch` passes the
chaos suite's ``jit:scatter`` / ``jit:gather`` injection sites before
dispatch.  The raw loop bodies below are plain Python functions
wrapped by ``njit`` only at first use, so this module (and the
identity tests, on small plans) work without numba installed.
"""

from __future__ import annotations

import os

from ..robustness.faults import fault_point

try:  # pragma: no cover - exercised via the CI jit job's numba leg
    import numba as _numba
    from numba import prange as _prange
except ImportError:
    _numba = None
    _prange = range

__all__ = [
    "JitSliceAndDiceGridder",
    "csr_cols",
    "csr_rows",
    "jit_available",
    "launch",
    "numba_version",
]

#: comma-separated env list marking JIT backends unavailable without
#: uninstalling them (mirrors ``REPRO_FFT_DISABLE``); ``numba`` is the
#: only recognized token today
JIT_DISABLE_ENV = "REPRO_JIT_DISABLE"


def jit_available() -> bool:
    """Whether the numba lanes can run: numba imports and is not
    disabled via ``REPRO_JIT_DISABLE`` (checked per call so tests can
    toggle the environment without reloading the module)."""
    if _numba is None:
        return False
    disabled = {
        tok.strip()
        for tok in os.environ.get(JIT_DISABLE_ENV, "").split(",")
        if tok.strip()
    }
    return "numba" not in disabled


def numba_version() -> str | None:
    """The imported numba's version string, or ``None`` when absent."""
    return None if _numba is None else _numba.__version__


# ----------------------------------------------------------------------
# raw loop bodies — plain Python, njit-wrapped lazily in _compiled()
# ----------------------------------------------------------------------


def csr_rows(x, indptr, indices, data, y):
    """Row pass: ``y[k, r] += Σ_e x[k, indices[e]] * data[e]`` over row
    ``r``'s entries, in stored order, in a register seeded with
    ``y[k, r]`` (``prange`` over rows in the parallel build)."""
    n_rows = indptr.shape[0] - 1
    for k in range(x.shape[0]):
        for r in _prange(n_rows):
            acc = y[k, r]
            for e in range(indptr[r], indptr[r + 1]):
                acc = acc + x[k, indices[e]] * data[e]
            y[k, r] = acc


def csr_cols(x, indptr, indices, data, y):
    """Transposed pass: ``y[k, indices[e]] += x[k, r] * data[e]``, rows
    ascending and each row's entries in stored order."""
    n_rows = indptr.shape[0] - 1
    for k in range(x.shape[0]):
        for r in range(n_rows):
            for e in range(indptr[r], indptr[r + 1]):
                y[k, indices[e]] += x[k, r] * data[e]


#: the raw loop bodies, keyed like the njit dispatchers of _compiled()
_RAW = {
    "rows-serial": csr_rows,
    "rows-parallel": csr_rows,
    "cols-serial": csr_cols,
}

_COMPILED: dict[str, object] | None = None


def launch(direction: str, kernel: str, *args, jit: bool = True) -> None:
    """Run CSR kernel ``kernel`` (``"rows-serial"``, ``"rows-parallel"``
    or ``"cols-serial"``) on ``args`` as a ``direction`` (``"scatter"``
    / ``"gather"``) pass.

    ``jit=True`` passes the ``jit:<direction>`` fault site and then
    runs the njit dispatcher, compiling it on first use; ``jit=False``
    runs the raw Python loop body — same arithmetic in the same order,
    just interpreted.  Fault, dispatch, and compile failures all raise
    before any entry is written.
    """
    if jit:
        fault_point("jit:" + direction)
        kernels = _compiled()
    else:
        kernels = _RAW
    kernels[kernel](*args)


def _compiled() -> dict[str, object]:
    """The njit dispatchers, compiled once per process on first use.

    numba's lazy dispatch specializes each dispatcher per argument
    dtype signature, so complex64 and complex128 calls each get native
    machine loops (float32/float64 accumulators respectively) from the
    same source."""
    global _COMPILED
    if _COMPILED is None:
        njit = _numba.njit
        _COMPILED = {
            name: njit(parallel=name.endswith("-parallel"), cache=False)(body)
            for name, body in _RAW.items()
        }
    return _COMPILED


def __getattr__(name: str):
    # the ``slice_and_dice_jit`` alias lives next to the engine it names
    # (repro.core.compiled imports this module, so resolve it lazily)
    if name == "JitSliceAndDiceGridder":
        from .compiled import JitSliceAndDiceGridder

        return JitSliceAndDiceGridder
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
