"""Numba-JIT kernels for the compiled scatter-plan engine's fused lanes.

The compiled engine (:mod:`repro.core.compiled`) reduces every warm
call on its NumPy lane to one SciPy sparse matvec per RHS over a CSR
matrix of the plan's ``M * W^d`` entries.  This module holds the loops
that run the same single pass directly over the plan arrays — no CSR
matrix to build — and can shard it over threads:

- **adjoint** (``scatter``): ``dice[k, flat_idx[e]] +=
  values[k, sample_idx[e]] * weight[e]`` — one complex accumulate
  pass;
- **forward** (``gather``): ``out[k, sample_idx[e]] +=
  dice[k, flat_idx[e]] * weight[e]`` — the transpose segment-sum.

Each has a serial variant that walks the plan in entry order and a
``parallel=True`` ``prange`` variant sharded over the plan's natural
slab structure: **rows** for the adjoint (``row_starts`` — each dice
row is owned by exactly one entry slab, so row-sharded scatters never
race) and **samples** for the forward (the plan's stable
:meth:`~repro.core.compiled.CompiledPlan.sample_view`).

The engine side — lane selection, sticky demotion, replay on NumPy,
and event stamping — lives in
:class:`~repro.core.CompiledSliceAndDiceGridder` (``lane=``), which
runs these loops through :func:`launch`.  ``slice_and_dice_jit`` /
:class:`JitSliceAndDiceGridder` is that engine with ``lane="auto"``.

Numerics
--------
The NumPy lane's sparse kernels add each product once, in ascending
sample order per dice word and ascending row order per sample, so for
float64 the serial entry-order loop performs the exact same additions
on the exact same products in the exact same order — the serial JIT
lane is **bit-identical** to the NumPy lane at complex128.
The parallel variants preserve *per-accumulator* addition order (rows
keep entry order inside their slab; samples accumulate in the stable
row-ascending order), so they are bit-identical to the serial lane as
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
    "jit_available",
    "launch",
    "numba_version",
    "plan_kernels",
    "scatter_plan_entries",
    "scatter_plan_rows",
    "gather_plan_entries",
    "gather_plan_samples",
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


def scatter_plan_entries(values_stack, sample_idx, flat_idx, weight, dice_flat):
    """Serial fused adjoint: accumulate plan entries in entry order.

    Entry order is the plan's row-major order, so per dice word the
    additions happen in ascending-sample order — exactly the NumPy
    lane's per-row CSR order (bit-identical at complex128).
    """
    for k in range(values_stack.shape[0]):
        for e in range(sample_idx.shape[0]):
            dice_flat[k, flat_idx[e]] += values_stack[k, sample_idx[e]] * weight[e]


def scatter_plan_rows(
    values_stack, sample_idx, flat_idx, weight, row_starts, dice_flat
):
    """Row-sharded fused adjoint (``prange`` over dice rows).

    Every entry of row ``r`` lands in dice row ``r`` (the plan's
    ownership invariant), so concurrent rows never touch the same
    accumulator, and in-row entry order is preserved — numerically
    identical to :func:`scatter_plan_entries`.
    """
    n_rows = row_starts.shape[0] - 1
    for k in range(values_stack.shape[0]):
        for r in _prange(n_rows):
            for e in range(row_starts[r], row_starts[r + 1]):
                dice_flat[k, flat_idx[e]] += (
                    values_stack[k, sample_idx[e]] * weight[e]
                )


def gather_plan_entries(dice_flat, sample_idx, flat_idx, weight, out):
    """Serial fused forward: the transpose segment-sum in entry order.

    Per sample, contributions accumulate in ascending row order — the
    serial engine's row-loop order and the NumPy lane's CSC order
    (``out`` must arrive zeroed)."""
    for k in range(dice_flat.shape[0]):
        for e in range(sample_idx.shape[0]):
            out[k, sample_idx[e]] += dice_flat[k, flat_idx[e]] * weight[e]


def gather_plan_samples(dice_flat, flat_idx, weight, order, starts, out):
    """Sample-sharded fused forward (``prange`` over samples).

    ``(order, starts)`` is the plan's stable sample-major view: within
    one sample, entries keep their row-ascending order, so each
    sample's register accumulation performs the serial additions in the
    serial order (``out`` must arrive zeroed — its slot seeds the
    typed accumulator)."""
    m = starts.shape[0] - 1
    for k in range(dice_flat.shape[0]):
        for s in _prange(m):
            acc = out[k, s]
            for j in range(starts[s], starts[s + 1]):
                e = order[j]
                acc = acc + dice_flat[k, flat_idx[e]] * weight[e]
            out[k, s] = acc


#: the raw loop bodies, keyed like the njit dispatchers of _compiled()
_RAW = {
    "scatter-serial": scatter_plan_entries,
    "scatter-parallel": scatter_plan_rows,
    "gather-serial": gather_plan_entries,
    "gather-parallel": gather_plan_samples,
}

_COMPILED: dict[str, object] | None = None


def plan_kernels(jit: bool = True) -> dict[str, object]:
    """Entry-order scatter/gather kernels for plan execution.

    With ``jit=True`` (and numba importable / not disabled) the
    returned callables are the njit dispatchers of :func:`_compiled`;
    otherwise they are the raw Python loop bodies — same arithmetic in
    the same order, just interpreted.
    """
    if jit and jit_available():
        return dict(_compiled())
    return dict(_RAW)


def launch(kernel: str, *args, jit: bool = True) -> None:
    """Run one plan kernel (a :func:`plan_kernels` key such as
    ``"scatter-serial"``) on ``args``.

    ``jit=True`` passes the ``jit:scatter`` / ``jit:gather`` fault site
    and then runs the njit dispatcher, compiling it on first use;
    ``jit=False`` runs the raw Python loop body.  Fault, dispatch, and
    compile failures all raise before any entry is written.
    """
    if jit:
        fault_point("jit:" + kernel.split("-")[0])
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
