"""Host stamp: what a reading depends on besides the code.

Two readings are comparable only when their stamps are equal
(:func:`comparable`); ``compare.py`` refuses anything else.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import os
import platform

#: thread-count variables the benchmark deliberately leaves unset, so the
#: program's own thread choices are what gets measured
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """BLAS name from NumPy's build config and its live thread count."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def host_stamp() -> dict:
    """Everything a timing on this host depends on, as a flat dict."""
    import numpy as np
    import scipy

    from repro.nufft.fft_backend import get_fft_backend

    fft = get_fft_backend("auto")
    blas_name, blas_threads = _blas()
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "numba": importlib.util.find_spec("numba") is not None,
        "fft_backend": fft.name,
        "fft_workers": fft.workers,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from ``/proc/stat``.

    Steal is time the hypervisor ran someone else on our virtual CPUs; a
    run with much of it reads slower through no fault of the code.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def comparable(a: dict, b: dict) -> list[str]:
    """Keys whose values differ between two stamps (empty: comparable)."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
