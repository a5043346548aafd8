#!/usr/bin/env python
"""End-to-end NuFFT benchmark per FFT backend, with committed baseline.

Times the full forward and adjoint NuFFT (per stage: gridding, FFT,
apodization, copy) and a short CG solve for every available FFT
backend (``numpy``, ``scipy``, optionally ``pyfftw``) plus the
Toeplitz normal-operator CG fast path, then **appends** one record per
(backend, op) to ``BENCH_nufft.json`` at the repository root —
the NuFFT-level companion of ``tools/bench_trajectory.py``.

The stage breakdown is the Fig. 7 measurement of the paper: once
gridding is accelerated, the host FFT share dominates, which is what
makes the pluggable multithreaded FFT backends worth their keep.

``--dtype`` selects the precision lane(s): ``double`` (complex128),
``single`` (the true complex64 compute path), or ``both`` (default) —
each record carries its lane in a ``dtype`` field so the committed
baseline tracks the complex64 speedup over time.

``--kernel`` selects the interpolation window(s): ``kb``
(Kaiser-Bessel, default), ``es`` (exponential of semicircle), or
``both`` — each record carries its window in a ``kernel`` field.

``--check`` compares each record's headline seconds against the last
committed record of the same ``(mode, backend, op, image, m, dtype,
kernel)`` shape and fails (exit 1) on a more-than-2x regression.

Usage::

    python tools/bench_nufft.py               # full size, append
    python tools/bench_nufft.py --smoke       # CI-sized problem
    python tools/bench_nufft.py --smoke --check --dry-run   # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.nufft import NufftPlan, available_fft_backends  # noqa: E402
from repro.recon import cg_reconstruction  # noqa: E402
from repro.trajectories import radial_trajectory  # noqa: E402

SIZES = {
    "full": {"image": 256, "spokes": 402, "readout": 512, "cg_iters": 10},
    "smoke": {"image": 64, "spokes": 48, "readout": 128, "cg_iters": 4},
}

#: --check fails when headline seconds exceed baseline * this factor
REGRESSION_FACTOR = 2.0


def _best_of(fn, repeats: int = 3):
    """Best-of-N wall clock (and its return) with one untimed warm-up."""
    fn()
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _record(mode: str, size: dict, backend: str, op: str, seconds: float,
            stages: dict | None = None, dtype: str = "double",
            kernel: str = "kb") -> dict:
    rec = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "mode": mode,
        "backend": backend,
        "op": op,
        "image": size["image"],
        "m": size["spokes"] * size["readout"],
        "dtype": dtype,
        "kernel": kernel,
        "seconds": round(seconds, 6),
    }
    if stages:
        rec.update({k: round(v, 6) for k, v in stages.items()})
    return rec


def run_benchmark(
    mode: str,
    dtypes: tuple[str, ...] = ("double",),
    kernels: tuple[str, ...] = ("kb",),
) -> list[dict]:
    """Records for forward / adjoint / CG per backend + the Toeplitz path."""
    size = SIZES[mode]
    n = size["image"]
    coords = radial_trajectory(size["spokes"], size["readout"])
    m = coords.shape[0]
    values = np.exp(2j * np.pi * np.arange(m) / 11)
    rng = np.random.default_rng(7)
    image = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    weights = np.ones(m)

    records = []
    for backend in available_fft_backends():
        for dtype in dtypes:
            for kern in kernels:
                precision = "single" if dtype == "single" else "double"
                plan = NufftPlan(
                    (n, n),
                    coords,
                    gridder="slice_and_dice_compiled",
                    fft_backend=backend,
                    precision=precision,
                    kernel=kern,
                )
                vals = np.asarray(values, dtype=plan.cdtype)
                img = np.asarray(image, dtype=plan.cdtype)
                adj_s, _ = _best_of(lambda: plan.adjoint(vals))
                t = plan.timings
                records.append(
                    _record(
                        mode, size, backend, "adjoint", adj_s,
                        {
                            "gridding": t.gridding,
                            "fft": t.fft,
                            "apodization": t.apodization,
                            "copy": t.copy_seconds,
                        },
                        dtype=dtype,
                        kernel=kern,
                    )
                )
                fwd_s, _ = _best_of(lambda: plan.forward(img))
                t = plan.timings
                records.append(
                    _record(
                        mode, size, backend, "forward", fwd_s,
                        {
                            "gridding": t.gridding,
                            "fft": t.fft,
                            "apodization": t.apodization,
                            "copy": t.copy_seconds,
                        },
                        dtype=dtype,
                        kernel=kern,
                    )
                )
                cg_s, _ = _best_of(
                    lambda: cg_reconstruction(
                        plan, vals, weights,
                        n_iterations=size["cg_iters"], tolerance=1e-30,
                    ),
                    repeats=2,
                )
                records.append(
                    _record(mode, size, backend, "cg_gridding", cg_s,
                            dtype=dtype, kernel=kern)
                )
                toep_s, _ = _best_of(
                    lambda: cg_reconstruction(
                        plan, vals, weights,
                        n_iterations=size["cg_iters"], tolerance=1e-30,
                        normal="toeplitz",
                    ),
                    repeats=2,
                )
                records.append(
                    _record(mode, size, backend, "cg_toeplitz", toep_s,
                            dtype=dtype, kernel=kern)
                )
    return records


def load_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return json.loads(path.read_text(encoding="utf-8"))


def check_regressions(baseline: list[dict], current: list[dict]) -> list[str]:
    """Failure messages for records slower than committed * factor."""
    failures = []

    def _key(r: dict) -> tuple:
        # records committed before the dtype/kernel axes existed are
        # double-precision Kaiser-Bessel
        return (
            r["mode"], r["backend"], r["op"], r["image"], r["m"],
            r.get("dtype", "double"), r.get("kernel", "kb"),
        )

    for rec in current:
        key = _key(rec)
        prior = [b for b in baseline if _key(b) == key]
        if not prior:
            continue  # no committed baseline for this shape yet
        base = prior[-1]["seconds"]
        now = rec["seconds"]
        if now > base * REGRESSION_FACTOR:
            failures.append(
                f"{rec['backend']}/{rec['op']} ({rec['mode']}): {now:.4f}s is "
                f"more than {REGRESSION_FACTOR:.0f}x above the committed "
                f"baseline {base:.4f}s"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized problem (64^2 image) instead of the full 256^2",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on a >2x regression vs the committed baseline",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print records without appending to the output file",
    )
    parser.add_argument(
        "--dtype",
        choices=("double", "single", "both"),
        default="both",
        help="precision lane(s) to benchmark (default: both)",
    )
    parser.add_argument(
        "--kernel",
        choices=("kb", "es", "both"),
        default="kb",
        help="interpolation window(s) to benchmark (default: kb)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_nufft.json",
        help="records file (default: BENCH_nufft.json at the repo root)",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    dtypes = ("double", "single") if args.dtype == "both" else (args.dtype,)
    kernels = ("kb", "es") if args.kernel == "both" else (args.kernel,)
    baseline = load_records(args.output)
    records = run_benchmark(mode, dtypes, kernels)

    header = (
        f"{'backend':<8} {'dtype':<7} {'kern':<5} {'op':<12} {'seconds':>9} "
        f"{'fft':>8} {'grid':>8}"
    )
    print(header)
    print("-" * len(header))
    for rec in records:
        fft = rec.get("fft")
        grid = rec.get("gridding")
        print(
            f"{rec['backend']:<8} {rec['dtype']:<7} {rec['kernel']:<5} "
            f"{rec['op']:<12} {rec['seconds']:>8.4f}s "
            f"{(f'{fft:.4f}s' if fft is not None else '-'):>8} "
            f"{(f'{grid:.4f}s' if grid is not None else '-'):>8}"
        )

    status = 0
    if args.check:
        failures = check_regressions(baseline, records)
        if failures:
            print("\nperformance regressions detected:")
            for line in failures:
                print(f"  {line}")
            status = 1
        else:
            print("\nno regression vs committed baseline")

    if not args.dry_run and status == 0:
        baseline.extend(records)
        args.output.write_text(
            json.dumps(baseline, indent=2) + "\n", encoding="utf-8"
        )
        print(f"appended {len(records)} records to {args.output.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
