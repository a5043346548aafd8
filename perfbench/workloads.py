"""The three benchmark workloads.

Each ``run_*`` function builds its inputs from the seed, sets up, runs
timed jobs for about ``seconds`` seconds, checks every job's output, and
returns a :class:`Reading`.  The program under test only ever sees the
generated inputs.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import NufftPlan
from repro.errors import ServiceOverloaded
from repro.gridding import choose_chunk_samples, default_gridder
from repro.recon import cg_reconstruction
from repro.service import ReconClient
from repro.service.jobs import JobState, decode_array
from repro.trajectories import golden_angle_radial, spiral_trajectory

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

IMAGE = (256, 256)
CG_ITERATIONS = 10
#: small enough that CG always runs all CG_ITERATIONS iterations
CG_TOLERANCE = 1e-12
#: latency limit per workload for ``slo_met_fraction`` (seconds)
SLO_S = {"warm_cg_gridding": 8.0, "service_open_mix": 5.0, "stream_adjoint_2m": 15.0}
#: NRMSD limit of a job image against scalar x reference
NRMSD_LIMIT = {"warm_cg_gridding": 1e-6, "service_open_mix": 1e-3}
#: relative L2 error limit of the streamed adjoint against the exact NuDFT
NUDFT_LIMIT = 3e-3
NUDFT_PIXELS = 16
#: set-ups repeated per run; ``setup_s`` takes their median
SETUP_REPEATS = 3


@dataclass
class Job:
    """One timed job as the benchmark saw it."""

    latency_s: float
    ok: bool = False
    kind: str = ""
    detail: dict = field(default_factory=dict)


@dataclass
class Reading:
    """Everything one workload run measured, before metrics are derived."""

    workload: str
    jobs: list
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    checks: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    lateness_s_max: float = 0.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def blob_kspace(coords: np.ndarray, rng: np.random.Generator, n_blobs: int = 8):
    """Analytic spectrum of a seeded sum of Gaussian blobs on ``IMAGE``.

    A blob ``a exp(-|x - x0|^2 / 2 s^2)`` (pixel units) has the spectrum
    ``a 2 pi s^2 exp(-2 pi^2 s^2 |k|^2) exp(-2 pi i k . x0)``.
    """
    out = np.zeros(coords.shape[0], dtype=np.complex128)
    k2 = (coords**2).sum(axis=1)
    for _ in range(n_blobs):
        x0 = rng.uniform(-0.3, 0.3, size=2) * IMAGE[0]
        s = rng.uniform(2.0, 12.0)
        a = rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        out += (
            a * 2 * np.pi * s**2 * np.exp(-2 * np.pi**2 * s**2 * k2)
            * np.exp(-2j * np.pi * (coords @ x0))
        )
    return out


def ramp_weights(coords: np.ndarray) -> np.ndarray:
    radius = np.hypot(coords[:, 0], coords[:, 1])
    w = np.maximum(radius, 0.5 / coords.shape[0])
    return w / w.mean()


def unit_scalar(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def rotated(coords: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return coords @ np.array([[c, s], [-s, c]])


def nrmsd(image: np.ndarray, expected: np.ndarray) -> float:
    return float(np.linalg.norm(image - expected) / np.linalg.norm(expected))


def run_dir() -> Path:
    """Scratch directory inside the checkout, removed when a run ends."""
    path = ROOT / ".perfbench_run"
    path.mkdir(exist_ok=True)
    return path


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _closed_loop(seconds: float, run_job, min_jobs: int = 3) -> tuple[list, float]:
    """Run jobs back to back; stop before a job would end past ``seconds``."""
    durations, results = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(durations) >= min_jobs and elapsed + np.median(durations) > seconds:
            break
        start = time.perf_counter()
        results.append(run_job(len(results)))
        durations.append(time.perf_counter() - start)
    return list(zip(durations, results)), time.perf_counter() - t0


# ----------------------------------------------------------------------
# warm_cg_gridding
# ----------------------------------------------------------------------
def run_warm_cg_gridding(seed: int, seconds: float, tracer: Tracer, import_s: float) -> Reading:
    rng = np.random.default_rng(seed)
    coords = golden_angle_radial(402, 512)
    weights = ramp_weights(coords)
    base = blob_kspace(coords, rng)
    gridder = default_gridder()

    setups = []
    for _ in range(SETUP_REPEATS):
        tracer.job = "setup"
        t0 = time.perf_counter()
        plan = NufftPlan(IMAGE, coords, gridder=gridder)
        plan.forward(plan.adjoint(base))  # compile the scatter and gather plans
        setups.append(time.perf_counter() - t0)

    scalars = [unit_scalar(rng) for _ in range(1000)]

    def job(index: int):
        tracer.job = index
        span = tracer.begin("loadgen.job") if tracer.enabled else None
        result = cg_reconstruction(
            plan, scalars[index] * base, weights=weights,
            n_iterations=CG_ITERATIONS, tolerance=CG_TOLERANCE, normal="gridding",
        )
        if span is not None:
            tracer.end(span)
        return result

    timed, wall = _closed_loop(seconds, job)
    tracer.job = None
    peak = _peak_rss_mb()
    tracer.enabled = False

    del plan
    reference = cg_reconstruction(
        NufftPlan(IMAGE, coords, gridder=gridder), base, weights=weights,
        n_iterations=CG_ITERATIONS, tolerance=CG_TOLERANCE, normal="gridding",
    ).image
    jobs = []
    for index, (duration, result) in enumerate(timed):
        error = nrmsd(result.image, scalars[index] * reference)
        ok = error <= NRMSD_LIMIT["warm_cg_gridding"] and result.n_iterations == CG_ITERATIONS
        jobs.append(Job(duration, ok, "cg", {"nrmsd": error, "iterations": result.n_iterations}))
    return Reading(
        "warm_cg_gridding", jobs, wall, import_s + float(np.median(setups)), peak,
        checks={"nrmsd_limit": NRMSD_LIMIT["warm_cg_gridding"], "setup_repeats_s": setups},
    )


# ----------------------------------------------------------------------
# stream_adjoint_2m
# ----------------------------------------------------------------------
STREAM_BUDGET = 256 * 2**20


def _nudft_pixels(coords, values, pixels) -> np.ndarray:
    """Exact adjoint NuDFT at the centered pixel positions ``pixels``."""
    out = np.zeros(pixels.shape[0], dtype=np.complex128)
    for start in range(0, coords.shape[0], 1 << 18):
        phase = coords[start:start + (1 << 18)] @ pixels.T
        out += np.exp(2j * np.pi * phase).T @ values[start:start + (1 << 18)]
    return out


def run_stream_adjoint_2m(seed: int, seconds: float, tracer: Tracer, import_s: float) -> Reading:
    rng = np.random.default_rng(seed)
    coords = spiral_trajectory(64, 32768, density_power=0.5)
    m = coords.shape[0]
    base = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    grid_shape = tuple(2 * n for n in IMAGE)
    chunk = choose_chunk_samples(m, grid_shape, 6, dtype=np.complex128, max_bytes=STREAM_BUDGET)
    gridder = default_gridder()

    builds = []
    tracer.job = "setup"
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        plan = NufftPlan(IMAGE, coords, gridder=gridder,
                         gridder_options={"chunk_samples": chunk})
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    plan.adjoint(base)  # the untimed warm-up
    warmup = time.perf_counter() - t0

    scalars = [unit_scalar(rng) for _ in range(1000)]
    flat = rng.choice(IMAGE[0] * IMAGE[1], NUDFT_PIXELS, replace=False)
    rows, cols = np.unravel_index(flat, IMAGE)

    def job(index: int):
        tracer.job = index
        span = tracer.begin("loadgen.job") if tracer.enabled else None
        image = plan.adjoint(scalars[index] * base)
        if span is not None:
            tracer.end(span)
        return image[rows, cols], plan.gridder.stats.chunks

    timed, wall = _closed_loop(seconds, job)
    tracer.job = None
    peak = _peak_rss_mb()
    tracer.enabled = False

    del plan
    pixels = np.stack([rows - IMAGE[0] // 2, cols - IMAGE[1] // 2], axis=1).astype(np.float64)
    reference = _nudft_pixels(coords, base, pixels)
    jobs = []
    for index, (duration, (values, chunks)) in enumerate(timed):
        error = nrmsd(values, scalars[index] * reference)
        jobs.append(Job(duration, error <= NUDFT_LIMIT, "adjoint",
                        {"nudft_rel_error": error, "chunks": chunks}))
    return Reading(
        "stream_adjoint_2m", jobs, wall,
        import_s + float(np.median(builds)) + warmup, peak,
        checks={"nudft_limit": NUDFT_LIMIT, "nudft_pixels": NUDFT_PIXELS,
                "chunk_samples": chunk, "budget_bytes": STREAM_BUDGET},
    )


# ----------------------------------------------------------------------
# service_open_mix
# ----------------------------------------------------------------------
RATE_PER_S = 1.6
HOT = 4
POLL_S = 0.02
DRAIN_TIMEOUT_S = 60.0


def reorder_views(coords, n_readout, *arrays):
    """Reverse the spokes lying strictly between two adjacent rows that
    ``trajectory_fingerprint`` probes (its strided checksum rows), so the
    probed rows keep their values while ~6% of the rows move.  Returns
    ``coords`` and each of ``arrays`` in the new order."""
    m = coords.shape[0]
    step = max(1, m // 16)
    lo, hi = 4 * step, 5 * step  # between probes 4 and 5, clear of m // 2
    first = -(-(lo + 1) // n_readout)  # first spoke starting after lo
    last = (hi - 1) // n_readout  # spoke holding row hi - 1 ...
    if (last + 1) * n_readout - 1 >= hi:
        last -= 1  # ... must end before hi
    order = np.arange(m)
    block = order[first * n_readout:(last + 1) * n_readout].reshape(-1, n_readout)
    order[first * n_readout:(last + 1) * n_readout] = block[::-1].ravel()
    return [np.asarray(a)[order] for a in (coords,) + arrays]


def _job_mix(n: int, rng: np.random.Generator) -> tuple[list[str], list[int]]:
    """Kinds (~75% hot cg, ~15% hot adjoint, ~5% fresh, ~5% reordered) and
    hot-trajectory targets of ``n`` jobs.

    Fresh and reordered jobs sit at evenly spaced slots, alternating, and
    hot jobs visit the hot trajectories in seeded rounds, each once per
    round.  The seed still orders everything, but queueing behind cold
    jobs and the load on each worker no longer depend on it.
    """
    specials = max(1, round(0.05 * n)) * 2
    slots = [int((i + 0.5) * n / specials) for i in range(specials)]
    hot = ["adjoint"] * round(0.15 * n)
    hot += ["cg"] * (n - specials - len(hot))
    hot = [hot[i] for i in rng.permutation(len(hot))]
    kinds, targets, rounds = [], [], []
    for index in range(n):
        if index in slots:
            kinds.append(("fresh", "reordered")[slots.index(index) % 2])
            targets.append(0)
        else:
            kinds.append(hot.pop())
            if not rounds:
                rounds = list(rng.permutation(HOT))
            targets.append(int(rounds.pop()))
    return kinds, targets


class _Server:
    """``perfbench/serve.py`` in a subprocess, stopped with SIGTERM."""

    def __init__(self, workdir: Path, trace: bool):
        self.out = workdir / "server.json"
        self.log = workdir / "server.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, str(HERE / "serve.py"), str(self.out)]
        cmd += ["--trace"] if trace else []
        cmd += ["--", "--port", "0", "--quiet"]
        self._log_handle = open(self.log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=self._log_handle, stderr=subprocess.STDOUT
        )

    def wait_ready(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            for line in self.log.read_text(encoding="utf-8").splitlines():
                if "listening on " in line:
                    return line.split("listening on ", 1)[1].strip()
            time.sleep(0.02)
        raise RuntimeError(f"service did not start: {self.log.read_text(encoding='utf-8')}")

    def stop(self) -> dict:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_handle.close()
        if self.out.exists():
            return json.loads(self.out.read_text(encoding="utf-8"))
        return {}


def _stats_totals(stats: dict) -> dict:
    totals = {"busy_seconds": 0.0, "plan_hits": 0, "plan_misses": 0,
              "toeplitz_hits": 0, "toeplitz_misses": 0}
    for worker in stats.get("workers", []):
        for key in totals:
            totals[key] += worker.get(key, 0)
    totals["rejected"] = stats.get("rejected", 0)
    totals["workers"] = len(stats.get("workers", []))
    return totals


def run_service_open_mix(seed: int, seconds: float, tracer: Tracer, import_s: float) -> Reading:
    rng = np.random.default_rng(seed)
    spoke = golden_angle_radial(402, 512)
    weights = ramp_weights(spoke)  # rotation keeps |k|, so one DCF fits all
    angles = rng.uniform(0, np.pi, size=HOT)
    hot = [rotated(spoke, a) for a in angles]
    bases = [blob_kspace(c, rng) for c in hot]

    n = max(20, round(RATE_PER_S * seconds))
    kinds, targets = _job_mix(n, rng)
    scalars = [unit_scalar(rng) for _ in range(n)]
    fresh = {}
    for index, kind in enumerate(kinds):
        if kind == "fresh":
            coords = rotated(spoke, rng.uniform(0, np.pi))
            fresh[index] = (coords, blob_kspace(coords, rng))
    r_coords, r_base, r_weights = reorder_views(hot[0], 512, bases[0], weights)

    def payload(index: int):
        """(trajectory key, coords, kspace, weights, method) of job ``index``."""
        kind = kinds[index]
        if kind == "fresh":
            coords, base = fresh[index]
            return ("fresh", index), coords, base, weights, "cg"
        if kind == "reordered":
            # same (coordinate, sample) pairs as hot[0]: same correct image
            return ("hot", 0), r_coords, r_base, r_weights, "cg"
        t = targets[index]
        return ("hot", t), hot[t], bases[t], weights, kind

    options = {"precision": "single", "n_iterations": CG_ITERATIONS, "tolerance": CG_TOLERANCE}
    workdir = Path(tempfile.mkdtemp(prefix="service-", dir=run_dir()))
    t_setup = time.perf_counter()
    server = _Server(workdir, trace=tracer.enabled)
    records: dict[int, dict] = {}
    try:
        client = ReconClient(server.wait_ready(), timeout=120.0)
        cold = [client.submit(IMAGE, hot[t], bases[t], weights=weights, method="cg",
                              **options) for t in range(HOT)]
        for job_id in cold:
            record = client.wait(job_id, timeout=120.0)
            if record["state"] != JobState.DONE:
                raise RuntimeError(f"cold set-up job failed: {record.get('error')}")
        setup_s = import_s + time.perf_counter() - t_setup

        before = _stats_totals(client.stats())
        lateness = _open_loop(client.base_url, n, payload, scalars, options, records, tracer)
        after = _stats_totals(client.stats())
    finally:
        tracer.enabled = False
        server_out = server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    wall = max(r["observed"] for r in records.values()) - min(r["scheduled"] for r in records.values())
    trajectories = {("hot", t): (hot[t], bases[t]) for t in range(HOT)}
    trajectories.update({("fresh", i): fresh[i] for i in fresh})
    references = _service_references(trajectories, weights)
    jobs = []
    for index in range(n):
        record = records[index]
        key, _, _, _, method = payload(index)
        ok, error = False, None
        image = record.pop("image", None)
        if image is not None:
            error = nrmsd(image, scalars[index] * references[(key, method)])
            ok = error <= NRMSD_LIMIT["service_open_mix"]
        record.update(kind=kinds[index], nrmsd=error)
        jobs.append(Job(record["observed"] - record["scheduled"], ok, kinds[index], record))

    busy = after["busy_seconds"] - before["busy_seconds"]
    hits = after["plan_hits"] - before["plan_hits"]
    misses = after["plan_misses"] - before["plan_misses"]
    t_hits = after["toeplitz_hits"] - before["toeplitz_hits"]
    t_misses = after["toeplitz_misses"] - before["toeplitz_misses"]
    return Reading(
        "service_open_mix", jobs, wall, setup_s, float(server_out.get("peak_rss_mb", 0.0)),
        checks={"nrmsd_limit": NRMSD_LIMIT["service_open_mix"], "rate_per_s": RATE_PER_S,
                "precision": "single", "mix": {k: kinds.count(k) for k in set(kinds)}},
        layer={
            "server": server_out,
            "plan_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "toeplitz_hit_ratio": t_hits / (t_hits + t_misses) if t_hits + t_misses else 0.0,
            "rejected": after["rejected"] - before["rejected"],
            "worker_busy_fraction": busy / (max(1, after["workers"]) * wall),
        },
        lateness_s_max=lateness,
    )


def _open_loop(url, n, payload, scalars, options, records, tracer: Tracer) -> float:
    """One submitter thread on a fixed schedule, one poller thread.

    Fills ``records[index]`` with the client-side timestamps (wall clock,
    comparable with the server's job record) and the decoded image.
    Returns the generator's worst lateness against its schedule.
    """
    outstanding: dict[str, int] = {}
    lock = threading.Lock()
    submitted_all = threading.Event()
    t_first = time.time() + 0.5
    lateness = [0.0]

    def submitter():
        client = ReconClient(url, timeout=120.0)
        try:
            for index in range(n):
                scheduled = t_first + index / RATE_PER_S
                delay = scheduled - time.time()
                if delay > 0:
                    time.sleep(delay)
                sent = time.time()
                lateness[0] = max(lateness[0], sent - scheduled)
                _, coords, base, weights, method = payload(index)
                record = {"scheduled": scheduled, "sent": sent}
                records[index] = record
                tracer.job = f"job-{index}"
                try:
                    job_id = client.submit(IMAGE, coords, scalars[index] * base,
                                           weights=weights, method=method,
                                           idempotency_key=f"perfbench-{index}",
                                           **options)
                except (ServiceOverloaded, RuntimeError, OSError) as exc:
                    record.update(state="rejected" if isinstance(exc, ServiceOverloaded)
                                  else "refused", error=str(exc), observed=time.time())
                    continue
                record.update(id=job_id, accepted=time.time())
                with lock:
                    outstanding[job_id] = index
        finally:
            tracer.job = None
            submitted_all.set()

    def poller():
        client = ReconClient(url, timeout=120.0)
        deadline = t_first + n / RATE_PER_S + DRAIN_TIMEOUT_S
        while time.time() < deadline:
            with lock:
                pending = list(outstanding.items())
            if not pending and submitted_all.is_set():
                return
            for job_id, index in pending:
                tracer.job = f"job-{index}"
                t0 = time.time()
                try:
                    status = client.status(job_id)
                except KeyError:  # evicted from the service's status window
                    status = {"state": "lost"}
                except OSError:
                    continue  # transient connection failure: poll again
                observed = time.time()
                if status["state"] not in JobState.TERMINAL + ("lost",):
                    continue
                record = records[index]
                record.update(
                    observed=observed, fetch_s=observed - t0, state=status["state"],
                    error=status.get("error"), submitted=status.get("submitted"),
                    started=status.get("started"), finished=status.get("finished"),
                )
                result = status.get("result") or {}
                if status["state"] == JobState.DONE:
                    record["image"] = decode_array(result["image"])
                    record.update(
                        run_s=result.get("seconds"), plan_cache=result.get("plan_cache"),
                        toeplitz_cache=result.get("toeplitz_cache"),
                        iterations=result.get("n_iterations"),
                    )
                with lock:
                    del outstanding[job_id]
            tracer.job = None
            time.sleep(POLL_S)

    threads = [threading.Thread(target=submitter), threading.Thread(target=poller)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for index in range(n):
        record = records.setdefault(index, {"scheduled": t_first + index / RATE_PER_S})
        if "observed" not in record:
            record.update(state="timeout", observed=time.time())
    return lateness[0]


def _service_references(trajectories: dict, weights: np.ndarray) -> dict:
    """In-process double-precision image per trajectory x method."""
    references = {}
    for key, (coords, base) in trajectories.items():
        plan = NufftPlan(IMAGE, coords, gridder=default_gridder())
        references[(key, "adjoint")] = plan.adjoint(weights * base)
        references[(key, "cg")] = cg_reconstruction(
            plan, base, weights=weights, n_iterations=CG_ITERATIONS,
            tolerance=CG_TOLERANCE, normal="toeplitz",
        ).image
        del plan
    return references


WORKLOADS = {
    "warm_cg_gridding": run_warm_cg_gridding,
    "service_open_mix": run_service_open_mix,
    "stream_adjoint_2m": run_stream_adjoint_2m,
}
