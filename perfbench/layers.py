"""Per-layer metrics of a traced run, and the end-to-end metric each moves.

Seconds and counts are per timed job (the mean over the run's timed jobs)
unless the unit says otherwise; ratios are over the timed window.  A layer
the workload does not load reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import SPAN_LAYER

W_CG, W_SVC, W_STREAM = "warm_cg_gridding", "service_open_mix", "stream_adjoint_2m"
ALL = (W_CG, W_SVC, W_STREAM)

#: name -> (unit, better, what it should move, on which workloads)
PER_LAYER = {
    "validate.s": ("s/job", "lower", "job_s_p50", (W_CG,)),
    "validate.calls": ("count/job", "lower", "job_s_p50", (W_CG,)),
    "gridding.scatter_self_s": ("s/job", "lower", "job_s_p50, jobs_per_s", (W_CG, W_STREAM, W_SVC)),
    "gridding.gather_self_s": ("s/job", "lower", "job_s_p50, jobs_per_s", (W_CG, W_SVC)),
    "gridding.calls": ("count/job", "lower", "job_s_p50", (W_CG, W_STREAM, W_SVC)),
    "gridding.plan_hit_ratio": ("ratio", "higher", "job_s_p50", (W_CG, W_STREAM, W_SVC)),
    "gridding.bytes_computed": ("B/job", "lower", "job_s_p50", (W_CG, W_STREAM, W_SVC)),
    "core.compile_s": ("s/job", "lower", "job_s_p50 (stream), setup_s (warm_cg), job_s_tail (service)", ALL),
    "core.boundary_checks": ("count/job", "lower", "job_s_p50 (stream), job_s_tail (service)", ALL),
    "stream.chunks": ("count/job", "lower", "peak_rss_mb, job_s_p50", (W_STREAM,)),
    "stream.peak_bytes": ("B", "lower", "peak_rss_mb, job_s_p50", (W_STREAM,)),
    "nufft.plan_build_s": ("s", "lower", "setup_s (all), job_s_tail (service)", ALL),
    "nufft.forward_self_s": ("s/job", "lower", "job_s_p50", (W_CG,)),
    "nufft.adjoint_self_s": ("s/job", "lower", "job_s_p50", (W_CG, W_STREAM)),
    "nufft.calls": ("count/job", "lower", "job_s_p50", ALL),
    "fft.self_s": ("s/job", "lower", "job_s_p50", (W_SVC, W_CG)),
    "fft.calls": ("count/job", "lower", "job_s_p50", (W_SVC, W_CG)),
    "toeplitz.build_s": ("s", "lower", "job_s_tail", (W_SVC,)),
    "toeplitz.builds": ("count", "lower", "job_s_tail", (W_SVC,)),
    "toeplitz.apply_self_s": ("s/job", "lower", "job_s_p50", (W_SVC,)),
    "cg.vector_self_s": ("s/job", "lower", "job_s_p50", (W_SVC, W_CG)),
    "cg.iterations": ("count/job", "lower", "job_s_p50", (W_SVC, W_CG)),
    "service.submit_s": ("s", "lower", "job_s_p50, job_s_tail, slo_met_fraction", (W_SVC,)),
    "service.queue_wait_s": ("s", "lower", "job_s_p50, job_s_tail, slo_met_fraction", (W_SVC,)),
    "service.run_s": ("s", "lower", "job_s_p50, job_s_tail, slo_met_fraction", (W_SVC,)),
    "service.completion_lag_s": ("s", "lower", "job_s_p50, job_s_tail, slo_met_fraction", (W_SVC,)),
    "service.fetch_s": ("s", "lower", "job_s_p50, job_s_tail, slo_met_fraction", (W_SVC,)),
    "service.codec_s": ("s/job", "lower", "job_s_p50, job_s_tail, slo_met_fraction", (W_SVC,)),
    "service.plan_hit_ratio": ("ratio", "higher", "job_s_p50, job_s_tail, slo_met_fraction", (W_SVC,)),
    "service.toeplitz_hit_ratio": ("ratio", "higher", "job_s_p50, job_s_tail, slo_met_fraction", (W_SVC,)),
    "service.rejected": ("count", "lower", "ok_fraction, slo_met_fraction", (W_SVC,)),
    "service.incorrect": ("count", "lower", "ok_fraction, slo_met_fraction", (W_SVC,)),
    "service.worker_busy_fraction": ("ratio", "lower", "job_s_p50, jobs_per_s", (W_SVC,)),
    "loadgen.lateness_s_max": ("s", "lower", "diagnostic", ALL),
    "trace.overhead_fraction": ("ratio", "lower", "diagnostic", ALL),
}

#: a traced job's root span may hold at most this share of its duration
#: outside every layer span (the accounting tolerance)
UNATTRIBUTED_TOLERANCE = 0.05


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def _job_key(span_job, server_ids: dict):
    """Normalise a span's job id to the benchmark's job index."""
    if isinstance(span_job, int):
        return span_job
    if isinstance(span_job, str):
        if span_job.startswith("job-"):
            return int(span_job[4:])
        return server_ids.get(span_job)
    return None


def accounting(spans: list[dict], root: str) -> dict:
    """Per job: root span duration and the share of it that no layer span
    (or core compile time carved out of one) accounts for."""
    out = {}
    for span in spans:
        if span["name"] == root and span["job"] is not None:
            duration = span["end_ns"] - span["start_ns"]
            out[span["job"]] = {
                "duration_s": duration / 1e9,
                "unattributed_fraction": span["self_ns"] / duration if duration else 0.0,
            }
    return out


def derive(reading, spans: list[dict], counters: list[dict], overhead: float) -> tuple[dict, dict]:
    """Per-layer metric values of one traced reading, plus a self-time table.

    ``spans``/``counters`` are :class:`tracing.Tracer` records, the
    benchmark process's and (for the service) the server's together.
    """
    jobs = reading.jobs
    n = max(1, len(jobs))
    server_ids = {
        job.detail["id"]: index for index, job in enumerate(jobs) if job.detail.get("id")
    }
    timed = set(range(len(jobs)))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    layer_self = defaultdict(float)
    for span in spans:
        durations[span["name"]].append((span["end_ns"] - span["start_ns"]) / 1e9)
        if _job_key(span["job"], server_ids) not in timed:
            continue
        self_s[span["name"]] += span["self_ns"] / 1e9
        calls[span["name"]] += 1
        layer_self[SPAN_LAYER.get(span["name"], span["name"])] += span["self_ns"] / 1e9
    count = defaultdict(float)
    for row in counters:
        if _job_key(row["job"], server_ids) in timed:
            if row["key"] == "stream.peak_bytes":
                count[row["key"]] = max(count[row["key"]], row["value"])
            else:
                count[row["key"]] += row["value"]
    layer_self["core"] += count["core.compile_s"]
    codec = sum(durations["service.decode"]) + sum(durations["service.encode"])

    hits, misses = count["gridding.cache_hits"], count["gridding.cache_misses"]
    details = [job.detail for job in jobs]
    layer = reading.layer

    def per_job(*names):
        return sum(self_s[name] for name in names) / n

    def calls_per_job(*names):
        return sum(calls[name] for name in names) / n

    def service_median(start, end):
        return _median(
            d[end] - d[start] for d in details
            if d.get(end) is not None and d.get(start) is not None
        )

    values = {
        "validate.s": per_job("validate.quality", "validate.coords"),
        "validate.calls": calls_per_job("validate.quality", "validate.coords"),
        "gridding.scatter_self_s": per_job("gridding.scatter"),
        "gridding.gather_self_s": per_job("gridding.gather"),
        "gridding.calls": calls_per_job("gridding.scatter", "gridding.gather"),
        "gridding.plan_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "gridding.bytes_computed": count["gridding.bytes_computed"] / n,
        "core.compile_s": count["core.compile_s"] / n,
        "core.boundary_checks": count["core.boundary_checks"] / n,
        "stream.chunks": count["stream.chunks"] / n,
        "stream.peak_bytes": count["stream.peak_bytes"],
        "nufft.plan_build_s": _median(durations["nufft.build"]),
        "nufft.forward_self_s": per_job("nufft.forward"),
        "nufft.adjoint_self_s": per_job("nufft.adjoint"),
        "nufft.calls": calls_per_job("nufft.forward", "nufft.adjoint"),
        "fft.self_s": per_job("fft.fftn", "fft.ifftn"),
        "fft.calls": calls_per_job("fft.fftn", "fft.ifftn"),
        "toeplitz.build_s": _median(durations["toeplitz.build"]),
        "toeplitz.builds": calls["toeplitz.build"],
        "toeplitz.apply_self_s": per_job("toeplitz.apply"),
        "cg.vector_self_s": per_job("cg.solve"),
        "cg.iterations": _median(d.get("iterations") or None for d in details),
        "service.submit_s": service_median("sent", "accepted"),
        "service.queue_wait_s": service_median("submitted", "started"),
        "service.run_s": service_median("started", "finished"),
        "service.completion_lag_s": service_median("finished", "observed"),
        "service.fetch_s": _median(d.get("fetch_s") for d in details),
        "service.codec_s": codec / n if reading.workload == W_SVC else 0.0,
        "service.plan_hit_ratio": layer.get("plan_hit_ratio", 0.0),
        "service.toeplitz_hit_ratio": layer.get("toeplitz_hit_ratio", 0.0),
        "service.rejected": layer.get("rejected", 0),
        "service.incorrect": sum(
            1 for job in jobs if reading.workload == W_SVC and not job.ok
            and job.detail.get("state") == "done"
        ),
        "service.worker_busy_fraction": layer.get("worker_busy_fraction", 0.0),
        "loadgen.lateness_s_max": reading.lateness_s_max,
        "trace.overhead_fraction": overhead,
    }
    table = {name: round(seconds / n, 6) for name, seconds in sorted(layer_self.items())}
    return values, table
