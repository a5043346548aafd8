#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage::

    python3 perfbench/run.py --workload warm_cg_gridding --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs the workload traced and
prints the per-layer metrics and a per-layer self-time table.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also writes the
full host-stamped record, which ``perfbench/compare.py`` compares.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warm_cg_gridding", "service_open_mix", "stream_adjoint_2m")
#: latency recorded for a failed, refused or incorrect job (stands in for +inf)
FAILED_LATENCY_S = 1e9
#: job kinds whose failures are a known defect of the program: they count in
#: ``failed`` and every end-to-end metric, but not against ``correct``
KNOWN_DEFECT_KINDS = ("reordered",)


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _percentiles(latencies: list) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it
    (the maximum when there are 10 samples or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n >= 11 else n - 1
    return {
        "p50": float(statistics.median(ordered)),
        "tail": ordered[k],
        "tail_percentile": round(100.0 * (k + 1) / n, 2),
        "samples": n,
    }


def end_to_end(reading, slo_s: float) -> tuple[dict, dict]:
    jobs = reading.jobs
    n = len(jobs)
    ok = [job for job in jobs if job.ok]
    latencies = [job.latency_s if job.ok else math.inf for job in jobs]
    pct = _percentiles(latencies)
    values = {
        "job_s_p50": min(pct["p50"], FAILED_LATENCY_S),
        "job_s_tail": min(pct["tail"], FAILED_LATENCY_S),
        "jobs_per_s": len(ok) / reading.wall_s,
        "setup_s": reading.setup_s,
        "peak_rss_mb": reading.peak_rss_mb,
        "ok_fraction": len(ok) / n,
        "slo_met_fraction": sum(1 for job in ok if job.latency_s <= slo_s) / n,
    }
    detail = dict(pct, tail=values["job_s_tail"], slo_s=slo_s, wall_s=reading.wall_s,
                  latencies_s=[round(job.latency_s, 6) for job in jobs])
    return values, detail


def _child(workload: str, seed: int, seconds: int, trace: int) -> str:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    return proc.stdout


def run_all(args) -> int:
    results = {}
    for workload in WORKLOADS:
        stdout = _child(workload, args.seed, args.seconds, args.trace)
        lines = stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"seed": args.seed, "trace": args.trace, "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import host
    import layers
    import tracing
    import workloads

    import_s = time.perf_counter() - T0
    steal0, total0 = host.cpu_times()
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
        tracer.enabled = True
    reading = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, import_s)
    steal1, total1 = host.cpu_times()

    failed = sum(1 for job in reading.jobs if not job.ok)
    unexpected = [i for i, job in enumerate(reading.jobs)
                  if not job.ok and job.kind not in KNOWN_DEFECT_KINDS]
    slo_s = workloads.SLO_S[args.workload]
    e2e, e2e_detail = end_to_end(reading, slo_s)
    errors = [job.detail.get("nrmsd", job.detail.get("nudft_rel_error"))
              for job in reading.jobs if job.ok]
    reading.checks["worst_error_of_correct_jobs"] = max(
        (e for e in errors if e is not None), default=None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.host_stamp(),
        "end_to_end": e2e,
        "end_to_end_detail": e2e_detail,
        "checks": reading.checks,
        "cpu_steal_fraction": (steal1 - steal0) / max(1, total1 - total0),
        "failed_jobs": [
            {"index": i, "kind": job.kind, **{k: v for k, v in job.detail.items()
                                               if isinstance(v, (int, float, str, type(None)))}}
            for i, job in enumerate(reading.jobs) if not job.ok
        ],
    }
    bench = _bench()
    if args.trace:
        spans = tracer.records()
        counters = tracer.counter_records()
        server = reading.layer.get("server", {})
        spans_all = spans + server.get("spans", [])
        counters_all = counters + server.get("counters", [])
        # spans recorded per job times the measured cost of one span,
        # against the job's traced median latency
        span_s = tracing.span_cost_s()
        overhead = len(spans_all) * span_s / len(reading.jobs) / e2e["job_s_p50"]
        values, table = layers.derive(reading, spans_all, counters_all, overhead)
        root = "service.job" if server.get("spans") else "loadgen.job"
        jobs = layers.accounting(spans_all, root)
        worst = max((j["unattributed_fraction"] for j in jobs.values()), default=0.0)
        record.update(per_layer=values, self_time_s_per_job=table, per_layer_map={
            name: {"moves": moves, "on": list(on)}
            for name, (_, _, moves, on) in layers.PER_LAYER.items()
        }, accounting={
            "root_span": root, "tolerance": layers.UNATTRIBUTED_TOLERANCE,
            "worst_unattributed_fraction": worst, "jobs": len(jobs),
            "spans": len(spans_all), "span_cost_s": span_s,
        })
        print(f"{args.workload}: per-layer self time (s/job), traced jobs: {len(reading.jobs)}")
        for layer, seconds in table.items():
            print(f"  {layer:<10} {seconds:10.4f}")
        print(f"  trace.overhead_fraction = {overhead:.2e} ({len(spans_all)} spans "
              f"at {span_s * 1e9:.0f} ns each over {len(reading.jobs)} jobs)")
        status = "within" if worst <= layers.UNATTRIBUTED_TOLERANCE else "OUTSIDE"
        print(f"  accounting: worst job leaves {worst:.2%} of its {root} span "
              f"unattributed ({status} the {layers.UNATTRIBUTED_TOLERANCE:.0%} tolerance)")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        print(f"{args.workload} (seed {args.seed}, {len(reading.jobs)} jobs, "
              f"tail = p{e2e_detail['tail_percentile']:g} of {e2e_detail['samples']}):")
        for name, metric in metrics.items():
            print(f"  {name:<18} {metric['value']:.6g} {metric['unit']}")
    print("host: " + json.dumps(record["host"], sort_keys=True))
    print(f"cpu steal during the run: {record['cpu_steal_fraction']:.1%}")
    for job in record["failed_jobs"]:
        print("failed job: " + json.dumps(job, sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not unexpected and bool(reading.jobs),
        "attempted": len(reading.jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
