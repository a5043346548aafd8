"""In-memory span recorder installed around the program's public entry points.

Nothing under ``src/`` knows about it: :func:`install` replaces a fixed set
of methods and module functions with thin wrappers that record
``(name, start, end, parent, job)`` spans, and reads the counters the
program already exposes (``GriddingStats``) after each gridding call.
Spans stay in memory until :meth:`Tracer.dump` writes them out.

A layer's self time is its span's duration minus the time covered by its
child spans.  Compile and select-table seconds that ``GriddingStats``
reports inside a gridding span are charged to the ``core`` layer and taken
out of the gridding self time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

#: span name -> layer, for every span the wrappers (or the benchmark) open
SPAN_LAYER = {
    "nufft.build": "nufft",
    "nufft.forward": "nufft",
    "nufft.adjoint": "nufft",
    "validate.quality": "validate",
    "validate.coords": "validate",
    "gridding.scatter": "gridding",
    "gridding.gather": "gridding",
    "fft.fftn": "fft",
    "fft.ifftn": "fft",
    "toeplitz.build": "toeplitz",
    "toeplitz.apply": "toeplitz",
    "cg.solve": "cg",
    "service.submit": "service",
    "service.status": "service",
    "service.decode": "service",
    "service.encode": "service",
    "service.job": "service",
    "loadgen.job": "loadgen",
}


class Tracer:
    """Thread-aware span stack; spans of one job share its job id."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        # (job, counter) -> value; job is None outside any job
        self.counters: dict = defaultdict(float)
        self._tls = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @property
    def job(self):
        return getattr(self._tls, "job", None)

    @job.setter
    def job(self, value) -> None:
        self._tls.job = value

    def begin(self, name: str, job=None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None:
            job = self.job
        # [name, start_ns, end_ns, parent, job, child_ns]
        span = [name, time.perf_counter_ns(), 0, parent, job, 0]
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if span[3] is not None:
            span[3][5] += span[2] - span[1]

    def count(self, key: str, value: float) -> None:
        self.counters[(self.job, key)] += value

    # -- installation --------------------------------------------------
    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        A call made while a span of the same name is open (a backend
        delegating to its inner backend, ``grid`` calling ``grid_batch``)
        runs unrecorded, so each layer call is one span.
        """
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            if stack and stack[-1][0] == name:
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if after is not None:
                after(args, span)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def wrap_function(self, function, name: str) -> None:
        """Wrap a module-level function in every loaded module that bound it."""
        for module in list(sys.modules.values()):
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.wrap(module, attr, name)

    # -- output --------------------------------------------------------
    def records(self) -> list[dict]:
        """Spans as JSON-ready dicts with integer ids and parent ids."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "id": ids[id(span)],
                "name": span[0],
                "start_ns": span[1],
                "end_ns": span[2],
                "parent": None if span[3] is None else ids.get(id(span[3])),
                "job": span[4],
                "self_ns": max(0, span[2] - span[1] - span[5]),
            }
            for span in self.spans
            if span[2]
        ]

    def counter_records(self) -> list[dict]:
        return [
            {"job": job, "key": key, "value": value}
            for (job, key), value in self.counters.items()
        ]

    def dump(self, path: str, extra: dict | None = None) -> None:
        payload = {"spans": self.records(), "counters": self.counter_records()}
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of recording one span: a wrapped no-op method call
    against the bare call, in this process."""

    class Probe:
        def noop(self):
            return None

    bare = Probe()
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        bare.noop()
    t_bare = time.perf_counter_ns() - t0
    probe = Tracer()
    probe.wrap(Probe, "noop", "probe")
    probe.enabled = True
    wrapped = Probe()
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped.noop()
    t_wrapped = time.perf_counter_ns() - t0
    return max(0, t_wrapped - t_bare) / calls / 1e9


def _gridding_counters(tracer: Tracer):
    """After-hook: fold one call's ``GriddingStats`` into the tracer."""

    def after(args, span) -> None:
        gridder = args[0]
        stats = gridder.stats
        cdtype = gridder.setup.dtype
        entry_bytes = 8 + cdtype.itemsize // 2 + cdtype.itemsize
        compile_s = stats.plan_compile_seconds + stats.table_build_seconds
        # compile/select time happened inside this span: charge it to core
        span[5] = min(span[2] - span[1], span[5] + int(compile_s * 1e9))
        tracer.count("core.compile_s", compile_s)
        tracer.count("core.boundary_checks", stats.boundary_checks)
        tracer.count("gridding.cache_hits", stats.cache_hits)
        tracer.count("gridding.cache_misses", stats.cache_misses)
        tracer.count("gridding.bytes_computed", stats.interpolations * entry_bytes)
        if stats.chunks:  # only the streaming engine reports chunks
            tracer.count("stream.chunks", stats.chunks)
            key = (tracer.job, "stream.peak_bytes")
            tracer.counters[key] = max(tracer.counters[key], stats.peak_bytes)

    return after


def _fft_backend_classes(base) -> list:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer, server: bool = False) -> None:
    """Wrap the library's layer entry points (and, with ``server``, the
    service's job lifecycle and codec) so calls record spans."""
    from repro.gridding.base import Gridder, GriddingSetup
    from repro.nufft.fft_backend import FftBackend
    from repro.nufft.plan import NufftPlan
    from repro.nufft.toeplitz import ToeplitzNormalOperator
    from repro.recon.cg import cg_reconstruction
    from repro.robustness.validate import apply_quality_policy
    from repro.service import ReconClient  # also binds cg_reconstruction in the worker

    tracer.wrap(NufftPlan, "__init__", "nufft.build")
    tracer.wrap(NufftPlan, "forward", "nufft.forward")
    tracer.wrap(NufftPlan, "adjoint", "nufft.adjoint")
    tracer.wrap(GriddingSetup, "check_coords", "validate.coords")
    tracer.wrap_function(apply_quality_policy, "validate.quality")
    counters = _gridding_counters(tracer)
    for attr in ("grid", "grid_batch"):
        tracer.wrap(Gridder, attr, "gridding.scatter", after=counters)
    for attr in ("interp", "interp_batch"):
        tracer.wrap(Gridder, attr, "gridding.gather", after=counters)
    for cls in _fft_backend_classes(FftBackend):
        for attr in ("fftn", "ifftn"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, f"fft.{attr}")
    tracer.wrap(ToeplitzNormalOperator, "__init__", "toeplitz.build")
    tracer.wrap(ToeplitzNormalOperator, "apply", "toeplitz.apply")
    tracer.wrap_function(cg_reconstruction, "cg.solve")
    tracer.wrap(ReconClient, "submit", "service.submit")
    tracer.wrap(ReconClient, "status", "service.status")
    if server:
        _install_server(tracer)


def _install_server(tracer: Tracer) -> None:
    """Server-side spans: one ``service.job`` root per executed job (from
    ``Job.mark_running`` to its terminal mark, on the worker thread) and
    the array codec of request and reply bodies."""
    from repro.service.jobs import Job, JobSpec

    tracer.wrap(JobSpec, "from_payload", "service.decode")
    tracer.wrap(Job, "as_dict", "service.encode")

    start = Job.__dict__["mark_running"]

    def mark_running(job, worker):
        attempt = start(job, worker)
        if attempt is not None and tracer.enabled:
            tracer.job = job.id
            tracer._tls.root = tracer.begin("service.job", job=job.id)
        return attempt

    Job.mark_running = mark_running
    for attr in ("mark_done", "mark_failed", "mark_cancelled", "mark_deadline_exceeded"):
        _wrap_terminal(tracer, Job, attr)


def _wrap_terminal(tracer: Tracer, cls, attr: str) -> None:
    original = cls.__dict__[attr]

    def terminal(job, *args, **kwargs):
        root = getattr(tracer._tls, "root", None)
        if root is not None and root[4] == job.id:
            tracer.end(root)
            tracer._tls.root = None
            tracer.job = None
        return original(job, *args, **kwargs)

    setattr(cls, attr, terminal)
