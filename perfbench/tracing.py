"""In-memory span recorder and the layer wrappers the traced runs install.

A span is ``(name, start, end, parent, rid, rids, n)``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, so they compare with
the client's timestamps on the same machine), ``parent`` is the index
of the enclosing span on the same thread (``-1`` for none), ``rid`` is
the request id shared by every span of one request, ``rids`` lists the
requests a batch span served, and ``n`` is a work count (specs,
queries).  Spans stay in a list and are written out once, at exit.

The wrappers replace public functions of the program from the outside
(class attributes and module-level names); no program file changes.
"""

from __future__ import annotations

import functools
import json
import threading
import time

_now = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        # id(spec or query) -> (rid, submit time, parent span) for work
        # handed to a broker lane; read back when the batch dispatches.
        self._owners: dict[int, tuple] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str | None]:
        stack = self._stack()
        if not stack:
            return -1, None
        idx = stack[-1]
        return idx, self.spans[idx][4]

    def add(self, name, start, end, parent=-1, rid=None, rids=None, n=0) -> int:
        with self._lock:
            self.spans.append([name, start, end, parent, rid, rids, n])
            return len(self.spans) - 1

    def call(self, name, fn, args, kwargs, *, rid=None, n=0):
        """Run ``fn`` inside a span nested under the thread's current one."""
        parent, parent_rid = self.current()
        idx = self.add(name, _now(), 0.0, parent, rid or parent_rid, None, n)
        stack = self._stack()
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[idx][2] = _now()

    # -- batch ownership -----------------------------------------------------

    def own(self, items, rid) -> None:
        parent, _ = self.current()
        entry = (rid, _now(), parent)
        with self._lock:
            for item in items:
                self._owners[id(item)] = entry

    def claim(self, items) -> list[tuple]:
        with self._lock:
            found = {}
            for item in items:
                entry = self._owners.pop(id(item), None)
                if entry is not None:
                    found[entry[0]] = entry
        return list(found.values())

    def batch(self, name, wait_name, items, fn, args, kwargs):
        """A dispatch serving several requests: one span listing them all,
        plus one wait span per request from its submit to this start."""
        owners = self.claim(items)
        start = _now()
        for rid, submitted, parent in owners:
            self.add(wait_name, submitted, start, parent, rid)
        parent, parent_rid = self.current()
        idx = self.add(
            name, start, 0.0, parent, parent_rid,
            [o[0] for o in owners], len(items),
        )
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = _now()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _wrap(tracer: Tracer, owner, attr: str, name: str) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    setattr(owner, attr, wrapper)


def _wrap_finish(tracer: Tracer, job, name: str) -> None:
    finish = job.finish

    def timed(raw):
        return tracer.call(name, finish, (raw,), {})

    job.finish = timed


def install_service(tracer: Tracer) -> None:
    """Wrap the service stack's layer entry points (server process)."""
    import repro.cli
    import repro.service.broker as broker
    import repro.service.server as server
    import repro.service.state as state
    from repro.materials import ShardedMaterialRepository
    from repro.service.admission import AdmissionGate

    # The request handler's do_GET/do_POST are the HTTP entry points: the
    # root span of every request, carrying the client's X-Request-Id.
    handler = server._Handler
    for attr in ("do_GET", "do_POST"):
        fn = getattr(handler, attr)

        def root(self, _fn=fn):
            rid = self.headers.get("X-Request-Id")
            return tracer.call("server.handle", _fn, (self,), {}, rid=rid)

        setattr(handler, attr, root)

    _wrap(tracer, AdmissionGate, "admit", "admission.wait")
    _wrap(tracer, server.ReproService, "route", "server.route")
    _wrap(tracer, broker.PendingResult, "result", "broker.result")

    for attr in ("search_job", "typing_job", "flavors_job", "anchors_job"):
        fn = getattr(state.ServiceState, attr)
        kind = "search" if attr == "search_job" else "nmf"

        def traced_job(self, params, _fn=fn, _kind=kind):
            job = tracer.call("state.job", _fn, (self, params), {})
            if not isinstance(job, dict):
                _wrap_finish(tracer, job, f"state.finish.{_kind}")
            return job

        setattr(state.ServiceState, attr, traced_job)

    submit_nmf = broker.RequestBroker.submit_nmf
    submit_search = broker.RequestBroker.submit_search

    def traced_submit_nmf(self, job):
        tracer.own(job.specs, tracer.current()[1])
        return submit_nmf(self, job)

    def traced_submit_search(self, job):
        tracer.own(job.queries, tracer.current()[1])
        return submit_search(self, job)

    broker.RequestBroker.submit_nmf = traced_submit_nmf
    broker.RequestBroker.submit_search = traced_submit_search

    run_nmf_fits = broker.run_nmf_fits

    def traced_run_nmf_fits(matrix, specs, *args, **kwargs):
        return tracer.batch(
            "nmf.call", "broker.nmf.wait", specs,
            run_nmf_fits, (matrix, specs) + args, kwargs,
        )

    broker.run_nmf_fits = traced_run_nmf_fits

    search_many = ShardedMaterialRepository.search_many

    def traced_search_many(self, queries, *args, **kwargs):
        return tracer.batch(
            "materials.search", "broker.search.wait", queries,
            search_many, (self, queries) + args, kwargs,
        )

    ShardedMaterialRepository.search_many = traced_search_many
    _wrap(tracer, ShardedMaterialRepository, "find_similar", "materials.similar")

    _wrap(tracer, state, "coverage", "materials.coverage")
    _wrap(tracer, state, "typing_from_bundles", "analysis.typing")
    _wrap(tracer, state, "flavors_from_typing", "analysis.flavors")
    _wrap(tracer, state, "recommend_for_course", "anchors.recommend")

    _wrap(tracer, repro.cli, "load_courses", "setup.load")
    _wrap(tracer, repro.cli, "load_cs2013", "setup.load")
    _wrap(tracer, state.ServiceState, "__init__", "setup.state")
    _wrap(tracer, state.ServiceState, "start", "setup.pool")


def install_report(tracer: Tracer) -> None:
    """Wrap the report pipeline's layers (the report-edit process)."""
    import repro.analysis.flavors as flavors
    import repro.analysis.typing as typing
    import repro.pipeline as pipeline
    import repro.report as report

    # build_report imports build_report_pipeline from the package per call.
    _wrap(tracer, pipeline, "build_report_pipeline", "pipeline.build")
    _wrap(tracer, pipeline.Pipeline, "run", "pipeline.run")
    run_nmf_fits = typing.run_nmf_fits

    def traced_run_nmf_fits(matrix, specs, *args, **kwargs):
        return tracer.call(
            "nmf.call", run_nmf_fits, (matrix, specs) + args, kwargs,
            n=len(specs),
        )

    typing.run_nmf_fits = traced_run_nmf_fits
    _wrap(tracer, typing, "typing_from_bundles", "analysis.typing")
    _wrap(tracer, flavors, "flavors_from_typing", "analysis.flavors")
    _wrap(tracer, report, "recommend_for_course", "anchors.recommend")
