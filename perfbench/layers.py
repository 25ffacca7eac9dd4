"""Per-layer metrics from a traced run's spans, client samples and the
server's own ``/metrics`` counters.

Every per-layer metric is printed for every workload.  A layer a
workload does not cross reads 0: its time and counts are 0 there.
Timings are means per call of the layer (``*_p50_ms`` and
``*_p99_ms`` are percentiles over calls) in milliseconds unless the
name ends in ``_s``.
"""

from __future__ import annotations

import json
from collections import defaultdict

from common import mean, quantile

#: (name, unit) of every per-layer metric, in print order.
METRICS = [
    ("server.route_ms", "ms"),
    ("server.http_ms", "ms"),
    ("admission.wait_p50_ms", "ms"),
    ("admission.wait_p99_ms", "ms"),
    ("admission.shed", "count"),
    ("broker.search.wait_ms", "ms"),
    ("broker.nmf.wait_ms", "ms"),
    ("broker.search.batch", "jobs"),
    ("broker.nmf.batch", "jobs"),
    ("state.job_ms", "ms"),
    ("state.finish_ms.search", "ms"),
    ("state.finish_ms.nmf", "ms"),
    ("materials.search_ms", "ms"),
    ("materials.search_per_query_ms", "ms"),
    ("materials.similar_ms", "ms"),
    ("materials.coverage_ms", "ms"),
    ("materials.resident_bytes_per_query", "B"),
    ("materials.resident_retries", "count"),
    ("nmf.call_ms", "ms"),
    ("nmf.specs", "count"),
    ("nmf.ms_per_spec", "ms"),
    ("runtime.cache_hit_frac", "fraction"),
    ("analysis.typing_ms", "ms"),
    ("analysis.flavors_ms", "ms"),
    ("anchors.recommend_ms", "ms"),
    ("pipeline.build_ms", "ms"),
    ("pipeline.run_ms", "ms"),
    ("pipeline.computed_cutoff", "count"),
    ("pipeline.computed_refit", "count"),
    ("pipeline.hit_frac", "fraction"),
    ("setup.import_s", "s"),
    ("setup.load_s", "s"),
    ("setup.state_s", "s"),
    ("setup.pool_s", "s"),
    ("setup.first_ms", "ms"),
    ("client.search_p50_ms", "ms"),
    ("client.similar_p50_ms", "ms"),
    ("client.coverage_p50_ms", "ms"),
    ("client.nmf_p50_ms", "ms"),
    ("client.cutoff_p50_ms", "ms"),
    ("client.refit_p50_ms", "ms"),
    ("trace.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
]

#: Simple per-call means: metric name -> span name.
_MEAN_MS = {
    "server.route_ms": "server.route",
    "broker.search.wait_ms": "broker.search.wait",
    "broker.nmf.wait_ms": "broker.nmf.wait",
    "state.job_ms": "state.job",
    "state.finish_ms.search": "state.finish.search",
    "state.finish_ms.nmf": "state.finish.nmf",
    "materials.search_ms": "materials.search",
    "materials.similar_ms": "materials.similar",
    "materials.coverage_ms": "materials.coverage",
    "nmf.call_ms": "nmf.call",
    "analysis.typing_ms": "analysis.typing",
    "analysis.flavors_ms": "analysis.flavors",
    "anchors.recommend_ms": "anchors.recommend",
    "pipeline.build_ms": "pipeline.build",
    "pipeline.run_ms": "pipeline.run",
}


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return json.load(fh)


def _by_name(spans) -> dict[str, list[list]]:
    out: dict[str, list[list]] = defaultdict(list)
    for span in spans:
        out[span[0]].append(span)
    return out


def _dur(span) -> float:
    return span[2] - span[1]


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def unattributed_frac(spans, samples) -> float:
    """Share of client latency that no span of its request covers.

    ``samples`` are ``(rid, start, latency)``; span and client times
    share CLOCK_MONOTONIC.
    """
    per_rid: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            per_rid[span[4]].append((span[1], span[2]))
        for rid in span[5] or ():
            per_rid[rid].append((span[1], span[2]))
    total = covered = 0.0
    for rid, start, latency in samples:
        end = start + latency
        clipped = [
            (max(lo, start), min(hi, end))
            for lo, hi in per_rid.get(rid, ())
            if hi > start and lo < end
        ]
        total += latency
        covered += _union(clipped)
    return 1.0 - covered / total if total else 0.0


def nesting_violations(spans) -> int:
    """Spans that lie outside their parent, change request id, or serve
    a request whose root span does not contain them."""
    roots = {}
    for span in spans:
        if span[3] < 0 and span[4] is not None and not span[5]:
            roots.setdefault(span[4], span)
    bad = 0
    for span in spans:
        parent = span[3]
        if parent >= 0:
            p = spans[parent]
            if not (p[1] <= span[1] and span[2] <= p[2] and p[4] == span[4]):
                bad += 1
        for rid in span[5] or ():
            root = roots.get(rid)
            if root is None or not (root[1] <= span[1] and span[2] <= root[2]):
                bad += 1
    return bad


def from_spans(spans, counters: dict[str, int] | None = None) -> dict[str, float]:
    """The span- and counter-derived metrics (zeros where not crossed)."""
    named = _by_name(spans)
    counters = counters or {}
    out: dict[str, float] = {name: 0.0 for name, _ in METRICS}
    for metric, span_name in _MEAN_MS.items():
        out[metric] = mean(_dur(s) for s in named[span_name]) * 1e3
    admits = [_dur(s) * 1e3 for s in named["admission.wait"]]
    out["admission.wait_p50_ms"] = quantile(admits, 0.50)
    out["admission.wait_p99_ms"] = quantile(admits, 0.99)
    for lane, span_name in (("search", "materials.search"), ("nmf", "nmf.call")):
        batches = [len(s[5]) for s in named[span_name] if s[5] is not None]
        out[f"broker.{lane}.batch"] = mean(batches)
    queries = sum(s[6] for s in named["materials.search"])
    if queries:
        out["materials.search_per_query_ms"] = (
            sum(_dur(s) for s in named["materials.search"]) * 1e3 / queries
        )
    calls = named["nmf.call"]
    out["nmf.specs"] = mean(s[6] for s in calls)
    specs = sum(s[6] for s in calls)
    if specs:
        out["nmf.ms_per_spec"] = sum(_dur(s) for s in calls) * 1e3 / specs
    for metric in ("import", "load", "state", "pool"):
        out[f"setup.{metric}_s"] = sum(_dur(s) for s in named[f"setup.{metric}"])
    shed = counters.get("service.shed.cheap", 0) + counters.get(
        "service.shed.heavy", 0
    )
    out["admission.shed"] = float(shed)
    user_queries = sum(
        counters.get(k, 0)
        for k in ("shard.search.queries", "shard.search_many.queries",
                  "shard.find_similar.queries")
    )
    if user_queries:
        out["materials.resident_bytes_per_query"] = (
            counters.get("shard.resident.bytes_shipped", 0) / user_queries
        )
    out["materials.resident_retries"] = float(sum(
        counters.get(k, 0)
        for k in ("shard.resident.worker_dead", "shard.resident.local_fallback",
                  "executor.retry")
    ))
    lookups = counters.get("cache.hit", 0) + counters.get("cache.miss", 0)
    if lookups:
        out["runtime.cache_hit_frac"] = counters.get("cache.hit", 0) / lookups
    return out
