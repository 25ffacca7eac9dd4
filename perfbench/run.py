"""Benchmark of the analysis service and the report pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``interactive-c1``, ``analysis-c2``, ``catalog-20k-c2``: ``repro serve``
  in its own process under its defaults, driven closed-loop by this
  benchmark's keep-alive client (1 or 2 connections);
* ``report-edit``: seeded single-course edits, each followed by an
  incremental ``build_report``, in one process on one thread.

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs the workload twice, ``S/2`` seconds untraced and
``S/2`` traced, and prints the per-layer metrics.  Every run checks the
program's outputs; the last stdout line is the JSON result, the line
before it the run record (host, versions, steal, load, client CPU).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import common
import layers
import service
from common import BenchError, median, quantile

END_TO_END = [
    ("setup_s", "s"),
    ("rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rss_mb", "MiB"),
]
WORKLOADS = [*service.WORKLOADS, "report-edit"]


def _latency_metrics(latencies_ms: list[float], elapsed: float) -> dict:
    return {
        "rps": len(latencies_ms) / elapsed,
        "p50_ms": quantile(latencies_ms, 0.50),
        "p99_ms": quantile(latencies_ms, 0.99),
    }


def _p50(samples, endpoints) -> float:
    return quantile(
        [s.latency * 1e3 for s in samples if s.endpoint in endpoints], 0.50
    )


def _work_file(tag: str):
    common.WORK.mkdir(parents=True, exist_ok=True)
    return common.WORK / f"{tag}-{os.getpid()}.json"


# -- service workloads --------------------------------------------------------


def run_service(name: str, seed: int, seconds: float, trace: bool):
    w = service.WORKLOADS[name]
    corpus_path = common.pinned_input(w.corpus)
    if not trace:
        setups = []
        for i in range(service.SETUP_BOOTS):
            server, corpus, setup_s, _ = service.boot(corpus_path, w, seed)
            setups.append(setup_s)
            if i < service.SETUP_BOOTS - 1:
                server.stop()
                continue
            try:
                loop = service.closed_loop(
                    server.port, corpus, w, seed, seconds, "run"
                )
                rss = server.rss_mb()
                replies = service.check_requests(server.port, corpus, w, seed)
            finally:
                server.stop()
        ok = loop.ok()
        metrics = _latency_metrics([s.latency * 1e3 for s in ok], loop.elapsed)
        metrics.update(setup_s=median(setups), rss_mb=rss)
        extra = {"endpoint_p50_ms": {
            e: _p50(ok, {e}) for e in sorted(w.mix)
        }, "samples": len(ok)}
    else:
        half = seconds / 2
        server, corpus, _, _ = service.boot(corpus_path, w, seed)
        try:
            base = service.closed_loop(server.port, corpus, w, seed, half, "u")
        finally:
            server.stop()
        spans_path = _work_file(f"spans-{name}")
        server, corpus, _, first_ms = service.boot(
            corpus_path, w, seed, trace_out=spans_path
        )
        try:
            loop = service.closed_loop(server.port, corpus, w, seed, half, "t")
            conn = service.Connection(server.port)
            counters = conn.get_json("/metrics")["counters"]
            conn.close()
            replies = service.check_requests(server.port, corpus, w, seed)
        finally:
            server.stop()
        spans = layers.load_spans(spans_path)
        spans_path.unlink()
        ok = loop.ok()
        metrics = layers.from_spans(spans, counters)
        route = {s[4]: s[2] - s[1] for s in spans if s[0] == "server.route"}
        metrics["server.http_ms"] = common.mean(
            s.latency * 1e3 - route.get(s.rid, 0.0) * 1e3 for s in ok
        )
        metrics["setup.first_ms"] = first_ms
        base_ok = base.ok()
        metrics["client.search_p50_ms"] = _p50(base_ok, {"search"})
        metrics["client.similar_p50_ms"] = _p50(base_ok, {"similar"})
        metrics["client.coverage_p50_ms"] = _p50(base_ok, {"coverage"})
        metrics["client.nmf_p50_ms"] = _p50(base_ok, service.NMF_ENDPOINTS)
        metrics["trace.unattributed_frac"] = layers.unattributed_frac(
            spans, [(s.rid, s.start, s.latency) for s in ok]
        )
        metrics["trace.overhead_frac"] = 1.0 - (
            (len(ok) / loop.elapsed) / (len(base_ok) / base.elapsed)
        )
        extra = {"span_violations": layers.nesting_violations(spans),
                 "spans": len(spans), "samples": len(ok)}
    mismatches = service.verify(corpus_path, replies)
    attempted = len(loop.samples) + loop.transport_errors + len(replies)
    failed = (
        len(loop.samples) - len(ok) + loop.transport_errors + mismatches
    )
    extra.update(client_cpu_s=loop.client_cpu_s, mismatches=mismatches,
                 checked=len(replies))
    return metrics, attempted, failed, mismatches == 0, extra


# -- report-edit --------------------------------------------------------------


def _report_child(corpus_path, seed, seconds, *, setup_only=False,
                  trace_out=None) -> dict:
    out = _work_file("report-result")
    cmd = [
        sys.executable, str(common.BENCH_DIR / "report_edit.py"),
        "--corpus", str(corpus_path), "--seed", str(seed),
        "--seconds", str(seconds), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = time.perf_counter()
    proc = subprocess.run(
        cmd, env=common.program_env(), cwd=common.ROOT,
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"report-edit child failed:\n{proc.stderr[-2000:]}")
    with open(out) as fh:
        result = json.load(fh)
    out.unlink()
    result["setup_s"] = result["ready"] - spawned
    return result


def _edit_p50(edits, kind) -> float:
    return quantile([e[2] * 1e3 for e in edits if e[0] == kind], 0.50)


def _edit_metrics(edits) -> dict:
    elapsed = edits[-1][1] + edits[-1][2] - edits[0][1]
    return _latency_metrics([e[2] * 1e3 for e in edits], elapsed)


def run_report_edit(seed: int, seconds: float, trace: bool):
    corpus_path = common.pinned_input("canonical")
    if not trace:
        setups = [
            _report_child(corpus_path, seed, 0, setup_only=True)["setup_s"]
            for _ in range(2)
        ]
        result = _report_child(corpus_path, seed, seconds)
        setups.append(result["setup_s"])
        metrics = _edit_metrics(result["edits"])
        metrics.update(setup_s=median(setups), rss_mb=result["rss_mb"])
        extra = {"cutoff_p50_ms": _edit_p50(result["edits"], "cutoff"),
                 "refit_p50_ms": _edit_p50(result["edits"], "refit"),
                 "samples": len(result["edits"])}
    else:
        half = seconds / 2
        base = _report_child(corpus_path, seed, half)
        spans_path = _work_file("spans-report")
        result = _report_child(corpus_path, seed, half, trace_out=spans_path)
        spans = layers.load_spans(spans_path)
        spans_path.unlink()
        edits = result["edits"]
        metrics = layers.from_spans(spans, result["counters"])
        metrics["setup.first_ms"] = result["first_ms"]
        metrics["client.cutoff_p50_ms"] = _edit_p50(base["edits"], "cutoff")
        metrics["client.refit_p50_ms"] = _edit_p50(base["edits"], "refit")
        for kind in ("cutoff", "refit"):
            metrics[f"pipeline.computed_{kind}"] = common.mean(
                e[3] for e in edits if e[0] == kind
            )
        computed = sum(e[3] for e in edits)
        hits = sum(e[4] for e in edits)
        metrics["pipeline.hit_frac"] = hits / (hits + computed)
        metrics["trace.unattributed_frac"] = layers.unattributed_frac(
            [s for s in spans if s[0] != "edit"],
            [(str(i), e[1], e[2]) for i, e in enumerate(edits)],
        )
        metrics["trace.overhead_frac"] = 1.0 - (
            _edit_metrics(edits)["rps"] / _edit_metrics(base["edits"])["rps"]
        )
        extra = {"span_violations": layers.nesting_violations(spans),
                 "spans": len(spans), "samples": len(edits)}
    extra.update(mismatches=result["mismatches"], checked=result["checked"])
    attempted = len(result["edits"]) + result["checked"]
    return metrics, attempted, result["mismatches"], result["mismatches"] == 0, extra


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {common.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    common.scrub_own_env()
    record = common.RunRecord(args.workload, args.seed, bool(args.trace))
    trace = bool(args.trace)
    try:
        with common.CpuWarmer():
            if args.workload == "report-edit":
                values, attempted, failed, correct, extra = run_report_edit(
                    args.seed, args.seconds, trace
                )
            else:
                values, attempted, failed, correct, extra = run_service(
                    args.workload, args.seed, args.seconds, trace
                )
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = dict(layers.METRICS if trace else END_TO_END)
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    print("run-record " + json.dumps(record.finish(**extra), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
