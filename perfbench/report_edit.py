"""The ``report-edit`` workload: classify -> rebuild -> inspect, in-process.

    python perfbench/report_edit.py --corpus FILE --seed N --seconds S
        --out RESULT.json [--setup-only] [--trace-out SPANS.json]

Loads the corpus, builds the cold report (the end of set-up), then
applies seeded single-course edits to the base corpus for ``S``
seconds, each followed by ``build_report`` (DAG engine, warm in-memory
cache).  Two of every three edits add a material whose tags the course
already has (the matrix is unchanged and early cutoff replays every
factorization); the third adds a tag new to the course but used in the
corpus (typing, the course's family and its anchors row refit).  Sampled
rebuilds are compared, untimed, with ``build_report(..., use_cache=False)``
of the same edited corpus with the factorization cache off.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

#: Edit kinds in each block of three; their order is shuffled per block.
BLOCK = ("cutoff", "cutoff", "refit")
#: Edits whose reports are checked against an uncached rebuild.
CHECKED_EDITS = (3, 5)


def make_edit(courses, corpus_tags, rng, index: int, kind: str):
    from repro.materials import Material, MaterialType

    pos = rng.randrange(len(courses))
    course = courses[pos]
    own = sorted(course.tag_set())
    if kind == "cutoff":
        tags = rng.sample(own, min(3, len(own)))
    else:
        tags = [rng.choice([t for t in corpus_tags if t not in course.tag_set()])]
    extra = Material(
        id=f"{course.id}-edit-{index}",
        title=f"edit {index}",
        mtype=MaterialType.LECTURE,
        mappings=frozenset(tags),
    )
    edited = list(courses)
    edited[pos] = dataclasses.replace(
        course, materials=[*course.materials, extra]
    )
    return edited


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
    from repro.curriculum import load_cs2013
    from repro.io import load_courses
    from repro.report import build_report
    from repro.runtime.metrics import metrics

    if tracer is not None:
        tracer.add("setup.import", _T0, time.perf_counter())
        tracing.install_report(tracer)

    def traced(name, fn, *a, rid=None, **kw):
        if tracer is None:
            return fn(*a, **kw)
        return tracer.call(name, fn, a, kw, rid=rid)

    tree = traced("setup.load", load_cs2013)
    courses = traced("setup.load", load_courses, args.corpus)
    first = time.perf_counter()
    build_report(courses, tree)
    ready = time.perf_counter()
    result = {"ready": ready, "first_ms": (ready - first) * 1e3}
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump(result, fh)
        return 0

    rng = random.Random(args.seed)
    corpus_tags = sorted({t for c in courses for t in c.tag_set()})
    edits = []
    checks = []
    stop = time.perf_counter() + args.seconds
    index = 0
    while time.perf_counter() < stop:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            edited = make_edit(courses, corpus_tags, rng, index, kind)
            computed = metrics.get("pipeline.node_computed")
            hit = metrics.get("pipeline.node_hit")
            t0 = time.perf_counter()
            text = traced("edit", build_report, edited, tree, rid=str(index))
            latency = time.perf_counter() - t0
            edits.append([
                kind, t0, latency,
                metrics.get("pipeline.node_computed") - computed,
                metrics.get("pipeline.node_hit") - hit,
            ])
            if index in CHECKED_EDITS:
                checks.append((edited, text))
            index += 1
    import common  # after set-up, so its imports are not timed

    result.update(
        edits=edits,
        rss_mb=common.vm_hwm_mb(os.getpid()),
        counters=metrics.snapshot()["counters"],
    )

    import repro.runtime

    repro.runtime.configure(cache_enabled=False)
    result["checked"] = len(checks)
    result["mismatches"] = sum(
        build_report(edited, tree, use_cache=False) != text
        for edited, text in checks
    )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
