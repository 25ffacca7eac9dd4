"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 3] [--workload NAME ...]

Runs every workload briefly, untraced and traced, and asserts that each
metric named in BENCHMARK.json is printed with its unit, that no
request failed and the output checks passed, and that the traced spans
nest (each child inside its parent, sharing its request id).  Finally
it checks that the benchmark fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload: str, seconds: float, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check(workload: str, seconds: float, trace: int) -> list[str]:
    proc = _run(common.ROOT, workload, seconds, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("run-record "))
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            problems.append(f"{where}: {metric['name']} printed as {got}")
        elif not trace and not got["value"] > 0:
            problems.append(f"{where}: {metric['name']} is {got['value']}")
    if not result["correct"] or result["failed"] or record["mismatches"]:
        problems.append(
            f"{where}: correct={result['correct']} failed={result['failed']}"
            f" of {result['attempted']}"
        )
    if trace and (record["span_violations"] or not record["spans"]):
        problems.append(
            f"{where}: {record['span_violations']} of {record['spans']} "
            "spans do not nest"
        )
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's own files: must fail."""
    bare = common.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(
            common.ROOT / path, bare / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    try:
        proc = _run(bare, SPEC["workloads"][0]["name"], 1, 0)
    finally:
        shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit {proc.returncode}, printed {last!r}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    problems = []
    for name in names:
        for trace in (0, 1):
            found = check(name, args.seconds, trace)
            print(f"{name} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    problems += check_bare_directory()
    for problem in problems:
        print(problem, file=sys.stderr)
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
