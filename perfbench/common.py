"""Shared helpers: checkout paths, the program's environment, pinned
inputs, statistics and the per-run record."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working files inside the checkout (ignored by git).
WORK = ROOT / ".perfbench"
PINS = json.loads((BENCH_DIR / "inputs.json").read_text())


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def program_env() -> dict[str, str]:
    """The environment the program runs under: the caller's, minus every
    ``REPRO_*`` knob (cache dir, workers, faults, sanitizer), with
    ``src`` on the import path and string hashing pinned, so set and
    dict orders repeat from run to run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def scrub_own_env() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def src_digest() -> str:
    """Digest of every file under ``src`` (the checkout is not a git repo)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


#: How each pinned input is made: ``repro`` CLI arguments.
_INPUT_COMMANDS = {
    "canonical": ["canonical"],
    "catalog-20k": [
        "generate", "--materials", str(PINS["catalog-20k"]["materials"]),
        "--seed", str(PINS["catalog-20k"]["seed"]),
    ],
}


def pinned_input(name: str) -> Path:
    """Path of input ``name``, made by the program's own CLI and checked
    against its pinned sha256.  A mismatch is fatal: a generator change
    must re-pin the inputs in a benchmark change of its own."""
    digest = src_digest()[:16]
    path = WORK / "inputs" / f"{name}-{digest}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.json")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *_INPUT_COMMANDS[name],
             "--out", str(tmp)],
            env=program_env(), cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        os.replace(tmp, path)
    actual = sha256_file(path)
    if actual != PINS[name]["sha256"]:
        raise BenchError(
            f"input {name!r} has sha256 {actual}, pinned "
            f"{PINS[name]['sha256']}: the generator changed"
        )
    return path


# -- statistics ---------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- keeping the CPUs awake ----------------------------------------------------

_SPIN = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
while True:
    pass
"""


class CpuWarmer:
    """One lowest-priority busy loop per CPU for the length of a run.

    On a virtual machine an idle vCPU is halted, and waking it goes
    through the host's scheduler; that wake-up delay depends on the
    other tenants and was the largest source of run-to-run spread.
    ``SCHED_IDLE`` loops keep every vCPU running while yielding at once
    to any runnable thread of the program or the client.
    """

    def __enter__(self) -> "CpuWarmer":
        self._procs = [
            subprocess.Popen([sys.executable, "-c", _SPIN])
            for _ in range(os.cpu_count() or 1)
        ]
        time.sleep(0.5)  # their interpreter start-up runs at normal priority
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()


# -- /proc readings -----------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def _cpu_ticks() -> dict[str, int]:
    with open("/proc/stat") as fh:
        fields = fh.readline().split()[1:]
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    return {n: int(v) for n, v in zip(names, fields)}


def _cpu_pressure() -> str | None:
    try:
        with open("/proc/pressure/cpu") as fh:
            return fh.readline().strip()
    except OSError:
        return None


class RunRecord:
    """What explains drift between sets of runs: host, versions, steal,
    load and the benchmark process's own CPU time."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.doc: dict = {
            "workload": workload, "seed": seed, "trace": trace,
            "src_sha256": src_digest(), "git_sha": _git_sha(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
        }
        self._ticks = _cpu_ticks()
        self._cpu = time.process_time()

    def finish(self, **extra) -> dict:
        ticks = _cpu_ticks()
        delta = {k: ticks[k] - self._ticks[k] for k in ticks}
        total = sum(delta.values()) or 1
        with open("/proc/loadavg") as fh:
            load = fh.read().split()[:3]
        self.doc.update(
            steal_frac=delta["steal"] / total,
            loadavg=[float(x) for x in load],
            cpu_pressure=_cpu_pressure(),
            bench_cpu_s=time.process_time() - self._cpu,
            **extra,
        )
        return self.doc


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(module: str) -> str | None:
    try:
        return __import__(module).__version__
    except ImportError:
        return None
