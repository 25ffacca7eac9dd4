"""Service workloads: boot ``repro serve`` in its own process and drive
it with the benchmark's own closed-loop keep-alive client.

The client is stdlib ``http.client`` only and shares no code with
``repro.service`` (not its load generator, not its client), so a change
to the service package cannot change how the service is measured.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
from common import BenchError

NMF_ENDPOINTS = ("typing", "flavors", "anchors")
#: Server boots per run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: Output-check requests per endpoint of the mix, sent after the timed loop.
CHECKS_PER_ENDPOINT = 3
NMF_RESTARTS = 2
_SERVING = re.compile(r"serving .* on http://[\d.]+:(\d+)")


@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    corpus: str
    connections: int
    mix: dict[str, int]


WORKLOADS = {
    w.name: w
    for w in (
        ServiceWorkload(
            "interactive-c1", "canonical", 1,
            {"search": 4, "similar": 2, "coverage": 2, "typing": 1,
             "flavors": 1, "anchors": 1},
        ),
        ServiceWorkload(
            "analysis-c2", "canonical", 2,
            {"typing": 2, "flavors": 1, "anchors": 1},
        ),
        # Searches wait out the 10 ms coalescing window; similar and
        # coverage answer in ~5 ms.  With searches at exactly half of
        # the mix the overall median sat on the gap between the two
        # modes and jumped run to run, so searches are 6 of 10 here.
        ServiceWorkload(
            "catalog-20k-c2", "catalog-20k", 2,
            {"search": 6, "similar": 2, "coverage": 2},
        ),
    )
}


# -- client -------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection with Nagle off."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: bytes | None, rid: str):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=60
            )
            self._conn.connect()
            self._conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        headers = {"X-Request-Id": rid}
        if body is not None:
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def get_json(self, path: str) -> dict:
        status, data = self.request("GET", path, None, "bench-control")
        if status != 200:
            raise BenchError(f"GET {path} answered {status}: {data[:200]!r}")
        return json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


class Requests:
    """Seeded request bodies over the whole served corpus.

    Every NMF request carries its own seed (``base`` + a per-stream
    counter), so each one is a real solve and never a cache hit.
    """

    def __init__(self, corpus: dict, mix: dict[str, int], seed: int,
                 stream: int) -> None:
        self.course_ids = corpus["course_ids"]
        self.material_ids = corpus["material_ids"]
        self.tag_ids = corpus["tag_ids"]
        self._names = sorted(mix)
        self._weights = [mix[n] for n in self._names]
        self._rng = random.Random(seed * 1000 + stream)
        self._nmf_seed = seed * 10_000_000 + stream * 1_000_000
        self._count = 0

    def body(self, endpoint: str) -> dict:
        rng = self._rng
        if endpoint == "search":
            tags = rng.sample(self.tag_ids, rng.randint(1, 3))
            return {"queries": [{"tags": tags}], "limit": 10}
        if endpoint == "similar":
            return {"material_id": rng.choice(self.material_ids), "limit": 10}
        if endpoint == "coverage":
            return {"course_id": rng.choice(self.course_ids)}
        self._count += 1
        doc = {"seed": self._nmf_seed + self._count,
               "n_restarts": NMF_RESTARTS}
        if endpoint == "typing":
            doc["k"] = 4
        elif endpoint == "flavors":
            doc["k"] = 3
        else:
            doc["course_id"] = rng.choice(self.course_ids)
        return doc

    def next(self) -> tuple[str, dict]:
        endpoint = self._rng.choices(self._names, self._weights)[0]
        return endpoint, self.body(endpoint)


@dataclass
class Sample:
    endpoint: str
    rid: str
    start: float
    latency: float
    status: int


@dataclass
class LoopResult:
    samples: list[Sample] = field(default_factory=list)
    transport_errors: int = 0
    elapsed: float = 0.0
    client_cpu_s: float = 0.0

    def ok(self) -> list[Sample]:
        return [s for s in self.samples if s.status == 200]


def closed_loop(port: int, corpus: dict, workload: ServiceWorkload,
                seed: int, seconds: float, tag: str) -> LoopResult:
    """``connections`` threads, each sending its next request only after
    its previous reply arrived, for ``seconds``."""
    result = LoopResult()
    lock = threading.Lock()
    start = time.perf_counter()
    stop = start + seconds
    cpu0 = time.process_time()

    def worker(stream: int) -> None:
        gen = Requests(corpus, workload.mix, seed, stream)
        conn = Connection(port)
        samples: list[Sample] = []
        errors = 0
        i = 0
        try:
            while time.perf_counter() < stop:
                endpoint, body = gen.next()
                payload = json.dumps(body).encode()
                rid = f"{tag}-{stream}-{i}"
                i += 1
                t0 = time.perf_counter()
                try:
                    status, _ = conn.request(
                        "POST", f"/{endpoint}", payload, rid
                    )
                except (OSError, http.client.HTTPException):
                    errors += 1
                    continue
                samples.append(
                    Sample(endpoint, rid, t0, time.perf_counter() - t0, status)
                )
        finally:
            conn.close()
            with lock:
                result.samples.extend(samples)
                result.transport_errors += errors

    threads = [
        threading.Thread(target=worker, args=(s,), name=f"bench-client-{s}")
        for s in range(workload.connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.elapsed = time.perf_counter() - start
    result.client_cpu_s = time.process_time() - cpu0
    return result


# -- server process ----------------------------------------------------------


class Server:
    """``repro serve CORPUS --port 0`` in a child process, via the launcher."""

    def __init__(self, corpus_path: Path, trace_out: Path | None) -> None:
        cmd = [sys.executable, str(common.BENCH_DIR / "launch.py")]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        cmd += ["serve", str(corpus_path), "--port", "0"]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=common.program_env(), cwd=common.ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.port: int | None = None
        self._stderr: list[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.resident_pids: list[int] = []

    def _read(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)
            match = _SERVING.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float = 120.0) -> int:
        self._ready.wait(timeout)
        if self.port is None:
            self.stop()
            raise BenchError(
                "server did not start:\n" + "".join(self._stderr[-20:])
            )
        return self.port

    def rss_mb(self) -> float:
        """Peak RSS of the server plus its resident shard workers."""
        return sum(
            common.vm_hwm_mb(pid)
            for pid in [self.proc.pid, *self.resident_pids]
        )

    def stop(self) -> None:
        """Drain with SIGINT, as Ctrl-C does; kill if the drain hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                for pid in self.resident_pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
        self._reader.join(timeout=10)
        if self.proc.returncode != 0:
            raise BenchError(
                f"server exited {self.proc.returncode}:\n"
                + "".join(self._stderr[-20:])
            )


def boot(corpus_path: Path, workload: ServiceWorkload, seed: int,
         trace_out: Path | None = None):
    """Start a server and answer one request per endpoint of the mix.

    Returns ``(server, corpus document, setup seconds, first-request ms)``;
    setup runs from spawning the process until every first request has
    answered 200 (lazy family matrices and cold workers included).
    """
    server = Server(corpus_path, trace_out)
    try:
        port = server.wait_ready()
        conn = Connection(port)
        corpus = conn.get_json("/corpus?limit=100000000")
        if len(corpus["material_ids"]) != corpus["n_materials"]:
            raise BenchError("/corpus did not return every material id")
        first = time.perf_counter()
        gen = Requests(corpus, workload.mix, seed, stream=99)
        for endpoint in sorted(workload.mix):
            body = json.dumps(gen.body(endpoint)).encode()
            status, data = conn.request(
                "POST", f"/{endpoint}", body, f"setup-{endpoint}"
            )
            if status != 200:
                raise BenchError(
                    f"first /{endpoint} answered {status}: {data[:200]!r}"
                )
        done = time.perf_counter()
        server.resident_pids = conn.get_json("/healthz")["resident_pids"]
        conn.close()
    except BaseException:
        server.stop()
        raise
    return server, corpus, done - server.spawned, (done - first) * 1e3


def check_requests(port: int, corpus: dict, workload: ServiceWorkload,
                   seed: int) -> list[tuple[str, dict, int, bytes]]:
    """Send the fixed verification requests; returns the raw replies."""
    gen = Requests(corpus, workload.mix, seed, stream=98)
    conn = Connection(port)
    replies = []
    for endpoint in sorted(workload.mix):
        for i in range(CHECKS_PER_ENDPOINT):
            body = gen.body(endpoint)
            status, data = conn.request(
                "POST", f"/{endpoint}", json.dumps(body).encode(),
                f"check-{endpoint}-{i}",
            )
            replies.append((endpoint, body, status, data))
    conn.close()
    return replies


def _canonical(doc) -> str:
    return json.dumps(json.loads(json.dumps(doc)), sort_keys=True)


def verify(corpus_path: Path, replies) -> int:
    """Recompute each checked document in-process through public calls
    and count the replies that differ (or were not 200)."""
    from repro.curriculum import load_cs2013
    from repro.io import load_courses
    from repro.runtime import run_nmf_fits
    from repro.service.state import ServiceConfig, ServiceState

    state = ServiceState(
        load_cs2013(), load_courses(corpus_path),
        config=ServiceConfig(resident=False),
    )
    mismatches = 0
    for endpoint, body, status, data in replies:
        if endpoint == "search":
            job = state.search_job(body)
            doc = job.finish(
                state.repo.search_many(job.queries, tree=job.tree, limit=job.limit)
            )
        elif endpoint in ("similar", "coverage"):
            doc = getattr(state, endpoint)(body)
        else:
            job = getattr(state, f"{endpoint}_job")(body)
            doc = job if isinstance(job, dict) else job.finish(
                run_nmf_fits(job.matrix, job.specs, kernel=state.config.nmf_kernel)
            )
        if status != 200 or _canonical(json.loads(data)) != _canonical(doc):
            mismatches += 1
    return mismatches
