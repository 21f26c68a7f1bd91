"""The ``warm_http`` workload: cache hits through a live ``repro serve``.

A timing run starts ``repro serve --fleet 2 --journal-dir ...`` as a
subprocess three times in turn, on one disk cache.  The first server
gets the 12 paper cases cold (the simulate bodies, two at a time) and
every answer is recorded; the later ones must give the same answers from
the disk cache.  Each server then takes a third of the window: an open
loop at a fixed rate over the 24 warm bodies.  How fast one server
instance answers moved by up to 15% from instance to instance, so the
run pools three.  After the window every design the first server
compiled is read back from the disk cache and checked.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    RATE,
    Metrics,
    check_hit,
    design_errors,
    geomean,
    median,
    open_loop_schedule,
    percentile,
    warm_bodies,
    wirelength,
)

#: Server instances of a timing run, each serving a third of the
#: window; ``setup_s`` is the median of their start-ups.
SERVERS = 3
#: Per-request client timeout; a compile never takes this long.
REQUEST_TIMEOUT_S = 120.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(port: int, method: str, path: str, body: bytes | None = None):
    """One HTTP exchange on a fresh connection: ``(status, document)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


class Server:
    """One ``repro serve --fleet 2`` subprocess and its process group."""

    def __init__(self, root: Path, workdir: Path, env: dict, journal_dir: Path):
        self.port = _free_port()
        command = [sys.executable, "-m", "repro", "serve", "--fleet", "2",
                   "--port", str(self.port), "--journal-dir", str(journal_dir)]
        self.log = open(workdir / f"serve-{self.port}.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=self.log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Until ``/healthz`` answers with every fleet worker alive."""
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                status, health = request(self.port, "GET", "/healthz")
            except OSError:
                time.sleep(0.01)
                continue
            processes = health.get("fleet", {}).get("processes", [])
            if status == 200 and processes and all(p["alive"] for p in processes):
                return
            time.sleep(0.01)
        raise RuntimeError("repro serve did not become ready")

    def health(self) -> dict:
        return request(self.port, "GET", "/healthz")[1]

    def stop(self) -> None:
        """Drain with SIGTERM; kill whatever of the group outlives it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        # The fleet workers share the server's session and process group.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.log.close()


def start_server(root: Path, workdir: Path, env: dict, index: int):
    """Start server ``index``; ``(server, seconds from spawn to ready)``."""
    start = time.perf_counter()
    server = Server(root, workdir, env, workdir / f"journal-{index}")
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


class Ledger:
    """Every operation of a run: latencies, lags, and failures."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.hits: list[tuple[float, int, float]] = []  # (scheduled at, body, seconds)
        self.lags: list[float] = []
        self.attempted = self.failed = self.wrong = self.refused = 0
        self.compiled: list[tuple[dict, dict]] = []  # (request body, response)

    def send(self, port: int, payload: bytes, what: str):
        """POST one body; the document on 200, else None and a failure."""
        with self.lock:
            self.attempted += 1
        try:
            status, document = request(port, "POST", "/compile", payload)
        except OSError as exc:
            self.fail(what, repr(exc))
            return None
        if status != 200:
            self.fail(what, f"status {status}: {document}",
                      refused=status in (429, 503), wrong=False)
            return None
        return document

    def fail(self, what: str, why: str, refused: bool = False, wrong: bool = False):
        with self.lock:
            self.failed += 1
            self.refused += refused
            self.wrong += wrong
        print(f"{what}: {why}", file=sys.stderr)


def send_miss(port: int, body: dict, ledger: Ledger):
    """A request the server must compile: 200, full tier, kept for checks."""
    document = ledger.send(port, json.dumps(body).encode(), "miss")
    if document is None:
        return None
    if document.get("floorplan_tier") != "full":
        ledger.fail("miss", f"floorplan tier {document.get('floorplan_tier')}", wrong=True)
        return None
    with ledger.lock:
        ledger.compiled.append((body, document))
    return document


def two_lanes(items, handle) -> None:
    """Run ``handle(item)`` over ``items`` on two client threads; each
    takes the next item as soon as it is free."""
    lock = threading.Lock()
    items = iter(items)

    def lane() -> None:
        while True:
            with lock:
                item = next(items, None)
            if item is None:
                return
            handle(item)

    threads = [threading.Thread(target=lane) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def cold_phase(port: int, ledger: Ledger) -> dict:
    """Send each of the 24 warm bodies once and record the answers.

    The 12 simulate bodies go first, two at a time: each is a cold
    compile + simulate of one paper case.  The compile bodies follow and
    hit the compiles those caused.  Returns the answers by body index.
    """
    bodies = warm_bodies()
    recorded: dict[int, dict] = {}

    def simulate(index: int) -> None:
        document = send_miss(port, bodies[index], ledger)
        if document is not None:
            recorded[index] = document

    def compile_hit(index: int) -> None:
        document = ledger.send(port, json.dumps(bodies[index]).encode(), "set-up hit")
        if document is not None:
            recorded[index] = document

    for handle, simulating in ((simulate, True), (compile_hit, False)):
        two_lanes([i for i, b in enumerate(bodies) if b["simulate"] == simulating], handle)
    return recorded


def rewarm_phase(port: int, recorded: dict, ledger: Ledger) -> None:
    """Send each warm body once to a later server: each must be answered
    from the shared disk cache with the answer recorded on the first."""
    bodies = warm_bodies()

    def check(index: int) -> None:
        document = ledger.send(port, json.dumps(bodies[index]).encode(), "set-up hit")
        if document is not None and (problem := check_hit(document, recorded[index])):
            ledger.fail("set-up hit", problem, wrong=True)

    two_lanes(range(len(bodies)), check)


def load_phase(port: int, seed: int, part: int, seconds: float, recorded: dict,
               ledger: Ledger, sampler=None) -> None:
    """Part ``part`` of the open loop: each send goes out on whichever of
    two client connections is free."""
    bodies = [json.dumps(body).encode() for body in warm_bodies()]
    schedule = open_loop_schedule(seed, seconds, RATE, len(bodies), part)
    t0 = time.perf_counter() + 0.05

    def send(item) -> None:
        due = t0 + item.at_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        with ledger.lock:
            ledger.lags.append(max(0.0, time.perf_counter() - due))
        document = ledger.send(port, bodies[item.body], "hit")
        if document is None:
            return
        elapsed = time.perf_counter() - due
        problem = check_hit(document, recorded[item.body])
        if problem is not None:
            ledger.fail("hit", problem, wrong=True)
            return
        with ledger.lock:
            ledger.hits.append((item.at_s, item.body, elapsed))

    sampling = None
    if sampler is not None:
        sampling = threading.Thread(target=sampler.run, args=(t0, seconds))
        sampling.start()
    two_lanes(schedule, send)
    if sampling is not None:
        sampling.join()


class HealthSampler:
    """Polls ``/healthz`` every 100 ms in odd seconds of the window, so
    hits in even seconds measure the tracing overhead by difference."""

    def __init__(self, port: int):
        self.port = port
        self.queue_depth_max = 0
        self.inflight_max = 0

    @staticmethod
    def active(at_s: float) -> bool:
        return int(at_s) % 2 == 1

    def run(self, t0: float, seconds: float) -> None:
        while (now := time.perf_counter() - t0) < seconds:
            if self.active(now):
                try:
                    health = request(self.port, "GET", "/healthz")[1]
                except OSError:
                    time.sleep(0.1)
                    continue
                self.queue_depth_max = max(self.queue_depth_max, health["queue"]["depth"])
                self.inflight_max = max(self.inflight_max, health["fleet"]["inflight"])
            time.sleep(0.1)


def verify_compiles(cache_dir: Path, ledger: Ledger) -> list:
    """Read every design the server compiled back from its disk cache.

    Each must be there under its fingerprint, DRC-clean at full tier,
    and summarize to exactly what the server answered.  Returns the
    paper cases' ``(graph, cluster, "tapa-cs", design)``.
    """
    from repro.cluster.cluster import paper_testbed
    from repro.core.compiler import CompilerConfig
    from repro.graph.serialize import design_summary
    from repro.perf.cache import DesignCache
    from repro.perf.fingerprint import fingerprint_compile
    from repro.serve.server import build_app_graph

    cache = DesignCache(directory=str(cache_dir))
    entries = []
    for body, document in ledger.compiled:
        graph = build_app_graph(body["app"])
        cluster = paper_testbed(body["fpgas"])
        design = cache.get(fingerprint_compile(graph, cluster, CompilerConfig(), "tapa-cs"))
        what = f"{body['app']}/F{body['fpgas']}"
        if design is None:
            ledger.fail("verify", f"{what}: compiled design not in the cache", wrong=True)
            continue
        problems = design_errors(design)
        if design_summary(design) != document["design"]:
            problems.append("cached design differs from the response")
        if problems:
            ledger.fail("verify", f"{what}: {'; '.join(problems)}", wrong=True)
        else:
            entries.append((graph, cluster, "tapa-cs", design))
    return entries


def run(root: Path, workdir: Path, env: dict, seed: int, seconds: float,
        traced: bool, metrics: Metrics) -> Ledger:
    import layers

    ledger = Ledger()
    # A traced run keeps one server for the whole window, so that its
    # counters and samples describe one process.
    servers = 1 if traced else SERVERS
    setup_times = []
    recorded: dict = {}
    for index in range(servers):
        server, setup_s = start_server(root, workdir, env, index)
        setup_times.append(setup_s)
        try:
            # Server counters are read over the cold phase and the window,
            # so the cache's and journal's writes are counted with its reads.
            before = server.health() if traced else None
            start = time.perf_counter()
            if index == 0:
                recorded = cold_phase(server.port, ledger)
                if len(recorded) != len(warm_bodies()):
                    raise RuntimeError("set-up requests failed; no recorded answers")
            else:
                rewarm_phase(server.port, recorded, ledger)
            hits_before = len(ledger.hits)
            print(f"perfbench: server {index} ready in {setup_s:.3f} s, "
                  f"set-up requests {time.perf_counter() - start:.3f} s", flush=True)
            sampler = HealthSampler(server.port) if traced else None
            counts = (ledger.wrong, ledger.refused)
            load_phase(server.port, seed, index, seconds / servers, recorded, ledger, sampler)
            part = [elapsed for _, _, elapsed in ledger.hits[hits_before:]]
            print(f"perfbench: server {index} median hit {median(part) * 1e3:.2f} ms",
                  flush=True)
            after = server.health() if traced else None
            if traced:
                floor_ms = []
                for _ in range(30):
                    start = time.perf_counter()
                    request(server.port, "GET", "/healthz")
                    floor_ms.append((time.perf_counter() - start) * 1e3)
        finally:
            server.stop()
    setup_s = median(setup_times)
    entries = verify_compiles(workdir / "cache", ledger)

    per_body: dict[int, list[float]] = {}
    for _, body, elapsed in ledger.hits:
        per_body.setdefault(body, []).append(elapsed)
    op_ms = geomean([median(samples) * 1e3 for samples in per_body.values()])
    if not traced:
        sims = [doc for i, doc in recorded.items() if warm_bodies()[i]["simulate"]]
        metrics.add("setup_s", setup_s, "s")
        metrics.add("op_ms_geomean", op_ms, "ms")
        metrics.add("wirelength_geomean",
                    geomean([wirelength(e[3]) for e in entries]), "bit-slot")
        metrics.add("design_latency_ms_geomean",
                    geomean([doc["latency_ms"] for doc in sims]), "sim_ms")
        return ledger

    probes = layers.probe_hit_layers(entries, workdir / "cache", metrics)
    metrics.add("http.floor_ms", median(floor_ms), "ms")
    on = [e for at, _, e in ledger.hits if HealthSampler.active(at)]
    off = [e for at, _, e in ledger.hits if not HealthSampler.active(at)]
    counters = {k: after["counters"][k] - before["counters"][k] for k in after["counters"]}
    fleet = {k: after["fleet"]["counters"][k] - before["fleet"]["counters"][k]
             for k in after["fleet"]["counters"]}
    cache = {k: after["cache"][k] - before["cache"][k] for k in after["cache"]}
    journal = {k: after["journal"].get(k, 0) - before["journal"].get(k, 0)
               for k in ("appends", "append_wall_s")}
    # Every POST of the run came after ``before``: its journal share.
    journal_ms = journal["append_wall_s"] * 1e3 / ledger.attempted
    metrics.add("trace.op_ms_geomean", op_ms, "ms")
    metrics.add("trace.overhead_pct", (median(on) / median(off) - 1) * 100, "%")
    metrics.add("trace.residual_ms", op_ms - (
        median(floor_ms) + probes["serve.parse_ms"] + probes["fleet.run_hit_ms"]
        + probes["serve.encode_ms"] + journal_ms), "ms")
    lookups = cache["hits"] + cache["misses"]
    metrics.add("broker.coalesced", counters["coalesced"], "count")
    metrics.add("broker.shed", counters["shed"] + counters["quota_shed"], "count")
    metrics.add("queue.depth_max", sampler.queue_depth_max, "count")
    metrics.add("fleet.dispatched", fleet["dispatched"], "count")
    metrics.add("fleet.failovers", fleet["failovers"], "count")
    metrics.add("fleet.inflight_max", sampler.inflight_max, "count")
    metrics.add("journal.appends", journal["appends"], "count")
    metrics.add("journal.append_ms", journal["append_wall_s"] * 1e3 / journal["appends"]
                if journal["appends"] else 0.0, "ms")
    metrics.add("cache.stores", cache["stores"], "count")
    metrics.add("cache.bytes_written", cache["bytes_written"], "B")
    metrics.add("cache.lookups", lookups, "count")
    metrics.add("cache.hit_ratio", cache["hits"] / lookups if lookups else 0.0, "ratio")
    hits = [elapsed for _, _, elapsed in ledger.hits]
    metrics.add("gen.hit_ms_p50", median(hits) * 1e3, "ms")
    metrics.add("gen.hit_ms_p95", percentile(hits, 95) * 1e3, "ms")
    metrics.add("gen.lag_ms_p95", percentile(ledger.lags, 95) * 1e3, "ms")
    metrics.add("gen.sent", len(ledger.lags), "count")
    metrics.add("gen.ok", len(ledger.hits), "count")
    metrics.add("gen.failed", ledger.wrong - counts[0], "count")
    metrics.add("gen.refused", ledger.refused - counts[1], "count")
    return ledger
