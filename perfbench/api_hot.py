"""``api-hot``: dashboard reads over loopback HTTP against a server child.

A benchmark-owned launcher (:func:`serve_child`) runs ``ApiEndpoint`` +
``ApiServer`` over the volatile x100 cube with the checked-in
``benchmarks/api_model.json`` rollups and ``ServiceConfig(max_workers=2)``
in a child process.  The benchmark process then runs two phases,
read-only:

1. open loop: seeded Poisson arrivals at the fixed :data:`RATE_RPS`
   over one connection; each read is timed from when it was
   *due*, so a stall charges every read queued behind it;
2. closed loop: two connections back to back, giving ``throughput_qps``.

The mix is the replay's hot and cut dashboard templates plus a 15%
long tail of base-cube requests drawn from a fixed seeded pool, dealt
in decks of exact proportions (:func:`deck`), so the
rollup grains and the result cache hold the whole working set after
warm-up: HTTP + JSON, api parse/route/scan, the serve hit path and
per-request telemetry dominate; storage and core barely run.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import multiprocessing
import os
import random
import threading
import time

from perfbench import cubes, layers
from perfbench.common import (
    MIN_READS,
    HostClock,
    RunResult,
    Timings,
    median,
    peak_rss_mb,
    put_end_to_end,
    quiet_ref_loop_ms,
    reset_peak_rss,
    timed_setups,
)
from perfbench.ledger import Ledger, spans_from_lists
from perfbench.oracle import Spec, compare_rows

#: offered rate of the open-loop phase: about a fifth of the closed-loop
#: capacity of the reference host (≈ 450 req/s on two connections)
RATE_RPS = 100.0
#: closed-loop requests per second of ``--seconds`` (capacity phase)
CLOSED_PER_SECOND = 180.0
#: share of ``--seconds`` the open-loop phase is sized for
OPEN_SHARE = 0.7
#: connections of the open-loop phase (one: no client-side GIL
#: contention between senders) and of the closed-loop phase
OPEN_CONNECTIONS = 1
CLOSED_CONNECTIONS = 2
#: timing segments per phase; the host is probed before each
SEGMENTS = 10
SETUP_REPEATS = 3
MODEL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "api_model.json",
)
CUBE = "sales"
TIMEOUT_S = 30.0

HOT = (
    "drilldown=dim0",
    "drilldown=dim0:h01,dim1:h11",
    "drilldown=dim1,dim2",
    "drilldown=dim3:h31&aggregate=max",
    {"drilldown": ["dim0:h01", "dim1"]},
)
CUT = (
    "drilldown=dim0:h01&cut=dim1.h11:AA1;AA2",
    "drilldown=dim2&cut=dim3.h32:BB0..BB2",
    {
        "drilldown": ["dim1:h11"],
        "cut": [{"dimension": "dim0", "level": "h02", "values": ["BB0", "BB1"]}],
        "aggregate": "min",
    },
    "drilldown=dim0,dim3&cut=dim0.h01:AA3",
)
BASE_POOL = 24


def deck(rng: random.Random, pool: list) -> list:
    """Twenty requests in exact proportions, seeded order: 60% hot
    (the first template dominating), 25% cut, 15% base-cube tail.

    Exact proportions keep each run's mix — and so the rank each
    percentile falls on — the same for every seed.  The slowest
    template (a cut scanning the finest grain) is 10% of the deck, so
    p95 sits mid-way through its band rather than on its edge.
    """
    cards = [HOT[0]] * 8 + list(HOT[1:]) + list(CUT[:3]) + [CUT[3]] * 2
    cards += [rng.choice(pool) for _ in range(3)]
    rng.shuffle(cards)
    return cards


def base_pool(rng: random.Random) -> list[str]:
    """Key-grain and ``avg`` requests no rollup can answer."""
    pool = []
    for i in range(BASE_POOL):
        if i % 3 == 0:
            low = rng.randrange(0, 80)
            pool.append(f"drilldown=dim3:d3&cut=dim3.d3:{low}..{low + rng.randrange(5, 20)}")
        elif i % 3 == 1:
            pool.append(f"drilldown=dim0:d0&cut=dim1.h11:AA{rng.randrange(10)}")
        else:
            low = rng.randrange(0, 50)
            pool.append(f"drilldown=dim0&aggregate=avg&cut=dim3.d3:{low}..{low + 25}")
    return pool


def schedule(rng: random.Random, pool: list, decks: int) -> list:
    return [card for _ in range(decks) for card in deck(rng, pool)]


# -- the server child ------------------------------------------------------------


def counter_snapshot(endpoint, service) -> dict[str, float]:
    """Service, cache, api and rollup counters plus queue-wait sums."""
    snap = dict(service.stats())
    snap.update(endpoint.counters.snapshot())
    snap.update(endpoint.router.counters.snapshot())
    wait = service.engine.db.metrics.histogram("serve.queue_wait_seconds")
    snap["queue_wait.sum"] = wait.sum
    snap["queue_wait.count"] = wait.count
    return snap


def serve_child(conn, seed: int, warm_requests: list) -> None:
    """Launcher: build, serve, warm up, then obey the benchmark's pipe."""
    from repro.api.model import load_model
    from repro.api.server import ApiEndpoint, ApiServer
    from repro.obs.tracing import current_trace_context
    from repro.serve import QueryService, ServiceConfig

    clock = cubes.SetupClock()
    config = cubes.cube_configs(seed)[cubes.X100]
    data = clock.timed("generate", cubes.generate, config)
    engine = cubes.new_engine()
    clock.timed("load", cubes.load, engine, data)
    del data
    start = time.perf_counter()
    service = QueryService(engine, ServiceConfig(max_workers=2))
    endpoint = ApiEndpoint(engine, service, load_model(MODEL, scale=cubes.SCALE))
    server = ApiServer(endpoint).start()
    # warm-up: every distinct request until none falls back on a stale
    # or unbuilt grain, so the timed phase sees built rollups and a
    # warm result cache
    for _ in range(200):
        before = endpoint.counters.get("api.stale_fallbacks")
        for request in warm_requests:
            aggregate(endpoint, request)
        if endpoint.counters.get("api.stale_fallbacks") == before:
            break
        time.sleep(0.02)
    clock.phases["warmup"] += time.perf_counter() - start
    conn.send(("ready", server.port, clock.phases))
    ledger = None
    before = {}
    try:
        while True:
            command = conn.recv()
            if command == "trace_on":
                ledger = Ledger(
                    lambda: getattr(current_trace_context(), "trace_id", None)
                )
                before = counter_snapshot(endpoint, service)
                ledger.install()
                conn.send("ok")
            elif command == "trace_off":
                ledger.uninstall()
                after = counter_snapshot(endpoint, service)
                delta = {k: v - before.get(k, 0.0) for k, v in after.items()}
                conn.send(
                    (
                        [s.to_list() for s in ledger.spans],
                        delta,
                        service.memory.total_resident_bytes(),
                    )
                )
                ledger = None
            elif command == "ref":
                conn.send(quiet_ref_loop_ms())
            elif command == "stop":
                break
    finally:
        server.stop()
        endpoint.close()
        service.close()
        conn.send("stopped")


def params_of(query: str) -> dict[str, str]:
    from urllib.parse import parse_qsl

    return dict(parse_qsl(query))


def aggregate(endpoint, request):
    """Answer one dashboard request in process, without HTTP."""
    if isinstance(request, dict):
        return endpoint.aggregate(CUBE, lambda parser: parser.from_body(request))
    params = params_of(request)
    return endpoint.aggregate(CUBE, lambda parser: parser.from_params(params))


class Server:
    """The benchmark's handle on one server child."""

    def __init__(self, seed: int, warm_requests: list):
        context = multiprocessing.get_context("spawn")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=serve_child, args=(child_conn, seed, warm_requests), daemon=True
        )
        self.process.start()
        child_conn.close()
        if not self.conn.poll(120):
            self.stop()
            raise RuntimeError("server child did not become ready")
        _, self.port, self.setup_phases = self.conn.recv()

    def call(self, command: str):
        self.conn.send(command)
        return self.conn.recv()

    def ref_ms(self) -> tuple[float, float]:
        """A host probe for both cores a request runs on: the mean of one
        reference-loop timing in the server child and one in this
        process, with the other threads' CPU ms at the larger of the
        two processes' busy shares."""
        server_ms, server_busy = self.call("ref")
        client_ms, client_busy = quiet_ref_loop_ms()
        ms = (server_ms + client_ms) / 2
        return ms, max(server_busy / server_ms, client_busy / client_ms) * ms

    def stop(self) -> None:
        if self.process.is_alive():
            try:
                self.conn.send("stop")
                if self.conn.poll(30):
                    self.conn.recv()
            except (OSError, EOFError):
                pass
            self.process.join(30)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        self.conn.close()


# -- the client --------------------------------------------------------------------


def _send(port: int, request, trace_id: str | None) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    headers = {"X-Trace-Id": trace_id} if trace_id else {}
    try:
        if isinstance(request, dict):
            headers["Content-Type"] = "application/json"
            connection.request(
                "POST", f"/cube/{CUBE}/aggregate", json.dumps(request), headers
            )
        else:
            connection.request("GET", f"/cube/{CUBE}/aggregate?{request}", None, headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class Phase:
    """One phase's outcome: per-request (due, sent, done, status, body)."""

    def __init__(self, requests: list):
        self.requests = requests
        self.records: list = [None] * len(requests)


def run_phase(
    port: int, requests: list, due: list[float] | None, ledger: Ledger | None
) -> tuple[Phase, float]:
    """Send ``requests`` over the phase's connections.

    With ``due`` (offsets in seconds) the phase is an open loop: a
    connection takes the next request and sends it no earlier than its
    due time.  Without, it is a closed loop.  Returns the phase and its
    wall time.
    """
    phase = Phase(requests)
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter() + 0.01

    def sender() -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(requests):
                    return
                cursor[0] += 1
            due_at = start + due[i] if due is not None else None
            if due_at is not None:
                delay = due_at - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            trace_id = f"{random.getrandbits(128):032x}" if ledger is not None else None
            sent = time.perf_counter()
            try:
                if ledger is not None:
                    with ledger.op(trace_id, "client.op"):
                        status, body = _send(port, requests[i], trace_id)
                else:
                    status, body = _send(port, requests[i], trace_id)
            except OSError as exc:
                status, body = 0, repr(exc).encode()
            done = time.perf_counter()
            phase.records[i] = (due_at if due_at is not None else sent, sent, done, status, body)

    connections = OPEN_CONNECTIONS if due is not None else CLOSED_CONNECTIONS
    threads = [threading.Thread(target=sender) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return phase, time.perf_counter() - start


def request_spec(request) -> tuple[list[str], Spec]:
    """One dashboard request, parsed by the program's own parser and
    restated for the oracle: ``(cell labels, spec)``."""
    from repro.api.model import load_model
    from repro.api.server import RequestParser

    logical = load_model(MODEL, scale=cubes.SCALE).cube(CUBE)
    parser = RequestParser(logical)
    parsed = (
        parser.from_body(request)
        if isinstance(request, dict)
        else parser.from_params(params_of(request))
    )
    dims = [d.name for d in logical.dimensions]
    spec = Spec(
        group=tuple((dims.index(d), level) for d, level in parsed.drilldown),
        cuts=tuple(
            (dims.index(c.dimension), c.attribute, tuple(c.values), c.low, c.high)
            for c in parsed.cuts
        ),
        aggregate=parsed.aggregate,
    )
    labels = [f"{d}.{level}" for d, level in parsed.drilldown] + list(parsed.measures)
    return labels, spec


def cells_as_rows(payload: dict, labels: list[str]) -> list[tuple]:
    return [tuple(cell[label] for label in labels) for cell in payload["cells"]]


class Checker:
    """Response cells against the fact-row oracle, per distinct request."""

    def __init__(self, seed: int, distinct: list):
        oracle = cubes.generate(cubes.cube_configs(seed)[cubes.X100]).oracle()
        self.want = {}
        for request in distinct:
            labels, spec = request_spec(request)
            self.want[_key(request)] = (labels, oracle.answer(spec), spec.aggregate)

    def check(self, request, status: int, body: bytes) -> str | None:
        if status != 200:
            return f"HTTP {status}: {body[:200]!r}"
        labels, want, aggregate = self.want[_key(request)]
        return compare_rows(cells_as_rows(json.loads(body), labels), want, aggregate)


def _key(request) -> str:
    return json.dumps(request, sort_keys=True)


def run(seed: int, seconds: int, trace: bool) -> RunResult:
    result = RunResult("api-hot")
    rng = random.Random(seed)
    pool = base_pool(rng)
    # each segment is a whole number of 20-request decks; each open
    # segment is its own Poisson schedule, so the host can be probed
    # between segments while no request is in flight
    open_decks = max(
        math.ceil(MIN_READS / SEGMENTS / 20),
        round(RATE_RPS * seconds * OPEN_SHARE / SEGMENTS / 20),
    )
    closed_decks = max(1, round(CLOSED_PER_SECOND * seconds / SEGMENTS / 20))
    open_segments = []
    for _ in range(SEGMENTS):
        requests = schedule(rng, pool, open_decks)
        due = list(itertools.accumulate(rng.expovariate(RATE_RPS) for _ in requests))
        open_segments.append((requests, due))
    closed_segments = [schedule(rng, pool, closed_decks) for _ in range(SEGMENTS)]
    distinct = list({_key(r): r for r in HOT + CUT + tuple(pool)}.values())
    server, setups = timed_setups(
        lambda: Server(seed, distinct), Server.stop,
        1 if trace else SETUP_REPEATS, HostClock(),
    )
    # the timed phases are scaled by the speed of both processes: the
    # server child does the program's work, this one the HTTP client's,
    # and the two cores drift differently
    host = HostClock(server.ref_ms)
    try:
        checker = Checker(seed, distinct)

        def check(phase: Phase) -> None:
            for request, record in zip(phase.requests, phase.records):
                result.attempted += 1
                problem = checker.check(request, record[3], record[4])
                if problem:
                    result.failed += record[3] != 200
                    result.mismatch(f"{request}: {problem}")

        def timed(ledger=None) -> tuple[Timings, list[float], int]:
            timings = Timings()
            lateness: list[float] = []
            reads = 0
            before = host.sample()
            for requests, due in open_segments:
                phase, _ = run_phase(server.port, requests, due, ledger)
                after = host.sample()
                timings.add_latencies(
                    [r[2] - r[0] for r in phase.records], host.between(before, after)
                )
                before = after
                check(phase)
                lateness.extend(r[1] - r[0] for r in phase.records)
                reads += len(requests)
            for requests in closed_segments:
                phase, wall = run_phase(server.port, requests, None, ledger)
                after = host.sample()
                timings.add_rate(len(requests), wall, host.between(before, after))
                before = after
                check(phase)
                reads += len(requests)
            return timings, lateness, reads

        # peak RSS of the server child over the timed phases only
        reset_peak_rss([server.process.pid])
        timings, lateness, reads = timed()
        rss = peak_rss_mb([server.process.pid])
        if trace:
            ledger = Ledger()
            server.call("trace_on")
            traced, _, _ = timed(ledger)
            rows, counters, resident = server.call("trace_off")
            spans = ledger.spans + spans_from_lists(rows, offset=len(ledger.spans))
            layers.report_trace(
                result,
                spans,
                reads=reads,
                writes=0,
                counters=counters,
                setup=server.setup_phases,
                host=host,
                overhead_pct=(
                    median(traced.latencies) / median(timings.latencies) - 1
                ) * 100.0,
                resident_bytes=resident,
                durable_ok=cubes.durable_load_ok(seed),
                extra={"client.lateness_p99_ms": layers.supported_tail_ms(lateness, 99)},
            )
            return result
    finally:
        server.stop()
    put_end_to_end(result, setups, timings, rss, host)
    return result
