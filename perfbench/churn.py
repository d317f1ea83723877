"""``serve-churn``: writes beside reads, in process, no HTTP.

All three Data Set 1 cubes share one engine behind one ``QueryService``
(default config) and one ``ApiEndpoint``.  One caller runs a closed
loop over a seeded mix, dealt in decks of 20 with exact proportions:

- 65% ad-hoc Query 2-style selections with random IN-lists (rarely
  repeating, so warm engine misses);
- 25% dashboard aggregates through ``ApiEndpoint.aggregate``, whose
  grains go stale after every write to the x100 cube;
- 10% ``QueryService.write_cell`` overwrites of existing cells with
  new values (no appends, so the bitmap indexes stay valid and the
  planner's choices cannot shift mid-run).

Every read must return the expected group-key set (overwrites never
change which groups exist).  After the run quiesces, every dashboard
template and every cube's Query 1 must equal the fact-row oracle over
the benchmark's shadow copy of the facts with all writes applied.

One caller, not two: with two, a read's latency was mostly how long it
waited for the other caller's engine lock, and ``read_p50_ms`` moved by
18–37% (interquartile) between runs of the same code.  Writes still
race the router's background rollup rebuilds.
"""

from __future__ import annotations

import gc
import math
import os
import random
import time

from perfbench import api_hot, cubes, layers
from perfbench.common import (
    MIN_READS,
    HostClock,
    RunResult,
    Timings,
    peak_rss_mb,
    put_end_to_end,
    reset_peak_rss,
    timed_setups,
)
from perfbench.oracle import Spec, compare_keys, compare_rows

#: operations per second of ``--seconds`` (closed loop)
OPS_PER_SECOND = 40.0
#: one deck: 20 ops in exact proportions, dealt in seeded order.
#: Ad-hoc reads per cube (x50, x100, x1000) are weighted so the read
#: median falls mid-way through the x100 band, not on a band edge; one
#: write per deck hits the x100 cube (its grains go stale), one another.
DECK = (
    [("adhoc", 0)] * 2 + [("adhoc", 1)] * 7 + [("adhoc", 2)] * 4
    + [("dash", None)] * 5 + [("write", 1), ("write", None)]
)
SEGMENTS = 10
SETUP_REPEATS = 3
DASHBOARD = api_hot.HOT + api_hot.CUT


def adhoc(rng: random.Random) -> Spec:
    """Query 2 with a random two-value hX1 IN-list on every dimension
    (S ≈ 1.6e-3: the values vary, the cost barely does)."""
    return cubes.q2(rng, 2)


class Churn:
    def __init__(self, seed: int, seconds: int):
        self.configs = cubes.cube_configs(seed)
        self.clock = cubes.SetupClock()
        rng = random.Random(seed)
        reads_per_deck = sum(1 for kind, _ in DECK if kind != "write")
        decks = max(
            math.ceil(MIN_READS / reads_per_deck),
            round(OPS_PER_SECOND * seconds / len(DECK)),
        )
        decks += -decks % SEGMENTS  # whole decks per segment
        self.ops = []
        for _ in range(decks):
            cards = list(DECK)
            rng.shuffle(cards)
            for kind, cube in cards:
                if kind == "adhoc":
                    self.ops.append(("adhoc", cube, adhoc(rng)))
                elif kind == "dash":
                    self.ops.append(("dash", rng.randrange(len(DASHBOARD)), None))
                else:  # (cube, cell draw, new value)
                    cube = rng.choice((0, 2)) if cube is None else cube
                    self.ops.append(
                        ("write", cube, (rng.random(), rng.randint(1, 100)))
                    )

    # -- set-up ---------------------------------------------------------------

    def build(self):
        from repro.api.model import load_model
        from repro.api.server import ApiEndpoint
        from repro.serve import QueryService

        engine = cubes.new_engine()
        for config in self.configs:
            data = self.clock.timed("generate", cubes.generate, config)
            self.clock.timed("load", cubes.load, engine, data)
        del data
        start = time.perf_counter()
        service = QueryService(engine)
        endpoint = ApiEndpoint(
            engine, service, load_model(api_hot.MODEL, scale=cubes.SCALE)
        )
        for config in self.configs:
            service.execute(cubes.to_query(config.name, cubes.q1()))
        for _ in range(200):
            before = endpoint.counters.get("api.stale_fallbacks")
            for i in range(len(DASHBOARD)):
                self.dashboard(endpoint, i)
            if endpoint.counters.get("api.stale_fallbacks") == before:
                break
            self.quiesce(endpoint)
        self.clock.phases["warmup"] += time.perf_counter() - start
        return service, endpoint

    @staticmethod
    def teardown(state) -> None:
        service, endpoint = state
        endpoint.close()
        service.close()

    @staticmethod
    def quiesce(endpoint, timeout_s: float = 30.0) -> None:
        """Wait until no rollup rebuild is in flight."""
        deadline = time.monotonic() + timeout_s
        while endpoint.router._inflight and time.monotonic() < deadline:
            time.sleep(0.002)

    @staticmethod
    def dashboard(endpoint, i: int):
        return api_hot.aggregate(endpoint, DASHBOARD[i])

    # -- timed phase -------------------------------------------------------------

    def timed(self, state, result: RunResult, host: HostClock, oracles, ledger=None):
        """Run every op once in :data:`SEGMENTS` segments, sampling the
        host clock between segments once no rollup rebuild is running.
        Returns the read timings and the raw write latencies."""
        from repro.obs.tracing import new_trace_context, trace_context

        service, endpoint = state
        names = [c.name for c in self.configs]
        writes: list[float] = []
        observed: list[tuple] = []

        def call(kind: str, target: int, arg):
            if kind == "adhoc":
                return service.execute(cubes.to_query(names[target], arg)).rows
            if kind == "dash":
                return self.dashboard(endpoint, target)
            draw, value = arg
            oracle = oracles[target]
            keys, _ = oracle.cell(int(draw * oracle.cell_count()))
            service.write_cell(names[target], keys, (value,))
            oracle.write(keys, value)
            return None

        timings = Timings()
        per_segment = len(self.ops) // SEGMENTS
        self.quiesce(endpoint)
        before = host.sample()
        for lo in range(0, len(self.ops), per_segment):
            reads: list[float] = []
            segment_start = time.perf_counter()
            for i in range(lo, lo + per_segment):
                kind, target, arg = self.ops[i]
                # a grain rebuild a stale read scheduled finishes before
                # the next op starts: its cost stays in the segment's
                # wall time (throughput) but never overlaps a timed read
                self.quiesce(endpoint)
                result.attempted += 1
                try:
                    if ledger is not None:
                        context = new_trace_context(origin="perfbench")
                        with ledger.op(context.trace_id), trace_context(context):
                            start = time.perf_counter()
                            answer = call(kind, target, arg)
                            elapsed = time.perf_counter() - start
                    else:
                        start = time.perf_counter()
                        answer = call(kind, target, arg)
                        elapsed = time.perf_counter() - start
                except Exception as exc:  # counted, run continues
                    result.failed += 1
                    result.mismatch(f"op {i} {kind}: {exc!r}")
                    continue
                if kind == "write":
                    writes.append(elapsed)
                else:
                    reads.append(elapsed)
                    observed.append((kind, target, arg, answer))
            wall = time.perf_counter() - segment_start
            self.quiesce(endpoint)
            after = host.sample()
            timings.add_segment(reads, wall, host.between(before, after))
            before = after
        self.check_keys(observed, oracles, result)
        return timings, writes

    def check_keys(self, observed, oracles, result: RunResult) -> None:
        dash_keys = {}
        for kind, target, arg, answer in observed:
            if kind == "adhoc":
                problem = compare_keys(answer, oracles[target].group_keys(arg))
            else:
                if target not in dash_keys:
                    dash_keys[target] = self.dashboard_want(oracles, target)
                labels, want, _ = dash_keys[target]
                _, payload = answer
                problem = compare_keys(api_hot.cells_as_rows(payload, labels), set(want))
            if problem:
                result.mismatch(f"{kind} {target}: {problem}")

    @staticmethod
    def dashboard_want(oracles, i: int):
        """``(labels, oracle answer, aggregate)`` of dashboard ``i``."""
        labels, spec = api_hot.request_spec(DASHBOARD[i])
        return labels, oracles[cubes.X100].answer(spec), spec.aggregate

    def check_final(self, state, oracles, result: RunResult) -> None:
        """After quiesce: values equal the oracle over the written facts."""
        service, endpoint = state
        for i in range(len(DASHBOARD)):
            labels, want, aggregate = self.dashboard_want(oracles, i)
            _, payload = self.dashboard(endpoint, i)
            problem = compare_rows(
                api_hot.cells_as_rows(payload, labels), want, aggregate
            )
            if problem:
                result.mismatch(f"final dashboard {i}: {problem}")
        for config, oracle in zip(self.configs, oracles):
            rows = service.execute(cubes.to_query(config.name, cubes.q1())).rows
            problem = compare_rows(rows, oracle.answer(cubes.q1()), "sum")
            if problem:
                result.mismatch(f"final {config.name} Q1: {problem}")


def run(seed: int, seconds: int, trace: bool) -> RunResult:
    work = Churn(seed, seconds)
    result = RunResult("serve-churn")
    host = HostClock()
    # the shadow oracles are built before set-up, outside its time; they
    # stay resident through the run, so peak_rss_mb includes them
    oracles = [cubes.generate(c).oracle() for c in work.configs]
    gc.collect()
    state, setups = timed_setups(
        work.build, work.teardown, 1 if trace else SETUP_REPEATS, host
    )
    try:
        gc.collect()
        reset_peak_rss([os.getpid()])
        timings, write_lat = work.timed(state, result, host, oracles)
        rss = peak_rss_mb([os.getpid()])
        if trace:
            from perfbench.ledger import Ledger
            from repro.obs.tracing import current_trace_context

            before = api_hot.counter_snapshot(state[1], state[0])
            ledger = Ledger(lambda: getattr(current_trace_context(), "trace_id", None))
            ledger.install()
            try:
                traced, traced_writes = work.timed(
                    state, result, host, oracles, ledger
                )
            finally:
                ledger.uninstall()
            after = api_hot.counter_snapshot(state[1], state[0])
            work.check_final(state, oracles, result)
            p50, p90 = layers.write_tail(write_lat)
            layers.report_trace(
                result,
                ledger.spans,
                reads=len(traced.latencies),
                writes=len(traced_writes),
                counters={k: v - before.get(k, 0.0) for k, v in after.items()},
                setup=work.clock.phases,
                host=host,
                overhead_pct=(timings.throughput / traced.throughput - 1) * 100.0,
                resident_bytes=state[0].memory.total_resident_bytes(),
                durable_ok=cubes.durable_load_ok(seed),
                extra={"serve.write_p50_ms": p50, "serve.write_p90_ms": p90},
            )
            return result
        work.check_final(state, oracles, result)
    finally:
        work.teardown(state)
    put_end_to_end(result, setups, timings, rss, host)
    return result
