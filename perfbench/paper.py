"""``paper-cold`` and ``paper-sharded``: the paper's §5 cold protocol.

One caller, closed loop, engine-direct ``OlapEngine.run(q, options,
cold=True)``.  A round is a fixed query list; a run is a fixed number
of rounds (a function of ``--seconds`` only), so every percentile falls
on the same rank in every run.

- ``paper-cold``: each Data Set 1 cube in its own engine, the planner
  choosing the backend (12 array + 3 bitmap queries per round).
  Storage, core, index and olap do all the work.  One untimed warm-up
  round runs first; the run fails if any query's ``pages_read`` or
  ``sim_io_s`` differs between timed rounds.
- ``paper-sharded``: the x1000 cube's five queries forced onto the
  array backend over two process shards.  The workers keep their
  database cached between queries, so against ``paper-cold`` it shows
  scatter, partial-state IPC and merge over warm worker scans.
"""

from __future__ import annotations

import gc
import math
import os
import random
import time

from perfbench import cubes, layers
from perfbench.common import (
    MIN_READS,
    HostClock,
    RunResult,
    Timings,
    child_pids,
    peak_rss_mb,
    put_end_to_end,
    reset_peak_rss,
    timed_setups,
)
from perfbench.oracle import compare_rows

#: rounds per second of ``--seconds`` (≈ one round's time on the
#: reference host, so a run measures about ``--seconds``)
ROUNDS_PER_SECOND = {"paper-cold": 2.0, "paper-sharded": 3.3}
SETUP_REPEATS = 3


class PaperWorkload:
    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.sharded = name == "paper-sharded"
        rng = random.Random(seed)
        indexes = (cubes.X1000,) if self.sharded else cubes.CUBE_INDEXES
        self.configs = [cubes.cube_configs(seed)[i] for i in indexes]
        self.specs = [cubes.paper_set(rng) for _ in self.configs]
        per_round = sum(len(specs) for specs in self.specs)
        self.rounds = max(
            math.ceil(MIN_READS / per_round), round(ROUNDS_PER_SECOND[name] * seconds)
        )
        from repro.olap.options import ExecutionOptions

        self.options = (
            ExecutionOptions(backend="array", shards=2, executor="process")
            if self.sharded
            else ExecutionOptions()
        )
        self.clock = cubes.SetupClock()

    # -- set-up --------------------------------------------------------------

    def expected(self) -> list[list]:
        """Every query's oracle answer, from the seed's generated rows.

        Worked out before set-up, and the rows and oracles dropped, so
        neither set-up time nor ``peak_rss_mb`` includes them.
        """
        want = []
        for config, specs in zip(self.configs, self.specs):
            oracle = cubes.generate(config).oracle()
            want.append([oracle.answer(s) for s in specs])
        return want

    def build(self):
        engines = []
        for config in self.configs:
            data = self.clock.timed("generate", cubes.generate, config)
            engine = cubes.new_engine()
            self.clock.timed("load", cubes.load, engine, data)
            engines.append(engine)
        del data
        # untimed warm-up round: first-touch B-tree pages, shard worker
        # start and volume images are set-up, not steady state
        start = time.perf_counter()
        self.queries = [
            [cubes.to_query(c.name, s) for s in specs]
            for c, specs in zip(self.configs, self.specs)
        ]
        for engine, queries in zip(engines, self.queries):
            for query in queries:
                engine.run(query, self.options, cold=True)
        self.clock.phases["warmup"] += time.perf_counter() - start
        return engines

    @staticmethod
    def shard_counters(engines) -> dict[str, float]:
        total: dict[str, float] = {}
        for engine in engines:
            coordinator = engine._shard_coordinator
            if coordinator is not None:
                for key, value in coordinator.counters.snapshot().items():
                    total[key] = total.get(key, 0.0) + value
        return total

    @staticmethod
    def teardown(engines) -> None:
        for engine in engines:
            engine.close_shards()

    # -- timed phase -----------------------------------------------------------

    def timed(self, engines, result: RunResult, host: HostClock, ledger=None):
        """Run the fixed rounds, checking every answer; one round is
        one timing segment (single caller: its wall is the sum of its
        reads, checks excluded)."""
        timings = Timings()
        signature: dict[tuple[int, int], tuple] = {}
        op = 0
        before = host.sample()
        for _ in range(self.rounds):
            latencies: list[float] = []
            for c, (engine, queries) in enumerate(zip(engines, self.queries)):
                for q, query in enumerate(queries):
                    op += 1
                    result.attempted += 1
                    try:
                        if ledger is not None:
                            with ledger.op(f"{self.name}-{op}"):
                                start = time.perf_counter()
                                answer = engine.run(query, self.options, cold=True)
                                elapsed = time.perf_counter() - start
                        else:
                            start = time.perf_counter()
                            answer = engine.run(query, self.options, cold=True)
                            elapsed = time.perf_counter() - start
                    except Exception as exc:  # counted, run continues
                        result.failed += 1
                        result.mismatch(f"{query.cube} q{q}: {exc!r}")
                        continue
                    latencies.append(elapsed)
                    problem = compare_rows(answer.rows, self.want[c][q], "sum")
                    if problem:
                        result.mismatch(f"{query.cube} q{q}: {problem}")
                    key = (answer.stats.get("pages_read"), answer.sim_io_s)
                    if not self.sharded:
                        first = signature.setdefault((c, q), key)
                        if first != key:
                            result.mismatch(
                                f"{query.cube} q{q}: cold I/O not repeatable "
                                f"(pages, sim_io) {first} then {key}"
                            )
            after = host.sample()
            timings.add_segment(
                latencies, sum(latencies), host.between(before, after)
            )
            before = after
        return timings


def run(name: str, seed: int, seconds: int, trace: bool) -> RunResult:
    work = PaperWorkload(name, seed, seconds)
    result = RunResult(name)
    host = HostClock()
    repeats = 1 if trace else SETUP_REPEATS
    work.want = work.expected()
    gc.collect()
    engines, setups = timed_setups(work.build, work.teardown, repeats, host)
    try:
        # peak RSS of the timed phase only: this process runs the
        # engines, the children are the shard workers
        pids = [os.getpid(), *child_pids()]
        gc.collect()
        reset_peak_rss(pids)
        timings = work.timed(engines, result, host)
        rss = peak_rss_mb(pids)
        if trace:
            from perfbench.ledger import Ledger

            ledger = Ledger()
            ledger.install()
            try:
                traced = work.timed(engines, result, host, ledger)
            finally:
                ledger.uninstall()
            layers.report_trace(
                result,
                ledger.spans,
                reads=len(traced.latencies),
                writes=0,
                counters=work.shard_counters(engines),
                setup=work.clock.phases,
                host=host,
                overhead_pct=(timings.throughput / traced.throughput - 1) * 100.0,
                resident_bytes=sum(e.db.pool.resident_bytes() for e in engines),
                durable_ok=cubes.durable_load_ok(seed),
            )
            return result
    finally:
        work.teardown(engines)
    put_end_to_end(result, setups, timings, rss, host)
    return result
