"""Per-layer metrics of a traced run, derived from the ledger's spans.

Every workload reports every metric below (a layer a workload does not
exercise reads 0 there: that is the prediction for it).  Times are
self times (a span's duration minus its children's) unless the name
says otherwise, divided by the reads (or writes) of the traced pass.
Counts come from the program's own counters and from the
``QueryResult.stats`` of each engine query, captured by the
``olap.query`` wrapper.
"""

from __future__ import annotations

from perfbench.common import (
    MIN_SAMPLES_BEYOND,
    HostClock,
    RunResult,
    median,
    percentile,
)
from perfbench.ledger import (
    Span,
    totals_by_name,
    unattributed_share,
    with_ancestor,
)

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("core.materialize_ms", "ms/read"),
    ("core.read_chunk_ms", "ms/read"),
    ("core.scan_ms", "ms/read"),
    ("core.chunks_read_per_query", "count"),
    ("core.cells_scanned_per_query", "count"),
    ("storage.pages_read_per_query", "count"),
    ("storage.seeks_per_query", "count"),
    ("storage.sim_io_ms", "ms/query"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.durable_load_ok", "bool"),
    ("index.btree_probes_per_query", "count"),
    ("relational.bitmap_ms", "ms/read"),
    ("olap.bitmap_share", "ratio"),
    ("olap.plan_ms", "ms/read"),
    ("olap.write_cell_ms", "ms/write"),
    ("core.array_write_ms", "ms/write"),
    ("serve.hit_ms", "ms/hit"),
    ("serve.miss_ms", "ms/miss"),
    ("serve.queue_wait_ms", "ms/query"),
    ("serve.result_hit_ratio", "ratio"),
    ("serve.chunk_hit_ratio", "ratio"),
    ("serve.write_wait_ms", "ms/write"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p90_ms", "ms"),
    ("api.parse_ms", "ms/read"),
    ("api.route_ms", "ms/read"),
    ("api.rollup_scan_ms", "ms/read"),
    ("api.rollup_rows_per_hit", "count"),
    ("api.transport_ms", "ms/read"),
    ("api.routed_ratio", "ratio"),
    ("api.stale_fallback_ratio", "ratio"),
    ("api.base_ms", "ms/base"),
    ("shard.consolidate_ms", "ms/read"),
    ("shard.merge_ms", "ms/read"),
    ("shard.partial_rescatters", "count"),
    ("obs.snapshot_calls_per_read", "count"),
    ("obs.snapshot_ms_per_read", "ms/read"),
    ("obs.trace_record_ms", "ms/read"),
    ("memory.resident_mb", "MiB"),
    ("setup.generate_s", "s"),
    ("setup.load_s", "s"),
    ("setup.warmup_s", "s"),
    ("client.lateness_p99_ms", "ms"),
    ("ledger.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.ref_loop_ms", "ms"),
)

#: span names the benchmark opens around one operation
OP_SPANS = ("bench.op", "client.op")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def supported_tail_ms(values_s: list[float], q: float) -> float:
    """Percentile ``q`` in ms; a run too short to support it reports the
    highest rank that is supported (the 11th-largest value) instead."""
    if not values_s:
        return 0.0
    try:
        return percentile(values_s, q) * 1e3
    except ValueError:
        return sorted(values_s)[max(0, len(values_s) - 1 - MIN_SAMPLES_BEYOND)] * 1e3


def write_tail(latencies_s: list[float]) -> tuple[float, float]:
    """(p50, p90) write latency in ms."""
    if not latencies_s:
        return 0.0, 0.0
    return median(latencies_s) * 1e3, supported_tail_ms(latencies_s, 90)


def report_trace(
    result: RunResult,
    spans: list[Span],
    *,
    reads: int,
    writes: int,
    counters: dict[str, float],
    setup: dict[str, float],
    host: HostClock,
    overhead_pct: float,
    resident_bytes: float,
    durable_ok: float,
    extra: dict[str, float] | None = None,
) -> None:
    """Put every :data:`PER_LAYER` metric into ``result``."""
    totals = totals_by_name(spans)

    def self_ms(name: str, per: int) -> float:
        return _ratio(totals.get(name, {}).get("self_s", 0.0) * 1e3, per)

    def total_ms(name: str, per: int) -> float:
        return _ratio(totals.get(name, {}).get("total_s", 0.0) * 1e3, per)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0)

    queries = [s.info for s in spans if s.name == "olap.query" and s.info]
    nq = len(queries)

    def per_query(key: str) -> float:
        return _ratio(sum(q.get(key, 0.0) for q in queries), nq)

    pool_hits = sum(q.get("pool_hits", 0.0) for q in queries)
    pool_misses = sum(q.get("pool_misses", 0.0) for q in queries)
    ops = [s for s in spans if s.name in OP_SPANS]
    layer_spans = [s for s in spans if s.name not in OP_SPANS]
    by_request = {s.request: s for s in spans if s.name == "api.aggregate"}
    transport = [
        (op.end - op.start) - (by_request[op.request].end - by_request[op.request].start)
        for op in ops
        if op.request in by_request
    ]
    base = with_ancestor(spans, "serve.miss", "api.aggregate") + with_ancestor(
        spans, "serve.hit", "api.aggregate"
    )
    c = counters.get
    values = {
        "core.materialize_ms": self_ms("core.materialize", reads),
        "core.read_chunk_ms": self_ms("core.read_chunk", reads),
        "core.scan_ms": self_ms("core.scan", reads),
        "core.chunks_read_per_query": per_query("chunks_read"),
        "core.cells_scanned_per_query": per_query("cells_scanned"),
        "storage.pages_read_per_query": per_query("pages_read"),
        "storage.seeks_per_query": per_query("seeks"),
        "storage.sim_io_ms": per_query("sim_io_s") * 1e3,
        "storage.pool_hit_ratio": _ratio(pool_hits, pool_hits + pool_misses),
        "storage.durable_load_ok": durable_ok,
        "index.btree_probes_per_query": per_query("btree_probes"),
        "relational.bitmap_ms": self_ms("relational.bitmap", reads),
        "olap.bitmap_share": _ratio(
            sum(1 for q in queries if q.get("backend") == "bitmap"), nq
        ),
        "olap.plan_ms": total_ms("olap.plan", reads),
        "olap.write_cell_ms": self_ms("olap.write_cell", writes),
        "core.array_write_ms": self_ms("core.array_write", writes),
        "serve.hit_ms": total_ms("serve.hit", int(calls("serve.hit"))),
        "serve.miss_ms": total_ms("serve.miss", int(calls("serve.miss"))),
        "serve.queue_wait_ms": _ratio(
            c("queue_wait.sum", 0.0) * 1e3, c("queue_wait.count", 0.0)
        ),
        "serve.result_hit_ratio": _ratio(
            c("result_cache.hits", 0.0),
            c("result_cache.hits", 0.0) + c("result_cache.misses", 0.0),
        ),
        "serve.chunk_hit_ratio": _ratio(
            c("chunk_cache.hits", 0.0),
            c("chunk_cache.hits", 0.0) + c("chunk_cache.misses", 0.0),
        ),
        "serve.write_wait_ms": self_ms("serve.write_cell", writes),
        "api.parse_ms": total_ms("api.parse", reads),
        "api.route_ms": total_ms("api.route", reads),
        "api.rollup_scan_ms": total_ms("api.rollup_scan", reads),
        "api.rollup_rows_per_hit": _ratio(
            c("rollup.rows_scanned", 0.0), c("rollup.hits", 0.0)
        ),
        "api.transport_ms": _ratio(sum(transport) * 1e3, len(transport)),
        "api.routed_ratio": _ratio(
            c("api.rollup_hits", 0.0), c("api.aggregate_requests", 0.0)
        ),
        "api.stale_fallback_ratio": _ratio(
            c("api.stale_fallbacks", 0.0), c("api.aggregate_requests", 0.0)
        ),
        "api.base_ms": _ratio(
            sum(s.end - s.start for s in base) * 1e3, len(base)
        ),
        "shard.consolidate_ms": self_ms("shard.consolidate", reads),
        "shard.merge_ms": total_ms("shard.merge", reads),
        "shard.partial_rescatters": c("shard.retries", 0.0),
        "obs.snapshot_calls_per_read": _ratio(calls("obs.snapshot"), reads),
        "obs.snapshot_ms_per_read": total_ms("obs.snapshot", reads),
        "obs.trace_record_ms": total_ms("obs.trace_record", reads),
        "memory.resident_mb": resident_bytes / 2**20,
        "setup.generate_s": setup.get("generate", 0.0),
        "setup.load_s": setup.get("load", 0.0),
        "setup.warmup_s": setup.get("warmup", 0.0),
        "serve.write_p50_ms": 0.0,
        "serve.write_p90_ms": 0.0,
        "client.lateness_p99_ms": 0.0,
        "ledger.unattributed_pct": unattributed_share(ops, layer_spans) * 100.0,
        "trace.overhead_pct": overhead_pct,
        "host.ref_loop_ms": host.ref_ms,
    }
    values.update(extra or {})
    for name, unit in PER_LAYER:
        result.put(name, values[name], unit, reads)
