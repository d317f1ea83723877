"""The benchmark's own tests: its arithmetic, determinism and checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import api_hot, cubes, layers  # noqa: E402
from perfbench.common import (  # noqa: E402
    MIN_SAMPLES_BEYOND,
    NOMINAL_REF_MS,
    HostClock,
    PercentileSupportError,
    child_pids,
    peak_rss_mb,
    percentile,
    quiet_ref_loop_ms,
    reset_peak_rss,
    stop_children,
)
from perfbench.ledger import (  # noqa: E402
    TARGETS,
    Ledger,
    Span,
    covered,
    resolve,
    self_times,
    unattributed_share,
)
from perfbench.oracle import FactOracle, Spec, compare_keys, compare_rows  # noqa: E402


# -- percentile support -------------------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(PercentileSupportError):
        percentile(list(range(100)), 95)  # 5 beyond
    with pytest.raises(PercentileSupportError):
        percentile(list(range(1000)), 99.5)  # 5 beyond


def test_percentile_accepts_exactly_ten_beyond():
    values = list(range(200))
    assert percentile(values, 95) == 189  # rank 190 of 200: 10 beyond
    assert len([v for v in values if v > 189]) == MIN_SAMPLES_BEYOND
    assert percentile(list(range(1000)), 99) == 989


def test_median_needs_no_support():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


# -- host probe and peak RSS --------------------------------------------------------


def test_host_clock_discards_busy_probes_and_keeps_the_last_quiet_factor():
    probes = iter([(20.0, 0.0)] * 3 + [(40.0, 30.0)] * 100)
    clock = HostClock(lambda: next(probes))
    assert clock.sample() == NOMINAL_REF_MS / 20.0
    assert clock.sample() == NOMINAL_REF_MS / 20.0  # every probe busy
    assert clock.busy == 3
    assert clock.samples == [20.0] * 3


def test_host_clock_without_a_quiet_probe_leaves_time_raw():
    clock = HostClock(lambda: (40.0, 30.0))
    assert clock.sample(n=1) == 1.0
    assert clock.busy == 1


def test_quiet_probe_sees_a_busy_thread():
    _, idle_ms = quiet_ref_loop_ms()
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            pass

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        ms, busy_ms = quiet_ref_loop_ms()
    finally:
        stop.set()
        spinner.join()
    assert idle_ms < busy_ms
    assert busy_ms > 0.1 * ms


def test_reset_peak_rss_forgets_an_earlier_peak():
    block = bytearray(64 << 20)
    block[:: 4096] = b"\1" * len(block[:: 4096])  # touch every page
    del block
    before = peak_rss_mb([os.getpid()])
    reset_peak_rss([os.getpid()])
    assert peak_rss_mb([os.getpid()]) < before - 32


def test_stop_children_ends_the_spawned_children_and_resource_tracker():
    import multiprocessing
    import time
    from multiprocessing import resource_tracker

    child = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(60,))
    child.start()
    tracker = resource_tracker._resource_tracker._pid
    assert tracker is not None and child.pid in child_pids()
    stop_children()
    assert child_pids() == []
    assert not os.path.exists(f"/proc/{tracker}")
    assert not os.path.exists(f"/proc/{child.pid}")


# -- seeded schedules ----------------------------------------------------------------


def test_same_seed_same_api_schedule():
    def build(seed):
        rng = random.Random(seed)
        pool = api_hot.base_pool(rng)
        return pool, api_hot.schedule(rng, pool, 500)

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_same_seed_same_paper_and_churn_ops():
    from perfbench import churn

    assert cubes.paper_set(random.Random(3)) == cubes.paper_set(random.Random(3))
    assert churn.Churn(3, 2).ops == churn.Churn(3, 2).ops
    assert churn.Churn(3, 2).ops != churn.Churn(4, 2).ops


def test_paper_round_spans_the_planner_crossover():
    """Q2 at 1, 2 and 5 values per dimension: S ≈ 1e-4, 1.6e-3, 6.25e-2."""
    specs = cubes.paper_set(random.Random(0))
    sizes = [len(s.cuts[0][2]) for s in specs[2:]]
    assert sizes == [1, 2, 5]
    assert [(n / 10) ** 4 for n in sizes] == pytest.approx([1e-4, 1.6e-3, 6.25e-2])


# -- oracle ------------------------------------------------------------------------------


def _tiny_oracle() -> FactOracle:
    dims = [[(k, f"AA{k % 2}", "BB0") for k in range(3)] for _ in range(2)]
    levels = [("d0", "h01", "h02"), ("d1", "h11", "h12")]
    facts = [(0, 0, 5), (1, 1, 7), (2, 0, 11), (2, 2, 13)]
    return FactOracle(dims, levels, facts)


def test_oracle_aggregates_raw_rows():
    oracle = _tiny_oracle()
    spec = Spec(group=((0, "h01"),))
    assert oracle.answer(spec) == {("AA0",): 5 + 11 + 13, ("AA1",): 7}
    cut = Spec(group=((1, "d1"),), cuts=((0, "h01", ("AA0",), None, None),),
               aggregate="max")
    assert oracle.answer(cut) == {(0,): 11, (2,): 13}
    oracle.write((2, 2), 1)
    assert oracle.answer(spec) == {("AA0",): 5 + 11 + 1, ("AA1",): 7}


def test_check_catches_an_injected_wrong_row():
    oracle = _tiny_oracle()
    spec = Spec(group=((0, "h01"),))
    want = oracle.answer(spec)
    good = [("AA0", 29), ("AA1", 7)]
    assert compare_rows(good, want, "sum") is None
    assert compare_rows([("AA0", 29), ("AA1", 8)], want, "sum")  # wrong value
    assert compare_rows([("AA0", 29)], want, "sum")  # missing group
    assert compare_rows(good + [("AA2", 1)], want, "sum")  # extra group
    assert compare_rows(good + [("AA1", 7)], want, "sum")  # duplicate
    assert compare_keys(good, set(want)) is None
    assert compare_keys([("AA0", 29), ("AA9", 7)], set(want))


# -- ledger arithmetic -----------------------------------------------------------------


def test_self_time_subtracts_children_once():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a (another thread)
        Span("c", 2.0, 3.0, parent=1),
        Span("d", 8.0, 12.0, parent=0),  # runs past its parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4])


def test_covered_merges_and_clips():
    assert covered([(1, 3), (2, 5), (7, 9)], 0, 8) == pytest.approx(5)
    assert covered([], 0, 1) == 0


def test_unattributed_share_joins_by_request():
    ops = [Span("bench.op", 0.0, 10.0, request="r1")]
    layer = [
        Span("x", 1.0, 5.0, request="r1"),
        Span("y", 4.0, 6.0, request="r1"),
        Span("z", 0.0, 10.0, request="r2"),
    ]
    assert unattributed_share(ops, layer) == pytest.approx(0.5)


def test_cross_thread_span_takes_its_request_parent():
    import threading

    ledger = Ledger(lambda: "req")
    with ledger.op("req"):
        worker = threading.Thread(target=lambda: ledger.end(ledger.begin("w")))
        worker.start()
        worker.join(5)
    assert not worker.is_alive()
    names = {s.name: s for s in ledger.spans}
    assert names["w"].parent == ledger.spans.index(names["bench.op"])


# -- wrappers --------------------------------------------------------------------------


def test_uninstall_restores_every_function_by_identity():
    originals = []
    for module, path, _, _ in TARGETS:
        owner, attr = resolve(module, path)
        originals.append((owner, attr, vars(owner)[attr]))
    ledger = Ledger()
    ledger.install()
    try:
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original
    finally:
        ledger.uninstall()
    assert not ledger.installed
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original


def test_wrapper_records_a_span_and_returns_the_result():
    from repro.olap.engine import OlapEngine

    engine = OlapEngine()
    ledger = Ledger()
    ledger.wrap(OlapEngine, "view_names", "olap.view_names")
    try:
        assert engine.view_names() == []
    finally:
        ledger.uninstall()
    assert [s.name for s in ledger.spans] == ["olap.view_names"]
    assert ledger.spans[0].end >= ledger.spans[0].start


# -- the declared metrics --------------------------------------------------------------


def test_benchmark_json_declares_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in layers.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in layers.PER_LAYER]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "throughput_qps", "read_p50_ms", "read_p95_ms", "peak_rss_mb"
    }
