"""Shared pieces of the benchmark: host clock, percentiles, run result.

Everything here is program-independent: it never imports ``repro``,
so the tests of the benchmark's own arithmetic run without the data
stack.
"""

from __future__ import annotations

import gc
import json
import math
import os
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field

#: the nominal host's :func:`ref_loop_ms`: a round figure inside the
#: 8–18 ms the loop takes on the reference VM (2 vCPUs, Python 3.11).
#: Timings are reported scaled to this speed: ``value × NOMINAL_REF_MS
#: / measured ref`` (see :class:`HostClock`).
NOMINAL_REF_MS = 10.0

#: iterations of the reference loop (≈ NOMINAL_REF_MS on that host)
_REF_ITERATIONS = 130_000

#: a probe is quiescent when the probing process's other threads used
#: at most this share of its time in CPU meanwhile
BUSY_SHARE = 0.1
#: tries per probe before it is counted busy (5 ms apart)
PROBE_TRIES = 10

#: a percentile is only named when this many samples lie beyond it
MIN_SAMPLES_BEYOND = 10
#: reads every run makes at least, so ``read_p95_ms`` is supported
MIN_READS = 20 * MIN_SAMPLES_BEYOND


class PercentileSupportError(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0–100) of ``values``.

    Refuses (raises :class:`PercentileSupportError`) unless at least
    :data:`MIN_SAMPLES_BEYOND` samples lie strictly beyond the rank, so
    a reported tail always rests on ten or more observations.  The
    median needs no such support.
    """
    if not values:
        raise PercentileSupportError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))  # 1-based nearest rank
    beyond = n - rank
    if q > 50 and beyond < MIN_SAMPLES_BEYOND:
        raise PercentileSupportError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    if not values:
        raise PercentileSupportError("no samples")
    return statistics.median(values)


def ref_loop_ms() -> float:
    """Time one fixed pure-Python loop, in ms (host-speed probe)."""
    start = time.perf_counter()
    acc = 0
    for i in range(_REF_ITERATIONS):
        acc += (i * i) % 7
    elapsed = time.perf_counter() - start
    if acc < 0:  # pragma: no cover - keeps the loop observable
        raise AssertionError
    return elapsed * 1e3


def other_threads_cpu_ms() -> float:
    """CPU time, in ms, used so far by every thread of this process but
    the calling one (``sum_exec_runtime`` from ``schedstat``)."""
    me = str(threading.get_native_id())
    total_ns = 0
    for tid in os.listdir("/proc/self/task"):
        if tid == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/schedstat", encoding="ascii") as handle:
                total_ns += int(handle.read().split()[0])
        except OSError:  # the thread ended
            continue
    return total_ns / 1e6


def quiet_ref_loop_ms() -> tuple[float, float]:
    """One :func:`ref_loop_ms` and the CPU ms this process's other
    threads used while it ran."""
    before = other_threads_cpu_ms()
    ms = ref_loop_ms()
    return ms, other_threads_cpu_ms() - before


class HostClock:
    """Interleaved host-speed probe.

    The host's speed drifts by tens of percent within minutes, so each
    measured segment (a round, a window, one set-up) is scaled by the
    probes taken right before and right after it (:meth:`between`):
    :meth:`sample` times the reference loop ``n`` times and returns
    ``NOMINAL_REF_MS / median``, the factor that turns a duration
    measured now into one on the nominal host.

    A probe only counts when it was quiescent: the probing process's
    other threads used at most :data:`BUSY_SHARE` of its time in CPU.
    Otherwise it is retried; a probe still busy after
    :data:`PROBE_TRIES` is discarded and counted in :attr:`busy`, and
    the segment keeps the last quiescent factor (1.0, i.e. raw time,
    if there was none).  So background work a change adds cannot slow
    the probe and scale its own cost away.
    """

    def __init__(self, probe=quiet_ref_loop_ms) -> None:
        #: returns ``(loop ms, other threads' CPU ms meanwhile)``;
        #: api-hot probes both the server child and the client
        self.probe = probe
        self.samples: list[float] = []
        self.busy = 0
        self.factor = 1.0

    def sample(self, n: int = 3) -> float:
        times = []
        for _ in range(n):
            for _ in range(PROBE_TRIES):
                ms, others_ms = self.probe()
                if others_ms <= BUSY_SHARE * ms:
                    times.append(ms)
                    break
                time.sleep(0.005)
            else:
                self.busy += 1
        if times:
            self.samples.extend(times)
            self.factor = NOMINAL_REF_MS / statistics.median(times)
        return self.factor

    @staticmethod
    def between(before: float, after: float) -> float:
        """The factor of a segment probed on both sides: scaling by the
        mean of the two reference times, as the host's speed often
        changes within a segment."""
        return 2 / (1 / before + 1 / after)

    @property
    def ref_ms(self) -> float:
        return statistics.median(self.samples) if self.samples else math.nan


def reset_peak_rss(pids: list[int]) -> None:
    """Reset each process's ``VmHWM`` to its current RSS, so a later
    :func:`peak_rss_mb` covers only what happens after this call."""
    for pid in pids:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (the kernel's per-process RSS high-water mark)
    over ``pids``, in MiB."""
    return sum(vm_hwm_kb(pid) for pid in pids) / 1024.0


def vm_hwm_kb(pid: int) -> int:
    """``VmHWM`` of one live process, in KiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return 0
    return 0


def child_pids() -> list[int]:
    """Live child processes of this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Spawn-context pools and processes start multiprocessing's resource
    tracker, which otherwise lives until this process exits and briefly
    outlives it.  Any other child still running (none, when every
    workload tears down cleanly) gets SIGTERM, then SIGKILL after ten
    seconds.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    pids = child_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in pids:
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except (ChildProcessError, ProcessLookupError):
            pass


def timed_setups(build, teardown, repeats: int, host: HostClock):
    """Run ``build`` ``repeats`` times, tearing down all but the last.

    Returns ``(last built state, set-up seconds scaled to the nominal
    host)``.  Set-up is repeated so ``setup_s`` can be a median.
    """
    durations = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        before = host.sample()
        start = time.perf_counter()
        state = build()
        elapsed = time.perf_counter() - start
        durations.append(elapsed * host.between(before, host.sample()))
    return state, durations


@dataclass
class Timings:
    """Read latencies and per-segment read rates, scaled to the nominal
    host segment by segment (see :class:`HostClock`)."""

    latencies: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    rate_reads: int = 0

    def add_latencies(self, latencies_s: list[float], factor: float) -> None:
        self.latencies.extend(t * factor for t in latencies_s)

    def add_rate(self, reads: int, wall_s: float, factor: float) -> None:
        self.rates.append(reads / (wall_s * factor))
        self.rate_reads += reads

    def add_segment(self, latencies_s: list[float], wall_s: float, factor: float):
        """One closed-loop segment: its reads' latencies and its rate."""
        self.add_latencies(latencies_s, factor)
        if latencies_s:
            self.add_rate(len(latencies_s), wall_s, factor)

    @property
    def throughput(self) -> float:
        """Median segment rate: robust to a stall in one segment."""
        return median(self.rates)


def put_end_to_end(
    result: "RunResult", setups: list[float], timings: Timings, rss_mb: float,
    host: HostClock,
) -> None:
    """The end-to-end metrics every workload reports."""
    lat = timings.latencies
    result.host_ref_ms = host.ref_ms
    result.busy_probes = host.busy
    result.put("setup_s", median(setups), "s", len(setups))
    result.put("throughput_qps", timings.throughput, "reads/s", timings.rate_reads)
    result.put("read_p50_ms", median(lat) * 1e3, "ms", len(lat))
    result.put("read_p95_ms", percentile(lat, 95) * 1e3, "ms", len(lat))
    result.put("peak_rss_mb", rss_mb, "MiB")


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1


@dataclass
class RunResult:
    """One benchmark run: the last-line JSON result plus notes."""

    workload: str
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: median reference-loop time of the run and host probes discarded
    #: as busy (printed, not metrics)
    host_ref_ms: float | None = None
    busy_probes: int = 0

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = Metric(float(value), unit, samples)

    def mismatch(self, message: str) -> None:
        """Record one wrong answer; any makes the run incorrect."""
        if len(self.wrong) < 20:
            self.wrong.append(message)
        else:
            self.wrong[-1] = f"... and more (last: {message})"

    @property
    def correct(self) -> bool:
        return not self.wrong

    def summary_lines(self) -> list[str]:
        lines = [f"workload {self.workload}: {self.attempted} ops, "
                 f"{self.failed} failed, "
                 f"error_rate {self.failed / max(1, self.attempted):.6f}, "
                 f"{'correct' if self.correct else 'WRONG ANSWERS'}"]
        for message in self.wrong:
            lines.append(f"  wrong: {message}")
        if self.host_ref_ms is not None:
            lines.append(f"host.ref_loop_ms {self.host_ref_ms:.4f}")
            lines.append(f"host.busy_probes {self.busy_probes}")
        for name, metric in self.metrics.items():
            lines.append(
                f"  {name:<34} {metric.value:>14.6g} {metric.unit:<10} "
                f"n={metric.samples}"
            )
        return lines

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in self.metrics.items()
                },
            },
            sort_keys=True,
        )
