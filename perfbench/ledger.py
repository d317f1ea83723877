"""The traced run's layer ledger: timing wrappers, spans, self time.

:class:`Ledger` patches public functions of each layer with a wrapper
that records one span per call (name, start, end, parent, request id)
in memory.  Nothing here edits the program: the wrappers are installed
by assigning to the class or module attribute the program looks the
function up through at call time, and :meth:`Ledger.uninstall` puts the
original objects back.  Untraced runs never construct a ledger.

Parents: a span's parent is the innermost open span on its own thread;
a span opened on a thread with nothing open (a service pool worker
running a caller's query) takes the innermost open span of the same
request on any thread.  A span's *self time* is its duration minus the
part of it covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    info: dict | None = None

    def to_list(self) -> list:
        return [
            self.name, self.start, self.end, self.parent, self.request, self.info
        ]


def _served_from_cache(result) -> tuple[str, None]:
    """``serve.execute`` spans split into hits and misses."""
    stats = getattr(result, "stats", None) or {}
    return ("serve.hit" if stats.get("result_cache_hit") else "serve.miss"), None


def _query_stats(result) -> tuple[None, dict]:
    """Keep each engine query's counters (and backend) on its span."""
    return None, dict(result.stats, backend=result.backend)


#: (module, attribute path, span name, optional result classifier
#: returning ``(new span name or None, span info or None)``).
#: A ``from x import f`` binding is patched in the caller's namespace:
#: ``choose_backend_explained`` is looked up in ``repro.olap.engine``.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.olap.engine", "OlapEngine.query", "olap.query", _query_stats),
    ("repro.olap.engine", "OlapEngine.estimate_selectivity", "olap.plan", None),
    ("repro.olap.engine", "choose_backend_explained", "olap.plan", None),
    ("repro.olap.engine", "OlapEngine.write_cell", "olap.write_cell", None),
    ("repro.olap.backends", "ArrayBackend.execute", "core.scan", None),
    ("repro.olap.backends", "BitmapBackend.execute", "relational.bitmap", None),
    ("repro.olap.backends", "StarjoinBackend.execute", "relational.starjoin", None),
    ("repro.core.olap_array", "OLAPArray.read_chunk", "core.read_chunk", None),
    ("repro.core.olap_array", "OLAPArray.write_cell", "core.array_write", None),
    ("repro.core.consolidate", "ResultAccumulator.rows", "core.materialize", None),
    ("repro.core.consolidate", "ResultAccumulator.merge_from", "shard.merge", None),
    ("repro.shard.coordinator", "ShardCoordinator.consolidate",
     "shard.consolidate", None),
    ("repro.serve.service", "QueryService.execute", "serve.execute",
     _served_from_cache),
    ("repro.serve.service", "QueryService.write_cell", "serve.write_cell", None),
    ("repro.api.server", "ApiEndpoint.aggregate", "api.aggregate", None),
    ("repro.api.server", "RequestParser.from_params", "api.parse", None),
    ("repro.api.server", "RequestParser.from_body", "api.parse", None),
    ("repro.api.rollup", "RollupRouter.route", "api.route", None),
    ("repro.api.rollup", "RollupRouter.scan", "api.rollup_scan", None),
    ("repro.obs.registry", "MetricsRegistry.merged_snapshot", "obs.snapshot", None),
    ("repro.obs.tracing", "TraceStore.record", "obs.trace_record", None),
)


def resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module`` + dotted ``path``."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Ledger:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, request_of_thread: Callable[[], str | None] | None = None):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: dict[str | None, list[int]] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []
        #: request id for a thread the benchmark did not tag (e.g. the
        #: program's trace context on a pool worker)
        self._request_of_thread = request_of_thread or (lambda: None)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _request(self) -> str | None:
        tagged = getattr(self._local, "request", None)
        return tagged if tagged is not None else self._request_of_thread()

    def begin(self, name: str) -> int:
        stack = self._stack()
        request = self._request()
        with self._lock:
            if stack:
                parent = stack[-1]
            else:
                open_spans = self._open.get(request)
                parent = open_spans[-1] if open_spans and request else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, request))
            self._open[request].append(index)
        stack.append(index)
        return index

    def end(self, index: int, rename: str | None = None, info=None) -> None:
        now = time.perf_counter()
        self._stack().pop()
        with self._lock:
            span = self.spans[index]
            span.end = now
            if rename is not None:
                span.name = rename
            span.info = info
            self._open[span.request].remove(index)

    @contextmanager
    def op(self, request: str, name: str = "bench.op"):
        """A benchmark-side root span; tags the thread with ``request``."""
        self._local.request = request
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self._local.request = None

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, classify=None) -> None:
        original = vars(owner)[attr]
        if not callable(original):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = ledger.begin(name)
            rename = info = None
            try:
                result = original(*args, **kwargs)
                if classify is not None:
                    rename, info = classify(result)
                return result
            finally:
                ledger.end(index, rename, info)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        for module, path, name, classify in TARGETS:
            owner, attr = resolve(module, path)
            self.wrap(owner, attr, name, classify)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)


# -- analysis -------------------------------------------------------------------


def spans_from_lists(rows: list[list], offset: int = 0) -> list[Span]:
    """Rebuild spans written with :meth:`Span.to_list`; parent indexes
    shift by ``offset`` (spans appended after ``offset`` others)."""
    return [
        Span(name, start, end, None if parent is None else parent + offset,
             request, info)
        for name, start, end, parent, request, info in rows
    ]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        (span.end - span.start)
        - covered(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "self_s", "total_s"}}`` over ``spans``."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        bucket = out[span.name]
        bucket["calls"] += 1
        bucket["self_s"] += own
        bucket["total_s"] += span.end - span.start
    return dict(out)


def unattributed_share(
    ops: list[Span], layer_spans: list[Span]
) -> float:
    """Share of the ops' wall time no layer span of the same request
    covers (0 when every op is fully inside layer spans)."""
    by_request: dict[str | None, list[tuple[float, float]]] = defaultdict(list)
    for span in layer_spans:
        by_request[span.request].append((span.start, span.end))
    wall = 0.0
    inside = 0.0
    for op in ops:
        wall += op.end - op.start
        inside += covered(by_request.get(op.request, []), op.start, op.end)
    return 1.0 - inside / wall if wall > 0 else 0.0


def with_ancestor(spans: list[Span], name: str, ancestor: str) -> list[Span]:
    """The spans called ``name`` that have an ``ancestor`` above them."""
    found = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None:
            if spans[parent].name == ancestor:
                found.append(span)
                break
            parent = spans[parent].parent
    return found
