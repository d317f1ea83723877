"""§4.1: the OLAP Array consolidation algorithm.

Consolidation merges the star join, the group-by and the aggregation
into a single position-based pass:

    For each joined dimension { create result B-tree; load the
        IndexToIndex array; }
    scan the input array
    For each array cell {
        look up result indices using the IndexToIndex arrays;  // star join
        find the corresponding result array cell;
        add the input cell to the result array cell;           // aggregation
    }

The result is held as a flat in-memory array indexed positionally (the
paper's in-memory result OLAP object); :func:`consolidate` can
optionally materialize it back into a persisted
:class:`~repro.core.olap_array.OLAPArray`.

Two execution modes: ``interpreted`` runs the per-cell loop exactly as
the pseudo-code reads (used for the figures so the relational baseline,
also per-tuple Python, pays symmetric interpreter costs);
``vectorized`` runs the same mapping with numpy gathers per chunk and
folds the cells into the result array in batches.

The vectorized result is exact, and equal to the interpreted one:

- **Integer accumulation.**  On an ``int64`` array, sum/min/max/count
  (and avg's sum) are ``int64`` result columns — never float64.  Before
  a fold could carry a sum past int64 (a bound on the magnitude of
  every partial sum is kept per column), that column switches to Python
  ints (an object array), the same values the interpreted fold returns.
  Nothing wraps and nothing rounds.
- **Float summation order.**  On a ``float64`` array, sums fold with
  ordered ``np.add.at`` over the cells in scan order — the order the
  interpreted loop adds them — so they round identically.  A per-batch
  reduction (``bincount``) would round differently once several batches
  fold into one cell.
- **Integer avg** divides the exact Python-int sum by the count
  (``s / c``, correctly rounded), as :class:`repro.aggregates.Avg` does.
- **Bounded fold buffer.**  ``add_many`` queues ``(linear, values)``
  batches and folds them in one pass once :data:`FOLD_CELLS` cells are
  pending, and before any read of the state (rows, touched cells, shard
  export, merge).  So the buffer never grows past one fold's worth.

Rows are extracted columnwise: the touched result cells
(``np.flatnonzero`` of the per-cell counts) decode positionally into
one group-value column per kept dimension, the columns zip into row
tuples, and the rows sort once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.aggregates import get_aggregate
from repro.core.index_to_index import IndexToIndex
from repro.core.olap_array import OLAPArray
from repro.errors import QueryError
from repro.obs.tracer import get_tracer
from repro.util.stats import Counters

_VECTOR_AGGS = {"sum", "count", "min", "max", "avg"}
_INT64_MAX = int(np.iinfo(np.int64).max)

#: pending input cells that trigger a vectorized fold: a fold still spans
#: many chunks, while the buffer and its concatenation stay ~128 KiB
FOLD_CELLS = 1 << 12


@dataclass(frozen=True)
class ConsolidationSpec:
    """What to do with one dimension: group by a level, the key, or drop.

    - ``level(attr)`` — group by hierarchy attribute ``attr``;
    - ``key()`` — group by the dimension key itself (identity);
    - ``drop()`` — aggregate the dimension away entirely;
    - ``mapping(i2i)`` — group by an explicit IndexToIndex array (used
      by aggregate navigation, which derives the mapping by factoring
      hierarchy levels instead of reading it off the array).
    """

    kind: str
    attr: str | None = None
    i2i: IndexToIndex | None = None

    @classmethod
    def level(cls, attr: str) -> "ConsolidationSpec":
        return cls("level", attr)

    @classmethod
    def key(cls) -> "ConsolidationSpec":
        return cls("key")

    @classmethod
    def drop(cls) -> "ConsolidationSpec":
        return cls("drop")

    @classmethod
    def mapping(cls, i2i: IndexToIndex) -> "ConsolidationSpec":
        return cls("mapping", i2i=i2i)


@dataclass
class ConsolidationResult:
    """Rows (sorted), optional materialized result array, and counters."""

    rows: list[tuple]
    counters: Counters
    result_array: OLAPArray | None = None


def _resolve_specs(
    array: OLAPArray, specs: list[ConsolidationSpec]
) -> list[IndexToIndex]:
    if len(specs) != array.geometry.ndim:
        raise QueryError(
            f"need one spec per dimension ({array.geometry.ndim}), got "
            f"{len(specs)}"
        )
    i2is = []
    for d, spec in enumerate(specs):
        if spec.kind == "level":
            i2is.append(array.index_to_index(d, spec.attr))
        elif spec.kind == "key":
            i2is.append(IndexToIndex.identity(array.dims[d].keys()))
        elif spec.kind == "drop":
            i2is.append(IndexToIndex.collapse(len(array.dims[d])))
        elif spec.kind == "mapping":
            if spec.i2i is None or len(spec.i2i) != len(array.dims[d]):
                raise QueryError(
                    f"mapping spec on dimension {d} must cover its "
                    f"{len(array.dims[d])} indices"
                )
            i2is.append(spec.i2i)
        else:
            raise QueryError(f"unknown spec kind {spec.kind!r}")
    return i2is


class ResultAccumulator:
    """The in-memory result OLAP object both algorithms aggregate into.

    Result cells are addressed positionally: ``linear = Σ result_index[d]
    * stride[d]`` where each dimension's result index comes from its
    IndexToIndex array.  Dropped dimensions contribute a size-1 axis and
    are omitted from output rows.

    The interpreted path folds one cell at a time into per-cell
    :class:`~repro.aggregates.Aggregate` states.  The vectorized path
    buffers ``(linear, values)`` batches and folds them into one result
    column per measure (plus a per-cell input count) once the buffer
    holds :data:`FOLD_CELLS` cells, and before anything reads the state.
    """

    def __init__(
        self,
        array: OLAPArray,
        specs: list[ConsolidationSpec],
        aggregate: str | list[str] = "sum",
    ):
        self.array = array
        self.specs = list(specs)
        self.i2is = _resolve_specs(array, specs)
        self.result_shape = tuple(i.target_size for i in self.i2is)
        self.total_cells = math.prod(self.result_shape)
        strides = [1] * len(self.result_shape)
        for axis in range(len(strides) - 2, -1, -1):
            strides[axis] = strides[axis + 1] * self.result_shape[axis + 1]
        self.result_strides = tuple(strides)
        names = (
            [aggregate] * array.n_measures
            if isinstance(aggregate, str)
            else list(aggregate)
        )
        if len(names) != array.n_measures:
            raise QueryError(
                f"{len(names)} aggregates for {array.n_measures} measures"
            )
        self.agg_names = names
        self.aggs = [get_aggregate(n) for n in names]
        self._unvectorizable = [n for n in names if n not in _VECTOR_AGGS]
        self._integral = array.dtype == "int64"
        # interpreted state: one list of per-measure states per touched cell
        self._states: dict[int, list] = {}
        # vectorized state: per-cell input counts, one column per measure
        # (None for count, which reads the counts), and per integer column
        # a bound on the magnitude of any partial sum folded into it
        self._counts: np.ndarray | None = None
        self._columns: list[np.ndarray | None] = []
        self._bounds: list[int] = [0] * len(names)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._pending_cells = 0

    # -- interpreted path ----------------------------------------------------

    def mapping_lists(self) -> list[list[int]]:
        """Per-dimension index→result-index lists as plain Python lists."""
        return [i.mapping.tolist() for i in self.i2is]

    def add_one(self, linear: int, measures) -> None:
        """Fold one cell's measures into result cell ``linear``."""
        state = self._states.get(linear)
        if state is None:
            state = [agg.initial() for agg in self.aggs]
            self._states[linear] = state
        for m, agg in enumerate(self.aggs):
            state[m] = agg.add(state[m], measures[m])

    # -- vectorized path ---------------------------------------------------------

    def _vec_init(self) -> None:
        self._counts = np.zeros(self.total_cells, dtype=np.int64)
        if self._integral:
            dtype, low, high = np.int64, -_INT64_MAX - 1, _INT64_MAX
        else:
            dtype, low, high = np.float64, -np.inf, np.inf
        start = {"min": high, "max": low}  # sum / avg start at 0
        self._columns = [
            None  # count reads the per-cell counts
            if name == "count"
            else np.full(self.total_cells, start.get(name, 0), dtype)
            for name in self.agg_names
        ]

    def add_many(self, linear: np.ndarray, values: np.ndarray) -> None:
        """Queue many cells for the next batched fold (vectorized mode)."""
        if self._unvectorizable:
            raise QueryError(
                f"aggregate {self._unvectorizable[0]!r} not supported in "
                "vectorized mode"
            )
        self._pending.append((linear, values))
        self._pending_cells += len(linear)
        if self._pending_cells >= FOLD_CELLS:
            self._fold()

    def _fold(self) -> None:
        """Fold the pending batches into the result columns in one pass.

        Batches concatenate in arrival order, so every ``ufunc.at`` call
        applies repeated indices in the same order the interpreted loop
        would: float sums round exactly as they do there.
        """
        if not self._pending:
            return
        if self._counts is None:
            self._vec_init()
        if len(self._pending) == 1:
            linear, values = self._pending[0]
        else:
            linear = np.concatenate([p[0] for p in self._pending])
            values = np.concatenate([p[1] for p in self._pending])
        self._pending = []
        self._pending_cells = 0
        np.add.at(self._counts, linear, 1)
        for m, name in enumerate(self.agg_names):
            column = values[:, m]
            if name == "min":
                np.minimum.at(self._columns[m], linear, column)
            elif name == "max":
                np.maximum.at(self._columns[m], linear, column)
            elif name != "count":  # sum / avg
                self._add_exact(m, linear, column)

    def _add_exact(self, m: int, linear: np.ndarray, column: np.ndarray) -> None:
        """``np.add.at`` into sum column ``m`` without ever wrapping int64.

        Every partial sum of a cell is at most the sum of the magnitudes
        folded into the column so far; while that bound fits int64 the
        column stays int64, and the first fold that could pass it turns
        the column into Python ints (object dtype), which never wrap.
        """
        target = self._columns[m]
        if target.dtype == np.int64:
            largest = max(-int(column.min()), int(column.max())) if len(column) else 0
            bound = self._bounds[m] + len(column) * largest
            if bound <= _INT64_MAX:
                self._bounds[m] = bound
                np.add.at(target, linear, column)
                return
            target = self._columns[m] = target.astype(object)
        if target.dtype == object:
            column = column.astype(object)
        np.add.at(target, linear, column)

    # -- extraction -------------------------------------------------------------------

    def _rows_at(self, linear: np.ndarray, measures: list[list]) -> list[tuple]:
        """Unsorted rows for result cells ``linear`` (ascending or not).

        Each kept dimension's group values come from one positional
        decode of the whole ``linear`` column into that dimension's
        target keys; the rows are the columns zipped together.
        """
        columns = []
        for spec, i2i, stride, size in zip(
            self.specs, self.i2is, self.result_strides, self.result_shape
        ):
            if spec.kind == "drop":
                continue
            keys = np.fromiter(i2i.target_keys, dtype=object, count=size)
            columns.append(keys[(linear // stride) % size].tolist())
        return list(zip(*columns, *measures))

    def _vec_measures(self, touched: np.ndarray) -> list[list]:
        counts = self._counts[touched].tolist()
        out = []
        for name, column in zip(self.agg_names, self._columns):
            if name == "count":
                out.append(counts)
                continue
            values = column[touched].tolist()
            if name == "avg":
                values = [s / c for s, c in zip(values, counts)]
            out.append(values)
        return out

    def rows(self) -> list[tuple]:
        """Sorted output rows: ``(group values..., aggregates...)``."""
        self._fold()
        out = []
        if self._counts is not None:
            touched = np.flatnonzero(self._counts)
            out = self._rows_at(touched, self._vec_measures(touched))
        if self._states:
            linear = np.fromiter(
                self._states, dtype=np.int64, count=len(self._states)
            )
            states = list(self._states.values())
            measures = [
                [agg.result(state[m]) for state in states]
                for m, agg in enumerate(self.aggs)
            ]
            out += self._rows_at(linear, measures)
        out.sort()
        return out

    def touched_cells(self) -> int:
        """Number of distinct result cells that received input."""
        self._fold()
        vectorized = 0 if self._counts is None else int(np.count_nonzero(self._counts))
        return vectorized + len(self._states)

    # -- shard transport (the repro.shard scatter-gather hook) -------------------

    def export_state(self) -> dict:
        """The accumulator's aggregate state as a picklable payload.

        Every interpreted aggregate state is a plain Python scalar or
        tuple; the vectorized state ships only its touched cells: their
        positions, input counts and per-measure values, each column in
        its own exact dtype (int64, float64, or Python ints once a sum
        outgrew int64), plus the integer columns' magnitude bounds.  So
        the payload crosses a process boundary losslessly.  The
        structural parts (array, specs, strides) are *not* included —
        the receiver rebuilds an accumulator against its own array
        handle and calls :meth:`import_state`.
        """
        self._fold()
        payload = {
            "states": {int(k): list(v) for k, v in self._states.items()},
            "touched": None,
        }
        if self._counts is not None:
            touched = np.flatnonzero(self._counts)
            payload.update(
                touched=touched,
                counts=self._counts[touched],
                columns=[
                    None if column is None else column[touched]
                    for column in self._columns
                ],
                bounds=list(self._bounds),
            )
        return payload

    def import_state(self, payload: dict) -> "ResultAccumulator":
        """Restore a payload produced by :meth:`export_state`."""
        self._states = {}
        self._counts = None
        self._pending = []
        self._pending_cells = 0
        self._bounds = [0] * len(self.agg_names)
        self._merge_state(payload)
        return self

    # -- partition merging (the §6 parallelization hook) ------------------------

    def merge_from(self, other: "ResultAccumulator") -> None:
        """Fold another accumulator (same specs/aggregates) into this one.

        This is the combine step of a partitioned consolidation: each
        partition aggregates its chunk range independently, then the
        states merge exactly (every aggregate carries a mergeable
        sketch; integer sums keep to the same int64-or-Python-int rule
        as a fold).
        """
        if other.result_shape != self.result_shape or other.agg_names != self.agg_names:
            raise QueryError("cannot merge accumulators with different specs")
        self._merge_state(other.export_state())

    def _merge_state(self, payload: dict) -> None:
        """Merge an :meth:`export_state` payload into this accumulator."""
        for linear, state in payload["states"].items():
            mine = self._states.get(int(linear))
            if mine is None:
                self._states[int(linear)] = list(state)
            else:
                for m, agg in enumerate(self.aggs):
                    mine[m] = agg.merge(mine[m], state[m])
        touched = payload["touched"]
        if touched is None:
            return
        self._fold()
        if self._counts is None:
            self._vec_init()
        self._counts[touched] += payload["counts"]
        for m, name in enumerate(self.agg_names):
            mine, theirs = self._columns[m], payload["columns"][m]
            if name == "min":
                mine[touched] = np.minimum(mine[touched], theirs)
            elif name == "max":
                mine[touched] = np.maximum(mine[touched], theirs)
            elif name != "count":  # sum / avg
                bound = self._bounds[m] + payload["bounds"][m]
                if (
                    mine.dtype == object
                    or theirs.dtype == object
                    or (self._integral and bound > _INT64_MAX)
                ):
                    if mine.dtype != object:
                        mine = self._columns[m] = mine.astype(object)
                    theirs = theirs.astype(object)
                else:
                    self._bounds[m] = bound
                mine[touched] += theirs


def allowed_masks(
    array: OLAPArray, allowed: list[list[int]]
) -> list[np.ndarray]:
    """Per-dimension boolean membership masks from final index lists."""
    masks = []
    for d, indices in enumerate(allowed):
        mask = np.zeros(len(array.dims[d]), dtype=bool)
        if len(indices):
            mask[np.asarray(list(indices), dtype=np.int64)] = True
        masks.append(mask)
    return masks


def _chunk_overlaps(geometry, chunk_no: int, masks: list[np.ndarray]) -> bool:
    """Whether a chunk's index box intersects the selection at all."""
    origin = geometry.chunk_origin(chunk_no)
    for d, mask in enumerate(masks):
        if not mask[origin[d] : origin[d] + geometry.chunk_shape[d]].any():
            return False
    return True


def scan_chunk_range(
    array: OLAPArray,
    accumulator: ResultAccumulator,
    chunk_range,
    mode: str,
    allowed: list[list[int]] | None = None,
    counters: Counters | None = None,
) -> int:
    """Run the §4.1 scan over a range of chunk numbers.

    Factored out so a partitioned consolidation (see
    :func:`repro.core.parallel.consolidate_partitioned`) and the shard
    workers (:mod:`repro.shard.worker`) can drive one accumulator per
    chunk partition.  Returns the number of valid cells folded in.

    ``allowed`` (per-dimension sorted index lists, the §4.2 "final
    lists") pushes a selection into the scan: chunks whose index box
    misses the selection are skipped without a read, and non-matching
    cells inside surviving chunks are filtered out.  ``counters``, when
    given, receives per-call ``chunks_read`` / ``chunks_skipped`` /
    ``cells_scanned`` — the per-shard attribution the shared
    ``array.counters`` bag cannot provide under concurrent scans.
    """
    geometry = array.geometry
    masks = allowed_masks(array, allowed) if allowed is not None else None
    scanned = 0
    chunks_read = 0
    chunks_skipped = 0
    cell_strides = geometry.cell_strides
    chunk_shape = geometry.chunk_shape
    ndim = geometry.ndim
    if mode == "interpreted":
        maps = accumulator.mapping_lists()
        strides = accumulator.result_strides
        mask_lists = [m.tolist() for m in masks] if masks is not None else None
        for chunk_no in chunk_range:
            if masks is not None and not _chunk_overlaps(
                geometry, chunk_no, masks
            ):
                chunks_skipped += 1
                continue
            offsets, values = array.read_chunk(chunk_no)
            if not len(offsets):
                continue
            chunks_read += 1
            origin = geometry.chunk_origin(chunk_no)
            value_rows = values.tolist()
            for j, offset in enumerate(offsets.tolist()):
                linear = 0
                keep = True
                for d in range(ndim):
                    index = origin[d] + (offset // cell_strides[d]) % chunk_shape[d]
                    if mask_lists is not None and not mask_lists[d][index]:
                        keep = False
                        break
                    linear += maps[d][index] * strides[d]
                if keep:
                    accumulator.add_one(linear, value_rows[j])
                    scanned += 1
    else:
        # per dimension: array index -> its term of the result position
        # (dropped dimensions contribute nothing and are left out)
        scaled = {
            d: i2i.mapping.astype(np.int64) * stride
            for d, (spec, i2i, stride) in enumerate(
                zip(accumulator.specs, accumulator.i2is, accumulator.result_strides)
            )
            if spec.kind != "drop"
        }
        decoded = set(scaled) | (set(range(ndim)) if masks is not None else set())
        for chunk_no in chunk_range:
            if masks is not None and not _chunk_overlaps(
                geometry, chunk_no, masks
            ):
                chunks_skipped += 1
                continue
            offsets, values = array.read_chunk(chunk_no)
            if not len(offsets):
                continue
            chunks_read += 1
            origin = geometry.chunk_origin(chunk_no)
            index = {
                d: origin[d] + (offsets // cell_strides[d]) % chunk_shape[d]
                for d in decoded
            }
            if masks is not None:
                keep = masks[0][index[0]]
                for d in range(1, ndim):
                    keep &= masks[d][index[d]]
                if not keep.all():
                    if not keep.any():
                        continue
                    index = {d: i[keep] for d, i in index.items()}
                    values = values[keep]
            linear = np.zeros(len(values), dtype=np.int64)
            for d, terms in scaled.items():
                linear += terms[index[d]]
            accumulator.add_many(linear, values)
            scanned += len(linear)
    if counters is not None:
        counters.add("chunks_read", chunks_read)
        counters.add("cells_scanned", scanned)
        if chunks_skipped:
            counters.add("chunks_skipped", chunks_skipped)
    return scanned


def consolidate(
    array: OLAPArray,
    specs: list[ConsolidationSpec],
    aggregate: str | list[str] = "sum",
    mode: str = "interpreted",
    counters: Counters | None = None,
    materialize_as: str | None = None,
) -> ConsolidationResult:
    """Run the §4.1 consolidation over a whole array.

    ``mode`` is ``interpreted`` (faithful per-cell loop) or
    ``vectorized`` (numpy kernels).  With ``materialize_as`` the result
    is also persisted as a new OLAP array of that name.
    """
    if mode not in ("interpreted", "vectorized"):
        raise QueryError(f"unknown mode {mode!r}")
    counters = counters if counters is not None else Counters()
    tracer = get_tracer()
    with tracer.span("resolve_mappings"):
        accumulator = ResultAccumulator(array, specs, aggregate)
    with tracer.span(
        "scan_chunks", mode=mode, chunks=array.geometry.n_chunks
    ):
        scanned = scan_chunk_range(
            array, accumulator, range(array.geometry.n_chunks), mode
        )
        counters.add("cells_scanned", scanned)
        counters.merge(array.counters)
        array.counters.reset()
    counters.add("result_cells", accumulator.touched_cells())

    with tracer.span("extract_rows"):
        rows = accumulator.rows()
    result_array = None
    if materialize_as is not None:
        result_array = _materialize(array, accumulator, rows, materialize_as)
    return ConsolidationResult(rows=rows, counters=counters, result_array=result_array)


def _materialize(
    array: OLAPArray,
    accumulator: ResultAccumulator,
    rows: list[tuple],
    name: str,
) -> OLAPArray:
    """Persist consolidation output as a new OLAP array."""
    from repro.core.builder import DimensionData, build_olap_array

    kept = [
        (d, spec, i2i)
        for d, (spec, i2i) in enumerate(zip(accumulator.specs, accumulator.i2is))
        if spec.kind != "drop"
    ]
    if not kept:
        raise QueryError("cannot materialize a fully collapsed result")
    dimensions = [
        DimensionData(
            name=(
                f"{array.dim_names[d]}.{spec.attr}"
                if spec.kind == "level"
                else array.dim_names[d]
            ),
            keys=list(i2i.target_keys),
        )
        for d, spec, i2i in kept
    ]
    chunk_shape = tuple(min(len(dim.keys), 16) for dim in dimensions)
    dtype = array.dtype
    if any(n in ("avg",) for n in accumulator.agg_names):
        dtype = "float64"
    return build_olap_array(
        array.fm,
        name,
        dimensions,
        rows,
        chunk_shape,
        codec=array.codec_name,
        dtype=dtype,
        measure_names=[
            f"{agg}({m})"
            for agg, m in zip(accumulator.agg_names, array.measure_names)
        ],
    )
