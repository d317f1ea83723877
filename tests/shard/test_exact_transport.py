"""Shard transport is exact: no float state crosses the process boundary.

A cube whose groups hold ``[2**53, 1]`` (exact in int64, not in
float64) and ``[2**62, 2**62]`` (a sum that leaves int64) must come
back from two process shards exactly as the interpreted scan returns
it — 9007199254740993 and the Python int 2**63.
"""

import numpy as np

from repro.core.consolidate import ConsolidationSpec, ResultAccumulator
from repro.olap import ConsolidationQuery, OlapEngine
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.olap.options import ExecutionOptions

SCHEMA = CubeSchema(
    name="big",
    dimensions=(
        DimensionDef("a", key="ak", levels=(("ag", "str:8"),)),
        DimensionDef("b", key="bk"),
    ),
    measures=(MeasureDef("v", "int64"),),
)
# group G0 holds [2**53, 1], group G1 holds [2**62, 2**62]; each pair
# spans both halves of the chunk grid, so each shard sees one of them
FACTS = [(0, 0, 2**53), (2, 3, 1), (1, 0, 2**62), (3, 3, 2**62)]
QUERY = ConsolidationQuery.build("big", group_by={"a": "ag"})


def load() -> OlapEngine:
    engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
    engine.load_cube(
        SCHEMA,
        {
            "a": [(k, f"G{k % 2}") for k in range(4)],
            "b": [(k,) for k in range(4)],
        },
        FACTS,
        chunk_shape=(2, 2),
        backends=("array",),
    )
    return engine


def test_process_shards_return_exact_big_sums():
    engine = load()
    try:
        interpreted = engine.run(
            QUERY, ExecutionOptions(backend="array", mode="interpreted")
        ).rows
        sharded = engine.run(
            QUERY, ExecutionOptions(backend="array", shards=2, executor="process")
        ).rows
    finally:
        engine.close_shards()
    assert interpreted == [("G0", 9007199254740993), ("G1", 2**63)]
    assert sharded == interpreted
    assert type(sharded[1][1]) is int


def test_exported_state_carries_no_float_columns():
    engine = load()
    array = engine.cube("big").array
    specs = [ConsolidationSpec.level("ag"), ConsolidationSpec.drop()]
    partials = []
    for lo, hi in ((0, 2), (2, 4)):
        acc = ResultAccumulator(array, specs, ["sum"])
        for chunk_no in range(lo, hi):
            offsets, values = array.read_chunk(chunk_no)
            coords = array.geometry.chunk_offset_to_coords(chunk_no, offsets)
            acc.add_many(coords[:, 0] % 2, values)
        payload = acc.export_state()
        assert payload["counts"].dtype == np.int64
        assert all(c.dtype != np.float64 for c in payload["columns"])
        partials.append(ResultAccumulator(array, specs, ["sum"]).import_state(payload))
    merged = ResultAccumulator(array, specs, ["sum"])
    for partial in partials:
        merged.merge_from(partial)
    assert merged.rows() == [("G0", 9007199254740993), ("G1", 2**63)]
