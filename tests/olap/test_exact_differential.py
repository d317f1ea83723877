"""Cross-route differential fuzzer at the int64 edges.

Random small cubes whose measures sit at the int64 extremes (near 2^53
and 2^63, negatives, groups whose sum leaves int64) and whose chunk
grids leave chunks empty.  Every execution route must return the rows
of a raw fact-row fold in Python ints:

- the array backend in both modes, over shards {1, 2, 7} x the
  local/thread executors (plus one fixed process-executor example);
- the starjoin / bitmap / btree / mbtree / leftdeep backends;
- the CUBE operator (one scan, every group-by);
- a materialized view rolled up to the query's grain;
- a :class:`~repro.serve.service.QueryService` result-cache hit.
"""

from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.consolidate import ConsolidationSpec
from repro.core.cube import compute_cube
from repro.olap import ConsolidationQuery, OlapEngine, SelectionPredicate
from repro.olap.model import CubeSchema, DimensionDef, MeasureDef
from repro.olap.options import ExecutionOptions
from repro.serve.service import QueryService

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
EDGES = [
    0, 1, -1, 2**53, 2**53 + 1, -(2**53) - 1, 2**62, -(2**62),
    INT64_MAX, INT64_MAX - 1, INT64_MIN, INT64_MIN + 1,
]
AGGREGATES = ("sum", "count", "min", "max", "avg")
RELATIONAL = ("starjoin", "bitmap", "btree", "mbtree", "leftdeep")


def group_of(key: int) -> str:
    return f"G{key % 2}"


def build_engine(sizes, chunk_shape, cells) -> OlapEngine:
    """A cube with ``len(sizes)`` dimensions, each keyed 0..size-1 with
    one level ``g<d>`` splitting the keys by parity."""
    schema = CubeSchema(
        name="x",
        dimensions=tuple(
            DimensionDef(f"dim{d}", key=f"k{d}", levels=((f"g{d}", "str:8"),))
            for d in range(len(sizes))
        ),
        measures=(MeasureDef("v", "int64"),),
    )
    dimension_rows = {
        f"dim{d}": [(k, group_of(k)) for k in range(size)]
        for d, size in enumerate(sizes)
    }
    facts = [coords + (value,) for coords, value in sorted(cells.items())]
    engine = OlapEngine(page_size=1024, pool_bytes=256 * 1024)
    engine.load_cube(
        schema,
        dimension_rows,
        facts,
        chunk_shape=chunk_shape,
        fact_btrees=True,
        fact_mbtree=True,
    )
    return engine


def oracle(cells, group_by, aggregate, selected=None) -> list[tuple]:
    """Fold the raw fact rows in Python ints.

    ``group_by``: ``(dim, level)`` pairs in query order, level ``"k"``
    for the key and ``"g"`` for the parity group; ``selected``: dim ->
    the group values that pass."""
    groups: dict[tuple, list[int]] = {}
    for coords, value in cells.items():
        if selected and any(
            group_of(coords[d]) not in values for d, values in selected.items()
        ):
            continue
        key = tuple(
            coords[d] if level == "k" else group_of(coords[d])
            for d, level in group_by
        )
        groups.setdefault(key, []).append(value)
    fold = {
        "sum": sum,
        "count": len,
        "min": min,
        "max": max,
        "avg": lambda values: sum(values) / len(values),
    }[aggregate]
    return sorted(key + (fold(values),) for key, values in groups.items())


def make_query(group_by, aggregate, selected=None) -> ConsolidationQuery:
    return ConsolidationQuery.build(
        "x",
        group_by={
            f"dim{d}": (f"k{d}" if level == "k" else f"g{d}")
            for d, level in group_by
        },
        selections=[
            SelectionPredicate.in_list(f"dim{d}", f"g{d}", *sorted(values))
            for d, values in (selected or {}).items()
        ],
        aggregate=aggregate,
    )


@st.composite
def cubes(draw):
    ndim = draw(st.integers(2, 3))
    sizes = tuple(draw(st.integers(2, 5)) for _ in range(ndim))
    chunk_shape = tuple(draw(st.integers(1, size)) for size in sizes)
    coords = [
        (i, j, k)[:ndim]
        for i in range(sizes[0])
        for j in range(sizes[1])
        for k in range(sizes[2] if ndim == 3 else 1)
    ]
    chosen = draw(
        st.lists(st.sampled_from(coords), min_size=1, max_size=12, unique=True)
    )
    values = st.one_of(
        st.sampled_from(EDGES), st.integers(INT64_MIN, INT64_MAX)
    )
    cells = {c: draw(values) for c in chosen}
    return sizes, chunk_shape, cells


@st.composite
def cases(draw):
    sizes, chunk_shape, cells = draw(cubes())
    ndim = len(sizes)
    dims = draw(st.permutations(range(ndim)))
    n_grouped = draw(st.integers(1, ndim))
    group_by = [(d, draw(st.sampled_from("kg"))) for d in dims[:n_grouped]]
    selected = {
        d: set(draw(st.lists(st.sampled_from(["G0", "G1"]), min_size=1,
                             max_size=2, unique=True)))
        for d in draw(st.lists(st.sampled_from(range(ndim)), min_size=1,
                               max_size=ndim, unique=True))
    }
    aggregate = draw(st.sampled_from(AGGREGATES))
    return sizes, chunk_shape, cells, group_by, selected, aggregate


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
def test_every_route_matches_the_python_int_fold(case):
    sizes, chunk_shape, cells, group_by, selected, aggregate = case
    engine = build_engine(sizes, chunk_shape, cells)
    selective = make_query(group_by, aggregate, selected)
    plain = make_query(group_by, aggregate)
    expect_selective = oracle(cells, group_by, aggregate, selected)
    expect_plain = oracle(cells, group_by, aggregate)

    for query, expected in [(selective, expect_selective), (plain, expect_plain)]:
        for mode in ("interpreted", "vectorized"):
            for shards, executor in [(1, "local"), (2, "local"), (2, "thread"),
                                     (7, "local"), (7, "thread")]:
                options = ExecutionOptions(
                    backend="array", mode=mode, shards=shards, executor=executor
                )
                rows = engine.run(query, options, cold=False).rows
                assert rows == expected, (mode, shards, executor)
    for backend in RELATIONAL:
        rows = engine.run(selective, ExecutionOptions(backend=backend)).rows
        assert rows == expect_selective, backend

    # CUBE: every group-by of the query's dimensions from one scan
    grouped = dict(group_by)
    array = engine.cube("x").array
    specs = [
        ConsolidationSpec.key() if grouped.get(d, "k") == "k"
        else ConsolidationSpec.level(f"g{d}")
        for d in range(len(sizes))
    ]
    cube = compute_cube(array, specs, aggregate)
    for size in range(len(sizes) + 1):
        for subset in combinations(range(len(sizes)), size):
            levels = [(d, grouped.get(d, "k")) for d in subset]
            key = tuple(f"dim{d}" for d in subset)
            assert cube[key] == oracle(cells, levels, aggregate), key

    # a key-grain view rolled up to the query's grain (avg never rolls up)
    if aggregate != "avg":
        engine.materialize(
            make_query([(d, "k") for d in range(len(sizes))], aggregate), "v"
        )
        rolled = engine.query_from_views(plain)
        assert rolled.backend == "view:v"
        assert rolled.rows == expect_plain

    with QueryService(engine) as service:
        first = service.execute(selective)
        hit = service.execute(selective)
    assert hit.stats.get("result_cache_hit") == 1.0
    assert first.rows == hit.rows == expect_selective


def test_process_shards_match_the_python_int_fold():
    """Process shards ship exact partial states: int64 columns, and
    Python ints once a group's sum leaves int64."""
    cells = {
        (0, 0, 0): 2**62, (1, 2, 1): 2**62, (2, 1, 0): INT64_MAX,
        (3, 3, 1): INT64_MIN, (0, 1, 1): -(2**53) - 1, (1, 0, 0): 1,
    }
    engine = build_engine((4, 4, 2), (2, 2, 1), cells)
    try:
        for aggregate in AGGREGATES:
            for group_by in ([(0, "g")], [(1, "g"), (2, "k")]):
                query = make_query(group_by, aggregate)
                rows = engine.run(
                    query,
                    ExecutionOptions(backend="array", shards=2, executor="process"),
                    cold=False,
                ).rows
                assert rows == oracle(cells, group_by, aggregate), aggregate
    finally:
        engine.close_shards()
