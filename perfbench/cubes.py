"""Data Set 1 at medium scale: seeded generation, loading, query specs.

Every workload uses the paper's Data Set 1 at medium scale
(20×20×20×{50,100,1000}, 80 000 valid cells, 40/80/800 chunks, 1 KiB
pages, 2 MiB buffer pool).  The benchmark seed replaces the
generator's seed, so the valid cells and measures are the seed's; the
program receives only the generated rows.  Engines are volatile (no
WAL): a medium cube cannot be loaded under a WAL yet (see
``storage.durable_load_ok`` in the README).
"""

from __future__ import annotations

import dataclasses
import random
import time

from perfbench.oracle import FactOracle, Spec

SCALE = "medium"
#: the x50, x100 and x1000 cubes, in the generator's order
CUBE_INDEXES = (0, 1, 2)
X100 = 1
X1000 = 2
NDIM = 4


def cube_configs(seed: int):
    from repro.data.datasets import dataset1

    return [
        dataclasses.replace(config, seed=seed) for config in dataset1(SCALE)
    ]


def settings():
    from repro.bench.harness import bench_settings

    return bench_settings(SCALE)


@dataclasses.dataclass
class Generated:
    config: object
    dim_rows: dict
    facts: list

    def oracle(self) -> FactOracle:
        dims = [self.dim_rows[f"dim{d}"] for d in range(NDIM)]
        levels = [(f"d{d}", f"h{d}1", f"h{d}2") for d in range(NDIM)]
        return FactOracle(dims, levels, self.facts)


def generate(config) -> Generated:
    from repro.data.generator import generate_dimension_rows, generate_fact_rows

    return Generated(
        config, generate_dimension_rows(config), generate_fact_rows(config)
    )


def new_engine():
    from repro.olap.engine import OlapEngine

    bench = settings()
    return OlapEngine(
        page_size=bench.page_size,
        pool_bytes=bench.pool_bytes,
        disk_model=bench.disk_model,
    )


def load(engine, data: Generated) -> None:
    """Load one cube the way ``repro.bench.harness.build_cube_engine``
    does (array + relational designs, hX1 bitmap indexes)."""
    from repro.data.generator import cube_schema_for

    config = data.config
    engine.load_cube(
        cube_schema_for(config),
        data.dim_rows,
        data.facts,
        chunk_shape=config.chunk_shape,
        codec="chunk-offset",
        backends=("array", "relational"),
        bitmap_attrs=[(f"dim{d}", f"h{d}1") for d in range(config.ndim)],
    )


class SetupClock:
    """Accumulates the set-up phases reported as ``setup.*``."""

    def __init__(self) -> None:
        self.phases = {"generate": 0.0, "load": 0.0, "warmup": 0.0}

    def timed(self, phase: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.phases[phase] += time.perf_counter() - start


# -- query specs -----------------------------------------------------------------


def h1_values(rng: random.Random, count: int) -> tuple:
    return tuple(sorted(rng.sample([f"AA{i}" for i in range(10)], count)))


def q1() -> Spec:
    return Spec(group=tuple((d, f"h{d}1") for d in range(NDIM)))


def q2(rng: random.Random, per_dim: int) -> Spec:
    """Query 2 with an hX1 IN-list of ``per_dim`` values on every
    dimension: S ≈ (per_dim / 10)^4."""
    return Spec(
        group=tuple((d, f"h{d}1") for d in range(NDIM)),
        cuts=tuple(
            (d, f"h{d}1", h1_values(rng, per_dim), None, None)
            for d in range(NDIM)
        ),
    )


def q3(rng: random.Random) -> Spec:
    return Spec(
        group=tuple((d, f"h{d}1") for d in range(3)),
        cuts=tuple((d, f"h{d}1", h1_values(rng, 1), None, None) for d in range(3)),
    )


def paper_set(rng: random.Random) -> list[Spec]:
    """One cube's round: Q1, Q3, and Q2 at 1, 2 and 5 values per
    dimension (S ≈ 1e-4, 1.6e-3, 6.25e-2: both sides of the planner's
    array/bitmap crossover)."""
    return [q1(), q3(rng)] + [q2(rng, n) for n in (1, 2, 5)]


def to_query(cube_name: str, spec: Spec):
    from repro.olap.query import ConsolidationQuery, SelectionPredicate

    selections = []
    for d, level, values, low, high in spec.cuts:
        if values:
            selections.append(SelectionPredicate.in_list(f"dim{d}", level, *values))
        else:
            selections.append(
                SelectionPredicate.between(f"dim{d}", level, low, high)
            )
    return ConsolidationQuery.build(
        cube_name,
        group_by={f"dim{d}": level for d, level in spec.group},
        selections=selections,
        aggregate=spec.aggregate,
    )


def durable_load_ok(seed: int) -> float:
    """1 when the medium x100 cube loads under a file-backed WAL, else 0.

    The load commits once at the end; that no-steal transaction is
    larger than the 2 MiB pool, so on the current program it fails
    with ``BufferPoolError: no evictable frame``.
    """
    import tempfile

    from repro.bench.harness import build_cube_engine
    from repro.errors import ReproError

    config = cube_configs(seed)[X100]
    with tempfile.TemporaryDirectory(prefix="durable-") as wal_dir:
        try:
            engine = build_cube_engine(config, settings(), wal_dir=wal_dir)
        except ReproError:
            return 0.0
        engine.db.close()
    return 1.0
