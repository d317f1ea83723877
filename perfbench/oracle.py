"""Raw fact-row oracle: answers computed from the generated facts alone.

The oracle never touches the engine, its indexes or its caches: it
takes the fact tuples and dimension rows the generator produced, keeps
its own shadow copy of the measures (so cell overwrites can be applied
to it), and aggregates with numpy.  Every workload checks the program's
answers against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spec:
    """One aggregate query in program-independent form.

    ``group`` lists ``(dimension index, level)`` pairs in output order;
    ``cuts`` lists ``(dimension index, level, values, low, high)`` —
    an in-list when ``values`` is non-empty, else an inclusive range.
    """

    group: tuple[tuple[int, str], ...]
    cuts: tuple[tuple[int, str, tuple, object, object], ...] = ()
    aggregate: str = "sum"


def _cut_matches(cut, value) -> bool:
    _, _, values, low, high = cut
    if values:
        return value in values
    if low is not None and value < low:
        return False
    if high is not None and value > high:
        return False
    return True


class FactOracle:
    """Aggregates over one cube's raw fact rows (see module docstring).

    ``dim_rows[d]`` are the generator's ``(key, h1, h2)`` rows of
    dimension ``d``; ``levels[d]`` names their columns (``dX``,
    ``hX1``, ``hX2``).
    """

    def __init__(self, dim_rows: list[list[tuple]], levels: list[tuple], facts):
        self.levels = [tuple(names) for names in levels]
        self._values: list[dict[str, list]] = []
        for rows, names in zip(dim_rows, self.levels):
            by_key = sorted(rows)
            if [row[0] for row in by_key] != list(range(len(by_key))):
                raise ValueError("dimension keys must be 0..n-1")
            self._values.append(
                {name: [row[i] for row in by_key] for i, name in enumerate(names)}
            )
        ndim = len(self.levels)
        array = np.asarray(facts, dtype=np.int64)
        self.coords = array[:, :ndim].copy()
        self.measure = array[:, ndim].copy()
        self._index = {
            tuple(row): i for i, row in enumerate(self.coords.tolist())
        }
        self._codes: dict[tuple[int, str], tuple[np.ndarray, list]] = {}

    def cell_count(self) -> int:
        return len(self.measure)

    def cell(self, i: int) -> tuple[tuple, int]:
        return tuple(self.coords[i].tolist()), int(self.measure[i])

    def write(self, keys: tuple, value: int) -> None:
        """Overwrite an existing cell's measure in the shadow copy."""
        self.measure[self._index[tuple(keys)]] = value

    def _level_codes(self, d: int, level: str) -> tuple[np.ndarray, list]:
        """Per-key integer codes of one level plus the code→value list."""
        cached = self._codes.get((d, level))
        if cached is None:
            values = self._values[d][level]
            distinct = sorted(set(values))
            position = {v: i for i, v in enumerate(distinct)}
            codes = np.array([position[v] for v in values], dtype=np.int64)
            cached = (codes, distinct)
            self._codes[(d, level)] = cached
        return cached

    def _mask(self, spec: Spec) -> np.ndarray:
        mask = np.ones(len(self.measure), dtype=bool)
        for cut in spec.cuts:
            d, level = cut[0], cut[1]
            allowed = np.array(
                [_cut_matches(cut, v) for v in self._values[d][level]],
                dtype=bool,
            )
            mask &= allowed[self.coords[:, d]]
        return mask

    def answer(self, spec: Spec) -> dict[tuple, float]:
        """``{group values: aggregate}`` over the rows the cuts admit."""
        mask = self._mask(spec)
        coords = self.coords[mask]
        measure = self.measure[mask]
        shape, per_row, distincts = [], [], []
        for d, level in spec.group:
            codes, distinct = self._level_codes(d, level)
            shape.append(len(distinct))
            per_row.append(codes[coords[:, d]])
            distincts.append(distinct)
        linear = (
            np.ravel_multi_index(per_row, shape)
            if per_row
            else np.zeros(len(measure), dtype=np.int64)
        )
        cells, inverse = np.unique(linear, return_inverse=True)
        counts = np.bincount(inverse, minlength=len(cells))
        agg = spec.aggregate
        if agg in ("sum", "avg"):
            out = np.zeros(len(cells), dtype=np.int64)
            np.add.at(out, inverse, measure)
            values = out / counts if agg == "avg" else out
        elif agg == "count":
            values = counts
        elif agg == "min":
            values = np.full(len(cells), np.iinfo(np.int64).max)
            np.minimum.at(values, inverse, measure)
        elif agg == "max":
            values = np.full(len(cells), np.iinfo(np.int64).min)
            np.maximum.at(values, inverse, measure)
        else:
            raise ValueError(f"oracle has no aggregate {agg!r}")
        unravelled = (
            np.unravel_index(cells, shape) if shape else [[] for _ in cells]
        )
        result = {}
        for i, value in enumerate(values.tolist()):
            key = tuple(
                distincts[g][int(unravelled[g][i])] for g in range(len(shape))
            )
            result[key] = value
        return result

    def group_keys(self, spec: Spec) -> set[tuple]:
        return set(self.answer(spec))


def _same_value(got, want, aggregate: str) -> bool:
    if aggregate == "avg":
        return abs(float(got) - float(want)) <= 1e-9 * max(1.0, abs(float(want)))
    return float(got) == float(want)


def _norm_key(values) -> tuple:
    return tuple(v.item() if hasattr(v, "item") else v for v in values)


def compare_rows(rows, want: dict[tuple, float], aggregate: str) -> str | None:
    """``None`` when ``rows`` (group values…, aggregate) equal ``want``,
    else a short description of the first difference."""
    got = {}
    for row in rows:
        key = _norm_key(row[:-1])
        if key in got:
            return f"duplicate group {key}"
        got[key] = row[-1]
    if got.keys() != want.keys():
        extra = sorted(got.keys() - want.keys())[:3]
        missing = sorted(want.keys() - got.keys())[:3]
        return (
            f"group sets differ ({len(got)} vs {len(want)}): "
            f"extra {extra}, missing {missing}"
        )
    for key, value in want.items():
        if not _same_value(got[key], value, aggregate):
            return f"group {key}: got {got[key]!r}, want {value!r}"
    return None


def compare_keys(rows, want: set[tuple]) -> str | None:
    """``None`` when ``rows``' group values are exactly ``want``."""
    got = [_norm_key(row[:-1]) for row in rows]
    if len(got) != len(set(got)):
        return "duplicate groups"
    if set(got) != want:
        return f"group sets differ ({len(got)} vs {len(want)})"
    return None
