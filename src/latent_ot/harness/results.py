"""Result rows and the deterministic CSV format they serialize to.

Floats are normalized to 12 significant digits the moment a row is built,
so a table survives a write/parse round trip unchanged and two runs of the
same config produce byte-identical files.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from ..errors import InvalidParameterError

CSV_HEADER = "experiment,seed,N,n,m,eps,estimator,metric,value"


def _normalize(value: float, *, allow_inf: bool) -> float:
    value = float(value)
    if math.isnan(value):
        raise InvalidParameterError("row values must not be NaN")
    if math.isinf(value):
        if not allow_inf or value < 0:
            raise InvalidParameterError(f"row value must be finite, got {value}")
        return value
    return float(f"{value:.12g}")


def _format(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.12g}"


@dataclass(frozen=True)
class ResultRow:
    """One measured value: a (cell, estimator, metric) triple and its number.

    ``value`` may be +inf (a divergence against a plan with empty support);
    everything else is finite.  ``eps`` and ``value`` are stored already
    rounded to the 12 significant digits the CSV carries.
    """

    experiment: str
    seed: int
    total: int
    n: int
    m: int
    eps: float
    estimator: str
    metric: str
    value: float

    def __post_init__(self) -> None:
        for name in ("experiment", "estimator", "metric"):
            text = getattr(self, name)
            if not text:
                raise InvalidParameterError(f"row field '{name}' must be nonempty")
            if any(ch in text for ch in ",\n\r\""):
                raise InvalidParameterError(f"row field '{name}' must not contain commas or newlines: {text!r}")
        for name in ("seed", "total", "n", "m"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"row field '{name}' must be nonnegative")
        object.__setattr__(self, "eps", _normalize(self.eps, allow_inf=False))
        object.__setattr__(self, "value", _normalize(self.value, allow_inf=True))

    @property
    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.experiment, self.total, self.seed, self.estimator, self.metric)

    def to_csv_line(self) -> str:
        return ",".join(
            (
                self.experiment,
                str(self.seed),
                str(self.total),
                str(self.n),
                str(self.m),
                _format(self.eps),
                self.estimator,
                self.metric,
                _format(self.value),
            )
        )


@dataclass(frozen=True)
class ResultTable:
    """An immutable, canonically sorted collection of rows.

    Rows are sorted by (experiment, N, seed, estimator, metric) on
    construction and that key must be unique, so equal tables serialize to
    equal bytes.
    """

    rows: tuple[ResultRow, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.rows, key=lambda row: row.sort_key))
        for before, row in zip(ordered, ordered[1:]):
            if before.sort_key == row.sort_key:
                raise InvalidParameterError(f"duplicate row key {row.sort_key}")
        object.__setattr__(self, "rows", ordered)

    def __len__(self) -> int:
        return len(self.rows)

    def estimators_for(self, metric: str) -> tuple[str, ...]:
        return tuple(sorted({row.estimator for row in self.rows if row.metric == metric}))

    def values(self, metric: str, estimator: str, total: int) -> list[float]:
        return [
            row.value
            for row in self.rows
            if row.metric == metric and row.estimator == estimator and row.total == total
        ]

    def median_series(self, metric: str, estimator: str) -> list[tuple[int, float]]:
        """Per-N medians across seeds, ascending in N; skips empty cells."""
        totals = sorted({row.total for row in self.rows if row.metric == metric and row.estimator == estimator})
        series = []
        for total in totals:
            cell = self.values(metric, estimator, total)
            if cell:
                series.append((total, statistics.median(cell)))
        return series


def table_to_csv_text(table: ResultTable) -> str:
    lines = [CSV_HEADER]
    lines.extend(row.to_csv_line() for row in table.rows)
    return "\n".join(lines) + "\n"


def emit_csv(table: ResultTable, path: str | Path) -> None:
    """Write the table; newline and float formatting are platform-independent."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(table_to_csv_text(table))


def parse_csv(path: str | Path) -> ResultTable:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidParameterError(f"cannot read results {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidParameterError(f"{path}: first line must be '{CSV_HEADER}'")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            raise InvalidParameterError(f"{path}:{number}: blank line inside table")
        parts = line.split(",")
        if len(parts) != 9:
            raise InvalidParameterError(f"{path}:{number}: expected 9 fields, got {len(parts)}")
        experiment, seed, total, n, m, eps, estimator, metric, value = parts
        try:
            row = ResultRow(
                experiment=experiment,
                seed=int(seed),
                total=int(total),
                n=int(n),
                m=int(m),
                eps=float(eps),
                estimator=estimator,
                metric=metric,
                value=float(value),
            )
        except ValueError as exc:
            raise InvalidParameterError(f"{path}:{number}: {exc}") from exc
        rows.append(row)
    return ResultTable(rows=tuple(rows))
