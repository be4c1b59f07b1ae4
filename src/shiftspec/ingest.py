"""Load benchmark accuracy tables and build ID/OOD pairs for auditing.

Tables are CSV with header ``model_id,<env_0>,...,<env_K>[,meta_*...]``:
every non-meta column after model_id is a per-environment accuracy in
[0, 1]. Columns whose names start with ``meta_`` ride along untouched.
Every column name must be unique.

The parse is column-wise. One loop over the CSV records checks only each
row's arity and model_id; each environment column is then converted with
``map(float, ...)`` and range-checked as one ``(n_envs, n_models)`` matrix,
which the table keeps as ``AccuracyTable.columns`` for the pair builders.
A faulty table reports the first fault in file order, with its line: the
record loop stops at the first arity, duplicate-id or CSV fault, and a bad
cell in an earlier row takes precedence over it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .aline import AccuracyPair
from .core import InputError, read_input_text

META_PREFIX = "meta_"


@dataclass(frozen=True)
class TableRow:
    model_id: str
    accuracies: tuple[float, ...]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AccuracyTable:
    env_names: tuple[str, ...]
    rows: tuple[TableRow, ...]

    def env_index(self, env: str) -> int:
        try:
            return self.env_names.index(env)
        except ValueError:
            raise InputError(f"unknown environment {env!r}; "
                             f"available: {', '.join(self.env_names)}") from None

    @cached_property
    def columns(self) -> np.ndarray:
        """Read-only ``(n_envs, n_models)`` accuracies, one row per env."""
        acc = np.array([row.accuracies for row in self.rows], dtype=np.float64)
        acc = acc.reshape(len(self.rows), len(self.env_names)).T
        acc.setflags(write=False)
        return acc


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return np.nan


def _float_column(cells) -> list[float]:
    try:
        return list(map(float, cells))
    except ValueError:
        # a cell that is not a number reads as nan, which the range check
        # then reports at its own row and column
        return [_float_or_nan(c) for c in cells]


def parse_accuracy_table(text: str) -> AccuracyTable:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty table: missing header") from None
    except csv.Error as exc:
        raise InputError(f"malformed table: {exc}") from None
    if not header or header[0] != "model_id":
        raise InputError("header must start with model_id")
    names = set()
    for name in header:
        if name in names:
            raise InputError(f"duplicate column {name!r} in header")
        names.add(name)
    env_cols = [k for k, h in enumerate(header) if k and not h.startswith(META_PREFIX)]
    meta_cols = [(k, h) for k, h in enumerate(header) if k and h.startswith(META_PREFIX)]
    if not env_cols:
        raise InputError("table must have at least one environment column")

    # Records up to the first row-level fault; that fault is raised only if
    # no cell before it is bad.
    records = []
    line_nos = []
    seen = set()
    fault = None
    try:
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(header):
                fault = InputError(f"malformed row at line {line_no}: "
                                   f"expected {len(header)} cells, got {len(cells)}")
                break
            if cells[0] in seen:
                fault = InputError(f"duplicate model_id {cells[0]!r} at line {line_no}")
                break
            seen.add(cells[0])
            records.append(cells)
            line_nos.append(line_no)
    except csv.Error as exc:
        fault = InputError(f"malformed table: {exc}")

    text_columns = list(zip(*records)) or [()] * len(header)
    values = [_float_column(text_columns[k]) for k in env_cols]
    acc = np.array(values, dtype=np.float64).reshape(len(env_cols), len(records))
    ok = (acc >= 0.0) & (acc <= 1.0)
    if not ok.all():
        row, env = np.argwhere(~ok.T)[0]
        cell = records[row][env_cols[env]]
        try:
            value = float(cell)
        except ValueError:
            raise InputError(f"malformed row at line {line_nos[row]}: "
                             f"{cell!r} is not a number") from None
        raise InputError(f"accuracy out of range at line {line_nos[row]}: {value!r}")
    if fault is not None:
        raise fault

    rows = tuple(TableRow(cells[0], accs, {h: cells[k] for k, h in meta_cols})
                 for cells, accs in zip(records, zip(*values)))
    table = AccuracyTable(env_names=tuple(header[k] for k in env_cols), rows=rows)
    acc.setflags(write=False)
    table.__dict__["columns"] = acc  # seeds the cached property
    return table


def load_accuracy_table(path: str | Path) -> AccuracyTable:
    return parse_accuracy_table(read_input_text(path))


def _csv_cell(text: str) -> str:
    # csv.writer with lineterminator="\n" leaves a lone "\r" unquoted,
    # which csv.reader then rejects, so cells are quoted here
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def dump_accuracy_table(table: AccuracyTable) -> str:
    """CSV text that parse_accuracy_table reads back; a cell is quoted only
    when it holds a comma, a quote or a line break."""
    meta_names = sorted({k for row in table.rows for k in row.metadata})
    header = ["model_id", *table.env_names, *meta_names]
    lines = [",".join(map(_csv_cell, header))]
    for row in table.rows:
        cells = [_csv_cell(row.model_id)]
        cells += [f"{v:.17g}" for v in row.accuracies]
        cells += [_csv_cell(row.metadata.get(k, "")) for k in meta_names]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_accuracy_table(table: AccuracyTable, path: str | Path) -> None:
    Path(path).write_text(dump_accuracy_table(table), encoding="utf-8")


def _pairs(table: AccuracyTable, ids: np.ndarray,
           oods: np.ndarray) -> list[AccuracyPair]:
    return [AccuracyPair(model_id=row.model_id, id_acc=i, ood_acc=o)
            for row, i, o in zip(table.rows, ids.tolist(), oods.tolist())]


def leave_one_out_pairs(table: AccuracyTable, ood_env: str) -> list[AccuracyPair]:
    """ID is the unweighted mean over all non-OOD environments.

    The columns are added left to right from 0.0 and the total divided by
    their count, as ``sum(rest) / len(rest)`` does per row on Python 3.11.
    """
    ood_idx = table.env_index(ood_env)
    if len(table.env_names) < 2:
        raise InputError("need at least 2 environments for a leave-one-out split")
    acc = table.columns
    total = 0.0
    for j, column in enumerate(acc):
        if j != ood_idx:
            total = total + column
    return _pairs(table, total / (len(acc) - 1), acc[ood_idx])


def pairwise_pairs(table: AccuracyTable, id_env: str, ood_env: str) -> list[AccuracyPair]:
    if id_env == ood_env:
        raise InputError("id_env and ood_env must differ")
    id_idx = table.env_index(id_env)
    ood_idx = table.env_index(ood_env)
    return _pairs(table, table.columns[id_idx], table.columns[ood_idx])
