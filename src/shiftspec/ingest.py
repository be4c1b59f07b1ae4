"""Load benchmark accuracy tables and build ID/OOD splits for auditing.

Tables are CSV with header ``model_id,<env_0>,...,<env_K>[,meta_*...]``:
every non-meta column after model_id is a per-environment accuracy in
[0, 1]. Columns whose names start with ``meta_`` ride along untouched.
Every column name must be unique.

The parse is column-wise. The header is read by ``csv.reader``; only a
quote lets a record span lines, so a text without one gives it just its
first line. The body of such a text is split on its line end ("\r\n" if
it holds a carriage return, else "\n"), then on commas into one flat cell
list, each column a stride of it: without quotes ``csv.reader`` yields
exactly ``line.split(",")`` for each line that holds no other line break.
That split stands only if no cell keeps a carriage return, newline or NUL
(so the body does not mix line ends, and NUL is left to csv, which rejects
it on Python 3.10), every line has the header's arity (so none is blank
but a final one), none is longer than ``csv.field_size_limit()`` and no
model_id repeats. Any other body is read by one loop over the CSV records,
which checks each row's arity and model_id and is the only code that words
a row fault. Either way each environment column is then converted with
``map(float, ...)`` and range-checked as one ``(n_envs, n_models)`` matrix,
which the table keeps as ``AccuracyTable.columns`` for the split builders.
A faulty table reports the first fault in file order, with its line: the
record loop stops at the first arity, duplicate-id or CSV fault, and a bad
cell in an earlier row takes precedence over it.

A parsed table holds only columns: that matrix, the model ids and the
``meta_*`` cells. Its ``rows`` are built from them on first read and then
cached; a table built from rows keeps the rows it was given.

A split is two equal-length float64 arrays ``(id_acc, ood_acc)`` in row
order, which the ``aline`` functions take as they are.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import InputError, read_input_text

META_PREFIX = "meta_"


@dataclass(frozen=True)
class TableRow:
    model_id: str
    accuracies: tuple[float, ...]
    metadata: dict = field(default_factory=dict)


class AccuracyTable:
    """Per-model accuracies on named environments: ``AccuracyTable(env_names,
    rows)``. Two tables are equal when their env names and rows are."""

    def __init__(self, env_names: tuple[str, ...], rows: tuple[TableRow, ...]):
        self.env_names = env_names
        self.rows = rows  # seeds the cached property

    @classmethod
    def _from_columns(cls, env_names: tuple[str, ...], columns: np.ndarray,
                      model_ids: tuple[str, ...],
                      meta: dict[str, tuple[str, ...]]) -> AccuracyTable:
        """A table whose rows are built from these columns on first read;
        ``meta`` maps each ``meta_*`` name to its cells in row order."""
        table = cls.__new__(cls)
        table.env_names = env_names
        table.columns = columns
        table._model_ids = model_ids
        table._meta = meta
        return table

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.env_names, self.rows) == (other.env_names, other.rows)

    def __repr__(self) -> str:
        return f"AccuracyTable(env_names={self.env_names!r}, rows={self.rows!r})"

    def env_index(self, env: str) -> int:
        try:
            return self.env_names.index(env)
        except ValueError:
            raise InputError(f"unknown environment {env!r}; available: "
                             f"{', '.join(map(repr, self.env_names))}") from None

    @cached_property
    def rows(self) -> tuple[TableRow, ...]:
        """One TableRow per model, each with its own metadata dict."""
        names = tuple(self._meta)
        return tuple(TableRow(model_id, accs, dict(zip(names, cells)))
                     for (model_id, *cells), accs
                     in zip(zip(self._model_ids, *self._meta.values()),
                            zip(*self.columns.tolist())))

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


def _split_plain(body: str, width: int):
    """``(columns, line_nos, None)`` of a body with no quote, or None where
    the record loop must read it."""
    lines = body.split("\r\n" if "\r" in body else "\n")
    if lines[-1] == "":
        lines.pop()
    # a blank line has no comma (width >= 2), so it fails the arity check
    if (not set(map(str.count, lines, repeat(","))) <= {width - 1}
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        return None
    joined = ",".join(lines)
    # a line break left in a cell means mixed line ends; a NUL is csv's
    if any(c in joined for c in "\r\n\0"):
        return None
    cells = joined.split(",") if lines else []
    if len(set(cells[::width])) != len(lines):
        return None
    return ([cells[k::width] for k in range(width)],
            range(2, len(lines) + 2), None)


def _read_records(reader, width: int):
    """``(columns, line_nos, fault)`` of the records up to the first
    row-level fault; that fault is raised only if no cell before it is bad."""
    records = []
    line_nos = []
    seen = set()
    fault = None
    try:
        for line_no, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != width:
                fault = InputError(f"malformed row at line {line_no}: "
                                   f"expected {width} cells, got {len(cells)}")
                break
            if cells[0] in seen:
                fault = InputError(f"duplicate model_id {cells[0]!r} at line {line_no}")
                break
            seen.add(cells[0])
            records.append(cells)
            line_nos.append(line_no)
    except csv.Error as exc:
        fault = InputError(f"malformed table: {exc}")
    return list(zip(*records)) or [()] * width, line_nos, fault


def parse_accuracy_table(text: str) -> AccuracyTable:
    quoted = '"' in text
    first, newline, body = text.partition("\n")
    reader = csv.reader(io.StringIO(text if quoted else first + newline))
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

    if quoted:
        text_columns, line_nos, fault = _read_records(reader, len(header))
    else:
        text_columns, line_nos, fault = (
            _split_plain(body, len(header))
            or _read_records(csv.reader(io.StringIO(body)), len(header)))

    values = [_float_column(text_columns[k]) for k in env_cols]
    acc = np.array(values, dtype=np.float64).reshape(len(env_cols), len(line_nos))
    ok = (acc >= 0.0) & (acc <= 1.0)
    if not ok.all():
        row, env = np.argwhere(~ok.T)[0]
        cell = text_columns[env_cols[env]][row]
        try:
            value = float(cell)
        except ValueError:
            raise InputError(f"malformed row at line {line_nos[row]}: "
                             f"{cell!r} is not a number") from None
        raise InputError(f"accuracy out of range at line {line_nos[row]}: {value!r}")
    if fault is not None:
        raise fault

    acc.setflags(write=False)
    return AccuracyTable._from_columns(
        tuple(header[k] for k in env_cols), acc, tuple(text_columns[0]),
        {h: tuple(text_columns[k]) for k, h in meta_cols})


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
    when it holds a comma, a quote or a line break, and a column name that
    would not read back is an InputError naming it."""
    meta_names = sorted({k for row in table.rows for k in row.metadata})
    header = ["model_id", *table.env_names, *meta_names]
    for name in header[1:]:
        if (header.count(name) > 1
                or name.startswith(META_PREFIX) != (name in meta_names)):
            raise InputError(f"column {name!r} would not read back (names must "
                             f"be unique, and start with {META_PREFIX!r} iff metadata)")
    lines = [",".join(map(_csv_cell, header))]
    for row in table.rows:
        cells = [_csv_cell(row.model_id)]
        cells += [f"{v:.17g}" for v in row.accuracies]
        cells += [_csv_cell(row.metadata.get(k, "")) for k in meta_names]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_accuracy_table(table: AccuracyTable, path: str | Path) -> None:
    Path(path).write_text(dump_accuracy_table(table), encoding="utf-8")


def leave_one_out_pairs(table: AccuracyTable,
                        ood_env: str) -> tuple[np.ndarray, np.ndarray]:
    """``(id_acc, ood_acc)``, where ID is the unweighted mean over all
    non-OOD environments.

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
    return total / (len(acc) - 1), acc[ood_idx]


def pairwise_pairs(table: AccuracyTable, id_env: str,
                   ood_env: str) -> tuple[np.ndarray, np.ndarray]:
    """``(id_acc, ood_acc)``: the two named columns, read-only views."""
    if id_env == ood_env:
        raise InputError("id_env and ood_env must differ")
    id_idx = table.env_index(id_env)
    ood_idx = table.env_index(ood_env)
    return table.columns[id_idx], table.columns[ood_idx]
