"""Load benchmark accuracy tables and build ID/OOD pairs for auditing.

Tables are CSV with header ``model_id,<env_0>,...,<env_K>[,meta_*...]``:
every non-meta column after model_id is a per-environment accuracy in
[0, 1]. Columns whose names start with ``meta_`` ride along untouched.
Every column name must be unique.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

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


def parse_accuracy_table(text: str) -> AccuracyTable:
    try:
        return _parse_rows(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise InputError(f"malformed table: {exc}") from None


def _parse_rows(reader) -> AccuracyTable:
    try:
        header = next(reader)
    except StopIteration:
        raise InputError("empty table: missing header") from None
    if not header or header[0] != "model_id":
        raise InputError("header must start with model_id")
    names = set()
    for name in header:
        if name in names:
            raise InputError(f"duplicate column {name!r} in header")
        names.add(name)
    env_names = tuple(h for h in header[1:] if not h.startswith(META_PREFIX))
    if not env_names:
        raise InputError("table must have at least one environment column")

    rows = []
    seen = set()
    for line_no, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            raise InputError(f"malformed row at line {line_no}: "
                             f"expected {len(header)} cells, got {len(cells)}")
        model_id = cells[0]
        if model_id in seen:
            raise InputError(f"duplicate model_id {model_id!r} at line {line_no}")
        seen.add(model_id)
        accs = []
        meta = {}
        for name, cell in zip(header[1:], cells[1:]):
            if name.startswith(META_PREFIX):
                meta[name] = cell
                continue
            try:
                value = float(cell)
            except ValueError:
                raise InputError(f"malformed row at line {line_no}: "
                                 f"{cell!r} is not a number") from None
            if not 0.0 <= value <= 1.0:
                raise InputError(f"accuracy out of range at line {line_no}: {value!r}")
            accs.append(value)
        rows.append(TableRow(model_id=model_id, accuracies=tuple(accs),
                             metadata=meta))
    return AccuracyTable(env_names=env_names, rows=tuple(rows))


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


def leave_one_out_pairs(table: AccuracyTable, ood_env: str) -> list[AccuracyPair]:
    """ID is the unweighted mean over all non-OOD environments."""
    ood_idx = table.env_index(ood_env)
    if len(table.env_names) < 2:
        raise InputError("need at least 2 environments for a leave-one-out split")
    pairs = []
    for row in table.rows:
        rest = [a for i, a in enumerate(row.accuracies) if i != ood_idx]
        pairs.append(AccuracyPair(model_id=row.model_id,
                                  id_acc=sum(rest) / len(rest),
                                  ood_acc=row.accuracies[ood_idx]))
    return pairs


def pairwise_pairs(table: AccuracyTable, id_env: str, ood_env: str) -> list[AccuracyPair]:
    if id_env == ood_env:
        raise InputError("id_env and ood_env must differ")
    id_idx = table.env_index(id_env)
    ood_idx = table.env_index(ood_env)
    return [AccuracyPair(model_id=row.model_id,
                         id_acc=row.accuracies[id_idx],
                         ood_acc=row.accuracies[ood_idx])
            for row in table.rows]
