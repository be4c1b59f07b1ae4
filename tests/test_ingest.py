import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftspec import ingest
from shiftspec.aline import fit_probit_line
from shiftspec.core import InputError
from shiftspec.ingest import (AccuracyTable, TableRow, dump_accuracy_table,
                              leave_one_out_pairs, load_accuracy_table,
                              pairwise_pairs, parse_accuracy_table,
                              save_accuracy_table)


class TestParse:
    def test_two_env_single_row(self):
        table = parse_accuracy_table("model_id,env_0,env_1\nm1,0.9,0.4\n")
        assert table.env_names == ("env_0", "env_1")
        assert len(table.rows) == 1
        assert table.rows[0].accuracies == (0.9, 0.4)

    def test_out_of_range_accuracy_cites_line(self):
        text = "model_id,env_0,env_1\nm1,0.9,0.4\nm2,1.2,0.3\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_accuracy_table(text)

    def test_malformed_cell_cites_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_accuracy_table("model_id,env_0\nm1,banana\n")

    def test_wrong_arity_cites_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_accuracy_table("model_id,env_0,env_1\nm1,0.9\n")

    def test_oversized_field_is_input_error(self):
        text = "model_id,env_0\n" + "m" * 200_000 + ",0.5\n"
        with pytest.raises(InputError, match="malformed table"):
            parse_accuracy_table(text)

    def test_undecodable_file_is_input_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"model_id,env_0\nm\xff,0.5\n")
        with pytest.raises(InputError, match="not UTF-8"):
            load_accuracy_table(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "model_id,env_0,env_1\nm1,0.5,0.25\n"
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert load_accuracy_table(path) == parse_accuracy_table(text)

    def test_duplicate_model_id(self):
        text = "model_id,env_0\nm1,0.5\nm1,0.6\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_accuracy_table(text)

    @pytest.mark.parametrize("header,name", [
        ("model_id,e1,e1", "e1"),
        ("model_id,e1,meta_x,meta_x", "meta_x"),
        ("model_id,model_id,e1", "model_id")])
    def test_duplicate_column(self, header, name):
        cells = ",".join(["m1"] + ["0.5"] * header.count(","))
        with pytest.raises(InputError) as exc:
            parse_accuracy_table(f"{header}\n{cells}\n")
        assert str(exc.value) == f"duplicate column {name!r} in header"

    def test_metadata_columns_preserved(self):
        text = "model_id,env_0,meta_arch\nm1,0.5,resnet18\n"
        table = parse_accuracy_table(text)
        assert table.env_names == ("env_0",)
        assert table.rows[0].metadata == {"meta_arch": "resnet18"}

    def test_round_trip(self, tmp_path):
        text = ("model_id,env_0,env_1,meta_arch\n"
                "m1,0.90000000000000002,0.40000000000000002,vit\n"
                "m2,0.5,0.25,cnn\n")
        table = parse_accuracy_table(text)
        path = tmp_path / "t.csv"
        path.write_text(dump_accuracy_table(table), encoding="utf-8")
        again = load_accuracy_table(path)
        assert again == table

    def test_round_trip_quotes_commas(self):
        table = AccuracyTable(env_names=("env_0", "env,1"),
                              rows=(TableRow("resnet,50", (0.5, 0.25),
                                             {"meta_note": 'a "b", c'}),))
        assert parse_accuracy_table(dump_accuracy_table(table)) == table

    def test_carriage_return_in_cell_survives_the_file(self, tmp_path):
        table = AccuracyTable(env_names=("env_0", "env_1"),
                              rows=(TableRow("x\ry", (0.5, 0.25)),
                                    TableRow("p\r\nq", (0.75, 0.125))))
        path = tmp_path / "t.csv"
        save_accuracy_table(table, path)
        assert load_accuracy_table(path) == table

    def test_crlf_file_reads_like_lf(self, tmp_path):
        text = "model_id,env_0,env_1\nm1,0.5,0.25\nm2,0.75,0.125\n"
        path = tmp_path / "t.csv"
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        assert load_accuracy_table(path) == parse_accuracy_table(text)

    def test_plain_table_is_not_quoted(self):
        table = AccuracyTable(env_names=("env_0", "env_1"),
                              rows=(TableRow("m1", (0.5, 0.25), {"meta_a": "x y"}),))
        assert dump_accuracy_table(table) == ("model_id,env_0,env_1,meta_a\n"
                                              "m1,0.5,0.25,x y\n")


_CELL = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@settings(max_examples=60, deadline=None)
@given(env_names=st.lists(_CELL.filter(lambda s: not s.startswith("meta_")
                                       and s != "model_id"),
                          min_size=1, max_size=3, unique=True),
       meta_names=st.lists(_CELL.map(lambda s: "meta_" + s), max_size=2,
                           unique=True),
       model_ids=st.lists(_CELL, max_size=5, unique=True),
       data=st.data())
def test_dump_parse_round_trip(env_names, meta_names, model_ids, data):
    # every row carries every meta column: dump writes a missing value as ""
    rows = tuple(
        TableRow(model_id,
                 tuple(data.draw(st.lists(st.floats(0.0, 1.0),
                                          min_size=len(env_names),
                                          max_size=len(env_names)))),
                 {k: data.draw(_CELL) for k in meta_names})
        for model_id in model_ids)
    table = AccuracyTable(env_names=tuple(env_names), rows=rows)
    assert parse_accuracy_table(dump_accuracy_table(table)) == table


@pytest.mark.parametrize("env_names, metadata, column", [
    (("model_id",), {}, "model_id"),
    (("env_0", "env_0"), {}, "env_0"),
    (("meta_x",), {}, "meta_x"),
    (("env_0",), {"arch": "vit"}, "arch"),
], ids=["env_model_id", "repeated_env", "meta_env", "unprefixed_meta"])
def test_dump_rejects_a_header_it_cannot_parse_back(env_names, metadata,
                                                    column):
    table = AccuracyTable(env_names=env_names,
                          rows=(TableRow("m1", (0.5,) * len(env_names),
                                         metadata),))
    with pytest.raises(InputError, match=repr(column)):
        dump_accuracy_table(table)


def _reference_parse(text: str) -> AccuracyTable:
    """The row-by-row parser that the column-wise one replaced, kept as the
    reference for which fault a bad table reports, and with what message."""
    try:
        return _reference_rows(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise InputError(f"malformed table: {exc}") from None


def _reference_rows(reader) -> AccuracyTable:
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
    env_names = tuple(h for h in header[1:] if not h.startswith("meta_"))
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
            if name.startswith("meta_"):
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


_FAULTS = ("short_row", "long_row", "duplicate_id", "not_a_number",
           "out_of_range", "nan", "huge_field", "blank_line")
_BAD_NUMBERS = ("banana", "", "0.5.5", "1e", "0x1", "--0.1")
_OUT_OF_RANGE = ("1.5", "-0.25", "inf", "-inf", "1.0000000000000002", "1e300")


def _outcome(parse, text):
    try:
        return parse(text)
    except InputError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(n_envs=st.integers(1, 3), n_meta=st.integers(0, 2),
       n_rows=st.integers(1, 8), data=st.data())
def test_first_fault_matches_row_loop(n_envs, n_meta, n_rows, data):
    header = (["model_id"] + [f"env_{j}" for j in range(n_envs)]
              + [f"meta_{j}" for j in range(n_meta)])
    header[1:] = data.draw(st.permutations(header[1:]))
    accuracy = st.sampled_from(("0", "1", "0.5", "0.25", "1.0", "-0.0", "1e-3",
                                "0.123456789012345678"))
    rows = [[f"m{i}"] + [data.draw(st.text("ab", max_size=3))
                         if h.startswith("meta_") else data.draw(accuracy)
                         for h in header[1:]]
            for i in range(n_rows)]
    lines = [",".join(header)] + [",".join(r) for r in rows]
    for _ in range(data.draw(st.integers(1, 3))):
        fault = data.draw(st.sampled_from(_FAULTS))
        i = data.draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        col = data.draw(st.integers(1, len(cells) - 1)) if len(cells) > 1 else 0
        if fault == "short_row" and len(cells) > 1:
            del cells[col]
        elif fault == "long_row":
            cells.insert(col, "0.5")
        elif fault == "duplicate_id":
            cells[0] = lines[data.draw(st.integers(1, len(lines) - 1))].split(",")[0]
        elif fault == "not_a_number":
            cells[col] = data.draw(st.sampled_from(_BAD_NUMBERS))
        elif fault == "out_of_range":
            cells[col] = data.draw(st.sampled_from(_OUT_OF_RANGE))
        elif fault == "nan":
            cells[col] = data.draw(st.sampled_from(("nan", "NaN", "-nan")))
        elif fault == "huge_field":
            cells[col] = "7" * 200_000
        elif fault == "blank_line":
            lines.insert(i, "")
            continue
        lines[i] = ",".join(cells)
    text = "\n".join(lines) + "\n"
    want = _outcome(_reference_parse, text)
    assert _outcome(parse_accuracy_table, text) == want
    # CRLF line ends send the same records through csv.reader
    assert _outcome(parse_accuracy_table, text.replace("\n", "\r\n")) == want


class TestPlainSplit:
    """A body with no quote, carriage return or NUL is split without
    csv.reader; any other body, and a plain one with a row fault, reaches
    the record loop. Either way the table or message is the row loop's."""

    @staticmethod
    def records_read(monkeypatch, text) -> int:
        want = _outcome(_reference_parse, text)
        reader = ingest.csv.reader
        read = []

        def counting_reader(*args, **kwargs):
            for record in reader(*args, **kwargs):
                read.append(record)
                yield record

        with monkeypatch.context() as patch:
            patch.setattr(ingest.csv, "reader", counting_reader)
            got = _outcome(parse_accuracy_table, text)
        assert got == want
        return len(read)

    def test_plain_table_yields_only_the_header_record(self, monkeypatch):
        text = "model_id,env_0,meta_arch,env_1\n" + "".join(
            f"m{i},{i / 499!r},arch {i % 3},{1 - i / 499!r}\n" for i in range(500))
        assert self.records_read(monkeypatch, text) == 1

    @pytest.mark.parametrize("text", [
        'model_id,env_0,meta_note\nm0,0.5,"a, b"\nm1,0.25,c\n',
        "model_id,env_0\nm0,0.5\n\nm1,0.25\n",
        ("model_id,env_0,meta_a,meta_b\nm0,0.5,{0},{0}\nm1,0.25,x,y\n"
         .format("x" * (csv.field_size_limit() // 2 + 1))),
        "model_id,env_0,meta_a\nm0,0.5,x\nm1,0.25,{}\n".format(
            "x" * (csv.field_size_limit() + 1)),
        "model_id,env_0,meta_a\nm0,0.5,a\0b\nm1,0.25,c\n",
        "model_id,env_0\nm0,0.5\nm0,0.25\n",
        "model_id,env_0,env_1\nm0,0.5,0.5\nm1,0.25\n",
    ], ids=["quoted_comma", "blank_line", "long_line", "huge_field", "nul_cell",
            "duplicate_id", "short_row"])
    def test_other_text_reaches_the_record_loop(self, monkeypatch, text):
        assert self.records_read(monkeypatch, text) > 1


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_plain_table_gives_csv_only_its_header_line(monkeypatch, end):
    header = "model_id,env_0,meta_arch,env_1"
    text = end.join([header] + [f"m{i},{i / 499!r},arch {i % 3},{1 - i / 499!r}"
                                for i in range(500)]) + end
    assert TestPlainSplit.records_read(monkeypatch, text) == 1
    given = []

    def recording(value):
        given.append(value)
        return io.StringIO(value)

    monkeypatch.setattr(ingest, "io", SimpleNamespace(StringIO=recording))
    parse_accuracy_table(text)
    assert given == [header + end]


@pytest.mark.parametrize("text", [
    "model_id,env_0,env_1\r\nm0\nm1,0.5,0.5\r\n",
    "model_id,env_0\r\nm0,0.5\r\nm1,0.25\n",
    "model_id,env_0\r\nm0,0.5\r\n\r\nm1,0.25\r\n",
    "model_id,env_0\nm0,0.5\r\nm1,0.25\r\nm0,0.75\r\n",
], ids=["bare_lf_fits_arity", "bare_lf_at_end", "blank_line", "duplicate_id"])
def test_crlf_body_that_is_not_plain_reaches_the_record_loop(monkeypatch, text):
    assert TestPlainSplit.records_read(monkeypatch, text) > 1


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(0, 5), data=st.data())
def test_any_line_ends_match_row_loop(n_rows, data):
    cell = st.sampled_from(("0.5", "0.25", "a", "", "a\rb"))
    lines = ["model_id,env_0,meta_0"] + [
        f"m{data.draw(st.integers(0, n_rows))},{data.draw(cell)},{data.draw(cell)}"
        for _ in range(n_rows)]
    ends = st.sampled_from(("\n", "\r\n", "\r", "\n\n", "\r\n\r\n"))
    text = "".join(line + data.draw(ends) for line in lines)
    if data.draw(st.booleans()):
        text = text.rstrip("\r\n")
    assert _outcome(parse_accuracy_table, text) == _outcome(_reference_parse, text)


@settings(max_examples=80, deadline=None)
@given(n_envs=st.integers(2, 6), n_rows=st.integers(0, 12), data=st.data())
def test_loo_mean_adds_columns_left_to_right(n_envs, n_rows, data):
    accs = [tuple(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_envs,
                                     max_size=n_envs)))
            for _ in range(n_rows)]
    table = AccuracyTable(tuple(f"e{j}" for j in range(n_envs)),
                          tuple(TableRow(f"m{i}", a) for i, a in enumerate(accs)))
    ood = data.draw(st.integers(0, n_envs - 1))
    for source in (table, parse_accuracy_table(dump_accuracy_table(table))):
        id_acc, ood_acc = leave_one_out_pairs(source, f"e{ood}")
        for row, i, o in zip(accs, id_acc.tolist(), ood_acc.tolist()):
            total = 0.0
            for j, a in enumerate(row):
                if j != ood:
                    total = total + a
            assert i.hex() == (total / (n_envs - 1)).hex()
            assert o.hex() == row[ood].hex()


class TestLazyRows:
    TEXT = ("model_id,env_0,meta_arch,env_1,meta_epoch\n"
            "m1,0.1,vit,-0.0,3\n"
            "m2,0.30000000000000004,cnn,1e-300,7\n"
            "m3,1,vit,0.123456789012345678,9\n")

    def test_parse_builds_no_rows_and_reading_builds_them_once(self, monkeypatch):
        built = []
        init = TableRow.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TableRow, "__init__", counting_init)
        table = parse_accuracy_table(self.TEXT)
        leave_one_out_pairs(table, "env_1")
        assert built == []
        rows = table.rows
        assert len(built) == 3
        assert table.rows is rows
        assert len(built) == 3

    def test_row_accuracies_are_the_columns_bit_for_bit(self):
        table = parse_accuracy_table(self.TEXT)
        for i, row in enumerate(table.rows):
            want = tuple(table.columns[:, i].tolist())
            assert [a.hex() for a in row.accuracies] == [a.hex() for a in want]
        assert table.rows[0].accuracies[1].hex() == "-0x0.0p+0"

    def test_rows_match_the_file(self):
        table = parse_accuracy_table(self.TEXT)
        assert [r.model_id for r in table.rows] == ["m1", "m2", "m3"]
        assert table.rows[1].metadata == {"meta_arch": "cnn", "meta_epoch": "7"}
        assert list(table.rows[1].metadata) == ["meta_arch", "meta_epoch"]

    @pytest.mark.parametrize("text", [TEXT, "model_id,e0\nm1,0.5\nm2,0.25\n"])
    def test_each_row_has_its_own_metadata_dict(self, text):
        rows = parse_accuracy_table(text).rows
        assert len({id(r.metadata) for r in rows}) == len(rows)
        rows[0].metadata["meta_note"] = "x"
        assert "meta_note" not in rows[1].metadata

    def test_table_from_rows_keeps_its_rows(self):
        rows = (TableRow("m1", (0.5, 0.25)),)
        table = AccuracyTable(("e0", "e1"), rows)
        assert table.rows is rows
        assert AccuracyTable(env_names=("e0", "e1"), rows=rows) == table
        assert table.columns.tolist() == [[0.5], [0.25]]

    def test_unknown_env_names_are_quoted(self):
        table = parse_accuracy_table("model_id, e0,e1\nm1,0.5,0.25\n")
        with pytest.raises(InputError) as exc:
            table.env_index("e0")
        assert str(exc.value) == ("unknown environment 'e0'; "
                                  "available: ' e0', 'e1'")


class TestLeaveOneOut:
    def table(self):
        return AccuracyTable(
            env_names=("env_0", "env_1", "env_2"),
            rows=(TableRow("m1", (0.9, 0.8, 0.4)),
                  TableRow("m2", (0.7, 0.6, 0.5))))

    def test_mean_of_rest(self):
        id_acc, ood_acc = leave_one_out_pairs(self.table(), "env_2")
        assert id_acc[0] == pytest.approx(0.85)
        assert ood_acc[0] == 0.4

    def test_two_env_reduces_to_single(self):
        table = AccuracyTable(env_names=("env_0", "env_1"),
                              rows=(TableRow("m1", (0.9, 0.4)),))
        id_acc, _ = leave_one_out_pairs(table, "env_1")
        assert id_acc[0] == 0.9

    def test_permutation_of_id_envs_is_invariant(self):
        base = leave_one_out_pairs(self.table(), "env_2")
        permuted = AccuracyTable(
            env_names=("env_1", "env_0", "env_2"),
            rows=(TableRow("m1", (0.8, 0.9, 0.4)),
                  TableRow("m2", (0.6, 0.7, 0.5))))
        swapped = leave_one_out_pairs(permuted, "env_2")
        for a, b in zip(zip(*base), zip(*swapped)):
            assert a[0] == pytest.approx(b[0], abs=1e-15)
            assert a[1] == b[1]

    def test_unknown_env(self):
        with pytest.raises(ValueError, match="env_9"):
            leave_one_out_pairs(self.table(), "env_9")


class TestPairwise:
    def test_basic(self):
        table = AccuracyTable(env_names=("env_0", "env_1"),
                              rows=(TableRow("m1", (0.9, 0.4)),))
        id_acc, ood_acc = pairwise_pairs(table, "env_0", "env_1")
        assert (id_acc[0], ood_acc[0]) == (0.9, 0.4)

    def test_swapped_arguments(self):
        table = AccuracyTable(env_names=("env_0", "env_1"),
                              rows=(TableRow("m1", (0.9, 0.4)),))
        fwd = [a[0] for a in pairwise_pairs(table, "env_0", "env_1")]
        rev = [a[0] for a in pairwise_pairs(table, "env_1", "env_0")]
        assert (fwd[0], fwd[1]) == (rev[1], rev[0])

    def test_empty_table(self):
        table = AccuracyTable(env_names=("env_0", "env_1"), rows=())
        assert list(zip(*pairwise_pairs(table, "env_0", "env_1"))) == []

    def test_same_env_rejected(self):
        table = AccuracyTable(env_names=("env_0", "env_1"), rows=())
        with pytest.raises(ValueError, match="differ"):
            pairwise_pairs(table, "env_0", "env_0")


def test_fit_invariant_to_row_order():
    rng = np.random.default_rng(0)
    rows = []
    for i in range(40):
        accs = rng.uniform(0.3, 0.95, 3)
        rows.append(TableRow(f"m{i}", tuple(float(a) for a in accs)))
    table = AccuracyTable(env_names=("e0", "e1", "e2"), rows=tuple(rows))
    shuffled = AccuracyTable(env_names=table.env_names,
                             rows=tuple(rng.permutation(np.array(rows, dtype=object)).tolist()))
    fit_a = fit_probit_line(*leave_one_out_pairs(table, "e2"))
    fit_b = fit_probit_line(*leave_one_out_pairs(shuffled, "e2"))
    assert fit_a.slope == pytest.approx(fit_b.slope, abs=1e-12)
    assert fit_a.intercept == pytest.approx(fit_b.intercept, abs=1e-12)
    assert fit_a.pearson_r == pytest.approx(fit_b.pearson_r, abs=1e-12)
