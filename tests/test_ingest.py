import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
@given(env_names=st.lists(_CELL.filter(lambda s: not s.startswith("meta_")),
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


class TestLeaveOneOut:
    def table(self):
        return AccuracyTable(
            env_names=("env_0", "env_1", "env_2"),
            rows=(TableRow("m1", (0.9, 0.8, 0.4)),
                  TableRow("m2", (0.7, 0.6, 0.5))))

    def test_mean_of_rest(self):
        pairs = leave_one_out_pairs(self.table(), "env_2")
        assert pairs[0].id_acc == pytest.approx(0.85)
        assert pairs[0].ood_acc == 0.4

    def test_two_env_reduces_to_single(self):
        table = AccuracyTable(env_names=("env_0", "env_1"),
                              rows=(TableRow("m1", (0.9, 0.4)),))
        pairs = leave_one_out_pairs(table, "env_1")
        assert pairs[0].id_acc == 0.9

    def test_permutation_of_id_envs_is_invariant(self):
        base = leave_one_out_pairs(self.table(), "env_2")
        permuted = AccuracyTable(
            env_names=("env_1", "env_0", "env_2"),
            rows=(TableRow("m1", (0.8, 0.9, 0.4)),
                  TableRow("m2", (0.6, 0.7, 0.5))))
        swapped = leave_one_out_pairs(permuted, "env_2")
        for a, b in zip(base, swapped):
            assert a.id_acc == pytest.approx(b.id_acc, abs=1e-15)
            assert a.ood_acc == b.ood_acc

    def test_unknown_env(self):
        with pytest.raises(ValueError, match="env_9"):
            leave_one_out_pairs(self.table(), "env_9")


class TestPairwise:
    def test_basic(self):
        table = AccuracyTable(env_names=("env_0", "env_1"),
                              rows=(TableRow("m1", (0.9, 0.4)),))
        pairs = pairwise_pairs(table, "env_0", "env_1")
        assert (pairs[0].id_acc, pairs[0].ood_acc) == (0.9, 0.4)

    def test_swapped_arguments(self):
        table = AccuracyTable(env_names=("env_0", "env_1"),
                              rows=(TableRow("m1", (0.9, 0.4)),))
        fwd = pairwise_pairs(table, "env_0", "env_1")[0]
        rev = pairwise_pairs(table, "env_1", "env_0")[0]
        assert (fwd.id_acc, fwd.ood_acc) == (rev.ood_acc, rev.id_acc)

    def test_empty_table(self):
        table = AccuracyTable(env_names=("env_0", "env_1"), rows=())
        assert pairwise_pairs(table, "env_0", "env_1") == []

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
    fit_a = fit_probit_line(leave_one_out_pairs(table, "e2"))
    fit_b = fit_probit_line(leave_one_out_pairs(shuffled, "e2"))
    assert fit_a.slope == pytest.approx(fit_b.slope, abs=1e-12)
    assert fit_a.intercept == pytest.approx(fit_b.intercept, abs=1e-12)
    assert fit_a.pearson_r == pytest.approx(fit_b.pearson_r, abs=1e-12)
