"""Property tests of the CLI's exit codes, fuzzed with hypothesis."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from shiftspec.cli import main
from shiftspec.ingest import AccuracyTable, TableRow, save_accuracy_table


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


# about a quarter to a third of the examples are valid and run the
# bootstrap; the rest exit 2
@settings(max_examples=40, deadline=None)
@given(accs=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                     min_size=1, max_size=40),
       data=st.data(), step=st.integers(1, 30),
       resamples=st.sampled_from([100, 130, 99]),
       rel_tol=st.sampled_from(["0.01", "1e-12", "0.5", "inf", "nan", "0"]),
       confidence=st.sampled_from(["0.95", "0.5", "1", "nan"]),
       seed=st.integers(-3, 3))
def test_mincount_exit_code_contract(accs, data, step, resamples, rel_tol,
                                     confidence, seed):
    start = data.draw(st.integers(1, len(accs) + 1), label="start")
    invalid = (rel_tol in ("inf", "nan", "0") or confidence in ("1", "nan")
               or resamples < 100 or start > len(accs))
    rows = tuple(TableRow(f"m{i}", pair) for i, pair in enumerate(accs))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        out = Path(tmp) / "out"
        save_accuracy_table(AccuracyTable(("e0", "e1"), rows), path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            rc = main(["mincount", "--table", str(path), "--ood-env", "e1",
                       f"--start={start}", f"--step={step}",
                       f"--resamples={resamples}", f"--rel-tol={rel_tol}",
                       f"--confidence={confidence}", f"--seed={seed}",
                       "--out", str(out)])
        text = err.getvalue()
        if invalid:
            assert rc == 2
            assert text.startswith("error: ") and text.count("\n") == 1
        else:
            assert rc == 0
            assert text == ""
            json.loads((out / "mincount_report.json").read_text(encoding="utf-8"),
                       parse_constant=_reject_constant)
