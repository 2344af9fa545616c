import contextlib
import io
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streammatch import cli
from streammatch.cli import main
from streammatch.exact import Matching
from streammatch.trials import MODELS, make_matcher


def _gen_file(tmp_path, args):
    out = tmp_path / "stream.txt"
    assert main(["gen", *args, "--out", str(out)]) == 0
    return out


def _with_queries(path, every):
    """Add a query after the header and after every ``every``-th edge record."""
    lines, edges = [], 0
    for line in path.read_text().splitlines():
        lines.append(line)
        if line.startswith("H"):
            lines.append("Q")
        elif line[:1] in ("I", "D"):
            edges += 1
            if edges % every == 0:
                lines.append("Q")
    path.write_text("\n".join(lines) + "\n")
    return path


GOLDEN_DYNAMIC = """\
query 1: no k-matching
query 2: weight=9 edges: (0,2,7) (6,10,2)
query 3: weight=13 edges: (0,2,7) (5,10,6)
query 4: weight=13 edges: (0,2,7) (5,10,6)
query 5: weight=13 edges: (0,2,7) (5,10,6)
stats: bank=2304 touched_per_update=144 weight_classes=5 delta=0.00225
"""

GOLDEN_APPROX = """\
query 1: no k-matching
query 2: weight=9.54384 edges: (0,2,7.40025) (6,10,2.14359)
query 3: weight=13.5162 edges: (0,2,7.40025) (5,10,6.11591)
query 4: weight=13.5162 edges: (0,2,7.40025) (5,10,6.11591)
query 5: weight=13.5162 edges: (0,2,7.40025) (5,10,6.11591)
stats: bank=2304 touched_per_update=144 weight_classes=5 delta=0.00225
"""

GOLDEN_INSERT = """\
query 1: no k-matching
query 2: weight=3 edges: (7,11,3)
query 3: weight=3 edges: (7,11,3)
query 4: weight=6 edges: (5,8,6)
query 5: weight=6 edges: (5,8,6)
query 6: weight=6 edges: (5,8,6)
stats copy 0: max_update_ops=34 max_stored_edges=36 budget=31 window=15
stats copy 1: max_update_ops=34 max_stored_edges=35 budget=31 window=15
stats copy 2: max_update_ops=34 max_stored_edges=36 budget=31 window=15
stats copy 3: max_update_ops=35 max_stored_edges=37 budget=31 window=15
"""


def test_run_golden_outputs(tmp_path, capsys):
    dyn = _with_queries(_gen_file(tmp_path, ["--n", "12", "--k", "2", "--weights", "3",
                                             "--m", "24", "--del-rate", "0.5", "--seed", "7"]), 8)
    runs = [
        (["--model", "dynamic"], dyn, GOLDEN_DYNAMIC),
        (["--model", "dynamic-approx", "--epsilon", "0.1"], dyn, GOLDEN_APPROX),
    ]
    for model_args, path, expected in runs:
        assert main(["run", *model_args, "--seed", "3", "--stats", str(path)]) == 0
        assert capsys.readouterr().out == expected
    ins = _with_queries(_gen_file(tmp_path, ["--n", "12", "--k", "1", "--weights", "3",
                                             "--m", "40", "--seed", "7", "--model", "insert"]), 10)
    assert main(["run", "--model", "insert", "--seed", "3", "--stats", str(ins)]) == 0
    assert capsys.readouterr().out == GOLDEN_INSERT


def test_gen_and_run_dynamic(tmp_path, capsys):
    path = _gen_file(tmp_path, ["--n", "20", "--k", "2", "--weights", "4",
                                "--m", "60", "--del-rate", "0.3", "--seed", "5"])
    code = main(["run", "--model", "dynamic", "--k", "2", "--seed", "1",
                 "--stats", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "query 1:" in out
    assert "stats:" in out


def test_run_insert_model(tmp_path, capsys):
    path = _gen_file(tmp_path, ["--n", "20", "--k", "2", "--weights", "4",
                                "--m", "60", "--seed", "5", "--model", "insert"])
    code = main(["run", "--model", "insert", "--seed", "1", "--stats", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "query 1:" in out
    assert "stats copy 0:" in out


def test_run_approx_model(tmp_path, capsys):
    path = _gen_file(tmp_path, ["--n", "20", "--k", "1", "--weights", "4",
                                "--m", "30", "--seed", "8"])
    code = main(["run", "--model", "dynamic-approx", "--epsilon", "0.1",
                 "--seed", "2", str(path)])
    assert code == 0
    assert "query 1:" in capsys.readouterr().out


def test_run_approx_model_huge_weight(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(f"H 4 1 0\nI 0 1 {10**400 + 1}\nI 2 3 5\nQ\n")
    code = main(["run", "--model", "dynamic-approx", "--epsilon", "0.1", "--seed", "1",
                 str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("query 1: weight=1.") and "e+400 edges: (0,1,1." in out


@pytest.mark.parametrize("text, model, message", [
    ("H 4 1 0\nD 0 1 5\nQ\n", "dynamic", "error: line 2: deletion of dead edge (0, 1)"),
    ("H 4 1 0\nI 0 1 5\nI 0 1 5\nQ\n", "dynamic", "error: line 3: duplicate insertion of live edge (0, 1)"),
    ("H 4 1 0\nI 0 1 5\nI 0 1 5\nQ\n", "insert", "error: line 3: duplicate insertion of live edge (0, 1)"),
    ("H 4 1 0\nI 0 1 5\nI 0 1 7\nQ\n", "dynamic", "error: line 3: weight of edge (0, 1) changed from 5 to 7"),
    ("H 4 1 0\nI 0 1 5\nI 0 1 7\nQ\n", "insert", "error: line 3: weight of edge (0, 1) changed from 5 to 7"),
    ("H 4 1 0\nI 0 1 0\nQ\n", "dynamic-approx", "error: line 2: weight classes need w > 0, got 0"),
    ("H 4 1 0\n# note\n\nI 0 1 5\nD 0 1 5\nD 0 1 5\nQ\n", "dynamic",
     "error: line 6: deletion of dead edge (0, 1)"),
    ("H 4 3 0\nI 0 1 5\nQ\n", "dynamic", "error: line 1: need k <= n/2, got k=3, n=4"),
], ids=["dead-delete-dynamic", "duplicate-dynamic", "duplicate-insert", "drift-dynamic", "drift-insert",
        "zero-weight-approx", "dead-delete-after-comments", "k-above-half-n"])
def test_run_rejects_ill_formed_streams(tmp_path, capsys, text, model, message):
    path = tmp_path / "ill.txt"
    path.write_text(text)
    assert main(["run", "--model", model, "--seed", "1", str(path)]) == 2
    captured = capsys.readouterr()
    assert "query" not in captured.out
    assert message in captured.err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_run_rejects_non_finite_epsilon(tmp_path, capsys, epsilon):
    path = tmp_path / "stream.txt"
    path.write_text("H 4 1 0\nI 0 1 5\nQ\n")
    code = main(["run", "--model", "dynamic-approx", f"--epsilon={epsilon}", "--seed", "1", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "query" not in captured.out
    assert f"error: need a finite number, got {epsilon}" in captured.err


@pytest.mark.parametrize("model, option", [
    ("dynamic", "--epsilon=0.5"), ("insert", "--epsilon=0.5"),
    ("dynamic", "--delta=0.5"), ("dynamic-approx", "--delta=0.5"),
])
def test_run_rejects_options_the_model_does_not_use(tmp_path, capsys, model, option):
    path = tmp_path / "stream.txt"
    path.write_text("H 4 1 0\nI 0 1 5\nQ\n")
    assert main(["run", "--model", model, option, "--seed", "1", str(path)]) == 2
    captured = capsys.readouterr()
    assert "query" not in captured.out
    assert f"error: {option.split('=')[0]} applies only to --model " in captured.err


_WEIGHTS = ("1", "3", "7", "3", "2.5", "0", "1" + "0" * 400)
_JUNK = ("Z 1 2 3", "I 0 1", "I 0 x 1", "I 1 1 1", "I 0 99 1", "D 0 1 3", "D 0 1 5", "I 0 1 3",
         "Q 1", "I 0 1 -2", "I 0 1 1e3", "H 4 1 0", "# note", "")
_OPTIONS = {"dynamic": ("--k", ("1", "3", "0")),
            "dynamic-approx": ("--epsilon", ("0.1", "0.5", "0", "2", "nan", "inf")),
            "insert": ("--delta", ("0.0625", "0.5", "0", "nan"))}


@st.composite
def _run_inputs(draw):
    """A stream text and the options of one ``run``: two times in three a
    well-formed stream, else one with ill-formed lines and options mixed in."""
    model = draw(st.sampled_from(MODELS))
    clean = draw(st.integers(0, 2)) > 0
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, 3))
    precision = draw(st.integers(0, 2))
    header = "fit" if clean else draw(st.sampled_from(["fit", "raw", "short"]))
    if header == "fit":
        k = min(k, n // 2)
    lines = [f"H {n} {k}" if header == "short" else f"H {n} {k} {precision}"]
    live: dict = {}
    weights: dict = {}  # one weight per edge: a weight change is tested elsewhere
    for _ in range(draw(st.integers(0, 15))):
        tag = draw(st.sampled_from("IIIDDQQ" if clean else "IIIDDQQX"))
        if tag == "Q":
            lines.append("Q")
        elif tag == "X":
            lines.append(draw(st.sampled_from(_JUNK)))
        else:
            u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
            if clean:  # insert a dead edge, delete a live one
                tag = "D" if (u, v) in live else "I"
                if tag == "D" and model == "insert":
                    continue
            w = weights.setdefault((u, v), draw(st.sampled_from(
                [w for w in _WEIGHTS if not clean or "." not in w or precision])))
            lines.append(f"{tag} {v} {u} {w}")
            if tag == "I":
                live[(u, v)] = w
            else:
                live.pop((u, v), None)
    if clean or draw(st.booleans()):
        lines.append("Q")
    options = ["--model", model, "--seed", str(draw(st.integers(0, 9)))]
    option, values = _OPTIONS[model]
    value = draw(st.none() | st.sampled_from(values))
    if value is not None:
        options.append(f"{option}={value}")
    if not clean:
        options += draw(st.sampled_from([[], [], [], ["--epsilon=0.1"], ["--delta=0.5"]]))
    return "\n".join(lines) + "\n", options


@settings(max_examples=50, deadline=None)
@given(_run_inputs())
def test_run_input_contract(case):
    # Every input ends in exit 0 or 2, never a traceback; on exit 0 every
    # answer is a set of vertex-disjoint edges live at its query.
    text, options = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", *options, path])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        return
    answers = iter(out.getvalue().splitlines())
    live: dict = {}
    for fields in (line.split() for line in text.splitlines()):
        if fields[:1] in (["I"], ["D"]):
            u, v = sorted(map(int, fields[1:3]))
            if fields[0] == "I":
                live[(u, v)] = Fraction(fields[3])
            else:
                del live[(u, v)]
        elif fields == ["Q"]:
            answer = next(answers)
            edges = [(int(u), int(v), Fraction(w)) for u, v, w in re.findall(r"\((\d+),(\d+),([^)]+)\)", answer)]
            assert answer.endswith("no k-matching") or edges, answer
            for u, v, w in edges:
                assert (u, v) in live, answer
                assert "dynamic-approx" in options or w == live[(u, v)], answer
            ends = [x for u, v, _w in edges for x in (u, v)]
            assert len(ends) == len(set(ends)), answer
    assert next(answers, None) is None


def test_run_exit_code_on_one_sided_violation(tmp_path, capsys, monkeypatch):
    path = tmp_path / "stream.txt"
    path.write_text("H 4 1 0\nI 0 1 5\nQ\n")

    def fabricating_matcher(*args):
        matcher = make_matcher(*args)
        matcher.query = lambda: Matching(((2, 3, 5),))
        return matcher

    monkeypatch.setattr(cli, "make_matcher", fabricating_matcher)
    assert main(["run", "--model", "dynamic", "--seed", "1", str(path)]) == 3
    assert "one-sided violation at query 1" in capsys.readouterr().err


def test_run_rejects_deletions_for_insert_model(tmp_path, capsys):
    path = _gen_file(tmp_path, ["--n", "20", "--k", "2", "--weights", "4",
                                "--m", "60", "--del-rate", "0.5", "--seed", "5"])
    code = main(["run", "--model", "insert", "--seed", "1", str(path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("H 4 1 0\nI 0 9 5\nQ\n")
    assert main(["verify", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_verify_names_the_line_of_an_ill_formed_record(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("H 4 1 0\nI 0 1 5\nQ\nI 0 1 7\nQ\n")
    assert main(["verify", str(path)]) == 2
    assert "error: line 4: weight of edge (0, 1) changed from 5 to 7" in capsys.readouterr().err


def test_verify_well_formed(tmp_path, capsys):
    path = _gen_file(tmp_path, ["--n", "16", "--k", "2", "--weights", "3",
                                "--m", "30", "--seed", "3"])
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "oracle" in out and "ok:" in out


def test_verify_flags_ill_formed(tmp_path, capsys):
    bad = tmp_path / "ill.txt"
    bad.write_text("H 4 1 0\nI 0 1 5\nI 0 1 5\nQ\n")
    assert main(["verify", str(bad)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_gen_infeasible(tmp_path):
    path = _gen_file(tmp_path, ["--n", "16", "--k", "2", "--weights", "3",
                                "--m", "20", "--seed", "3", "--infeasible"])
    text = path.read_text()
    assert "# planted optimum: none" in text


def test_missing_file_errors(capsys):
    assert main(["verify", "/nonexistent/stream.txt"]) == 2
