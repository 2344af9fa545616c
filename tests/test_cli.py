import contextlib
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import hub_graph, run_isolated

import streammatch
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


@pytest.mark.parametrize("text, expected", [
    ("H 4 1 2\nI 0 1 1.25\nQ\n", "query 1: weight=1.2913 edges: (0,1,1.2913)\n"),
    # 7 * 10**-400 lies below the float range, and 3 * 10**400 as a scaled int above it.
    (f"H 4 2 400\nI 0 1 0.{'0' * 399}7\nI 2 3 3\nQ\n",
     "query 1: weight=3.2781 edges: (2,3,3.2781) (0,1,7.40025e-400)\n"),
], ids=["precision-2", "precision-400"])
def test_run_approx_prints_weights_on_the_stream_scale(tmp_path, capsys, text, expected):
    path = tmp_path / "stream.txt"
    path.write_text(text)
    assert main(["run", "--model", "dynamic-approx", "--seed", "1", str(path)]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("text, model, message", [
    ("H 4 1 0\nD 0 1 5\nQ\n", "dynamic", "error: line 2: deletion of dead edge (0, 1)"),
    ("H 4 1 0\nI 0 1 5\nI 0 1 5\nQ\n", "dynamic", "error: line 3: duplicate insertion of live edge (0, 1)"),
    ("H 4 1 0\nI 0 1 5\nI 0 1 5\nQ\n", "insert", "error: line 3: duplicate insertion of live edge (0, 1)"),
    ("H 4 1 0\nI 0 1 5\nI 0 1 7\nQ\n", "dynamic", "error: line 3: weight of edge (0, 1) changed from 5 to 7"),
    ("H 4 1 0\nI 0 1 5\nI 0 1 7\nQ\n", "insert", "error: line 3: weight of edge (0, 1) changed from 5 to 7"),
    ("H 4 1 0\nI 0 1 0\nQ\n", "dynamic-approx", "error: line 2: weight classes need w > 0, got 0"),
    ("H 4 1 0\n# note\n\nI 0 1 5\nD 0 1 5\nD 0 1 5\nQ\n", "dynamic",
     "error: line 6: deletion of dead edge (0, 1)"),
    ("H 4 3 0\nI 0 1 5\nQ\n", "dynamic", "error: line 1: need 1 <= k <= n/2, got k=3, n=4"),
    ("H 4 1 5000\nI 0 1 5\nQ\n", "dynamic-approx", "error: line 1: precision 5000 is above the cap of 1000"),
    (f"H 4 1 0\nI 0 1 {'7' * 5000}\nQ\n", "insert",
     "error: line 2: weight has more than 1000 digits before the point"),
], ids=["dead-delete-dynamic", "duplicate-dynamic", "duplicate-insert", "drift-dynamic", "drift-insert",
        "zero-weight-approx", "dead-delete-after-comments", "k-above-half-n", "precision-above-cap",
        "weight-digits-above-cap"])
def test_run_rejects_ill_formed_streams(tmp_path, capsys, text, model, message):
    path = tmp_path / "ill.txt"
    path.write_text(text)
    assert main(["run", "--model", model, "--seed", "1", str(path)]) == 2
    captured = capsys.readouterr()
    assert "query" not in captured.out
    assert message in captured.err


_REFUSED_NUMBERS = [
    ("H 1_0 2 0\nQ\n", "line 1: header fields must be ASCII digits"),
    ("H 4 +1 0\nQ\n", "line 1: header fields must be ASCII digits"),
    (f"H {'4' * 5000} 1 0\nQ\n", "line 1: header field has too many digits"),
    ("H 4 1 0\nI +2 1 5\nQ\n", "line 2: vertex ids must be ASCII digits"),
    ("H 4 1 0\nI -0 1 5\nQ\n", "line 2: vertex ids must be ASCII digits"),
    ("H 4 1 0\nI 0 \u0663 5\nQ\n", "line 2: vertex ids must be ASCII digits"),
    (f"H 4 1 0\nI 0 {'1' * 5000} 5\nQ\n", "line 2: vertex id has too many digits"),
    (f"H 10 1 0\nI 0 {'1' * 700} 5\nQ\n", "line 2: vertex id has too many digits"),
    ("H 4 1 0\nI 0 1 \uff15\nQ\n", "line 2: bad weight '\uff15'"),
    (f"H 4 1 0\nI 0 1 00{'1' * 1001}\nQ\n", "line 2: weight has more than 1000 digits before the point"),
]
_REFUSED_IDS = ["underscore-n", "signed-k", "n-of-5000-digits", "signed-u", "signed-zero-u", "arabic-indic-v",
                "v-of-5000-digits", "v-of-700-digits", "fullwidth-weight", "weight-of-1001-significant-digits"]
# A vertex id, an n and a weight behind leading zeros: n=10 and the edge (1, 2, 5).
_LEADING_ZEROS = [f"H 10 1 0\nI {'0' * 700}1 2 5\nQ\n", f"H {'0' * 700}10 1 0\nI 1 2 5\nQ\n",
                  f"H 10 1 0\nI 1 2 {'0' * 1001}5\nQ\n"]
_LEADING_ZEROS_IDS = ["u-of-701-digits", "n-of-702-digits", "weight-of-1002-digits"]


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("text, message", _REFUSED_NUMBERS, ids=_REFUSED_IDS)
def test_a_refused_number_names_its_line(tmp_path, capsys, command, text, message):
    # int() or a Unicode \d takes each of these numbers but the two of 5000 digits;
    # the id of 700 digits is refused for its length, not found outside [0, 10).
    path = tmp_path / "stream.txt"
    path.write_text(text, encoding="utf-8")
    options = ["--model", "dynamic", "--seed", "1"] if command == "run" else []
    assert main([command, *options, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
def test_run_rejects_non_finite_epsilon(tmp_path, capsys, epsilon):
    path = tmp_path / "stream.txt"
    path.write_text("H 4 1 0\nI 0 1 5\nQ\n")
    code = main(["run", "--model", "dynamic-approx", f"--epsilon={epsilon}", "--seed", "1", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "query" not in captured.out
    assert f"error: need a finite number, got {epsilon}" in captured.err


@pytest.mark.parametrize("epsilon", ["1e-300", "1e-17"])
def test_run_rejects_an_epsilon_that_vanishes_beside_one(tmp_path, capsys, epsilon):
    path = tmp_path / "stream.txt"
    path.write_text("H 4 1 0\nI 0 1 5\nQ\n")
    code = main(["run", "--model", "dynamic-approx", f"--epsilon={epsilon}", "--seed", "1", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "query" not in captured.out
    assert captured.err == f"error: eps {float(epsilon)} is too small: 1 + eps rounds to 1.0\n"


def _main_isolated(args):
    return run_isolated(f"from streammatch.cli import main; sys.exit(main({args!r}))")


def test_run_refuses_a_weight_class_beyond_the_cap(tmp_path):
    # At eps 2.3e-16, weight 5 lies in class ~7e15; computing it exactly
    # does not finish, so the run goes in a subprocess under a timeout.
    path = tmp_path / "stream.txt"
    path.write_text("H 4 1 0\nI 0 1 5\nQ\n")
    proc = _main_isolated(["run", "--model", "dynamic-approx", "--epsilon=2.3e-16", "--seed", "1", str(path)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: line 2: weight class 6997556141017829 at eps 2.3e-16 "
                           "is beyond the cap |i| <= 16384\n")


def test_run_refuses_a_precision_too_large_to_scale_by(tmp_path):
    # Scaling a weight by 10**100000000 does not finish: the run goes in a
    # subprocess under a timeout.
    path = tmp_path / "stream.txt"
    path.write_text("H 4 1 100000000\nI 0 1 5\nQ\n")
    proc = _main_isolated(["run", "--model", "dynamic", "--seed", "1", str(path)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: line 1: precision 100000000 is above the cap of 1000\n"


def _main_under_digit_limit(args, limit=640):
    """``main(args)`` in a fresh interpreter under PYTHONINTMAXSTRDIGITS=limit,
    on the digits int() and str() convert: 640 is the least it takes, and
    4300 the default."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(streammatch.__file__)))
    code = (f"import sys; assert sys.get_int_max_str_digits() == {limit}; "
            f"from streammatch.cli import main; sys.exit(main({args!r}))")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS=str(limit), PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("text", _LEADING_ZEROS, ids=_LEADING_ZEROS_IDS)
def test_leading_zeros_count_toward_no_limit(tmp_path, capsys, command, text):
    path = tmp_path / "stream.txt"
    path.write_text(text)
    options = ["--model", "dynamic", "--seed", "1"] if command == "run" else []
    assert main([command, *options, str(path)]) == 0
    shown = "oracle weight" if command == "verify" else "weight"
    assert capsys.readouterr().out.startswith(f"query 1: {shown}=5 edges: (1,2,5)\n")


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("text", [text for text, _message in _REFUSED_NUMBERS] + _LEADING_ZEROS,
                         ids=_REFUSED_IDS + _LEADING_ZEROS_IDS)
def test_the_int_digit_limit_changes_no_outcome(tmp_path, command, text):
    # The same exit code, output and error text under the least limit as
    # under the default one.
    path = tmp_path / "stream.txt"
    path.write_text(text, encoding="utf-8")
    options = ["--model", "dynamic", "--seed", "1"] if command == "run" else []
    default, least = (_main_under_digit_limit([command, *options, str(path)], limit) for limit in (4300, 640))
    assert (least.returncode, least.stdout, least.stderr) == (default.returncode, default.stdout, default.stderr)


@pytest.mark.parametrize("options", [["run", "--model", "dynamic", "--seed", "1"],
                                     ["run", "--model", "insert", "--seed", "1"], ["verify"]],
                         ids=["run-dynamic", "run-insert", "verify"])
@pytest.mark.parametrize("precision, weight", [(0, "7" * 700), (3, "9" * 1000 + ".125")], ids=["700", "1003"])
def test_a_weight_past_the_int_digit_limit_prints_whole(tmp_path, options, precision, weight):
    path = tmp_path / "stream.txt"
    path.write_text(f"H 10 1 {precision}\nI 0 1 {weight}\nQ\n")
    proc = _main_under_digit_limit([*options, str(path)])
    assert (proc.returncode, proc.stderr) == (0, "")
    shown = "oracle weight" if options == ["verify"] else "weight"
    assert proc.stdout.startswith(f"query 1: {shown}={weight} edges: (0,1,{weight})\n")


@pytest.mark.parametrize("options", [["run", "--model", "dynamic", "--seed", "1"], ["verify"]],
                         ids=["run", "verify"])
def test_a_changed_weight_past_the_int_digit_limit_names_its_line(tmp_path, options):
    weight = "7" * 700
    path = tmp_path / "stream.txt"
    path.write_text(f"H 10 1 0\nI 0 1 {weight}\nD 0 1 5\nQ\n")
    proc = _main_under_digit_limit([*options, str(path)])
    assert proc.returncode == 2
    assert proc.stderr == f"error: line 3: weight of edge (0, 1) changed from {weight} to 5\n"


@pytest.mark.parametrize("delta", ["5e-324", "1e-320"])
def test_run_takes_a_subnormal_delta(tmp_path, capsys, delta):
    path = tmp_path / "stream.txt"
    path.write_text("H 4 1 0\nI 0 1 5\nQ\n")
    assert main(["run", "--model", "insert", f"--delta={delta}", "--seed", "1", str(path)]) == 0
    assert capsys.readouterr().out == "query 1: weight=5 edges: (0,1,5)\n"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_stream_that_is_not_utf8_names_its_line(tmp_path, capsys, command):
    path = tmp_path / "stream.txt"
    path.write_bytes(b"H 4 1 0\r\nI 0 1 5\x0c# \xff\nQ\n")  # a form feed ends no line
    options = ["--model", "dynamic", "--seed", "1"] if command == "run" else []
    assert main([command, *options, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: not UTF-8: byte 0xff\n"


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("sep", ["\x0c", "\x85"], ids=["form-feed", "nel"])
def test_a_comment_holding_a_form_feed_or_nel_stays_one_line(tmp_path, capsys, command, sep):
    path = tmp_path / "stream.txt"
    path.write_text(f"H 4 1 0\n# note{sep}still a comment\nI 0 1 5\nQ\n", encoding="utf-8")
    options = ["--model", "dynamic", "--seed", "1"] if command == "run" else []
    assert main([command, *options, str(path)]) == 0
    shown = "oracle weight=5" if command == "verify" else "weight=5"
    assert capsys.readouterr().out.startswith(f"query 1: {shown} edges: (0,1,5)")


@pytest.mark.parametrize("model", ["dynamic", "dynamic-approx", "insert"])
def test_every_model_takes_n_up_to_2_to_the_41(tmp_path, capsys, model):
    # Above 2^41 the sampler's edge-id domain n(n-1)/2 can reach psi_13, the
    # least strong pseudoprime to every Miller-Rabin base is_prime uses.
    path = tmp_path / "stream.txt"
    path.write_text(f"H {1 << 41} 1 0\nI 0 1 5\nQ\n")
    assert main(["run", "--model", model, "--seed", "1", str(path)]) == 0
    assert capsys.readouterr().out.startswith("query 1: weight=5")
    for n in ((1 << 41) + 1, 2575672364522, (1 << 61) + 1):
        path.write_text(f"H {n} 1 0\nI 0 1 5\nQ\n")
        assert main(["run", "--model", model, "--seed", "1", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 1: n={n} is above the cap of 2^41 vertices\n"


def test_verify_and_gen_take_the_same_vertex_range(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    for n, code in ((1 << 41, 0), ((1 << 41) + 1, 2)):
        path.write_text(f"H {n} 1 0\nI 0 1 5\nQ\n")
        assert main(["verify", str(path)]) == code
        assert main(["gen", "--n", str(n), "--k", "1", "--weights", "3", "--m", "2", "--seed", "1"]) == code
    captured = capsys.readouterr()
    assert captured.err == (f"error: line 1: n={(1 << 41) + 1} is above the cap of 2^41 vertices\n"
                            f"error: n={(1 << 41) + 1} is above the cap of 2^41 vertices\n")


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
            "dynamic-approx": ("--epsilon", ("0.1", "0.5", "0", "2", "nan", "inf", "1e-300")),
            "insert": ("--delta", ("0.0625", "0.5", "0", "nan", "5e-324"))}


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


@pytest.mark.parametrize("command", ["run", "verify"])
@settings(max_examples=50, deadline=None)
@given(case=_run_inputs())
def test_run_input_contract(command, case):
    # Every input ends in exit 0 or 2, never a traceback; on exit 0 every
    # answer is a set of vertex-disjoint edges live at its query, each
    # weight the live one, or for dynamic-approx within [w, (1+eps)w] up
    # to the printed six digits; verify's last line counts the records.
    text, options = case
    if command == "verify":
        options = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *options, path])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
        return
    epsilons = [o.split("=", 1)[1] for o in options if o.startswith("--epsilon=")]
    eps = Fraction((epsilons or ["0.1"])[-1]) if "dynamic-approx" in options else None
    answers = iter(out.getvalue().splitlines())
    live: dict = {}
    records = queries = 0
    for fields in (line.split() for line in text.splitlines()):
        if fields[:1] in (["I"], ["D"]):
            records += 1
            u, v = sorted(map(int, fields[1:3]))
            if fields[0] == "I":
                live[(u, v)] = Fraction(fields[3])
            else:
                del live[(u, v)]
        elif fields == ["Q"]:
            records += 1
            queries += 1
            answer = next(answers)
            assert answer.startswith(f"query {queries}: " + ("oracle " if command == "verify" else "")), answer
            edges = [(int(u), int(v), Fraction(w)) for u, v, w in re.findall(r"\((\d+),(\d+),([^)]+)\)", answer)]
            assert answer.endswith("no k-matching") or edges, answer
            for u, v, w in edges:
                assert (u, v) in live, answer
                if eps is None:
                    assert w == live[(u, v)], answer
                else:
                    assert live[(u, v)] * (1 - Fraction(1, 10**5)) <= w, answer
                    assert w <= (1 + eps) * live[(u, v)] * (1 + Fraction(1, 10**5)), answer
            ends = [x for u, v, _w in edges for x in (u, v)]
            assert len(ends) == len(set(ends)), answer
    if command == "verify":
        assert next(answers) == f"ok: {records} records, {queries} queries"
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


def test_verify_and_run_on_a_hub_stream(tmp_path, capsys):
    # Three hubs at k=4: the search alone took seconds per query before
    # solve_exact ran on its kernel.
    k = 4
    edges, planted = hub_graph(k, spokes=120, seed=4)
    n = 1 + max(v for _u, v, _w in edges)
    lines = [f"H {n} {k} 0"] + ["I %d %d %d" % e for e in edges] + ["Q"]
    for e in random.Random(4).sample([e for e in edges if e not in planted.edges], 3):
        lines += ["D %d %d %d" % e, "Q", "I %d %d %d" % e, "Q"]
    path = tmp_path / "hub.txt"
    path.write_text("\n".join(lines) + "\n")
    queries = lines.count("Q")

    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    best = cli._format_answer(planted, 0)
    assert out[:-1] == [f"query {i}: oracle {best}" for i in range(1, queries + 1)]

    assert main(["run", "--model", "dynamic", "--seed", "1", str(path)]) == 0
    weights = re.findall(r"^query \d+: weight=(\d+) ", capsys.readouterr().out, re.M)
    assert weights == [str(planted.weight)] * queries


def test_run_and_verify_take_a_k_deeper_than_the_recursion_limit(tmp_path, capsys):
    k = 1100
    path = tmp_path / "disjoint.txt"
    path.write_text(f"H {2 * k} {k} 0\n" + "".join(f"I {2 * i} {2 * i + 1} {i + 1}\n" for i in range(k)) + "Q\n")
    weight = k * (k + 1) // 2
    assert main(["run", "--model", "insert", "--delta", "0.5", "--seed", "1", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"query 1: weight={weight} edges: ({2 * k - 2},{2 * k - 1},{k}) ")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith(f"query 1: oracle weight={weight} edges: ")


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


def test_gen_negative_m_errors(tmp_path, capsys):
    out = tmp_path / "stream.txt"
    assert main(["gen", "--n", "10", "--k", "2", "--weights", "3", "--m", "-5",
                 "--seed", "1", "--infeasible", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: m must be >= 0")
    assert not out.exists()


def test_missing_file_errors(capsys):
    assert main(["verify", "/nonexistent/stream.txt"]) == 2
