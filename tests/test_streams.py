from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import enumerate_oracle

from streammatch.errors import ModelError, ParameterError, StreamFormatError
from streammatch.streams import (
    GraphReplay,
    format_weight,
    gen_planted,
    parse_stream,
    record_line,
    render_stream,
    scale_weight,
)


def test_parse_minimal():
    sf = parse_stream("H 4 1 0\nI 0 1 5\nQ\n")
    assert (sf.n, sf.k, sf.precision) == (4, 1, 0)
    assert sf.records == (("I", 0, 1, 5), ("Q",))


def test_parse_normalizes_endpoints():
    sf = parse_stream("H 4 1 0\nI 1 0 5\nQ\n")
    assert sf.records[0] == ("I", 0, 1, 5)


def test_parse_scales_weights():
    sf = parse_stream("H 4 1 2\nI 0 1 1.25\nQ\n")
    assert sf.records[0][3] == 125
    assert scale_weight("1.25", 2) == 125
    assert scale_weight("7", 3) == 7000
    assert format_weight(125, 2) == "1.25"


@pytest.mark.parametrize("w, expected", [
    (Fraction(10**400), "1e+400"),
    (Fraction(1, 10**400), "1e-400"),
    (Fraction(3, 2) * 10**400, "1.5e+400"),
    (Fraction(7400254, 10**406), "7.40025e-400"),
    (Fraction(1299999999, 10**409), "1.3e-400"),  # rounding up leaves no trailing zeros
    (Fraction(3, 2), "1.5"),
    (Fraction(0), "0"),
])
def test_format_weight_prints_like_a_float_beyond_its_range(w, expected):
    assert format_weight(w, 0) == expected


def test_parse_comments_and_blanks():
    sf = parse_stream("# hello\n\nH 4 1 0\n# mid\nI 0 1 5\nQ\n")
    assert len(sf.records) == 2


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_cr_and_lf_end_a_line(sep):
    # str.splitlines() also breaks at these, which would end a comment early.
    sf = parse_stream(f"H 4 1 0\r\n# note{sep}still a comment\rI 0 1 5{sep}\nQ\n")
    assert len(sf.records) == 2
    assert record_line(f"H 4 1 0\r\n# a{sep}b\r\rI 0 1 5\nQ\n", 0) == 4


@pytest.mark.parametrize(
    "text",
    [
        "I 0 1 5\nQ\n",                    # record before header
        "H 4 1 0\nQ\n H 4 1 0\n",          # duplicate header
        "H 4 1 0\nI 0 9 5\nQ\n",           # id out of range
        "H 4 1 0\nI 1 1 5\nQ\n",           # self loop
        "H 4 1 0\nI 0 1 5.5\nQ\n",         # too many decimals
        "H 4 1 0\nI 0 1 -3\nQ\n",          # negative weight
        "H 4 1 0\nI 0 1\nQ\n",             # missing field
        "H 4 1 0\nX 0 1 5\nQ\n",           # unknown tag
        "H 4 1 0\nI 0 1 5\n",              # no query record
        "H 4 3 0\nQ\n",                    # k above n/2
        "",                                # missing header
        # Numbers are ASCII digits; int() takes all but the two 5000-digit ones.
        "H 1_0 2 0\nQ\n",                  # underscore in n
        "H 4 +1 0\nQ\n",                   # sign on k
        "H 4 1 0\nI +2 1 5\nQ\n",          # sign on a vertex id
        "H 4 1 0\nI -0 1 5\nQ\n",          # negative zero vertex id
        "H 4 1 0\nI 0 \u0663 5\nQ\n",      # Arabic-Indic digit three
        "H 4 1 0\nI 0 1 \uff15\nQ\n",      # fullwidth digit five as weight
        pytest.param(f"H 4 1 0\nI 0 {'1' * 5000} 5\nQ\n", id="vertex-id-of-5000-digits"),
        pytest.param(f"H {'4' * 5000} 1 0\nQ\n", id="header-n-of-5000-digits"),
    ],
)
def test_parse_errors(text):
    with pytest.raises(StreamFormatError):
        parse_stream(text)


def test_parse_error_carries_line_number():
    with pytest.raises(StreamFormatError) as err:
        parse_stream("H 4 1 0\nI 0 9 5\nQ\n")
    assert err.value.line_no == 2


def test_deletion_rejected_in_insert_only():
    text = "H 4 1 0\nI 0 1 5\nD 0 1 5\nQ\n"
    parse_stream(text)
    with pytest.raises(StreamFormatError):
        parse_stream(text, insert_only=True)


def test_round_trip():
    sf = parse_stream("H 6 2 2\nI 0 1 1.25\nI 2 3 0.50\nD 0 1 1.25\nQ\nI 4 5 3.00\nQ\n")
    assert parse_stream(render_stream(sf)) == sf


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=4))
def test_weight_format_round_trip(scaled, precision):
    assert scale_weight(format_weight(scaled, precision), precision) == scaled


def test_replay_flags_ill_formed():
    replay = GraphReplay()
    replay.apply(("I", 0, 1, 5))
    with pytest.raises(ModelError):
        replay.apply(("I", 0, 1, 5))  # duplicate insertion of a live edge
    replay.apply(("D", 0, 1, 5))
    with pytest.raises(ModelError):
        replay.apply(("D", 0, 1, 5))  # deletion of a dead edge
    with pytest.raises(ModelError):
        replay.apply(("I", 0, 1, 6))  # weight drift


def test_replay_allows_reinsertion_same_weight():
    replay = GraphReplay()
    replay.apply(("I", 0, 1, 5))
    replay.apply(("D", 0, 1, 5))
    replay.apply(("I", 0, 1, 5))
    assert replay.edges() == [(0, 1, 5)]


def test_gen_planted_no_deletions_keeps_everything():
    sf, opt = gen_planted(20, 2, 4, 40, 0.0, seed=3)
    assert all(r[0] != "D" for r in sf.records)
    replay = GraphReplay()
    for r in sf.records:
        if r[0] != "Q":
            replay.apply(r)
    inserts = [r for r in sf.records if r[0] == "I"]
    assert len(replay.edges()) == len(inserts) == 40
    assert enumerate_oracle(replay.edges(), 2).weight == opt


def test_gen_planted_with_deletions_well_formed_and_optimal():
    for seed in range(10):
        sf, opt = gen_planted(30, 3, 5, 120, 0.6, seed=seed)
        replay = GraphReplay()
        for r in sf.records:
            if r[0] != "Q":
                replay.apply(r)
        assert len(sf.records) - 1 == 120
        got = enumerate_oracle(replay.edges(), 3)
        assert got is not None and got.weight == opt


def test_gen_planted_validation():
    with pytest.raises(ParameterError):
        gen_planted(20, 0, 4, 40, 0.0, seed=1)  # k=0 rejected
    with pytest.raises(ParameterError):
        gen_planted(3, 2, 4, 40, 0.0, seed=1)
    with pytest.raises(ParameterError):
        gen_planted(20, 2, 4, 40, 0.5, seed=1, model="insert")
    for k in (1, 2):  # both infeasible shapes: no edges (k=1) and a star
        with pytest.raises(ParameterError):
            gen_planted(10, k, 3, -5, 0.0, seed=1, feasible=False)


def test_gen_planted_reproducible():
    a = gen_planted(20, 2, 4, 60, 0.4, seed=9)
    b = gen_planted(20, 2, 4, 60, 0.4, seed=9)
    assert a == b


def test_gen_infeasible_has_no_k_matching():
    for seed in range(5):
        sf, opt = gen_planted(20, 2, 4, 30, 0.0, seed=seed, feasible=False)
        assert opt is None
        replay = GraphReplay()
        for r in sf.records:
            if r[0] != "Q":
                replay.apply(r)
        assert enumerate_oracle(replay.edges(), 2) is None
