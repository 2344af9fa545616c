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


def test_parse_comments_and_blanks():
    sf = parse_stream("# hello\n\nH 4 1 0\n# mid\nI 0 1 5\nQ\n")
    assert len(sf.records) == 2


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
