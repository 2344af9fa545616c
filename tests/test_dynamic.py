import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import enumerate_oracle, sweep_query

from streammatch.dynamic import (
    BankSampler,
    DynamicMatcher,
    EdgeUpdate,
    class_representative,
    edge_from_id,
    edge_id,
    weight_class,
)
from streammatch.errors import DomainError, ParameterError
from streammatch.l0sampler import EMPTY, L0Sampler, Sampled
from streammatch.partition import key_indices
from streammatch.streams import GraphReplay, gen_planted


def test_edge_id_examples():
    assert edge_id(0, 1, 4) == 0
    assert edge_id(1, 2, 4) == 2
    n = 10
    assert edge_id(n - 2, n - 1, n) == n * (n - 1) // 2 - 1


def test_edge_id_domain_error():
    with pytest.raises(DomainError):
        edge_id(2, 2, 4)
    with pytest.raises(DomainError):
        edge_id(3, 1, 4)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=20_000))
def test_edge_id_bijective(ident):
    u, v = edge_from_id(ident)
    assert edge_id(u, v, v + 1) == ident


def test_weight_class_examples():
    assert weight_class(1, 0.5) == 0
    assert weight_class(Fraction(3, 2), 0.5) == 1
    assert weight_class(Fraction(9, 4), 0.5) == 2  # boundary lands on the closed upper end
    with pytest.raises(DomainError):
        weight_class(0, 0.5)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**9),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(9, 10)),
)
def test_weight_class_brackets(w, eps):
    i = weight_class(w, eps)
    base = 1 + eps
    assert base ** (i - 1) < w <= base**i
    assert class_representative(i, eps) == base**i


def test_weight_class_beyond_float_range():
    # 10**400 and 1/10**400 overflow or underflow a float; the class stays exact.
    for w in (10**400 + 7, Fraction(3, 10**400)):
        i = weight_class(w, Fraction(1, 10))
        base = Fraction(11, 10)
        assert base ** (i - 1) < w <= base**i


def test_preprocess_examples():
    dm = DynamicMatcher(16, 2, random.Random(0))
    assert dm.scheme.params.k == 4  # scheme built for subset size 2k
    assert not dm.bank
    assert math.isclose(DynamicMatcher(4, 1, random.Random(0)).delta, 1 / (20 * math.log(2)))
    with pytest.raises(ParameterError):
        DynamicMatcher(4, 3, random.Random(0))
    for eps in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError):
            DynamicMatcher(16, 2, random.Random(0), mode="approx", eps=eps)


def test_preprocess_deterministic():
    a = DynamicMatcher(16, 2, random.Random(3))
    b = DynamicMatcher(16, 2, random.Random(3))
    assert a.scheme == b.scheme


def test_first_update_creates_d2_squared_entries():
    dm = DynamicMatcher(16, 2, random.Random(1))
    dm.update(EdgeUpdate(0, 1, 7, True))
    family_size = dm.scheme.params.family_size
    assert len(dm.bank) == family_size * family_size
    assert dm.last_touched == family_size * family_size


def test_insert_then_delete_restores_state():
    dm = DynamicMatcher(16, 2, random.Random(1))
    dm.update(EdgeUpdate(0, 1, 7, True))
    dm.update(EdgeUpdate(0, 1, 7, False))
    assert all(not rec.net for rec in dm.bank.values())
    assert dm.query() is None


def test_equal_weight_same_g_images_share_samplers():
    dm = DynamicMatcher(16, 2, random.Random(1))
    dm.update(EdgeUpdate(0, 1, 7, True))
    size = len(dm.bank)
    dm.update(EdgeUpdate(0, 1, 7, False))
    assert len(dm.bank) == size  # same keys touched, nothing new created


def test_empty_stream_queries_empty():
    dm = DynamicMatcher(16, 2, random.Random(5))
    assert dm.query() is None


def test_single_edge_k1_always_found():
    hits = 0
    for seed in range(200):
        dm = DynamicMatcher(16, 1, random.Random(seed))
        dm.update(EdgeUpdate(2, 9, 4, True))
        ans = dm.query()
        if ans is not None and ans.edges == ((2, 9, 4),):
            hits += 1
    assert hits / 200 >= 1 - dm.delta


def test_query_repeatable():
    dm = DynamicMatcher(20, 2, random.Random(8))
    for u, v, w in [(0, 1, 5), (2, 3, 5), (4, 5, 2), (6, 7, 9)]:
        dm.update(EdgeUpdate(u, v, w, True))
    first = dm.query()
    assert dm.query() == first


def test_full_construction_decodes_zero_and_one_sparse_vectors_exactly():
    # DynamicMatcher.query reads an entry with at most one id off its index
    # without decoding it; these are the outcomes the full construction, live
    # from the start, gives there.  The sketch an entry builds from its seed
    # and net vector must decode alike.
    rng = random.Random(99)
    n_ids = 120
    for trial in range(200):
        seed = rng.getrandbits(63)
        full = L0Sampler(n_ids, 0.05, random.Random(seed))
        rec = BankSampler(seed)
        for _ in range(rng.randint(0, 3)):
            ident = rng.randrange(n_ids)
            count = rng.choice((1, -1))
            full.update(ident, count)
            c = rec.net.get(ident, 0) + count
            if c:
                rec.net[ident] = c
            else:
                del rec.net[ident]
        outcome = full.query()
        assert rec.query(n_ids, 0.05) == outcome
        if not rec.net:
            assert outcome is EMPTY
        elif len(rec.net) == 1:
            assert outcome == Sampled(next(iter(rec.net)))


def _assert_index(dm):
    # One index rule: an entry is slow exactly when it holds two or more ids,
    # and a slow entry's kept outcome is the one a fresh decode gives.
    assert dm._slow.keys() == {key for key, rec in dm.bank.items() if len(rec.net) >= 2}
    for key, outcome in dm._slow.items():
        if outcome is not None:
            assert outcome == dm.bank[key].query(dm.n_ids, dm.delta), key


def _churn_stream(n: int, length: int, rng: random.Random):
    """Inserts and deletions of weight 1 or 2 over n vertices; about 5% of
    the updates are ill-formed (a duplicate insertion of a live edge or a
    deletion of a dead one), which DynamicMatcher accepts."""
    live: dict[tuple[int, int], int] = {}
    for _ in range(length):
        r = rng.random()
        if r < 0.025 and live:
            (u, v), w = rng.choice(sorted(live.items()))
            yield EdgeUpdate(u, v, w, True)
        elif r < 0.05:
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in live:
                yield EdgeUpdate(u, v, rng.choice((1, 2)), False)
        elif r < 0.25 and live:
            (u, v), w = rng.choice(sorted(live.items()))
            del live[(u, v)]
            yield EdgeUpdate(u, v, w, False)
        else:
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) not in live:
                live[(u, v)] = rng.choice((1, 2))
                yield EdgeUpdate(u, v, live[(u, v)], True)


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_indexed_query_matches_full_sweep(mode):
    # At these sizes some bank entries become two-or-more-sparse, so the
    # index moves entries in and out of its slow set and queries decode them.
    eps = Fraction(1, 2) if mode == "approx" else None
    checks = decoded = 0
    for n in (600, 1500, 3000):
        dm = DynamicMatcher(n, 2, random.Random(n + 1), mode=mode, eps=eps)
        for step, upd in enumerate(_churn_stream(n, 600, random.Random(n)), 1):
            dm.update(upd)
            if step % 25 == 0:
                answer, stats = sweep_query(dm)
                assert dm.query() == answer, (n, step)
                assert dm.last_query_stats == stats, (n, step)
                _assert_index(dm)
                decoded += len(dm._slow)
                checks += 1
    assert checks >= 60
    assert decoded >= 1


def test_index_follows_entries_across_two_ids():
    # Edges (0, 1) and (0, x) share every entry (i, j) with i a value of
    # vertex 0 and j a value of both 1 and x, so those entries cross between
    # one and two ids.  An entry that falls back to one id or none leaves the
    # slow set and is read off the index.
    dm = DynamicMatcher(600, 1, random.Random(1))
    values_1 = set(key_indices(1, dm.scheme))
    x = next(x for x in range(2, 600) if values_1 & set(key_indices(x, dm.scheme)))
    batches = [
        [(1, True)],
        [(x, True), (x, False)],  # 1 -> 2 -> 1, back to (0, 1)
        [(x, True), (1, False)],  # 1 -> 2 -> 1, now (0, x)
        [(1, True)],  # 1 -> 2; this query decodes the shared entries
        [(1, False)],  # decoded 2 -> 1: answered from the index, (0, x)
        [(x, False)],  # 1 -> 0
        [(x, False)],  # ill-formed: a dead edge, net count -1
    ]
    decoded = 0
    for batch in batches:
        for v, insert in batch:
            dm.update(EdgeUpdate(0, v, 3, insert))
        answer, stats = sweep_query(dm)
        assert dm.query() == answer
        assert dm.last_query_stats == stats
        _assert_index(dm)
        decoded += len(dm._slow)
    assert decoded >= 1


def test_changed_entry_is_decoded_again():
    # A kept outcome must not outlive the net vector it was decoded from:
    # after the sampled id of a three-id entry is deleted, a stale outcome
    # would still return that dead edge.
    dm = DynamicMatcher(600, 1, random.Random(1))
    values_0 = key_indices(0, dm.scheme)
    by_value: dict[int, list[int]] = {}
    for v in range(1, 600):
        for j in key_indices(v, dm.scheme):
            by_value.setdefault(j, []).append(v)
    j, (a, b, c) = next((j, vs[:3]) for j, vs in sorted(by_value.items()) if len(vs) >= 3)
    key = (values_0[0], j, 3)

    def check():
        answer, stats = sweep_query(dm)
        assert dm.query() == answer
        assert dm.last_query_stats == stats
        _assert_index(dm)

    for v in (a, b, c):
        dm.update(EdgeUpdate(0, v, 3, True))
    assert len(dm.bank[key].net) == 3
    check()
    first = dm._slow[key]
    assert isinstance(first, Sampled)
    dead = edge_from_id(first.ident)
    dm.update(EdgeUpdate(*dead, 3, False))  # 3 -> 2: the sampled id leaves
    assert dm._slow[key] is None
    check()
    assert dead not in {(u, v) for u, v, _w in (dm.query().edges)}
    assert dm._slow[key] != first
    live = edge_from_id(next(iter(dm.bank[key].net)))
    dm.update(EdgeUpdate(*live, 3, True))  # a duplicate insert: a count changes at two ids
    assert len(dm.bank[key].net) == 2 and dm._slow[key] is None
    check()
    dm.update(EdgeUpdate(*live, 3, False))
    dm.update(EdgeUpdate(*dead, 3, True))  # 2 -> 3 again
    assert dm._slow[key] is None
    check()


def test_planted_instance_weight_23():
    # plant weights {7, 7, 9} on 50 vertices, noise of weight <= 5, noise deleted
    rng = random.Random(42)
    planted = [(0, 1, 7), (2, 3, 7), (4, 5, 9)]
    noise_pairs = [(u, v) for v in range(6, 30) for u in range(6, v)][:60]
    noise = [(u, v, rng.randint(1, 5)) for u, v in noise_pairs]
    records = [("I", u, v, w) for u, v, w in planted + noise]
    rng.shuffle(records)
    records += [("D", u, v, w) for u, v, w in noise]

    replay = GraphReplay()
    for r in records:
        replay.apply(r)
    oracle = enumerate_oracle(replay.edges(), 3)
    assert oracle.weight == 23

    hits = 0
    trials = 100
    for seed in range(trials):
        dm = DynamicMatcher(50, 3, random.Random(10_000 + seed))
        for tag, u, v, w in records:
            dm.update(EdgeUpdate(u, v, w, tag == "I"))
        ans = dm.query()
        if ans is not None and ans.weight == 23:
            hits += 1
    assert hits / trials >= 0.95


def test_approx_mode_keys_and_weights():
    dm = DynamicMatcher(16, 1, random.Random(2), mode="approx", eps=0.5)
    dm.update(EdgeUpdate(0, 1, 2, True))
    ans = dm.query()
    assert ans is not None
    ((u, v, w),) = ans.edges
    assert (u, v) == (0, 1)
    assert w == class_representative(weight_class(2, 0.5), 0.5)
    assert Fraction(2) <= w  # representative never understates


def test_approx_rejects_zero_weight():
    dm = DynamicMatcher(16, 1, random.Random(2), mode="approx", eps=0.5)
    with pytest.raises(DomainError):
        dm.update(EdgeUpdate(0, 1, 0, True))


def test_exact_mode_allows_zero_weight():
    dm = DynamicMatcher(16, 1, random.Random(2))
    dm.update(EdgeUpdate(0, 1, 0, True))
    ans = dm.query()
    assert ans is not None and ans.weight == 0


def test_one_sided_on_infeasible_streams():
    for seed in range(30):
        sf, opt = gen_planted(20, 2, 4, 30, 0.3, seed, feasible=False)
        assert opt is None
        dm = DynamicMatcher(20, 2, random.Random(seed))
        replay = GraphReplay()
        for r in sf.records:
            if r[0] == "Q":
                ans = dm.query()
                assert ans is None or enumerate_oracle(replay.edges(), 2) is not None
            else:
                replay.apply(r)
                dm.update(EdgeUpdate(r[1], r[2], r[3], r[0] == "I"))
