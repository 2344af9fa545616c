import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import (
    GridL0Sampler,
    bank_key,
    covered_vertex,
    edge_key,
    eligible_pairs,
    entry_seed,
    enumerate_oracle,
    hub_graph,
    key_parts,
    run_isolated,
    sampled_keys,
    sweep_query,
    top_keys,
)

from streammatch import dynamic
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
from streammatch.exact import is_valid_matching, kernel_bounds, solve_exact
from streammatch.l0sampler import EMPTY, FAIL, L0Sampler, Sampled
from streammatch.partition import key_indices
from streammatch.streams import MAX_VERTICES, GraphReplay, gen_planted
from streammatch.trials import MODELS, make_matcher


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


@pytest.mark.parametrize("eps", [1e-300, 1e-17])
def test_an_eps_that_vanishes_beside_one_is_a_parameter_error(eps):
    with pytest.raises(ParameterError, match="1 \\+ eps rounds to 1.0"):
        weight_class(5, eps)
    with pytest.raises(ParameterError, match="1 \\+ eps rounds to 1.0"):
        DynamicMatcher(4, 1, random.Random(0), mode="approx", eps=eps)


def test_weight_class_beyond_float_range():
    # 10**400 and 1/10**400 overflow or underflow a float; the class stays exact.
    for w in (10**400 + 7, Fraction(3, 10**400)):
        i = weight_class(w, Fraction(1, 10))
        base = Fraction(11, 10)
        assert base ** (i - 1) < w <= base**i


def test_weight_class_near_one_at_a_tiny_eps():
    # Each step of the exact correction takes a power of 1 + eps with some
    # 10^5 digits, so the float estimate must land on the class or next to it.
    proc = run_isolated("from fractions import Fraction; from streammatch.dynamic import weight_class; "
                        "print(weight_class(Fraction(10**13 + 36, 10**13), 2.3e-16))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "15653\n"


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


def test_n_above_the_vertex_cap_is_refused():
    # At this n the edge-id domain n(n-1)/2 is psi_13, the least strong
    # pseudoprime to is_prime's bases, which would pass as the field prime.
    n = 2575672364522
    assert n * (n - 1) // 2 == 1287836182261 * 2575672364521
    with pytest.raises(ParameterError, match="cap of 2"):
        DynamicMatcher(n, 1, random.Random(0))
    with pytest.raises(ParameterError, match="cap of 2"):
        DynamicMatcher(MAX_VERTICES + 1, 1, random.Random(0))
    assert DynamicMatcher(MAX_VERTICES, 1, random.Random(0)).n_ids < 1 << 81


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


def test_a_refused_update_leaves_the_matcher_as_it_was():
    # Each model checks the edge before it keeps anything (a dynamic matcher,
    # before its weight's class or its vertices' values), so an edge outside
    # 0 <= u < v < n is refused with the matcher's text and changes no state.
    n = 16

    def state(matcher):
        if isinstance(matcher, DynamicMatcher):
            dm = matcher
            bank = {key: dict(rec.net) for key, rec in dm.bank.items()}
            index = (sampled_keys(dm), dm._sampled_total, dm._failed_total, dict(dm._slow), set(dm._dirty))
            ranks = ({x: list(keys) for x, keys in dm._by_vertex.items()}, list(dm._eligible))
            return dict(dm.wclasses), dict(dm._values), bank, index, ranks
        windows = matcher.copies[0].windows
        return list(windows.prev), list(windows.cur), [
            (copy.task, copy.task.done, copy.task.workspace, copy.reduced_prev, copy.max_update_ops,
             copy.max_stored_edges) for copy in matcher.copies]

    for model in MODELS:
        eps = Fraction(1, 2) if model == "dynamic-approx" else None
        matcher = make_matcher(model, n, 2, random.Random(1), eps, 0.5)
        matcher.update(EdgeUpdate(1, 2, 7, True))
        matcher.update(EdgeUpdate(2, 3, 5, True))
        before = state(matcher)
        for u, v in ((1, 1), (2, 1), (0, n)):  # vertex 0 and weight 9 are new
            with pytest.raises(DomainError, match=r"need 0 <= u < v < n"):
                matcher.update(EdgeUpdate(u, v, 9, True))
            assert state(matcher) == before, (model, u, v)


def test_a_negative_weight_is_refused():
    with pytest.raises(DomainError, match="nonnegative"):
        EdgeUpdate(0, 1, -1, True)


def test_insert_then_delete_restores_state():
    dm = DynamicMatcher(16, 2, random.Random(1))
    dm.update(EdgeUpdate(0, 1, 7, True))
    dm.update(EdgeUpdate(0, 1, 7, False))
    assert not dm.bank
    assert dm.query() is None


def test_equal_weight_same_g_images_share_samplers():
    # Deleting the edge deletes every entry it created; inserting it again
    # creates the same keys, with the same seeds, derived from the keys.
    dm = DynamicMatcher(16, 2, random.Random(1))
    dm.update(EdgeUpdate(0, 1, 7, True))
    keys = set(dm.bank)
    dm.update(EdgeUpdate(0, 1, 7, False))
    _assert_owners(dm)
    assert not dm.bank
    dm.update(EdgeUpdate(0, 1, 7, True))
    assert dm.bank.keys() == keys
    _assert_owners(dm)


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
        full = GridL0Sampler(n_ids, 0.05, random.Random(seed))
        rec = BankSampler({})
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
        assert rec._materialize(seed, n_ids, 0.05).query() == outcome
        if not rec.net:
            assert outcome is EMPTY
        elif len(rec.net) == 1:
            assert outcome == Sampled(next(iter(rec.net)))


def _assert_index(dm):
    # One index rule: an entry is slow exactly when it holds two or more ids;
    # only slow entries are dirty, and a slow entry that is not dirty keeps
    # the outcome a fresh decode gives.
    assert dm._slow.keys() == {key for key, rec in dm.bank.items() if len(rec.net) >= 2}
    assert dm._dirty <= dm._slow.keys()
    for key in dm._slow.keys() - dm._dirty:
        assert dm._slow[key] == dm.bank[key]._materialize(entry_seed(dm, key), dm.n_ids, dm.delta).query(), key
    # Every entry whose net vector is exactly {id}, and every slow entry whose
    # counted outcome samples an id, counts once at that edge and class.
    singles = Counter((key_parts(dm, key)[2], *edge_from_id(next(iter(rec.net))))
                      for key, rec in dm.bank.items() if len(rec.net) == 1)
    samples = Counter((key_parts(dm, key)[2], *edge_from_id(res.ident))
                      for key, res in dm._slow.items() if isinstance(res, Sampled))
    assert sampled_keys(dm) == singles + samples
    _assert_ranks(dm)
    assert dm._sampled_total == sum(sampled_keys(dm).values())
    assert dm._failed_total == sum(1 for res in dm._slow.values() if res is FAIL)
    # Net vectors with one id may be shared, so they are never changed in
    # place, and no two entries hold one vector with two or more ids.
    owned = [id(rec.net) for rec in dm.bank.values() if len(rec.net) >= 2]
    assert len(set(owned)) == len(owned)
    _assert_owners(dm)


def _assert_ranks(dm):
    # The rank index: each vertex's top keys ascending, and the keys ranked
    # at most 2k-1 at both ends, as the brute force gives them.
    keys = sampled_keys(dm)
    by_vertex: dict = {}
    for key in top_keys(keys):
        for x in key[1:]:
            by_vertex.setdefault(x, []).append(key)
    assert dm._by_vertex == by_vertex
    assert dm._eligible == eligible_pairs(keys, dm.k)


def _assert_owners(dm):
    # ``_seeds`` is the one store of the entries' seeds: one per entry, derived
    # from its key's parts.  An entry exists only while its net vector is nonzero.
    assert dm._seeds.keys() == dm.bank.keys()
    assert all(rec.net for rec in dm.bank.values())
    for key in dm.bank:
        assert dm._seeds[key] == entry_seed(dm, key), key


def _assert_nets(dm, updates):
    # Each entry's net vector is the sum of the updates that touched it, so a
    # shared vector changed in place, which reaches every entry holding it,
    # fails; a key whose updates sum to zero holds no entry.
    nets: dict = {}
    for upd in updates:
        wc = weight_class(upd.w, dm.eps) if dm.eps is not None else upd.w
        ident = edge_id(upd.u, upd.v, dm.n)
        for i in key_indices(upd.u, dm.scheme):
            for j in key_indices(upd.v, dm.scheme):
                net = nets.setdefault(bank_key(dm, i, j, wc), {})
                c = net.get(ident, 0) + (1 if upd.insert else -1)
                if c:
                    net[ident] = c
                else:
                    del net[ident]
    assert {key: rec.net for key, rec in dm.bank.items()} == {key: net for key, net in nets.items() if net}


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
    # At each of these sizes some bank entries become two-or-more-sparse, so
    # the index moves entries in and out of its slow set and queries decode them.
    eps = Fraction(1, 2) if mode == "approx" else None
    checks = 0
    for n in (700, 1500, 3000):
        decoded = 0
        dm = DynamicMatcher(n, 2, random.Random(n + 1), mode=mode, eps=eps)
        updates = list(_churn_stream(n, 600, random.Random(n)))
        for step, upd in enumerate(updates, 1):
            dm.update(upd)
            if step % 25 == 0:
                answer, stats = sweep_query(dm)
                assert dm.query() == answer, (n, step)
                assert dm.last_query_stats == stats, (n, step)
                _assert_index(dm)
                decoded += len(dm._slow)
                checks += 1
        _assert_nets(dm, updates)
        assert decoded >= 1, n
    assert checks >= 60


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


def test_shared_net_vectors_are_replaced_not_changed():
    # Every entry one update creates holds the same {id: count} dict, and an
    # emptied entry is deleted.  Walk entries shared by (0, 1) and (0, x)
    # through a count of 2 and through 2 -> 1 -> 0 -> 1 ids.
    dm = DynamicMatcher(600, 1, random.Random(1))
    values_1 = set(key_indices(1, dm.scheme))
    x = next(x for x in range(2, 600) if values_1 & set(key_indices(x, dm.scheme)))
    steps = [
        (1, True), (1, True),  # a repeated insert: count 2 at every entry of (0, 1)
        (x, True),  # the shared entries go 1 -> 2
        (1, False), (1, False),  # 2 -> 2, then 2 -> 1: (0, x) alone
        (x, False),  # 1 -> 0: every entry of (0, x) is deleted
        (1, True),  # 0 -> 1: the shared entries are created again
        (x, True), (x, False),  # 1 -> 2 -> 1
        (1, False),  # 1 -> 0
    ]
    updates = []
    for v, insert in steps:
        updates.append(EdgeUpdate(0, v, 3, insert))
        dm.update(updates[-1])
        _assert_nets(dm, updates)
        _assert_index(dm)
        answer, stats = sweep_query(dm)
        assert dm.query() == answer
        assert dm.last_query_stats == stats
    assert not dm.bank


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

    def check():
        answer, stats = sweep_query(dm)
        assert dm.query() == answer
        assert dm.last_query_stats == stats
        _assert_index(dm)

    for v in (a, b, c):
        dm.update(EdgeUpdate(0, v, 3, True))
    key = bank_key(dm, values_0[0], j, 3)
    assert len(dm.bank[key].net) == 3
    check()
    first = dm._slow[key]
    assert isinstance(first, Sampled)
    dead = edge_from_id(first.ident)
    dm.update(EdgeUpdate(*dead, 3, False))  # 3 -> 2: the sampled id leaves
    assert key in dm._dirty and dm._slow[key] == first  # counted until the next query
    check()
    assert dead not in {(u, v) for u, v, _w in (dm.query().edges)}
    assert dm._slow[key] != first
    live = edge_from_id(next(iter(dm.bank[key].net)))
    dm.update(EdgeUpdate(*live, 3, True))  # a duplicate insert: a count changes at two ids
    assert len(dm.bank[key].net) == 2 and key in dm._dirty
    check()
    assert not dm._dirty
    dm.update(EdgeUpdate(*live, 3, False))
    dm.update(EdgeUpdate(*dead, 3, True))  # 2 -> 3 again
    assert key in dm._dirty
    check()


@pytest.mark.parametrize("eps", [None, Fraction(1, 2)], ids=["exact", "approx"])
def test_a_collision_heavy_corpus_queries_as_the_sweep(eps):
    # A star on vertex 0 and two hubs, 1 and 2, that share its leaves.  The
    # leaves come in clusters of vertices that share a value, one weight class
    # per cluster out of seven, so each centre's edges to one cluster share
    # bank entries of three or more ids; deleting every edge walks those
    # entries down through 2 -> 1 -> 0 ids.  At every query the index gives
    # the sweep's answer and stats, and each answer is a matching of live edges.
    n, k = 2000, 2
    rng = random.Random(27)
    dm = DynamicMatcher(n, k, random.Random(5), mode="approx" if eps else "exact", eps=eps)
    by_value: dict[int, list[int]] = {}
    for x in range(3, n):
        for j in key_indices(x, dm.scheme):
            by_value.setdefault(j, []).append(x)
    clusters, used = [], set()
    for xs in by_value.values():
        if len(xs) >= 3 and not used & set(xs) and len(clusters) < 16:
            clusters.append(xs)
            used |= set(xs)
    weights = {}
    for xs in clusters:
        w = rng.choice((1, 2, 3, 5, 8, 13, 21))
        for x in xs:
            weights.update({(c, x): w for c in (0, 1, 2) if c == 0 or rng.random() < 0.6})
    inserts, deletes = sorted(weights), sorted(weights)
    rng.shuffle(inserts)
    rng.shuffle(deletes)
    live: dict = {}
    sizes: dict = {}  # bank key -> its support size after each update that touched it
    slow = answered = 0
    for step, (edge, insert) in enumerate([(e, True) for e in inserts] + [(e, False) for e in deletes], 1):
        w = weights[edge]
        dm.update(EdgeUpdate(*edge, w, insert))
        if insert:
            live[edge] = w
        else:
            del live[edge]
        wc = weight_class(w, eps) if eps else w
        for i in key_indices(edge[0], dm.scheme):
            for j in key_indices(edge[1], dm.scheme):
                key = bank_key(dm, i, j, wc)
                rec = dm.bank.get(key)
                sizes.setdefault(key, []).append(len(rec.net) if rec else 0)
        if step % 4 == 0 or not live:
            answer, stats = sweep_query(dm)
            assert dm.query() == answer, step
            assert dm.last_query_stats == stats, step
            assert answer is None or is_valid_matching(answer, k, live, eps), step
            slow += len(dm._slow)
            answered += answer is not None
    assert len(clusters) == 16 and answered >= 40
    assert slow >= 10_000
    assert sum(1 for seq in sizes.values() if seq[-3:] == [2, 1, 0]) >= 500


def _count_decodes(monkeypatch) -> list:
    """The seed of every entry decoded from now on, in order."""
    seeds = []
    materialize = BankSampler._materialize
    monkeypatch.setattr(BankSampler, "_materialize",
                        lambda rec, seed, *args: seeds.append(seed) or materialize(rec, seed, *args))
    return seeds


def test_a_query_decodes_only_the_entries_changed_since_the_last(monkeypatch):
    # Counted in BankSampler._materialize calls: a query right after a query
    # decodes nothing, and a query after t updates decodes exactly the slow
    # entries those updates touched, at most t * family_size^2 of them.
    decoded = _count_decodes(monkeypatch)
    total = 0
    for n in (700, 1500):
        dm = DynamicMatcher(n, 2, random.Random(n + 1))
        touched = set()
        for step, upd in enumerate(_churn_stream(n, 600, random.Random(n)), 1):
            dm.update(upd)
            touched |= {bank_key(dm, i, j, upd.w) for i in key_indices(upd.u, dm.scheme)
                        for j in key_indices(upd.v, dm.scheme)}
            if step % 7 == 0:
                decoded.clear()
                answer = dm.query()
                assert sorted(decoded) == sorted(entry_seed(dm, key) for key in touched & dm._slow.keys())
                assert len(decoded) <= 7 * dm.last_touched
                total += len(decoded)
                decoded.clear()
                assert dm.query() == answer
                assert decoded == []
                touched.clear()
    assert total >= 10


def test_a_repeated_query_on_a_star_decodes_nothing_and_reads_its_top_spokes(monkeypatch):
    # A larger star than test_query_on_a_star_reads_only_its_top_spokes's, so
    # that its spokes share entries: the first query decodes them, the next
    # decodes none, and its solver reads the 2k-1 top sampled spokes alone.
    n, k = 400, 2
    dm = DynamicMatcher(n, k, random.Random(4))
    for v in range(1, n):
        dm.update(EdgeUpdate(0, v, v % 7, True))
    decoded = _count_decodes(monkeypatch)
    first = dm.query()
    assert len(decoded) == len(dm._slow) >= 1
    decoded.clear()
    answer, edges = _solver_reads(monkeypatch, dm)
    assert decoded == []
    assert answer is first is None
    assert edges == [(u, v, wc) for wc, u, v in reversed(top_keys(sampled_keys(dm))[-(2 * k - 1):])]


def test_fail_outcomes_count_in_the_running_totals(monkeypatch):
    # Sketches are made to fail on the two-id entries whose smallest id is
    # odd.  The running totals still give the sweep's answers and stats at
    # every checkpoint, also once an entry counted as FAIL falls back to one id.
    query = L0Sampler.query
    monkeypatch.setattr(L0Sampler, "query",
                        lambda sk: FAIL if len(sk.net) >= 2 and min(sk.net) % 2 else query(sk))
    failed = fail_to_single = 0
    for n in (700, 1500):
        dm = DynamicMatcher(n, 2, random.Random(n + 1))
        was_fail = set()
        for step, upd in enumerate(_churn_stream(n, 600, random.Random(n)), 1):
            dm.update(upd)
            if step % 25 == 0:
                fail_to_single += sum(1 for key in was_fail if len(dm.bank[key].net) == 1)
                answer, stats = sweep_query(dm)
                assert dm.query() == answer, (n, step)
                assert dm.last_query_stats == stats, (n, step)
                _assert_index(dm)
                was_fail = {key for key, res in dm._slow.items() if res is FAIL}
                failed += stats.failed
    assert failed >= 100 and fail_to_single >= 5


@pytest.mark.parametrize("eps", [None, Fraction(1, 2)], ids=["exact", "approx"])
def test_slow_samples_join_the_singles_once(eps, monkeypatch):
    # Every entry of (0, x) is shared with an edge (0, y), so (0, x) is no
    # single and reaches the solver only as a slow entry's sample, while the
    # other slow samples are edges (0, y) that are singles too.  At k=1 the
    # kernel is one edge: the solver is handed the top eligible key alone.
    n = 600
    dm = DynamicMatcher(n, 1, random.Random(1), mode="approx" if eps else "exact", eps=eps)
    x, others = covered_vertex(dm)
    for u, v, w in [(0, x, 3)] + [(0, y, 3) for y in others] + [(2, 3, 5), (4, 5, 1), (6, 7, 5)]:
        dm.update(EdgeUpdate(u, v, w, True))
    # Before the first query every slow entry counts as EMPTY, so the index
    # holds the singles alone.
    assert all(res is EMPTY for res in dm._slow.values())
    singles = set(sampled_keys(dm))
    assert (0, x) not in {(u, v) for _wc, u, v in singles}
    answer, stats = sweep_query(dm)
    got, edges = _solver_reads(monkeypatch, dm)
    assert got == answer
    assert edges == _kernel(dm)
    assert dm.last_query_stats == stats
    _assert_index(dm)
    samples = {edge_from_id(res.ident) for res in dm._slow.values() if isinstance(res, Sampled)}
    assert (0, x) in samples
    assert samples & {(u, v) for _wc, u, v in singles}
    keys = sampled_keys(dm)
    assert set(keys) == singles | {(key_parts(dm, key)[2], *edge_from_id(res.ident))
                                          for key, res in dm._slow.items() if isinstance(res, Sampled)}
    assert dm._eligible == eligible_pairs(keys, 1)
    assert len(dm._eligible) < len(singles) + 1 == len(keys)
    assert (weight_class(3, eps) if eps else 3, 0, x) in dm._eligible
    assert len(edges) == min(len(dm._eligible), kernel_bounds(1)[1]) == 1


def _solver_reads(monkeypatch, dm):
    """A query's answer and the edge list its solver is handed."""
    inputs = []
    monkeypatch.setattr(dynamic, "solve_exact", lambda edges, k: inputs.append(edges) or solve_exact(edges, k))
    answer = dm.query()
    (edges,) = inputs
    return answer, edges


def _kernel(dm) -> list:
    """The top (2k-2)(2k-1)+1 eligible keys by the brute force, as edges,
    key-descending: what a query should hand the solver."""
    keys = eligible_pairs(sampled_keys(dm), dm.k)[-kernel_bounds(dm.k)[1]:]
    return [(u, v, dm.wclasses[wc]) for wc, u, v in reversed(keys)]


@pytest.mark.parametrize("eps", [None, Fraction(1, 2)], ids=["exact", "approx"])
def test_query_reads_only_the_kernel(eps, monkeypatch):
    # n/2 disjoint edges, all eligible: at k=2 the solver is handed the
    # (2k-2)(2k-1)+1 = 7 heaviest, its kernel, however many are live.
    n, k = 200, 2
    dm = DynamicMatcher(n, k, random.Random(3), mode="approx" if eps else "exact", eps=eps)
    for u in range(0, n, 2):
        dm.update(EdgeUpdate(u, u + 1, u + 1, True))
    answer, edges = _solver_reads(monkeypatch, dm)
    assert len(dm._eligible) == n // 2
    assert len(edges) == 7
    assert edges == sorted(edges, key=edge_key, reverse=True)
    assert {(u, v) for u, v, _w in edges} == {(u, u + 1) for u in range(n - 14, n, 2)}
    assert {e[:2] for e in answer.edges} == {(n - 2, n - 1), (n - 4, n - 3)}


def test_query_on_a_star_reads_only_its_top_spokes(monkeypatch):
    # Every spoke shares the centre, so only the 2k-1 = 3 heaviest rank within
    # 2k-1 there: the solver is handed those alone and finds no 2-matching,
    # as on every edge.
    n, k = 60, 2
    dm = DynamicMatcher(n, k, random.Random(4))
    spokes = [(0, v, v % 7) for v in range(1, n)]
    for u, v, w in spokes:
        dm.update(EdgeUpdate(u, v, w, True))
    answer, edges = _solver_reads(monkeypatch, dm)
    assert answer is None is solve_exact(spokes, k)
    assert edges == sorted(spokes, key=edge_key, reverse=True)[:2 * k - 1]


def _sampled_edges(dm) -> list:
    return [(u, v, dm.wclasses[wc]) for wc, u, v in sampled_keys(dm)]


@pytest.mark.parametrize("k, eligible", [(3, 13), (4, 25), (5, 41)])
def test_query_on_hubs_reads_only_the_eligible_edges(k, eligible, monkeypatch):
    # k-1 hubs of 180 spokes: the 2k-1 top spokes of each hub and the k light
    # edges are eligible, fewer than the (2k-2)(2k-1)+1 the kernel keeps, so
    # the solver is handed exactly those; its answer is the one all edges give.
    edges, planted = hub_graph(k)
    n = 1 + max(v for _u, v, _w in edges)
    dm = DynamicMatcher(n, k, random.Random(k))
    for u, v, w in edges:
        dm.update(EdgeUpdate(u, v, w, True))
    answer, edges = _solver_reads(monkeypatch, dm)
    assert len(edges) == eligible == (k - 1) * (2 * k - 1) + k <= (2 * k - 2) * (2 * k - 1) + 1
    assert answer == solve_exact(_sampled_edges(dm), k) == solve_exact(edges, k) == planted


@pytest.mark.parametrize("k", [2, 3])
def test_query_on_a_large_star_reads_at_most_the_kernel_bound(k, monkeypatch):
    # 2000 spokes and k-1 disjoint edges: the solver is handed the 2k-1 top
    # sampled spokes and the disjoint edges, within (2k-2)(2k-1)+1 whatever
    # the degree, and answers as on all sampled edges.
    spokes = 2000
    n = spokes + 1 + 2 * (k - 1)
    dm = DynamicMatcher(n, k, random.Random(8))
    for v in range(1, spokes + 1):
        dm.update(EdgeUpdate(0, v, v % 13 + 1, True))
    for u in range(spokes + 1, n, 2):
        dm.update(EdgeUpdate(u, u + 1, 1, True))
    answer, edges = _solver_reads(monkeypatch, dm)
    assert len(edges) == 2 * k - 1 + k - 1 <= (2 * k - 2) * (2 * k - 1) + 1
    assert answer == solve_exact(_sampled_edges(dm), k)
    assert answer is not None and len(answer) == k


def _hub_churn(n: int, length: int, rng: random.Random):
    """Updates around three hubs, so that deletions and top-class changes
    move pairs across rank 2k-1 there.  About one insert in six adds a
    parallel copy of a live pair in another weight, and a deletion removes
    one live copy; a copy's weight is 1, 2, 3, 5 or 8."""
    live: list = []  # live copies (u, v, w)
    for _ in range(length):
        if live and rng.random() < 0.4:
            yield EdgeUpdate(*live.pop(rng.randrange(len(live))), False)
            continue
        if live and rng.random() < 0.17:
            u, v, _w = rng.choice(live)
        else:
            u = rng.choice((0, 1, 2)) if rng.random() < 0.7 else rng.randrange(n)
            v = rng.choice([x for x in range(n) if x != u])
            u, v = min(u, v), max(u, v)
        w = rng.choice((1, 2, 3, 5, 8))
        if (u, v, w) not in live:
            live.append((u, v, w))
            yield EdgeUpdate(u, v, w, True)


# Per k, the least counts of deletions that raise another pair within rank
# 2k-1 and of slow entries seen (seen: 24 and 935 at k=1, 34 and 780 at k=2,
# 61 and 90 at k=3).
_CHURN_FLOORS = {1: (20, 500), 2: (20, 100), 3: (40, 50)}
# At every k and eps, the least counts of updates that replace a live pair's
# top class with another class, and of those that also move another pair into
# or out of ``_eligible`` (seen: 48, and 6 to 8).
_SWAP_FLOORS = (40, 5)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("eps", [None, Fraction(1, 2)], ids=["exact", "approx"])
def test_the_rank_index_follows_churn_with_parallel_copies(eps, k, monkeypatch):
    # After every update and every checkpoint query the rank index is the
    # brute force's; at every checkpoint the query and its stats are the
    # sweep's, the solver is handed the top (2k-2)(2k-1)+1 eligible keys, and
    # at every fifth the whole index is checked.  The churn holds parallel
    # copies, deletions that raise another pair within rank 2k-1 (k=1: the cap
    # is one pair), class swaps, some of which move another pair across rank
    # 2k-1, and slow entries that the queries decode.
    n = 600
    dm = DynamicMatcher(n, k, random.Random(9), mode="approx" if eps else "exact", eps=eps)
    parallel = raised = slow = checks = swaps = swaps_moving = 0
    for step, upd in enumerate(_hub_churn(n, 700, random.Random(10)), 1):
        before = set(dm._eligible)
        tops = {pair: max(classes) for pair, classes in dm._sampled.items()}
        dm.update(upd)
        _assert_ranks(dm)
        if not upd.insert:
            raised += any(key[1:] != (upd.u, upd.v) for key in set(dm._eligible) - before)
        parallel += any(len(classes) > 1 for classes in dm._sampled.values())
        swapped = {pair for pair, classes in dm._sampled.items() if tops.get(pair, max(classes)) != max(classes)}
        swaps += bool(swapped)
        swaps_moving += bool(swapped) and bool({key[1:] for key in set(dm._eligible) ^ before} - swapped)
        if step % 10 == 0:
            answer, stats = sweep_query(dm)
            assert _solver_reads(monkeypatch, dm) == (answer, _kernel(dm)), step
            assert dm.last_query_stats == stats, step
            _assert_ranks(dm)  # decoded outcomes move keys too
            if step % 50 == 0:
                _assert_index(dm)
            slow += len(dm._slow)
            checks += 1
    least_raised, least_slow = _CHURN_FLOORS[k]
    assert checks >= 60 and parallel >= 100 and raised >= least_raised and slow >= least_slow
    assert swaps >= _SWAP_FLOORS[0] and swaps_moving >= _SWAP_FLOORS[1]


def test_an_entry_with_a_count_of_two_decodes_as_the_grid():
    # Inserting (0, 1) twice (no well-formed stream does, but the matcher
    # takes it) leaves {id: 2} in its entries; an edge (0, x) that shares some
    # of them makes those {id: 2, id': 1}, and each decodes as the reference
    # grid fed unit steps.
    n = 200
    dm = DynamicMatcher(n, 1, random.Random(2))
    values_1 = set(key_indices(1, dm.scheme))
    x = next(x for x in range(2, n) if values_1 & set(key_indices(x, dm.scheme)))
    for v in (1, 1, x):
        dm.update(EdgeUpdate(0, v, 3, True))
    a, b = edge_id(0, 1, n), edge_id(0, x, n)
    assert len(dm._slow) == len(key_indices(0, dm.scheme)) * len(values_1 & set(key_indices(x, dm.scheme)))
    dm.query()
    for key, outcome in dm._slow.items():
        assert dm.bank[key].net == {a: 2, b: 1}
        grid = GridL0Sampler(dm.n_ids, dm.delta, random.Random(entry_seed(dm, key)))
        for ident in (a, a, b):
            grid.update(ident, 1)
        assert outcome == grid.query(), key


@pytest.mark.parametrize("eps", [None, Fraction(1, 2)], ids=["exact", "approx"])
def test_bank_entries_own_no_object(eps):
    # Entries with one id hold one holder per update; only an entry with two
    # or more ids owns its value.
    for n in (1500, 3000):
        dm = DynamicMatcher(n, 2, random.Random(n + 1), mode="approx" if eps else "exact", eps=eps)
        for upd in _churn_stream(n, 600, random.Random(n)):
            dm.update(upd)
        assert dm._slow  # these streams end with entries that own their values
        assert len({id(rec) for rec in dm.bank.values()}) <= dm.updates_applied + len(dm._slow)
        _assert_owners(dm)


@pytest.mark.parametrize("eps, weights", [(None, (1, 10**30)), (Fraction(1, 2), (Fraction(1, 3), 1, 5))],
                         ids=["exact", "approx"])
def test_bank_keys_are_injective(eps, weights):
    # A huge exact weight, a negative approx class and the largest vertex
    # value R - 1 each give their own keys, which decode back to their parts.
    n = 600
    dm = DynamicMatcher(n, 1, random.Random(1), mode="approx" if eps else "exact", eps=eps)
    r = dm._range_size
    x = next(x for x in range(n) if r - 1 in key_indices(x, dm.scheme))
    parts = set()
    for w in weights:
        wc = weight_class(w, eps) if eps else w
        for y in (0, 1, n - 1):
            if y != x:
                u, v = sorted((x, y))
                dm.update(EdgeUpdate(u, v, w, True))
                parts |= {(i, j, wc) for i in key_indices(u, dm.scheme) for j in key_indices(v, dm.scheme)}
    assert min(dm.wclasses) < 0 if eps else max(dm.wclasses) == 10**30
    assert any(r - 1 in (i, j) for i, j, _wc in parts)
    assert {key_parts(dm, key) for key in dm.bank} == parts
    assert len(dm.bank) == len(parts)
    assert all(bank_key(dm, *key_parts(dm, key)) == key for key in dm.bank)


def test_bank_memory_per_entry():
    # A regression guard on what one bank entry costs in traced bytes, per
    # entry the insertions create, on a sparse stream whose deletions remove
    # half of them: about 137 B each while an entry with one id owns no object
    # and an emptied entry is deleted, about 172 B if emptied entries stay,
    # about 203 B with a BankSampler and a key tuple per entry, about 425 B
    # with a dict as well.
    rng = random.Random(3)
    n = 2000
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(200)})
    dm = DynamicMatcher(n, 2, random.Random(3))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for u, v in pairs:
            dm.update(EdgeUpdate(u, v, 1 + (u + v) % 3, True))
        created = len(dm.bank)
        for u, v in pairs[: len(pairs) // 2]:
            dm.update(EdgeUpdate(u, v, 1 + (u + v) % 3, False))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert 3 * (created - len(dm.bank)) >= created
    assert grown / created <= 150


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


@pytest.mark.parametrize("eps", [None, Fraction(1, 2)], ids=["exact", "approx"])
def test_wclasses_maps_each_class_to_the_weight_query_reports(eps):
    dm = DynamicMatcher(16, 3, random.Random(2), mode="approx" if eps else "exact", eps=eps)
    edges = [(0, 1, 2), (2, 3, 7), (4, 5, 8)]
    for u, v, w in edges:
        dm.update(EdgeUpdate(u, v, w, True))
    wc = {w: weight_class(w, eps) if eps else w for _u, _v, w in edges}
    assert dm.wclasses == {c: class_representative(c, eps) if eps else c for c in wc.values()}
    assert sorted(dm.query().edges) == [(u, v, dm.wclasses[wc[w]]) for u, v, w in edges]


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
