import random

import pytest

from checks import compact, enumerate_oracle, max_nice_matching, reduced_compact

from streammatch.errors import ModelError, ParameterError
from streammatch.exact import solve_exact
from streammatch.insertonly import (
    CopyState,
    InsertOnlyMatcher,
    ReduceTask,
    insert_preprocess,
    insert_query,
    insert_update,
    task_budget,
    task_worst_ops,
    window_length,
)
from streammatch.dynamic import EdgeUpdate
from streammatch.field_hash import universal_draw
from streammatch.l0sampler import repetitions_for
from streammatch.seeds import spawn_rng


def test_window_length():
    assert window_length(1) == 15
    assert window_length(2) == 62


def test_copies_for():
    # insert_preprocess draws ceil(log2(1/delta)) copies, the l0-sampler repetition rule
    for delta, copies in ((0.5, 1), (1 / 16, 4)):
        assert repetitions_for(delta) == copies
        assert len(insert_preprocess(16, 2, delta, random.Random(1))) == copies


def _mod_parts(r):
    return lambda v: v % r


def test_compact_all_distinct_parts_keeps_everything():
    edges = [(0, 1, 4), (2, 3, 9), (4, 5, 1)]
    assert set(compact(edges, lambda v: v, 1)) == set(edges)


def test_compact_parallel_by_parts():
    # f(0)=f(1), f(2)=f(3): both edges connect the same two parts
    part = {0: 0, 1: 0, 2: 1, 3: 1}.get
    edges = [(0, 2, 5), (1, 3, 7)]
    assert compact(edges, part, 1) == [(1, 3, 7)]


def test_compact_tie_breaks_on_endpoints():
    part = {0: 0, 1: 0, 2: 1, 3: 1}.get
    edges = [(0, 2, 5), (1, 3, 5)]
    assert compact(edges, part, 1) == [(1, 3, 5)]


def test_compact_drops_intra_part_edges():
    part = {0: 0, 1: 0, 2: 1}.get
    assert compact([(0, 1, 9), (0, 2, 1)], part, 1) == [(0, 2, 1)]


def test_reduced_compact_single_edge_k1():
    edges = [(0, 1, 3)]
    assert reduced_compact(edges, lambda v: v % 4, 1) == edges


def test_reduced_compact_equals_compact_when_thresholds_slack():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(1, 3)
        edges = {(u, v): rng.randint(1, 9)
                 for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4}
        h = _mod_parts(4 * k * k)
        c = compact([(u, v, w) for (u, v), w in edges.items()], h, k)
        if len(c) <= window_length(k):
            counts: dict[int, int] = {}
            slack = True
            for u, v, _w in c:
                counts[h(u)] = counts.get(h(u), 0) + 1
                counts[h(v)] = counts.get(h(v), 0) + 1
            slack = all(c_ <= 8 * k for c_ in counts.values())
            if slack:
                assert reduced_compact([(u, v, w) for (u, v), w in edges.items()], h, k) == c


def test_reduced_compact_output_bounded_by_q():
    rng = random.Random(6)
    k = 1
    edges = [(u, v, rng.randint(1, 50)) for u in range(20) for v in range(u + 1, 20)]
    out = reduced_compact(edges, _mod_parts(4), k)
    assert len(out) <= window_length(k)


def test_reduction_preserves_nice_matchings():
    # nice-matching existence and max nice weight agree between compact and
    # reduced_compact; deterministic, no tolerance
    rng = random.Random(13)
    for trial in range(30):
        pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
        chosen = rng.sample(pairs, 100)
        edges = [(u, v, rng.randint(1, 12)) for u, v in chosen]
        f = universal_draw(30, 16, rng)
        c_m = max_nice_matching(compact(edges, f, 2), f, 2)
        r_m = max_nice_matching(reduced_compact(edges, f, 2), f, 2)
        assert (c_m is None) == (r_m is None)
        if c_m is not None:
            assert c_m.weight == r_m.weight


def test_task_matches_monolithic_reduction():
    rng = random.Random(21)
    for _ in range(30):
        k = rng.randint(1, 2)
        n_edges = rng.randint(0, 2 * window_length(k))
        pairs = [(u, v) for u in range(25) for v in range(u + 1, 25)]
        chosen = rng.sample(pairs, min(n_edges, len(pairs)))
        edges = [(u, v, rng.randint(1, 30)) for u, v in chosen]
        f = universal_draw(25, 4 * k * k, rng)
        cut = rng.randint(0, len(edges))
        task = ReduceTask(edges[:cut], edges[cut:], f, k)
        budget = task_budget(k)
        steps = ops_done = 0
        while not task.done:
            spent = task.step(budget)
            assert spent <= budget + 16
            steps += 1
            ops_done += spent
        assert task.result == reduced_compact(edges, f, k)
        assert ops_done <= task_worst_ops(len(edges), k)
        assert steps <= max(1, -(-task_worst_ops(len(edges), k) // budget) + 1)


def test_task_matches_monolithic_reduction_when_rank_cap_binds():
    # At k <= 2 no part has more than 4k^2 - 1 <= 8k - 1 compact neighbours,
    # so the 8k rank cap never rejects an edge; a heavy star over all 36
    # parts at k = 3 makes the cap of 24 reject 11 edges of the hub's part.
    k = 3

    def part_of(v):
        return v % (4 * k * k)

    rng = random.Random(5)
    edges = [(0, v, 100 + v) for v in range(1, 36)]
    edges += [(u, v, rng.randint(1, 50)) for u in range(36, 72) for v in range(u + 1, 72)
              if rng.random() < 0.1]
    rng.shuffle(edges)
    want = reduced_compact(edges, part_of, k)
    assert sum(1 for e in want if e[0] == 0) == 8 * k
    for cut in (0, len(edges) // 2, len(edges)):
        task = ReduceTask(edges[:cut], edges[cut:], part_of, k)
        while not task.done:
            task.step(task_budget(k))
        assert task.result == want


def test_preprocess_validation():
    rng = random.Random(0)
    assert len(insert_preprocess(16, 2, 0.5, rng)) == 1
    assert len(insert_preprocess(16, 2, 1 / 16, rng)) == 4
    with pytest.raises(ParameterError):
        insert_preprocess(3, 2, 0.5, rng)
    with pytest.raises(ParameterError):
        insert_preprocess(16, 2, 0.0, rng)


def test_insert_update_rejects_deletions():
    matcher = InsertOnlyMatcher(16, 2, 0.5, random.Random(1))
    with pytest.raises(ModelError):
        matcher.update(EdgeUpdate(0, 1, 3, False))


def test_first_window_buffers_everything():
    copies = insert_preprocess(200, 2, 0.5, random.Random(3))
    copy = copies[0]
    edges = [(2 * i, 2 * i + 1, 5) for i in range(copy.window_len)]
    for e in edges:
        insert_update(copies, e)
    assert copy.reduced_prev == ()
    assert sorted(copy.view()) == sorted(edges)


def test_short_stream_answer_equals_oracle_exactly():
    # a stream shorter than 2q is held verbatim, so the answer is exact always
    for seed in range(10):
        rng = spawn_rng(seed, "short")
        copies = insert_preprocess(40, 2, 0.5, rng)
        pairs = rng.sample([(u, v) for u in range(40) for v in range(u + 1, 40)], 100)
        edges = [(u, v, rng.randint(1, 9)) for u, v in pairs]
        assert len(edges) < 2 * copies[0].window_len
        for e in edges:
            insert_update(copies, e)
        got = insert_query(copies, 2)
        want = solve_exact(edges, 2)
        assert got is not None and want is not None
        assert got.weight == want.weight


def test_buffer_and_storage_bounds():
    rng = random.Random(77)
    copies = insert_preprocess(100, 2, 0.5, rng)
    copy = copies[0]
    q = copy.window_len
    pairs = rng.sample([(u, v) for u in range(100) for v in range(u + 1, 100)], 5 * q)
    for u, v in pairs:
        insert_update(copies, (u, v, rng.randint(1, 9)))
        assert len(copy.prev_window) + len(copy.cur_window) <= 2 * q
        assert len(copy.reduced_prev) <= q
        assert copy.stored_edges() <= 5 * q


def test_per_update_ops_bounded():
    rng = random.Random(31)
    copies = insert_preprocess(80, 1, 0.5, rng)
    copy = copies[0]
    budget = task_budget(1)
    pairs = rng.sample([(u, v) for u in range(80) for v in range(u + 1, 80)], 400)
    for u, v in pairs:
        insert_update(copies, (u, v, rng.randint(1, 4)))
        assert copy.max_update_ops <= budget + 16 + 3


def test_query_is_one_sided():
    rng = random.Random(55)
    copies = insert_preprocess(30, 2, 0.25, rng)
    inserted = set()
    pairs = rng.sample([(u, v) for u in range(30) for v in range(u + 1, 30)], 200)
    for u, v in pairs:
        w = rng.randint(1, 9)
        inserted.add((u, v, w))
        insert_update(copies, (u, v, w))
    ans = insert_query(copies, 2)
    assert ans is not None
    assert set(ans.edges) <= inserted


def test_empty_stream_query():
    copies = insert_preprocess(16, 2, 0.5, random.Random(0))
    assert insert_query(copies, 2) is None


def test_planted_success_rate_small():
    trials = 120
    hits = 0
    for seed in range(trials):
        rng = spawn_rng(seed, "planted-insert")
        verts = rng.sample(range(50), 4)
        planted = []
        for i in range(2):
            u, v = sorted((verts[2 * i], verts[2 * i + 1]))
            planted.append((u, v, rng.choice((7, 8, 9))))
        taken = {(u, v) for u, v, _ in planted}
        pool = [(u, v) for u in range(50) for v in range(u + 1, 50) if (u, v) not in taken]
        noise = [(u, v, rng.randint(1, 5)) for u, v in rng.sample(pool, 300)]
        edges = planted + noise
        rng.shuffle(edges)
        copies = insert_preprocess(50, 2, 0.5, rng)
        for e in edges:
            insert_update(copies, e)
        ans = insert_query(copies, 2)
        if ans is not None and ans.weight == sum(w for _u, _v, w in planted):
            hits += 1
    assert hits / trials >= 0.45
