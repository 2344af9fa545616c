import random
from collections import Counter

import pytest

from checks import ReferenceReduceTask, _pair_key, compact, enumerate_oracle, max_nice_matching, reduced_compact

from streammatch import insertonly
from streammatch.errors import DomainError, ModelError, ParameterError
from streammatch.exact import solve_exact
from streammatch.insertonly import (
    CopyState,
    InsertOnlyMatcher,
    ReduceTask,
    Windows,
    _heap_charge,
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


def _pairs_of(edges, part_of):
    return [_pair_key(part_of(u), part_of(v)) for u, v, _w in edges]


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
        task = ReduceTask(edges[:cut], _pairs_of(edges[:cut], f), edges[cut:], f, k)
        budget = task_budget(k)
        steps = ops_done = 0
        while not task.done:
            spent = task.step(budget)
            assert spent <= budget + 16
            steps += 1
            ops_done += spent
        assert task.result == reduced_compact(edges, f, k)
        assert ops_done <= task_worst_ops(len(edges))
        assert steps <= max(1, -(-task_worst_ops(len(edges)) // budget) + 1)


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
        task = ReduceTask(edges[:cut], _pairs_of(edges[:cut], part_of), edges[cut:], part_of, k)
        while not task.done:
            task.step(task_budget(k))
        assert task.result == want


def _step_trace(task, budget):
    steps = []
    while not task.done:
        steps.append((task.step(budget), task.done, task.workspace))
    return steps, task.result


def _oracle_inputs():
    """(k, part_of, head, tail): random edges over few vertices, so heads and
    tails repeat vertex pairs and part pairs and hold intra-part edges."""
    rng = random.Random(34)
    cases = []
    for k in (1, 2, 3):
        q = window_length(k)
        n = 3 * 4 * k * k
        f = universal_draw(n, 4 * k * k, rng)
        for n_head, n_tail in ((0, 0), (0, q), (q, 0), (q // 2, 2 * q), (q, q), (q, 2 * q)):
            edges = []
            for _ in range(n_head + n_tail):
                u, v = sorted(rng.sample(range(n), 2))
                edges.append((u, v, rng.randint(1, 6)))
            cases.append((k, f, edges[:n_head], edges[n_head:]))
    # k = 3 hub: the 8k rank cap rejects edges of the hub's part
    hub = [(0, v, 100 + v) for v in range(1, 36)]
    cases.append((3, _mod_parts(36), hub[:20], hub[20:] + [(36, 72, 5), (37, 73, 5)]))
    return cases


def test_task_steps_like_reference():
    # Every step's (spent, done, workspace) and the result equal the
    # per-item reference's, at every budget from 1 to twice the real one,
    # and pairs[i] is the part pair of result[i].
    intra = {"head": 0, "tail": 0}
    for k, part_of, head, tail in _oracle_inputs():
        for name, edges in (("head", head), ("tail", tail)):
            intra[name] += sum(1 for u, v, _w in edges if part_of(u) == part_of(v))
        for budget in range(1, 2 * task_budget(k) + 1):
            task = ReduceTask(head, _pairs_of(head, part_of), tail, part_of, k)
            got = _step_trace(task, budget)
            want = _step_trace(ReferenceReduceTask(head, tail, part_of, k), budget)
            assert got == want, (k, len(head), len(tail), budget)
            assert task.pairs == _pairs_of(task.result, part_of)
    assert intra["head"] > 0 and intra["tail"] > 0


def test_copy_hashes_each_raw_edge_once(monkeypatch):
    # A raw edge's endpoints are hashed once, when its window is scanned;
    # a kept edge's pair rides into the next task, which hashes no head edge.
    k = 2
    rng = random.Random(8)
    f = universal_draw(60, 4 * k * k, rng)
    calls = []

    def part_of(v):
        calls.append(v)
        return f(v)

    heads = []  # (head, head_pairs) of every task the copy starts

    class RecordingTask(ReduceTask):
        def __init__(self, head, head_pairs, tail, part_of, k):
            heads.append((head, head_pairs))
            super().__init__(head, head_pairs, tail, part_of, k)

    monkeypatch.setattr(insertonly, "ReduceTask", RecordingTask)
    copy = CopyState(Windows(60, window_length(k)), k, part_of)
    q = copy.window_len
    pairs = rng.sample([(u, v) for u in range(60) for v in range(u + 1, 60)], 7 * q)
    edges = [(u, v, rng.randint(1, 9)) for u, v in pairs]
    for i, e in enumerate(edges, 1):
        insert_update([copy], e)
        if i % q == 0:
            windows = i // q
            scanned = edges[:(windows - 1) * q]
            assert Counter(calls) == Counter(x for u, v, _w in scanned for x in (u, v))
            assert len(heads) == windows + 1
            head, head_pairs = heads[-1]
            assert head is copy.reduced_prev
            assert list(head_pairs) == _pairs_of(copy.reduced_prev, f)
    assert len(copy.reduced_prev) > 0


def test_preprocess_validation():
    rng = random.Random(0)
    assert len(insert_preprocess(16, 2, 0.5, rng)) == 1
    assert len(insert_preprocess(16, 2, 1 / 16, rng)) == 4
    with pytest.raises(ParameterError):
        insert_preprocess(3, 2, 0.5, rng)
    with pytest.raises(ParameterError):
        insert_preprocess(16, 2, 0.0, rng)
    # Above the vertex cap of 2^41; at this n the edge-id domain is psi_13.
    with pytest.raises(ParameterError, match="cap of 2"):
        insert_preprocess(2575672364522, 2, 0.5, rng)


def test_insert_update_rejects_deletions():
    matcher = InsertOnlyMatcher(16, 2, 0.5, random.Random(1))
    with pytest.raises(ModelError):
        matcher.update(EdgeUpdate(0, 1, 3, False))


@pytest.mark.parametrize("edge", [(0, 16, 3), (1, 1, 3), (2, 1, 3), (-1, 1, 3)])
def test_insert_update_rejects_an_edge_outside_its_domain(edge):
    copies = insert_preprocess(16, 2, 0.5, random.Random(1))
    with pytest.raises(DomainError, match="need 0 <= u < v < n"):
        insert_update(copies, edge)
    assert not copies[0].windows.cur


def test_first_window_buffers_everything():
    copies = insert_preprocess(200, 2, 0.5, random.Random(3))
    copy = copies[0]
    edges = [(2 * i, 2 * i + 1, 5) for i in range(copy.window_len)]
    for e in edges:
        insert_update(copies, e)
    assert not copy.reduced_prev
    assert sorted(copy.windows.prev + copy.windows.cur) == sorted(edges)


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
        windows = copy.windows
        assert len(windows.prev) + len(windows.cur) <= 2 * q
        assert len(copy.reduced_prev) <= q
        assert len(copy.reduced_prev) + len(windows.prev) + len(windows.cur) + copy.task.workspace <= 5 * q


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


def test_copies_share_raw_windows_and_query_reads_them_once():
    # Every copy holds the one windows object, and the query's union equals
    # the union over every copy's three containers.
    rng = random.Random(12)
    copies = insert_preprocess(60, 2, 1 / 16, rng)
    assert len(copies) == 4
    first = copies[0]
    pairs = rng.sample([(u, v) for u in range(60) for v in range(u + 1, 60)], 700)
    for i, (u, v) in enumerate(pairs):
        insert_update(copies, (u, v, rng.randint(1, 9)))
        for copy in copies:
            assert copy.windows is first.windows
        if i % 20 == 0:
            union = set()
            for copy in copies:
                union.update(copy.reduced_prev)
                union.update(copy.windows.prev)
                union.update(copy.windows.cur)
            assert insert_query(copies, 2) == solve_exact(union, 2)


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


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
def test_largest_update_charge_is_the_budget_and_one_heap_charge(k):
    # A step stops once its charge reaches the budget, so it overshoots by
    # less than one item's charge, at most a heap charge over 2q edges; the
    # copy adds 1 for the append and 2 for a rotation.
    q = window_length(k)
    n = 400
    rng = random.Random(k)
    pairs = rng.sample([(u, v) for v in range(1, n) for u in range(v)], 4 * q)
    matcher = InsertOnlyMatcher(n, k, 0.5, rng)
    for u, v in pairs:
        matcher.update(EdgeUpdate(u, v, rng.randint(1, 1000), True))
    (copy,) = matcher.copies
    assert copy.max_update_ops <= task_budget(k) + _heap_charge(2 * q) + 2
