import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import edge_key, enumerate_oracle, hub_graph, max_nice_matching

from streammatch.errors import DomainError, ParameterError
from streammatch.exact import Matching, is_valid_matching, solve_exact


def test_single_edge():
    m = solve_exact([(0, 1, 5)], 1)
    assert m.weight == 5
    assert is_valid_matching(m, 1, {(0, 1): 5})


def test_triangle_has_no_two_matching():
    assert solve_exact([(0, 1, 3), (1, 2, 4), (0, 2, 5)], 2) is None


def test_path_two_matching():
    m = solve_exact([(0, 1, 5), (1, 2, 1), (2, 3, 5)], 2)
    assert m.weight == 10
    assert {e[:2] for e in m.edges} == {(0, 1), (2, 3)}


def test_oracle_empty_graph():
    assert enumerate_oracle([], 3) is None


def test_oracle_k1_is_heaviest_edge():
    edges = [(0, 1, 4), (2, 3, 7), (1, 4, 7)]
    m = enumerate_oracle(edges, 1)
    assert m.edges == (max(edges, key=edge_key),)


def test_k_validation():
    with pytest.raises(ParameterError):
        solve_exact([(0, 1, 1)], 0)
    with pytest.raises(ParameterError):
        enumerate_oracle([(0, 1, 1)], -1)


@pytest.mark.parametrize("edges, k", [
    ([(0, 0, 5), (1, 2, 1)], 2),             # a self-loop beside a valid edge
    ([(0, 0, 5)], 1),                        # a lone self-loop
    ([(2, 1, 5), (1, 2, 1)], 1),             # a reversed pair above its forward copy
    ([(0, 1, 9), (2, 3, 8), (4, 4, 1)], 1),  # a self-loop after the kernel's stop
    ([(0, 1, 5), (1, 1, 4)], 2),             # a self-loop in key-descending order
    ([(2, 1, 5)], 2),                        # a lone reversed pair
])
def test_rejects_u_not_below_v(edges, k):
    with pytest.raises(DomainError):
        solve_exact(edges, k)


def _random_graph(rng, n=12, m=16, w=6):
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    chosen = rng.sample(pairs, min(m, len(pairs)))
    return [(u, v, rng.randint(0, w)) for u, v in chosen]


def test_agreement_with_oracle_random():
    rng = random.Random(4)
    for trial in range(300):
        k = rng.randint(1, 4)
        edges = _random_graph(rng, m=rng.randint(0, 18))
        got = solve_exact(edges, k)
        want = enumerate_oracle(edges, k)
        if want is None:
            assert got is None, (trial, edges, k)
        else:
            assert got is not None
            assert got.weight == want.weight
            assert got.edges == want.edges  # tie-break agreement, not just weight


def test_returned_matchings_validate():
    rng = random.Random(9)
    for _ in range(100):
        edges = _random_graph(rng)
        m = solve_exact(edges, 2)
        if m is not None:
            assert is_valid_matching(m, 2, {(u, v): w for u, v, w in edges})
    live = {(0, 1): 5, (2, 3): 4, (1, 2): 7}
    half = Fraction(1, 2)
    cases = [
        # (answer edges, k, eps, valid)
        (((0, 1, 5), (2, 3, 4)), 2, None, True),
        (((0, 1, 5), (2, 3, 9)), 2, None, False),  # weight differs from the live weight
        (((0, 1, 5), (2, 3, 3)), 2, None, False),
        (((0, 1, Fraction(11, 2)), (2, 3, 4)), 2, half, True),  # representative above
        (((0, 1, 5), (2, 3, Fraction(7, 2))), 2, half, False),  # below the live weight
        (((0, 1, Fraction(15, 2)), (2, 3, 4)), 2, half, False),  # (1 + eps) * live is excluded
        (((0, 1, Fraction(15, 2) - Fraction(1, 10**9)), (2, 3, 4)), 2, half, True),  # just below it
        (((0, 1, 5), (4, 5, 4)), 2, None, False),  # (4, 5) is not live
        (((1, 2, 7), (0, 1, 5)), 2, None, False),  # vertex 1 shared
        (((0, 1, 5),), 2, None, False),  # wrong cardinality
        (((0, 1, 5), (2, 3, 4)), 1, half, False),
    ]
    for edges, k, eps, valid in cases:
        assert is_valid_matching(Matching(edges), k, live, eps) is valid, (edges, k, eps)


def _hub_multigraph(rng, n, draws):
    """Edges on n vertices, 60% of endpoints on one or two hubs, about 15%
    parallel copies or exact duplicates of an earlier pair; weights 0-3,
    some of them Fractions."""
    hubs = rng.sample(range(n), rng.randint(1, 2))
    edges = []
    for _ in range(draws):
        w = rng.randint(0, 3) if rng.random() < 0.8 else Fraction(rng.randint(0, 12), 4)
        if edges and rng.random() < 0.15:
            u, v, w0 = rng.choice(edges)
            edges.append((u, v, w0 if rng.random() < 0.5 else w))
            continue
        u, v = (rng.choice(hubs) if rng.random() < 0.6 else rng.randrange(n) for _ in "uv")
        if u != v:
            edges.append((min(u, v), max(u, v), w))
    return edges


def _saturated_graph(rng, k):
    """k-1 disjoint edges of weight 3, each endpoint with 2k-2 spokes of
    weight 1 to private leaves, and k disjoint edges of weight 0.

    The kernel keeps all (k-1)(4k-3) weight-3 and weight-1 edges, and the
    optimum (the weight-3 edges and one weight-0 edge) needs the next kept
    edge too, so a stop after (k-1)(4k-3) or fewer kept edges loses it.  The
    random graphs above hit such a case about once in 2000 instances.
    """
    n = (2 * k - 2) * (2 * k - 1) + 2 * k
    labels = iter(rng.sample(range(n), n))
    edges = []
    for _ in range(k - 1):
        a, b = next(labels), next(labels)
        edges.append((min(a, b), max(a, b), 3))
        for hub in (a, b):
            for _ in range(2 * k - 2):
                leaf = next(labels)
                edges.append((min(hub, leaf), max(hub, leaf), 1))
    for _ in range(k):
        a, b = next(labels), next(labels)
        edges.append((min(a, b), max(a, b), 0))
    rng.shuffle(edges)
    return edges


def test_kernel_matches_oracle_on_hub_multigraphs():
    # The kernel inside solve_exact drops parallel copies, edges ranked 2k or
    # worse at an endpoint, and everything after (2k-2)(2k-1)+1 kept edges; the
    # corpus must reach all three rules, which the simple graphs above rarely do.
    rng = random.Random(8)
    wide_vertex = many_pairs = parallel = False
    for trial in range(2000):
        if trial % 10 == 0:
            k = rng.randint(2, 3)
            edges = _saturated_graph(rng, k)
        else:
            k = rng.randint(1, 3)
            edges = _hub_multigraph(rng, rng.randint(2, 10), rng.randint(0, 22))
        pairs = {e[:2] for e in edges}
        neighbours: dict[int, set[int]] = {}
        for u, v in pairs:
            neighbours.setdefault(u, set()).add(v)
            neighbours.setdefault(v, set()).add(u)
        wide_vertex |= any(len(ns) > 2 * k - 1 for ns in neighbours.values())
        many_pairs |= k >= 2 and len(pairs) > (2 * k - 2) * (2 * k - 1) + 1
        parallel |= len(pairs) < len(edges)
        got = solve_exact(edges, k)
        want = enumerate_oracle(edges, k)
        # repr tells Fraction(1, 1) from 1: the tie rule must pick the same copy
        assert repr(got) == repr(want), (trial, k, edges)
    assert wide_vertex and many_pairs and parallel


def test_key_descending_and_shuffled_lists_agree():
    # A dynamic query hands the solver its kernel key-descending; on multigraphs
    # with parallel copies, ties and Fraction weights the answer is the one the
    # same edges give as a shuffled list.
    rng = random.Random(22)
    for trial in range(1000):
        k = rng.randint(1, 3)
        if trial % 10 == 0:
            edges = _saturated_graph(rng, max(k, 2))
        else:
            edges = _hub_multigraph(rng, rng.randint(2, 10), rng.randint(0, 22))
        ordered = sorted(edges, key=edge_key, reverse=True)
        shuffled = rng.sample(edges, len(edges))
        assert solve_exact(ordered, k) == solve_exact(shuffled, k), (trial, k, edges)


@pytest.mark.parametrize("k", [4, 5])
def test_hub_graph_query_time_bounded_by_k(k):
    edges, planted = hub_graph(k)
    start = time.perf_counter()
    got = solve_exact(edges, k)
    elapsed = time.perf_counter() - start
    assert got == planted
    assert elapsed < 2.0, f"k={k}: {elapsed:.2f} s on {len(edges)} edges"


def test_k_deeper_than_the_recursion_limit():
    edges = [(2 * i, 2 * i + 1, i + 1) for i in range(1100)]
    got = solve_exact(edges, 1100)
    assert got is not None and sorted(got.edges) == edges


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_monotone_in_edges(seed):
    # adding an edge never decreases the optimum
    rng = random.Random(seed)
    edges = _random_graph(rng, m=rng.randint(2, 14))
    extra = _random_graph(rng, m=1)
    if extra and extra[0][:2] in {e[:2] for e in edges}:
        return
    before = solve_exact(edges, 2)
    after = solve_exact(edges + extra, 2)
    if before is not None:
        assert after is not None and after.weight >= before.weight


def test_nice_matching_one_part():
    edges = [(0, 1, 3), (2, 3, 4)]
    assert max_nice_matching(edges, lambda v: 0, 1) is None


def test_nice_matching_injective_parts_matches_oracle():
    rng = random.Random(2)
    for _ in range(50):
        edges = _random_graph(rng)
        got = max_nice_matching(edges, lambda v: v, 2)
        want = enumerate_oracle(edges, 2)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.weight == want.weight


def test_matching_weight_and_len():
    m = Matching(((2, 3, 5), (0, 1, 5)))
    assert m.weight == 10
    assert len(m) == 2
