"""Exact maximum-weight k-matching on small edge sets.

``solve_exact`` is branch-and-bound over edges in decreasing key order
(the key (weight, u, v) orders the distinct pairs of the edge set) with
the admissible bound "current weight + sum of the next (k - chosen)
weights".  It visits candidate matchings in position-lex order over
key-descending edges and keeps the first strict improvement, which makes
ties deterministic: among optimal k-matchings the one whose sorted key
sequence is lexicographically largest wins.  The search is one loop
over edge positions with an explicit stack: each chosen edge pushes its
position, the running weight before it and the scan of its depth,
resumed when the edge is dropped.  So k is not limited by the
interpreter's recursion depth.

Before the search, one scan of the key-descending edges keeps a kernel:

1. an edge whose pair (u, v) was already seen is skipped: it is a
   parallel copy of no larger key;
2. every other edge is counted at both endpoints and kept only if it is
   among the first 2k-1 edges at u and at v (the counts include edges
   this rule drops);
3. the scan stops once (2k-2)(2k-1)+1 edges are kept.

The tie-rule winner M lies in the kernel, by swap arguments.  A lower
copy of a pair in M could be replaced by its first copy.  If e = (u, v)
in M ranks 2k or worse at u, u has 2k-1 earlier edges to distinct
neighbours other than v, and the other k-1 edges of M cover only 2k-2
vertices, so one of them can replace e.  If e comes after the stop, each
of the 2k-2 vertices of M - e has at most 2k-1 kept edges, so one of the
earlier kept edges misses them all and can replace e.  Each swap gives
an earlier edge, hence a matching at least as heavy and earlier in
position-lex order, against the choice of M.  The kernel keeps the order
of the edges, so M is also the kernel's tie-rule winner and the output
is unchanged.

The input contract: edges come in any order and are sorted first, which
costs a key per edge.  ``kernel_bounds`` states the caps of rules 2 and 3
once; a dynamic query reads them too, and hands over only its sampled
edges that the kernel keeps (``dynamic.py``), so the sort there is of at
most (2k-2)(2k-1)+1 edges.

The bound still ignores vertex conflicts, so the search is exponential
in k, no longer in the size of the graph: on k-1 hubs with 180 spokes
each (``tests/checks.py::hub_graph``), one solve of the full edge list
takes about 0.9 ms at k=4, 13 ms at k=5, 0.48 s at k=6 and 15 s at k=7 on
a shared 2-vCPU Intel Xeon host under CPython 3.11 (medians of 21, 11 and
5 solves; one at k=7; the ROADMAP item "An exact-k solver whose time is
polynomial in k").

``is_valid_matching``, the answer check of both pipelines, takes the
matcher's ``eps``: None when every reported weight is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, ParameterError

Edge = tuple  # (u, v, weight) with u < v


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges, stored in key-descending order."""

    edges: tuple[Edge, ...]

    @property
    def weight(self):
        return sum(e[2] for e in self.edges)

    def __len__(self):
        return len(self.edges)


def is_valid_matching(m: Matching, k: int, live: Mapping[tuple[int, int], int],
                      eps=None) -> bool:
    """The one-sided answer check against the live graph ``live`` ((u, v) -> weight).

    Cardinality k, pairwise disjoint endpoints, every edge live, and each
    reported weight equal to the live weight w, or with ``eps`` in
    [w, (1+eps) w), where the class representative of w always lies.
    """
    if len(m.edges) != k:
        return False
    seen: set[int] = set()
    for u, v, w in m.edges:
        if u in seen or v in seen or u == v:
            return False
        seen.add(u)
        seen.add(v)
        true_w = live.get((u, v))
        if true_w is None or (w != true_w if eps is None else not true_w <= w < (1 + eps) * true_w):
            return False
    return True


def _checked_key(edge: Edge):
    u, v, w = edge
    if u >= v:
        raise DomainError(f"edge endpoints must satisfy u < v, got ({u}, {v})")
    return (w, u, v)


def _sorted_desc(edges: Iterable[Edge]) -> list[Edge]:
    return sorted(edges, key=_checked_key, reverse=True)


def kernel_bounds(k: int) -> tuple[int, int]:
    """The kernel's caps: rank 2k-1 at both ends (rule 2), (2k-2)(2k-1)+1 edges (rule 3)."""
    return 2 * k - 1, (2 * k - 2) * (2 * k - 1) + 1


def solve_exact(edges: Iterable[Edge], k: int) -> Matching | None:
    """A maximum-weight matching of cardinality exactly k, or None.

    ``edges`` may come in any order and may hold parallel copies of a
    pair; an edge with u >= v raises DomainError.  Deterministic output;
    see the module docstring for the tie rule and the kernel the search
    runs on.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    # The kernel of the module docstring: rules 1, 2 and 3 in turn.
    # prefix[i] = weight of es[:i]; since key-descending order is
    # weight-descending, the heaviest c edges of es[i:] are es[i:i+c].
    cap, limit = kernel_bounds(k)
    es: list[Edge] = []
    prefix = [0]
    seen: set[tuple[int, int]] = set()
    rank: dict[int, int] = {}
    for e in _sorted_desc(edges):
        u, v, w = e
        if (u, v) in seen:
            continue
        seen.add((u, v))
        rank[u] = rank.get(u, 0) + 1
        rank[v] = rank.get(v, 0) + 1
        if rank[u] <= cap and rank[v] <= cap:
            es.append(e)
            prefix.append(prefix[-1] + w)
            if len(es) == limit:
                break
    m = len(es)

    # The search of the module docstring; a frame is (scan, position, u, v, weight before).
    best = best_w = None
    frames: list[tuple] = []
    used: set[int] = set()
    need, cur, scan = k, 0, iter(range(m - k + 1))
    while True:
        depth = need
        for j in scan:
            if best_w is not None and cur + prefix[j + need] - prefix[j] <= best_w:
                break  # the bound only shrinks as j grows
            u, v, w = es[j]
            if u in used or v in used:
                continue
            if need > 1:
                frames.append((scan, j, u, v, cur))
                used.add(u)
                used.add(v)
                need, cur = need - 1, cur + w
                scan = iter(range(j + 1, m - need + 1))
            elif best_w is None or cur + w > best_w:
                best, best_w = [f[1] for f in frames] + [j], cur + w
            break  # descend; or, at need 1, no later edge is heavier
        if need < depth:
            continue
        if not frames:
            break
        scan, _j, u, v, cur = frames.pop()
        used.discard(u)
        used.discard(v)
        need += 1
    return Matching(tuple(es[j] for j in best)) if best is not None else None
