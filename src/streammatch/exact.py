"""Exact maximum-weight k-matching on small edge sets.

``solve_exact`` is branch-and-bound over edges in decreasing key order
(the key (weight, u, v) is a total order on the edges of a simple graph)
with the admissible bound "current weight + sum of the next (k - chosen)
weights".  It visits candidate matchings in position-lex order over
key-descending edges and keeps the first strict improvement, which makes
ties deterministic: among optimal k-matchings the one whose sorted key
sequence is lexicographically largest wins.

The bound ignores vertex conflicts, so the search is exponential in the
worst case: on a graph with k-1 high-degree hubs one k=4 query takes
about 12 s (ROADMAP item 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ParameterError

Edge = tuple  # (u, v, weight) with u < v


def edge_key(edge: Edge):
    u, v, w = edge
    return (w, u, v)


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
                      mode: str = "exact") -> bool:
    """The one-sided answer check against the live graph ``live`` ((u, v) -> weight).

    Cardinality k, pairwise disjoint endpoints, every edge live, and each
    reported weight equal to the live weight ("exact") or at least it
    ("approx": a class representative rounds up).
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
        if true_w is None or (w != true_w if mode == "exact" else w < true_w):
            return False
    return True


def _sorted_desc(edges: Sequence[Edge]) -> list[Edge]:
    return sorted(edges, key=edge_key, reverse=True)


def solve_exact(edges: Sequence[Edge], k: int) -> Matching | None:
    """A maximum-weight matching of cardinality exactly k, or None.

    Deterministic output; see the module docstring for the tie rule.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    es = _sorted_desc(edges)
    m = len(es)
    if m < k:
        return None

    # prefix[i] = sum of weights of es[:i]; since key-descending order is
    # weight-descending, the heaviest c edges of es[i:] are es[i:i+c].
    prefix = [0] * (m + 1)
    for i, e in enumerate(es):
        prefix[i + 1] = prefix[i] + e[2]

    best: list[Edge] | None = None
    best_w = None
    chosen: list[Edge] = []
    used: set[int] = set()

    def dfs(start: int, cur_w):
        nonlocal best, best_w
        need = k - len(chosen)
        if need == 0:
            if best_w is None or cur_w > best_w:
                best = list(chosen)
                best_w = cur_w
            return
        last = m - need
        for i in range(start, last + 1):
            if best_w is not None and cur_w + prefix[i + need] - prefix[i] <= best_w:
                return  # bound only shrinks as i grows
            u, v, w = es[i]
            if u in used or v in used:
                continue
            chosen.append(es[i])
            used.add(u)
            used.add(v)
            dfs(i + 1, cur_w + w)
            used.discard(u)
            used.discard(v)
            chosen.pop()

    dfs(0, 0)
    return Matching(tuple(best)) if best is not None else None
