"""Insert-only streaming maximum-weight k-matching in O(k^2) space.

Edges are totally ordered by their key (weight, smaller endpoint, larger
endpoint); "heaviest" below always means largest under that order.  Each
copy of the pipeline hashes vertices into 4k^2 parts through a universal
hash and maintains, with window length q = k(16k-1):

* ``reduced_prev``   -- the reduced subgraph produced at the last window
  boundary (at most q edges);
* ``prev_window`` / ``cur_window`` -- the raw edges of the previous and
  the still-filling window, together at most 2q;
* a resumable ``ReduceTask`` that recomputes the next reduced subgraph
  over (reduced_prev, prev_window), staggered over the q updates of the
  current window under a fixed per-update operation budget.

The reduction keeps, of the compact subgraph (heaviest edge per part
pair, intra-part edges dropped), only edges ranking at most 8k on BOTH
incident parts, and of those the q heaviest.  A query unions
reduced_prev with the raw windows across all copies and solves exactly;
the union is a subgraph of the true graph, so answers are one-sided.
Copies are independent and each copy is single-owner mutable state;
queries take a read-only snapshot.

Window rotation at a boundary is pointer swaps only: the filled
cur_window becomes prev_window (never mutated again), the completed
task's output becomes reduced_prev, and a fresh task starts over those
two now-frozen containers.  Per-update work is therefore constant in the
worst case, not merely amortized.  A query issued exactly at a boundary
sees the just-reduced subgraph plus the previous window, a subset of the
raw three-window view that still contains the full reduction of the
whole prefix.

Every task charge is a deterministic function of the input size, never
of edge values: scanning an edge costs a fixed amount and each heap
push/pop costs 1 + ceil(log2(cap+1)).  The budget is derived once per
build from the worst-case charge total over an input of 2q edges, so the
task is always complete when its window closes.

``InsertOnlyMatcher`` puts the copies behind the ``DynamicMatcher``
interface (``update``, ``query``, ``mode``) through ``insert_update`` and
``insert_query``.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Callable, Sequence

from .errors import DomainError, ModelError, ParameterError
from .exact import Edge, Matching, edge_key, solve_exact
from .field_hash import UniversalHash, universal_draw
from .l0sampler import repetitions_for

PartFn = Callable[[int], int]


def window_length(k: int) -> int:
    """q = k(16k - 1)."""
    return k * (16 * k - 1)


def _pair_key(pu: int, pv: int) -> tuple[int, int]:
    return (pu, pv) if pu < pv else (pv, pu)


def _heap_charge(capacity: int) -> int:
    return 1 + max(1, math.ceil(math.log2(capacity + 1)))


def task_worst_ops(n_edges: int, k: int) -> int:
    """Upper bound on total charged operations of one reduction over n_edges."""
    c = _heap_charge(max(n_edges, 1))
    return n_edges * (3 + 2 * c) + 4


def task_budget(k: int) -> int:
    """Per-update step budget B: worst case over inputs of 2q edges, spread over q steps."""
    q = window_length(k)
    return -(-task_worst_ops(2 * q, k) // q)


class ReduceTask:
    """Resumable reduction over a frozen input, stepped under an op budget.

    ``step(budget)`` performs at most budget + O(log q) charged operations
    and is resumable; the completed ``result`` is bit-identical to the
    monolithic reference reduction in ``tests/checks.py`` on the same
    input.
    """

    def __init__(self, head: Sequence[Edge], tail: Sequence[Edge], part_of: PartFn, k: int):
        self._head = head
        self._tail = tail
        self._part_of = part_of
        self._k = k
        self.done = False
        self.result: list[Edge] | None = None
        self._workspace = 0
        self._gen = self._run()

    def step(self, budget: int) -> int:
        spent = 0
        while spent < budget and not self.done:
            try:
                spent += next(self._gen)
            except StopIteration:
                self.done = True
        return spent

    def workspace_edges(self) -> int:
        return self._workspace

    def _run(self):
        part_of = self._part_of
        cap = 8 * self._k
        q = window_length(self._k)
        best: dict[tuple[int, int], Edge] = {}

        for source in (self._head, self._tail):
            for e in source:
                u, v, _w = e
                pu, pv = part_of(u), part_of(v)
                if pu != pv:
                    key = _pair_key(pu, pv)
                    cur = best.get(key)
                    if cur is None or edge_key(e) > edge_key(cur):
                        best[key] = e
                self._workspace = len(best)
                yield 3

        heap_charge = _heap_charge(max(len(best), 1))
        heap: list = []
        while best:
            _key, e = best.popitem()
            heapq.heappush(heap, ((-e[2], -e[0], -e[1]), e))
            self._workspace = len(best) + len(heap)
            yield heap_charge
        yield 1

        counts: dict[int, int] = {}
        out: list[Edge] = []
        while heap and len(out) < q:
            _negkey, e = heapq.heappop(heap)
            pu, pv = part_of(e[0]), part_of(e[1])
            ru = counts.get(pu, 0) + 1
            rv = counts.get(pv, 0) + 1
            counts[pu] = ru
            counts[pv] = rv
            if ru <= cap and rv <= cap:
                out.append(e)
            self._workspace = len(heap) + len(out)
            yield heap_charge

        self.result = out
        self._workspace = len(out)
        yield 1


class CopyState:
    """One copy of the insert-only pipeline."""

    def __init__(self, n: int, k: int, f: UniversalHash):
        self.n = n
        self.k = k
        self.f = f
        self.window_len = window_length(k)
        self.budget = task_budget(k)
        self.pos = 0
        self.reduced_prev: tuple[Edge, ...] = ()
        self.prev_window: list[Edge] = []
        self.cur_window: list[Edge] = []
        self.task = ReduceTask(self.reduced_prev, self.prev_window, f, k)
        self.max_update_ops = 0
        self.max_stored_edges = 0

    def update(self, edge: Edge):
        self.pos += 1
        ops = self.task.step(self.budget) if not self.task.done else 0
        self.cur_window.append(edge)
        ops += 1
        if self.pos % self.window_len == 0:
            assert self.task.done, "reduce task must finish within its window"
            self.reduced_prev = tuple(self.task.result)
            self.prev_window = self.cur_window
            self.cur_window = []
            self.task = ReduceTask(self.reduced_prev, self.prev_window, self.f, self.k)
            ops += 2
        if ops > self.max_update_ops:
            self.max_update_ops = ops
        stored = self.stored_edges()
        if stored > self.max_stored_edges:
            self.max_stored_edges = stored
        assert stored <= 5 * self.window_len, f"stored {stored} edges, budget is 5q = {5 * self.window_len}"
        assert len(self.reduced_prev) <= self.window_len
        assert len(self.prev_window) + len(self.cur_window) <= 2 * self.window_len

    def stored_edges(self) -> int:
        return (len(self.reduced_prev) + len(self.prev_window) + len(self.cur_window)
                + self.task.workspace_edges())

    def view(self) -> list[Edge]:
        """The query-ready subgraph of this copy (reduced part plus raw windows)."""
        return list(self.reduced_prev) + self.prev_window + self.cur_window


def insert_preprocess(n: int, k: int, delta: float, rng: random.Random) -> list[CopyState]:
    """ceil(log2(1/delta)) independent copies, each with its own f: V -> [4k^2]."""
    if k < 1 or 2 * k > n:
        raise ParameterError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    return [CopyState(n, k, universal_draw(n, 4 * k * k, rng)) for _ in range(repetitions_for(delta))]


def insert_update(copies: Sequence[CopyState], edge: Edge):
    u, v, w = edge
    if not 0 <= u < v:
        raise DomainError(f"edge endpoints must satisfy 0 <= u < v, got ({u}, {v})")
    for copy in copies:
        if v >= copy.n:
            raise DomainError(f"vertex {v} outside [0, {copy.n})")
        copy.update((u, v, w))


def insert_query(copies: Sequence[CopyState], k: int) -> Matching | None:
    """Union the copies' subgraphs (deduplicated) and solve exactly."""
    edges = set()
    for copy in copies:
        edges.update(copy.view())
    if not edges:
        return None
    return solve_exact(edges, k)


class InsertOnlyMatcher:
    """The insert-only pipeline behind the ``DynamicMatcher`` interface."""

    mode = "exact"

    def __init__(self, n: int, k: int, delta: float, rng: random.Random):
        self.k = k
        self.copies = insert_preprocess(n, k, delta, rng)

    def update(self, upd):
        if not upd.insert:
            raise ModelError("the insert-only pipeline cannot process deletions")
        insert_update(self.copies, (upd.u, upd.v, upd.w))

    def query(self) -> Matching | None:
        return insert_query(self.copies, self.k)
