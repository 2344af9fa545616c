"""Insert-only streaming maximum-weight k-matching in O(k^2) space.

Edges are totally ordered by their key (weight, smaller endpoint, larger
endpoint); "heaviest" below always means largest under that order.  The
copies of the pipeline share one ``Windows``: ``prev`` and ``cur``, the
raw edges of the previous and of the still-filling window, together at
most 2q with window length q = k(16k-1).  Each copy hashes vertices into
4k^2 parts through its own universal hash and maintains:

* ``reduced_prev``   -- the reduced subgraph produced at the last window
  boundary (at most q edges);
* a resumable ``ReduceTask`` that recomputes the next reduced subgraph
  over (reduced_prev, prev), staggered over the q updates of the
  current window under a fixed per-update operation budget.  The task
  also holds the part pair of each reduced_prev edge: at most q pairs
  beside reduced_prev, so the copy's space is still O(k^2).

The reduction keeps, of the compact subgraph (heaviest edge per part
pair, intra-part edges dropped), only edges ranking at most 8k on BOTH
incident parts, and of those the q heaviest.  A query unions every
copy's reduced_prev with the shared raw windows and solves exactly; the
union is a subgraph of the true graph, so answers are one-sided.
Queries take a read-only snapshot.

An update appends its edge to ``cur``; at a window boundary it rotates
the windows once, by pointer swaps: the filled cur becomes prev, never
mutated again.  It then steps each copy's task, whose tail is such a
frozen prev; at a boundary the completed task's output becomes
reduced_prev and a fresh task starts over those two frozen containers.
A copy is charged 1 for the append and 2 for a rotation, and stores
reduced_prev, both windows and its task's workspace.  Per-update work is
therefore constant in the worst case, not merely amortized.  A query
issued exactly at a boundary sees the just-reduced subgraph plus the
previous window, a subset of the raw three-window view that still
contains the full reduction of the whole prefix.

A raw edge is hashed once per copy, when the task over its window scans
it.  The fresh task is handed the part pairs of the completed task's
output with it, so a kept edge's pair rides with it from window to
window and the drain reads pairs from its heap entries.

Every task charge is a deterministic function of the input size, never
of edge values: scanning an edge costs a fixed amount and each heap
push/pop costs 1 + ceil(log2(cap+1)).  A task step is one loop over
charged items, resumed once per update.  The budget is derived once per
build from the worst-case charge total over an input of 2q edges, so the
task is always complete when its window closes.

``InsertOnlyMatcher`` puts the copies behind the ``DynamicMatcher``
interface (``update``, ``query``, ``eps``, None: weights are exact)
through ``insert_update`` and ``insert_query``.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Sequence

from .errors import DomainError, ModelError
from .exact import Edge, Matching, solve_exact
from .field_hash import UniversalHash, universal_draw
from .l0sampler import repetitions_for
from .streams import check_size

PartFn = Callable[[int], int]


def window_length(k: int) -> int:
    """q = k(16k - 1)."""
    return k * (16 * k - 1)


def _heap_charge(capacity: int) -> int:
    return 1 + max(1, capacity.bit_length())


def task_worst_ops(n_edges: int) -> int:
    """Upper bound on total charged operations of one reduction over n_edges."""
    c = _heap_charge(max(n_edges, 1))
    return n_edges * (3 + 2 * c) + 4


def task_budget(k: int) -> int:
    """Per-update step budget B: worst case over inputs of 2q edges, spread over q steps."""
    q = window_length(k)
    return -(-task_worst_ops(2 * q) // q)


class ReduceTask:
    """Resumable reduction over a frozen input, stepped under an op budget.

    The input is ``head`` (the previous reduced subgraph) with
    ``head_pairs``, the part pair of each head edge, followed by ``tail``
    (a raw window).  Only tail endpoints are hashed, once each; a head
    edge's pair is read from ``head_pairs``, and the heap carries each
    compact edge's pair to the rank filter, so the drain hashes nothing.
    The task ends with ``result``, the reduced edges, and ``pairs``,
    where ``pairs[i]`` is the part pair of ``result[i]``.

    ``step(budget)`` is one resume of one loop over the charged items: it
    takes items while the charge spent in this step is below ``budget``,
    charging each after doing it, so it performs at most budget + O(log q)
    charged operations.  The step that finds the end sets ``done``, and
    may return 0; step only while not ``done``.  The completed ``result``
    is bit-identical to the monolithic reference reduction in
    ``tests/checks.py`` on the same input.
    """

    def __init__(self, head: Sequence[Edge], head_pairs: Sequence[tuple[int, int]],
                 tail: Sequence[Edge], part_of: PartFn, k: int):
        self.done = False
        self.result: list[Edge] | None = None
        self.pairs: list[tuple[int, int]] | None = None
        self.workspace = 0  # edges held in the task's own containers
        self._gen = self._run(head, head_pairs, tail, part_of, k)
        next(self._gen)  # run to the yield that takes the first budget

    def step(self, budget: int) -> int:
        try:
            return self._gen.send(budget)
        except StopIteration as stop:
            self.done = True
            return stop.value

    def _run(self, head, head_pairs, tail, part_of: PartFn, k: int):
        # Before each item: if this step's charge has reached its budget,
        # record the workspace and yield the charge; resume with the next
        # step's budget.
        cap = 8 * k
        q = window_length(k)
        best: dict[tuple[int, int], Edge] = {}
        budget = yield
        spent = 0

        for e, pair in zip(head, head_pairs, strict=True):
            if spent >= budget:
                self.workspace = len(best)
                budget = yield spent
                spent = 0
            if pair[0] != pair[1]:
                cur = best.get(pair)
                if cur is None or (e[2], e[0], e[1]) > (cur[2], cur[0], cur[1]):
                    best[pair] = e
            spent += 3
        for e in tail:
            if spent >= budget:
                self.workspace = len(best)
                budget = yield spent
                spent = 0
            u, v, w = e
            pu = part_of(u)
            pv = part_of(v)
            if pu != pv:
                pair = (pu, pv) if pu < pv else (pv, pu)
                cur = best.get(pair)
                if cur is None or (w, u, v) > (cur[2], cur[0], cur[1]):
                    best[pair] = e
            spent += 3
        self.workspace = len(best)

        heap_charge = _heap_charge(max(len(best), 1))
        heap: list = []
        push = heapq.heappush
        # Edges only move from best to heap here: workspace stays as it is.
        # Keys are distinct, so a heap comparison never reaches the pair.
        for pair, e in best.items():
            if spent >= budget:
                budget = yield spent
                spent = 0
            push(heap, ((-e[2], -e[0], -e[1]), pair, e))
            spent += heap_charge
        if spent >= budget:
            budget = yield spent
            spent = 0
        spent += 1

        counts: dict[int, int] = {}
        out: list[Edge] = []
        pairs: list[tuple[int, int]] = []
        pop = heapq.heappop
        while heap and len(out) < q:
            if spent >= budget:
                self.workspace = len(heap) + len(out)
                budget = yield spent
                spent = 0
            _negkey, pair, e = pop(heap)
            pu, pv = pair
            ru = counts.get(pu, 0) + 1
            rv = counts.get(pv, 0) + 1
            counts[pu] = ru
            counts[pv] = rv
            if ru <= cap and rv <= cap:
                out.append(e)
                pairs.append(pair)
            spent += heap_charge
        if spent >= budget:
            self.workspace = len(heap) + len(out)
            budget = yield spent
            spent = 0
        self.result = out
        self.pairs = pairs
        self.workspace = len(out)
        spent += 1

        if spent >= budget:
            yield spent
            spent = 0
        return spent


class Windows:
    """The raw windows that every copy of one ``insert_preprocess`` shares."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.prev: list[Edge] = []
        self.cur: list[Edge] = []


class CopyState:
    """One copy of the insert-only pipeline over the shared ``windows``."""

    def __init__(self, windows: Windows, k: int, f: UniversalHash):
        self.windows = windows
        self.k = k
        self.f = f
        self.window_len = windows.q
        self.budget = task_budget(k)
        self.reduced_prev: Sequence[Edge] = ()
        self.task = ReduceTask(self.reduced_prev, (), windows.prev, f, k)
        self.max_update_ops = 0
        self.max_stored_edges = 0


def insert_preprocess(n: int, k: int, delta: float, rng: random.Random) -> list[CopyState]:
    """ceil(log2(1/delta)) independent copies, each with its own f: V -> [4k^2]."""
    check_size(n, k)
    windows = Windows(n, window_length(k))
    return [CopyState(windows, k, universal_draw(n, 4 * k * k, rng)) for _ in range(repetitions_for(delta))]


def insert_update(copies: Sequence[CopyState], edge: Edge):
    u, v, w = edge
    windows = copies[0].windows
    if not 0 <= u < v < windows.n:
        raise DomainError(f"need 0 <= u < v < n, got u={u}, v={v}, n={windows.n}")
    cur = windows.cur
    cur.append(edge)
    q = windows.q
    rotate = len(cur) == q
    if rotate:
        windows.prev, windows.cur = cur, []
    raw = len(windows.prev) + len(windows.cur)
    assert raw <= 2 * q
    for copy in copies:
        task = copy.task
        ops = 1 if task.done else task.step(copy.budget) + 1
        if rotate:
            assert task.done, "reduce task must finish within its window"
            copy.reduced_prev = task.result
            assert len(copy.reduced_prev) <= q
            copy.task = ReduceTask(task.result, task.pairs, cur, copy.f, copy.k)
            ops += 2
        if ops > copy.max_update_ops:
            copy.max_update_ops = ops
        stored = len(copy.reduced_prev) + raw + copy.task.workspace
        if stored > copy.max_stored_edges:
            copy.max_stored_edges = stored
        assert stored <= 5 * q, f"stored {stored} edges, budget is 5q = {5 * q}"


def insert_query(copies: Sequence[CopyState], k: int) -> Matching | None:
    """Union the shared raw windows and every copy's reduced_prev (deduplicated) and solve exactly."""
    windows = copies[0].windows
    edges = set(windows.prev)
    edges.update(windows.cur)
    for copy in copies:
        edges.update(copy.reduced_prev)
    return solve_exact(edges, k)


class InsertOnlyMatcher:
    """The insert-only pipeline behind the ``DynamicMatcher`` interface."""

    eps = None

    def __init__(self, n: int, k: int, delta: float, rng: random.Random):
        self.k = k
        self.copies = insert_preprocess(n, k, delta, rng)

    def update(self, upd):
        if not upd.insert:
            raise ModelError("the insert-only pipeline cannot process deletions")
        insert_update(self.copies, (upd.u, upd.v, upd.w))

    def query(self) -> Matching | None:
        return insert_query(self.copies, self.k)
