"""Sketch-based maximum-weight k-matching over dynamic edge streams.

Preprocessing draws a two-level hashing scheme for subsets of size 2k;
each vertex is hashed through it when it first appears in the stream,
and its values are kept.  Every stream element (uv, w, op) touches exactly
family_size^2 samplers: one l0-sampler per pair (i, j) drawn from the value sets
of u and v, keyed additionally by the edge's weight class.  Samplers are
created lazily on first touch.  A query takes the edge each bank entry
samples, deduplicates them and extracts an exact maximum-weight
k-matching from them; since every sampled edge is a real (inserted, not
deleted) edge, the answer is one-sided: a k-matching is never fabricated.

Exact mode (``eps`` None) keys samplers by the exact (scaled integer)
weight.  Approx mode (``eps`` a Fraction) keys by the class index i of w,
(1+eps)^(i-1) < w <= (1+eps)^i, and reports the class representative
(1+eps)^i, which bounds the weight loss of the returned matching by a
factor (1-eps).  ``wclasses`` maps each class seen to the weight its edges
report: the class, or in approx mode its representative.

A bank entry is keyed by one int, (slot*R + i)*R + j, for R = range_size
and the slot of the weight class, numbered in order of first appearance;
every vertex value is below R, so the key is injective, and ``query``
reads an entry's class back from its slot, key // R^2.  An entry's value
is its net update vector (id -> net count); its seed, derived per key so
that it does not depend on creation order, is kept once, in ``_seeds``.  A
decode hands that seed straight to an ``L0Sampler``, gives it the net
vector and drops it afterwards; the sampler is linear and draws its cells
from the seed as it reads them, so the outcome is the one a sampler updated
from the start gives.  The abstract space accounting still charges the full
sketch.

Bank values follow one rule, so that most entries own no object at all.  A
value with at most one id may be shared, so it is replaced, never changed:
every entry one update creates, refills or moves from {id: c} to {id: c'}
holds that update's one value (every entry of one edge and class holds the
same count of its id), and every entry a deletion empties holds
``EMPTY_ENTRY``.  A value with two or more ids belongs to one entry and is
changed in place.

An entry's outcome is fixed by its seed and net vector, so the matcher
keeps one index of the sampled edges instead of sweeping the bank at each
query: ``_sampled`` counts, per (weight class, u, v), the entries whose
outcome is that edge.  An entry holding exactly {id} counts at once; a
slow entry, with two or more ids, through its last decoded outcome, kept
in ``_slow`` (``EMPTY``, which counts toward nothing, until then).
``update`` moves the counts as an entry's support size crosses 1 and 2,
and marks the slow entries it touches in ``_dirty``.  A query decodes only
those, so after no update it decodes nothing, and with running totals of
the sampled and FAIL outcomes it gives the answers and ``QueryStats`` of a
sweep of the bank.

The sampled edges are ranked as the solver's kernel ranks them
(``exact.py``, rule 2), and the ranks are kept up to date instead of
rebuilt at each query.  ``_classes`` holds each sampled pair's classes;
``_by_vertex`` holds, per vertex, the keys (top class, u, v) of its sampled
pairs ascending, so a key's rank at a vertex, its place from the top among
distinct pairs, is one bisect; and ``_eligible`` holds, ascending, the keys
ranked at most 2k-1 at both ends.  When a key enters or leaves a vertex,
only the key that crosses rank 2k-1 there can change eligibility, so a
change costs a few bisects.  Class order is reported-weight order in both
modes, so ``reversed(_eligible)`` is key-descending, and the solver reads
it lazily, as a ``KeyDescending`` view, until its kernel is full: at most
(2k-2)(2k-1)+1 edges on any shape, stars and hubs included.  The output is
the one all sampled edges give: every eligible pair ranks within 2k-1 among
the eligible ones too, and they hold no parallel copies, so the kernel of
``_eligible`` is the kernel of all sampled edges, in the same order.

A vertex's values (``key_indices``) and a weight's class and slot are
computed once per matcher, on the first update that names them, and
kept: family_size ints per vertex, fewer than the family_size^2 bank
entries each update touches, so the memo stays small beside the bank.

One DynamicMatcher per stream; single-owner mutation (a query writes
only the outcomes it decodes); queries are repeatable.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, ParameterError
from .exact import KeyDescending, Matching, solve_exact
from .l0sampler import EMPTY, FAIL, L0Sampler, Sampled, levels_for, repetitions_for
from .partition import HashScheme, build_scheme, key_indices
from .seeds import derive_seed
from .streams import check_size


@dataclass(frozen=True)
class EdgeUpdate:
    """One stream element: edge (u, v) with u < v, weight w, insert or delete."""

    u: int
    v: int
    w: int
    insert: bool

    def __post_init__(self):
        if not 0 <= self.u < self.v:
            raise DomainError(f"edge endpoints must satisfy 0 <= u < v, got ({self.u}, {self.v})")
        if self.w < 0:
            raise DomainError(f"edge weight must be nonnegative, got {self.w}")


def edge_id(u: int, v: int, n: int) -> int:
    """Canonical triangular encoding v(v-1)/2 + u of the pair u < v < n."""
    if not 0 <= u < v < n:
        raise DomainError(f"need 0 <= u < v < n, got u={u}, v={v}, n={n}")
    return v * (v - 1) // 2 + u


def edge_from_id(ident: int) -> tuple[int, int]:
    """Inverse of ``edge_id``."""
    v = (1 + isqrt(1 + 8 * ident)) // 2
    u = ident - v * (v - 1) // 2
    if not 0 <= u < v:
        raise DomainError(f"{ident} is not a valid edge id")
    return u, v


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    # str() round-trip keeps decimal intent for float inputs like 0.1.
    try:
        return Fraction(str(x))
    except ValueError:  # nan, inf
        raise ParameterError(f"need a finite number, got {x}") from None


# Largest |class index| accepted.  The exact correction in ``weight_class``
# costs time like |i|, and |i| is about ln(w)/eps: unbounded as eps shrinks.
WEIGHT_CLASS_CAP = 1 << 14


def weight_class(w, eps) -> int:
    """The unique integer i with (1+eps)^(i-1) < w <= (1+eps)^i.

    Exact: comparisons are done in rational arithmetic, so boundary
    weights (w exactly a power of 1+eps) land in the closed upper end.
    A weight whose estimated |i| exceeds ``WEIGHT_CLASS_CAP`` is a
    ``DomainError``.
    """
    wf = _as_fraction(w)
    if wf <= 0:
        raise DomainError(f"weight classes need w > 0, got {w}")
    base = 1 + _as_fraction(eps)
    if base <= 1:
        raise ParameterError(f"eps must be positive, got {eps}")
    if math.log(base) == 0.0:
        raise ParameterError(f"eps {eps} is too small: 1 + eps rounds to 1.0")
    # A float estimate, corrected exactly below.  log1p keeps the digits of a small eps,
    # and of w near 1; elsewhere math.log takes big ints, since float(wf) may overflow.
    num, den = wf.numerator, wf.denominator
    near_one = 2 * abs(num - den) < den  # |w - 1| < 1/2
    log_w = math.log1p((num - den) / den) if near_one else math.log(num) - math.log(den)
    i = math.ceil(log_w / math.log1p(float(base - 1)))
    if abs(i) > WEIGHT_CLASS_CAP:
        raise DomainError(f"weight class {i} at eps {float(base - 1)} "
                          f"is beyond the cap |i| <= {WEIGHT_CLASS_CAP}")
    while base**i < wf:
        i += 1
    while base ** (i - 1) >= wf:
        i -= 1
    return i


def class_representative(i: int, eps) -> Fraction:
    """The weight (1+eps)^i reported for edges in class i."""
    return (1 + _as_fraction(eps)) ** i


class BankSampler:
    """A bank value: an exact net update vector (id -> net count).  With at
    most one id it may be shared and is replaced, never changed; with two or
    more ids it belongs to one entry.  A decode takes the entry's seed from
    ``DynamicMatcher._seeds``."""

    __slots__ = ("net",)

    def __init__(self, net: dict[int, int]):
        self.net = net

    def _materialize(self, seed: int, n_ids: int, delta: float) -> L0Sampler:
        sketch = L0Sampler(n_ids, delta, seed)
        for ident, count in self.net.items():
            sketch.update(ident, count)
        return sketch


# The value of every entry a deletion empties; never changed.
EMPTY_ENTRY = BankSampler({})


@dataclass
class QueryStats:
    sampled: int = 0
    empty: int = 0
    failed: int = 0


def _discard(ascending: list, item):
    i = bisect_left(ascending, item)
    if i < len(ascending) and ascending[i] == item:
        del ascending[i]


class DynamicMatcher:
    """State of the dynamic pipeline for one stream."""

    def __init__(self, n: int, k: int, rng: random.Random, mode: str = "exact", eps=None):
        check_size(n, k)
        if mode not in ("exact", "approx"):
            raise ParameterError(f"mode must be 'exact' or 'approx', got {mode!r}")
        if mode == "approx":
            if eps is None:
                raise ParameterError("approx mode needs eps")
            eps = _as_fraction(eps)
            if not 0 < eps < 1:
                raise ParameterError(f"eps must lie in (0, 1), got {eps}")
            if float(1 + eps) == 1.0:
                raise ParameterError(f"eps {float(eps)} is too small: 1 + eps rounds to 1.0")
        self.n = n
        self.k = k
        self.eps = eps if mode == "approx" else None
        self.delta = 1.0 / (20.0 * k**4 * math.log(2 * k))
        self.scheme: HashScheme = build_scheme(n, 2 * k, rng)
        params = self.scheme.params
        self._range_size = params.range_size
        self._pair_count = params.family_size * params.family_size
        self.bank: dict[int, BankSampler] = {}  # key -> value (module docstring)
        self._seeds: dict[int, int] = {}  # key -> seed
        self.n_ids = n * (n - 1) // 2
        self._bank_seed = rng.getrandbits(64)
        self.updates_applied = 0
        self.wclasses: dict = {}  # class -> reported weight (module docstring)
        self._slot_class: list = []  # slot -> class, in order of first appearance
        self._class_slot: dict = {}  # class -> slot
        self._slots: dict = {}  # weight -> slot of its class
        self._values: dict[int, list[int]] = {}  # vertex -> key_indices(vertex)
        self.last_touched = 0
        self.last_query_stats = QueryStats()
        self._sampled: dict[tuple, int] = {}  # (class, u, v) -> entries sampling it (module docstring)
        self._classes: dict[tuple, object] = {}  # (u, v) -> its sampled class, or their ascending list
        self._by_vertex: dict[int, list[tuple]] = {}  # x -> (top class, u, v) of its sampled pairs, ascending
        self._eligible: list[tuple] = []  # the keys ranked at most 2k-1 at both ends, ascending
        self._cap = 2 * k - 1
        self._sampled_total = 0  # sum of the counts in ``_sampled``
        self._failed_total = 0  # slow entries whose counted outcome is FAIL
        self._slow: dict[int, object] = {}  # slow key -> its counted outcome
        self._dirty: set[int] = set()  # slow keys touched since their last decode

    def update(self, upd: EdgeUpdate):
        ident = edge_id(upd.u, upd.v, self.n)  # first: a refused edge changes no state
        slot = self._slots.get(upd.w)
        if slot is None:
            slot = self._new_weight(upd.w)
        wc = self._slot_class[slot]
        values_u = self._values.get(upd.u) or self._vertex_values(upd.u)
        values_v = self._values.get(upd.v) or self._vertex_values(upd.v)
        count = 1 if upd.insert else -1
        fresh = BankSampler({ident: count})  # held by every entry this update creates or refills
        moved = None  # held by every entry this update moves from {ident: c} to {ident: c + count}
        bank = self.bank
        slow = self._slow
        dirty = self._dirty
        r = self._range_size
        base = slot * r
        gained = 0  # change in the number of entries that are exactly {ident}
        for i in values_u:
            row = (base + i) * r
            for j in values_v:
                key = row + j
                rec = bank.get(key)
                if rec is None:  # 0 -> 1, a new entry
                    self._seeds[key] = derive_seed(self._bank_seed, i, j, wc)
                    bank[key] = fresh
                    gained += 1
                    continue
                net = rec.net
                if len(net) >= 2:  # the entry's own vector: changed in place
                    c = net.get(ident, 0) + count
                    if c:
                        net[ident] = c
                    else:
                        del net[ident]
                    if len(net) >= 2:
                        dirty.add(key)  # changed, so decoded again at the next query
                    else:  # 2 -> 1: the counted outcome goes, and the other id counts as a single
                        self._tally(wc, slow.pop(key), -1)
                        dirty.discard(key)
                        self._count((wc, *edge_from_id(next(iter(net)))), 1)
                elif not net:  # 0 -> 1, a refill
                    bank[key] = fresh
                    gained += 1
                else:  # one id, maybe shared: replaced, never changed
                    ((other, c),) = net.items()
                    if other != ident:  # 1 -> 2
                        bank[key] = BankSampler({other: c, ident: count})
                        self._count((wc, *edge_from_id(other)), -1)
                        slow[key] = EMPTY
                        dirty.add(key)
                    elif c + count:  # 1 -> 1; every entry of this edge and class holds c
                        if moved is None:
                            moved = BankSampler({ident: c + count})
                        bank[key] = moved
                    else:  # 1 -> 0
                        bank[key] = EMPTY_ENTRY
                        gained -= 1
        if gained:
            self._count((wc, upd.u, upd.v), gained)
        self.updates_applied += 1
        touched = len(values_u) * len(values_v)
        self.last_touched = touched
        self._assert_budgets(touched)

    def _new_weight(self, w) -> int:
        """The slot of w's class, on the first update that names w."""
        wc = w if self.eps is None else weight_class(w, self.eps)
        if wc not in self._class_slot:
            self._class_slot[wc] = len(self._slot_class)
            self._slot_class.append(wc)
            self.wclasses[wc] = wc if self.eps is None else class_representative(wc, self.eps)
        slot = self._slots[w] = self._class_slot[wc]
        return slot

    def _vertex_values(self, x: int) -> list[int]:
        values = self._values[x] = key_indices(x, self.scheme)
        assert all(i < self._range_size for i in values)
        return values

    def _count(self, edge: tuple, delta: int):
        self._sampled_total += delta
        old = self._sampled.get(edge, 0)
        c = old + delta
        if c:
            self._sampled[edge] = c
            if not old:
                self._enter(edge)
        else:
            del self._sampled[edge]
            self._leave(edge)

    def _enter(self, edge: tuple):
        """Class wc of the pair (u, v) is sampled now; re-rank if it is the pair's new top."""
        wc, u, v = edge
        have = self._classes.get((u, v))
        if have is None:
            self._classes[(u, v)] = wc
            self._rank_in(edge)
            return
        if type(have) is not list:
            have = self._classes[(u, v)] = [have]
        top = have[-1]
        insort(have, wc)
        if wc > top:
            self._rank_out((top, u, v))
            self._rank_in(edge)

    def _leave(self, edge: tuple):
        """Class wc of the pair (u, v) is no longer sampled; re-rank if it was the pair's top."""
        wc, u, v = edge
        have = self._classes[(u, v)]
        if type(have) is not list:
            del self._classes[(u, v)]
            self._rank_out(edge)
            return
        del have[bisect_left(have, wc)]
        top = have[-1]
        if len(have) == 1:
            self._classes[(u, v)] = top
        if wc > top:
            self._rank_out(edge)
            self._rank_in((top, u, v))

    def _rank_in(self, key: tuple):
        """Add a pair's top key at both ends.  Below it each rank grows by one,
        so at each end at most one other key leaves rank 2k-1 for 2k."""
        cap, eligible, by_vertex = self._cap, self._eligible, self._by_vertex
        within = True
        for x in key[1:]:
            keys = by_vertex.get(x)
            if keys is None:
                keys = by_vertex[x] = []
            i = bisect_left(keys, key)
            keys.insert(i, key)
            top = len(keys) - cap  # the index of rank 2k-1
            if i < top:
                within = False
            elif top > 0:
                _discard(eligible, keys[top - 1])
        if within:
            insort(eligible, key)

    def _rank_out(self, key: tuple):
        """Remove a pair's top key at both ends.  Below it each rank falls by
        one, so at each end at most one other key reaches rank 2k-1, and is
        eligible if it ranks within 2k-1 at its other end too."""
        cap, eligible, by_vertex = self._cap, self._eligible, self._by_vertex
        _discard(eligible, key)
        ends = key[1:]
        for x in ends:
            keys = by_vertex[x]
            del keys[bisect_left(keys, key)]
        for x in ends:
            keys = by_vertex[x]
            top = len(keys) - cap  # the index of rank 2k-1
            if top >= 0 and keys[top] < key:
                raised = keys[top]
                other = by_vertex[raised[2] if raised[1] == x else raised[1]]
                if len(other) - bisect_left(other, raised) <= cap:
                    insort(eligible, raised)
            elif not keys:
                del by_vertex[x]

    def _tally(self, wc, outcome, delta: int):
        if isinstance(outcome, Sampled):
            self._count((wc, *edge_from_id(outcome.ident)), delta)
        elif outcome is FAIL:
            self._failed_total += delta

    def _assert_budgets(self, touched: int):
        pair_count = self._pair_count
        assert touched == pair_count, f"touched {touched} samplers, expected family_size^2 = {pair_count}"
        bound = min(self.updates_applied * pair_count, len(self.wclasses) * self._range_size**2)
        assert len(self.bank) <= bound, f"bank size {len(self.bank)} exceeds bound {bound}"

    def query(self) -> Matching | None:
        """Solve exactly on the edges the bank entries sample.

        Only the slow entries touched since the last query are decoded,
        and the solver is handed the eligible keys alone, which give the
        answer all sampled edges give (module docstring).  Repeatable:
        back-to-back queries agree.
        """
        per_slot = self._range_size**2
        for key in self._dirty:
            res = self.bank[key]._materialize(self._seeds[key], self.n_ids, self.delta).query()
            wc = self._slot_class[key // per_slot]
            self._tally(wc, res, 1)  # in before out: an unchanged edge keeps its ranks
            self._tally(wc, self._slow[key], -1)
            self._slow[key] = res
        self._dirty.clear()
        sampled, failed = self._sampled_total, self._failed_total
        self.last_query_stats = QueryStats(sampled, len(self.bank) - sampled - failed, failed)
        wclasses = self.wclasses
        edges = ((u, v, wclasses[wc]) for wc, u, v in reversed(self._eligible))
        return solve_exact(KeyDescending(edges, len(self._eligible)), self.k)


def abstract_sampler_words(n_ids: int, delta: float) -> int:
    """Words one full-construction sampler would store: counters + per-cell hash state.

    Three counters plus (a, b, z) per cell, one shared prime and the
    domain size; the lazy bank representation is accounted at this
    word-level cost, the cost model the space budgets are stated in.
    """
    return repetitions_for(delta) * levels_for(n_ids) * 6 + 2
