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

An entry exists only while its net vector is nonzero: an update that
empties it deletes its key from ``bank`` and ``_seeds``, and one that
touches it again creates it anew with the same seed, derived from its key.
Bank values follow one rule, so that most entries own no object at all.  A
value with one id may be shared, so it is replaced, never changed: every
entry one update creates or moves from {id: c} to {id: c'} holds that
update's one value (every entry of one edge and class holds the same count
of its id).  A value with two or more ids belongs to one entry and is
changed in place.

An entry's outcome is fixed by its seed and net vector, so the matcher
keeps one index of the sampled edges instead of sweeping the bank at each
query: ``_sampled`` maps each pair (u, v) to {class: the entries whose
outcome is that edge in that class}.  An entry holding exactly {id} counts
at once; a slow entry, with two or more ids, through its last decoded
outcome, kept in ``_slow`` (``EMPTY``, which counts toward nothing, until
then).  ``update`` moves the counts as an entry's support size crosses 1
and 2, and marks the slow entries it touches in ``_dirty``.  A query
decodes only those, so after no update it decodes nothing, and with running
totals of the sampled and FAIL outcomes it gives the answers and
``QueryStats`` of a sweep of the bank.

The sampled edges are ranked as the solver's kernel ranks them
(``exact.py``, rule 2), and the ranks are kept up to date instead of
rebuilt at each query.  A pair's top class is the ``max`` of its class
counts; ``_by_vertex`` holds, per vertex, the keys (top class, u, v) of its
sampled pairs ascending, so a key's rank at a vertex, its place from the
top among distinct pairs, is one bisect; and ``_eligible`` holds,
ascending, the keys ranked at most 2k-1 at both ends.  One rule keeps it:
``_sync`` puts a key in ``_eligible`` exactly when it ranks within 2k-1 at
both ends, and takes it out otherwise.  A pair's key moves in one place,
``_count``, when its top class changes: the old key leaves ``_eligible`` and
both ends, the new one enters both ends, and ``_sync`` runs on the new key
and on the keys now at ranks 2k-1 and 2k at each end.  One removal and one
insertion at a vertex move every other key's rank there by at most one, so
a key that entered ``_eligible`` now ranks 2k-1 and one that left ranks 2k;
its other end is unchanged, since only the pair itself holds both u and v.
Each move costs a few bisects.  Class order is reported-weight order in both
modes, so the top (2k-2)(2k-1)+1 keys of ``_eligible``, reversed, are
key-descending, and a query hands the solver those alone, as a list: at
most that many edges on any shape, stars and hubs included.  The output is
the one all sampled edges give: every eligible pair ranks within 2k-1 among
the eligible ones too, and they hold no parallel copies, so the solver
keeps every edge it is handed, and those are the kernel of all sampled
edges, in the same order.  Both caps are ``exact.kernel_bounds``.

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
from .exact import Matching, kernel_bounds, solve_exact
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
    """A bank value: an exact net update vector (id -> net count), never
    empty.  With one id it may be shared and is replaced, never changed; with
    two or more ids it belongs to one entry.  A decode takes the entry's seed
    from ``DynamicMatcher._seeds``."""

    __slots__ = ("net",)

    def __init__(self, net: dict[int, int]):
        self.net = net

    def _materialize(self, seed: int, n_ids: int, delta: float) -> L0Sampler:
        sketch = L0Sampler(n_ids, delta, seed)
        for ident, count in self.net.items():
            sketch.update(ident, count)
        return sketch


@dataclass
class QueryStats:
    sampled: int = 0
    empty: int = 0
    failed: int = 0


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
        self._sampled: dict[tuple, dict] = {}  # (u, v) -> {class: entries sampling it} (module docstring)
        self._by_vertex: dict[int, list[tuple]] = {}  # x -> (top class, u, v) of its sampled pairs, ascending
        self._eligible: list[tuple] = []  # the keys ranked at most 2k-1 at both ends, ascending
        self._cap, self._kernel_size = kernel_bounds(k)
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
        fresh = BankSampler({ident: count})  # held by every entry this update creates
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
                    else:  # 1 -> 0: the entry goes
                        del bank[key], self._seeds[key]
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
        """Move the count of class wc of the pair (u, v) by delta, and the
        pair's key if its top class changes (module docstring)."""
        self._sampled_total += delta
        wc, u, v = edge
        classes = self._sampled.setdefault((u, v), {})
        top = max(classes, default=None)
        c = classes.get(wc, 0) + delta
        if c:
            classes[wc] = c
        else:
            del classes[wc]
        new = max(classes, default=None)
        if new == top:
            return
        eligible, by_vertex, cap = self._eligible, self._by_vertex, self._cap
        old, key = (top, u, v), (new, u, v)
        if top is not None:
            i = bisect_left(eligible, old)
            if i < len(eligible) and eligible[i] == old:
                del eligible[i]
        if new is None:
            del self._sampled[(u, v)]
        for x in (u, v):
            keys = by_vertex.setdefault(x, [])
            if top is not None:
                del keys[bisect_left(keys, old)]
            if new is not None:
                insort(keys, key)
            elif not keys:
                del by_vertex[x]
        if new is not None:
            self._sync(key)
        for x in (u, v):
            keys = by_vertex.get(x, [])
            for i in (len(keys) - cap, len(keys) - cap - 1):  # ranks 2k-1 and 2k
                if i >= 0:
                    self._sync(keys[i])

    def _sync(self, key: tuple):
        """Put key in ``_eligible`` exactly when it ranks at most 2k-1 at both ends."""
        cap, eligible = self._cap, self._eligible
        at_u, at_v = self._by_vertex[key[1]], self._by_vertex[key[2]]
        within = len(at_u) - bisect_left(at_u, key) <= cap and len(at_v) - bisect_left(at_v, key) <= cap
        i = bisect_left(eligible, key)
        if i < len(eligible) and eligible[i] == key:
            if not within:
                del eligible[i]
        elif within:
            eligible.insert(i, key)

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
        and the solver is handed the top eligible keys alone, its kernel
        of all sampled edges (module docstring).  Repeatable: back-to-back
        queries agree.
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
        kernel = self._eligible[-self._kernel_size:]
        return solve_exact([(u, v, wclasses[wc]) for wc, u, v in reversed(kernel)], self.k)


def abstract_sampler_words(n_ids: int, delta: float) -> int:
    """Words one full-construction sampler would store: counters + per-cell hash state.

    Three counters plus (a, b, z) per cell, one shared prime and the
    domain size; the lazy bank representation is accounted at this
    word-level cost, the cost model the space budgets are stated in.
    """
    return repetitions_for(delta) * levels_for(n_ids) * 6 + 2
