"""Sketch-based maximum-weight k-matching over dynamic edge streams.

Preprocessing hashes the n vertices through a two-level scheme built for
subsets of size 2k.  Every stream element (uv, w, op) touches exactly
family_size^2 samplers: one l0-sampler per pair (i, j) drawn from the value sets
of u and v, keyed additionally by the edge's weight class.  Samplers are
created lazily on first touch.  A query samples each bank entry once,
deduplicates the sampled edges and extracts an exact maximum-weight
k-matching from them; since every sampled edge is a real (inserted, not
deleted) edge, the answer is one-sided: a k-matching is never fabricated.

Exact mode keys samplers by the exact (scaled integer) weight.  Approx
mode keys by the class index of the geometric rounding w -> (1+eps)^i
with (1+eps)^(i-1) < w <= (1+eps)^i and reports the class representative
(1+eps)^i as the edge weight, which is what bounds the weight loss of the
returned matching by a factor (1-eps).

A bank entry is its net update vector (id -> net count) and its seed,
derived per key so that it does not depend on creation order.  The
entry's ``L0Sampler`` is built from (seed, net vector) only to decode the
entry, and dropped after the decode.  The outcome is the one the full
construction, updated from the start, gives: the sketch is linear and its
randomness comes only from the seed, so the zero vector is EMPTY, a
one-sparse vector decodes at repetition 0 / level 0, and any other vector
decodes as its sketch does.  The abstract space accounting in the harness
still charges the full construction's counters.

Because the outcome of an entry with at most one id is known without
decoding it, the matcher keeps an incremental index instead of sweeping
the bank at each query: the number of entries whose net vector is exactly
{id}, per (id, weight class), and the "slow" entries, those holding two or
more ids, each with its decoded outcome or None.  ``update`` moves entries
between the two as their support size crosses 1 and 2, and resets a slow
entry's outcome to None whenever it touches the entry.  A query reads the
single edges straight off the index and decodes only the slow entries
whose outcome is None, keeping each outcome until the entry is next
touched; it costs O(distinct live edges + slow entries) instead of
O(bank size), with the same answers and the same ``QueryStats``.

One DynamicMatcher per stream; single-owner mutation (a query writes
only the outcomes it decodes); queries are repeatable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, ParameterError
from .exact import Matching, solve_exact
from .l0sampler import EMPTY, L0Sampler, Sampled
from .partition import HashScheme, build_scheme, key_indices
from .seeds import derive_seed


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


def weight_class(w, eps) -> int:
    """The unique integer i with (1+eps)^(i-1) < w <= (1+eps)^i.

    Exact: comparisons are done in rational arithmetic, so boundary
    weights (w exactly a power of 1+eps) land in the closed upper end.
    """
    wf = _as_fraction(w)
    if wf <= 0:
        raise DomainError(f"weight classes need w > 0, got {w}")
    base = 1 + _as_fraction(eps)
    if base <= 1:
        raise ParameterError(f"eps must be positive, got {eps}")
    # A float estimate, corrected exactly below; math.log takes big ints, float(wf) may overflow.
    i = math.ceil((math.log(wf.numerator) - math.log(wf.denominator)) / math.log(base))
    while base**i < wf:
        i += 1
    while base ** (i - 1) >= wf:
        i -= 1
    return i


def class_representative(i: int, eps) -> Fraction:
    """The weight (1+eps)^i reported for edges in class i."""
    return (1 + _as_fraction(eps)) ** i


class BankSampler:
    """One bank entry: its exact net update vector and its seed."""

    __slots__ = ("net", "seed")

    def __init__(self, seed: int):
        self.net: dict[int, int] = {}
        self.seed = seed

    def query(self, n_ids: int, delta: float):
        return self._materialize(n_ids, delta).query()

    def _materialize(self, n_ids: int, delta: float) -> L0Sampler:
        sketch = L0Sampler(n_ids, delta, random.Random(self.seed))
        for ident in sorted(self.net):
            count = self.net[ident]
            step = 1 if count > 0 else -1
            for _ in range(abs(count)):
                sketch.update(ident, step)
        return sketch


@dataclass
class QueryStats:
    sampled: int = 0
    empty: int = 0
    failed: int = 0


class DynamicMatcher:
    """State of the dynamic pipeline for one stream."""

    def __init__(self, n: int, k: int, rng: random.Random, mode: str = "exact", eps=None):
        if k < 1 or 2 * k > n:
            raise ParameterError(f"need 1 <= k <= n/2, got k={k}, n={n}")
        if mode not in ("exact", "approx"):
            raise ParameterError(f"mode must be 'exact' or 'approx', got {mode!r}")
        if mode == "approx":
            if eps is None:
                raise ParameterError("approx mode needs eps")
            eps = _as_fraction(eps)
            if not 0 < eps < 1:
                raise ParameterError(f"eps must lie in (0, 1), got {eps}")
        self.n = n
        self.k = k
        self.mode = mode
        self.eps = eps
        self.delta = 1.0 / (20.0 * k**4 * math.log(2 * k))
        self.scheme: HashScheme = build_scheme(n, 2 * k, rng)
        params = self.scheme.params
        self._range_size = params.range_size
        self._pair_count = params.family_size * params.family_size
        self.bank: dict[tuple, BankSampler] = {}
        self.n_ids = n * (n - 1) // 2
        self._bank_seed = rng.getrandbits(64)
        self.updates_applied = 0
        self.wclasses: set = set()
        self.last_touched = 0
        self.last_query_stats = QueryStats()
        self._rep_cache: dict[int, Fraction] = {}
        # The query index (module docstring): entries whose net vector is
        # exactly {id}, counted per (id, weight class), and the slow entries,
        # key -> decoded outcome, or None if not decoded since the last touch.
        self._singles: dict[tuple[int, int], int] = {}
        self._slow: dict[tuple, object] = {}

    def update(self, upd: EdgeUpdate):
        if upd.v >= self.n:
            raise DomainError(f"vertex {upd.v} outside [0, {self.n})")
        if self.mode == "approx":
            wc = weight_class(upd.w, self.eps)
        else:
            wc = upd.w
        values_u = key_indices(upd.u, self.scheme)
        values_v = key_indices(upd.v, self.scheme)
        ident = edge_id(upd.u, upd.v, self.n)
        count = 1 if upd.insert else -1
        bank = self.bank
        slow = self._slow
        gained = 0  # change in the number of entries that are exactly {ident}
        for i in values_u:
            for j in values_v:
                key = (i, j, wc)
                rec = bank.get(key)
                if rec is None:
                    assert i < self._range_size and j < self._range_size
                    rec = BankSampler(derive_seed(self._bank_seed, i, j, wc))
                    bank[key] = rec
                net = rec.net
                before = len(net)
                c = net.get(ident, 0) + count
                if c:
                    net[ident] = c
                else:
                    del net[ident]
                after = len(net)
                if before + after == 1:  # 0 -> 1 or 1 -> 0
                    gained += after - before
                elif before + after == 3:  # 1 -> 2 or 2 -> 1: the other id moves
                    other = next(x for x in net if x != ident)
                    self._count_single((other, wc), 1 if after == 1 else -1)
                if after >= 2:
                    slow[key] = None  # changed, so decoded again at the next query
                elif before >= 2:
                    del slow[key]
        if gained:
            self._count_single((ident, wc), gained)
        self.updates_applied += 1
        self.wclasses.add(wc)
        touched = len(values_u) * len(values_v)
        self.last_touched = touched
        self._assert_budgets(touched)

    def _count_single(self, single: tuple[int, int], delta: int):
        c = self._singles.get(single, 0) + delta
        if c:
            self._singles[single] = c
        else:
            del self._singles[single]

    def _assert_budgets(self, touched: int):
        pair_count = self._pair_count
        assert touched == pair_count, f"touched {touched} samplers, expected family_size^2 = {pair_count}"
        bound = min(
            self.updates_applied * pair_count,
            len(self.wclasses) * self._range_size**2,
        )
        assert len(self.bank) <= bound, f"bank size {len(self.bank)} exceeds bound {bound}"

    def query(self) -> Matching | None:
        """Sample every bank entry once and solve exactly on the sampled edges.

        Entries with at most one id are read off the index; a slow entry is
        decoded only if it changed since its last decode.  Repeatable:
        back-to-back queries agree.
        """
        sampled = set(self._singles)
        singles = sum(self._singles.values())
        stats = QueryStats(sampled=singles, empty=len(self.bank) - singles - len(self._slow))
        slow = self._slow
        for key, res in slow.items():
            if res is None:
                res = slow[key] = self.bank[key].query(self.n_ids, self.delta)
            if isinstance(res, Sampled):
                stats.sampled += 1
                sampled.add((res.ident, key[2]))
            elif res is EMPTY:
                stats.empty += 1
            else:
                stats.failed += 1
        self.last_query_stats = stats
        if not sampled:
            return None
        edges = []
        for ident, wc in sampled:
            u, v = edge_from_id(ident)
            if self.mode == "approx":
                w = self._rep_cache.get(wc)
                if w is None:
                    w = self._rep_cache[wc] = class_representative(wc, self.eps)
            else:
                w = wc
            edges.append((u, v, w))
        return solve_exact(edges, self.k)


def abstract_sampler_words(n_ids: int, delta: float) -> int:
    """Words one full-construction sampler would store: counters + per-cell hash state.

    Three counters plus (a, b, z) per cell, one shared prime and the
    domain size; the lazy bank representation is accounted at this
    word-level cost, the cost model the space budgets are stated in.
    """
    from .l0sampler import levels_for, repetitions_for

    return repetitions_for(delta) * levels_for(n_ids) * 6 + 2
