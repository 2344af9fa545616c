"""Shared exhaustive checkers and reference implementations used by the tests."""

import heapq
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import streammatch
from streammatch.dynamic import (
    EdgeUpdate,
    QueryStats,
    abstract_sampler_words,
    class_representative,
    edge_from_id,
)
from streammatch.errors import DomainError, ParameterError
from streammatch.exact import Edge, Matching, _sorted_desc, solve_exact
from streammatch.field_hash import KWiseHash, next_prime
from streammatch.gf2 import gf_mul
from streammatch.insertonly import PartFn, _heap_charge, task_budget, window_length
from streammatch.l0sampler import EMPTY, FAIL, FINGERPRINT_PRIME, Sampled, levels_for, repetitions_for
from streammatch.partition import HashScheme, SchemeParams, key_indices, scaled_ln_ceil
from streammatch.seeds import derive_seed, spawn_rng
from streammatch.streams import gen_planted
from streammatch.trials import TrialConfig, make_matcher


def run_isolated(code: str, timeout: float = 15) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package under test.

    For a call that might not finish: past ``timeout`` seconds the child is
    killed and ``subprocess.TimeoutExpired`` fails the calling test.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(streammatch.__file__)))
    return subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
                          capture_output=True, text=True, timeout=timeout)


def reference_kwise(h: KWiseHash, x: int) -> int:
    """h(x) by Horner's rule through ``gf_mul``, whatever h's width."""
    acc = 0
    for c in reversed(h.coeffs):
        acc = gf_mul(acc, x, h.width) ^ c
    return acc & ((1 << h.out_bits) - 1)


def interval_violations(scheme, u_size):
    """Complete search for violations of the interval-disjointness property.

    Two preimage sets T_a, T_b intersect exactly when some key x carries
    both a and b in its value set, so enumerating the value pairs of every
    key covers every intersecting index pair.  Violations returned:

    * ``outside-I-prime``: a value of x escapes its part's block;
    * ``same-interval``: two values of one key share an I_q interval
      (their preimages would intersect inside one window);
    * ``cross-block``: two values of one key lie in different I' blocks.
    """
    params = scheme.params
    block_len = params.family_size * params.member_range
    bad = []
    for x in range(u_size):
        values = key_indices(x, scheme)
        block = scheme.f(x) * block_len
        for value in values:
            if not block <= value < block + block_len:
                bad.append(("outside-I-prime", x, value))
        for a_idx in range(len(values)):
            for b_idx in range(a_idx + 1, len(values)):
                a, b = values[a_idx], values[b_idx]
                if a // params.member_range == b // params.member_range:
                    bad.append(("same-interval", x, a, b))
                if a // block_len != b // block_len:
                    bad.append(("cross-block", x, a, b))
    return bad


def collect_preimages(scheme: HashScheme) -> dict[int, set[int]]:
    """Exact preimage sets {x : index in key_indices(x)} over the whole universe."""
    preimages: dict[int, set[int]] = {}
    for x in range(scheme.params.u_size):
        for value in key_indices(x, scheme):
            preimages.setdefault(value, set()).add(x)
    return preimages


def scaled_ln_floor(c: int, k: int) -> int:
    """floor(c * ln k) for integers c >= 1, k >= 2."""
    return scaled_ln_ceil(c, k) - 1


def part_size_bound(params: SchemeParams) -> int:
    """floor(13 ln k): the per-part size threshold of the isolation analysis."""
    return scaled_ln_floor(13, params.k)


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the isolation check for one subset S.

    ``witness_indices`` holds one index per element of S (built from the
    first injective family member of each part) whenever every part's
    family has such a member; otherwise it is None.
    """

    part_sizes_ok: bool
    perfect_per_part: bool
    witness_indices: tuple[int, ...] | None


def _first_perfect_member(family, keys) -> int | None:
    for idx, h in enumerate(family):
        seen = set()
        ok = True
        for x in keys:
            v = h(x)
            if v in seen:
                ok = False
                break
            seen.add(v)
        if ok:
            return idx
    return None


def isolation_witness(s: set[int], scheme: HashScheme) -> WitnessReport:
    """Check whether the scheme isolates the subset ``s`` and build the witness.

    Groups s by part, reports whether all parts stay below the
    floor(13 ln k) size threshold and whether each part's family contains
    a member injective on its group.  When every part has one, returns the
    per-element indices through the first such member; they are pairwise
    distinct by construction and their preimage sets are pairwise
    disjoint.
    """
    params = scheme.params
    if len(s) != params.k:
        raise ParameterError(f"subset has {len(s)} elements, scheme expects {params.k}")
    groups: dict[int, list[int]] = {}
    for x in sorted(s):
        groups.setdefault(scheme.f(x), []).append(x)

    part_sizes_ok = all(len(g) <= part_size_bound(params) for g in groups.values())

    chosen: dict[int, int] = {}
    perfect = True
    for j, keys in groups.items():
        idx = _first_perfect_member(scheme.families[j], keys)
        if idx is None:
            perfect = False
            break
        chosen[j] = idx

    if not perfect:
        return WitnessReport(part_sizes_ok, False, None)

    indices = []
    for j, keys in groups.items():
        eta = chosen[j]
        base = j * params.family_size * params.member_range + eta * params.member_range
        h = scheme.families[j][eta]
        indices.extend(base + h(x) for x in keys)
    assert len(set(indices)) == len(s), "witness indices must be pairwise distinct"
    return WitnessReport(part_sizes_ok, True, tuple(indices))


def edge_key(edge: Edge):
    """The key (weight, u, v) of the solver's total edge order."""
    u, v, w = edge
    return (w, u, v)


def _pair_key(pu: int, pv: int) -> tuple[int, int]:
    return (pu, pv) if pu < pv else (pv, pu)


class ReferenceReduceTask:
    """Reference ``ReduceTask``: one generator resume per charged item.

    It hashes every endpoint, head edges and drain included, and charges
    exactly what ``insertonly.ReduceTask`` charges, so the two agree on
    every step's return value, on the step where ``done`` flips, on
    ``workspace`` between steps and on ``result``.
    """

    def __init__(self, head: Sequence[Edge], tail: Sequence[Edge], part_of: PartFn, k: int):
        self.done = False
        self.result: list[Edge] | None = None
        self.workspace = 0  # edges held in the task's own containers
        self._gen = self._run(head, tail, part_of, k)

    def step(self, budget: int) -> int:
        spent = 0
        while spent < budget and not self.done:
            try:
                spent += next(self._gen)
            except StopIteration:
                self.done = True
        return spent

    def _run(self, head: Sequence[Edge], tail: Sequence[Edge], part_of: PartFn, k: int):
        cap = 8 * k
        q = window_length(k)
        best: dict[tuple[int, int], Edge] = {}

        for source in (head, tail):
            for e in source:
                u, v, _w = e
                pu, pv = part_of(u), part_of(v)
                if pu != pv:
                    key = _pair_key(pu, pv)
                    cur = best.get(key)
                    if cur is None or edge_key(e) > edge_key(cur):
                        best[key] = e
                self.workspace = len(best)
                yield 3

        heap_charge = _heap_charge(max(len(best), 1))
        heap: list = []
        # Edges only move from best to heap here: workspace stays as it is.
        while best:
            _key, e = best.popitem()
            heapq.heappush(heap, ((-e[2], -e[0], -e[1]), e))
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
            self.workspace = len(heap) + len(out)
            yield heap_charge

        self.result = out
        self.workspace = len(out)
        yield 1


def compact(edges: Iterable[Edge], part_of: PartFn, k: int) -> list[Edge]:
    """Per part pair, the heaviest edge; intra-part edges dropped.

    Reference implementation for tests; output in key-descending order.
    """
    best: dict[tuple[int, int], Edge] = {}
    for e in edges:
        u, v, _w = e
        pu, pv = part_of(u), part_of(v)
        if pu == pv:
            continue
        key = _pair_key(pu, pv)
        cur = best.get(key)
        if cur is None or edge_key(e) > edge_key(cur):
            best[key] = e
    return sorted(best.values(), key=edge_key, reverse=True)


def reduced_compact(edges: Iterable[Edge], part_of: PartFn, k: int) -> list[Edge]:
    """Monolithic reduction: compact, both-parts 8k rank filter, global top q.

    Scanning the compact edges in key-descending order makes an edge's
    per-part rank simply the number of heavier incident edges seen so far,
    and leaves the survivors already sorted for the final selection.
    """
    cap = 8 * k
    q = window_length(k)
    counts: dict[int, int] = {}
    out: list[Edge] = []
    for e in compact(edges, part_of, k):
        pu, pv = part_of(e[0]), part_of(e[1])
        ru = counts.get(pu, 0) + 1
        rv = counts.get(pv, 0) + 1
        counts[pu] = ru
        counts[pv] = rv
        if ru <= cap and rv <= cap:
            out.append(e)
            if len(out) == q:
                break
    return out


class OneSparseSketch:
    """Signed counters (phi, iota, tau) for one subsampling cell."""

    __slots__ = ("phi", "iota", "tau", "z")

    def __init__(self, z: int):
        if not 1 <= z < FINGERPRINT_PRIME:
            raise ParameterError("fingerprint base must lie in [1, P)")
        self.phi = 0
        self.iota = 0
        self.tau = 0
        self.z = z

    def update(self, ident: int, count: int):
        self.phi += count
        self.iota += count * ident
        self.tau = (self.tau + count * pow(self.z, ident, FINGERPRINT_PRIME)) % FINGERPRINT_PRIME

    def is_zero(self) -> bool:
        return self.phi == 0 and self.iota == 0 and self.tau == 0

    def recover(self, n: int) -> int | None:
        """The unique id if the cell is verifiably one-sparse, else None."""
        if self.phi == 0 or self.iota % self.phi != 0:
            return None
        ident = self.iota // self.phi
        if not 0 <= ident < n:
            return None
        expect = (self.phi % FINGERPRINT_PRIME) * pow(self.z, ident, FINGERPRINT_PRIME) % FINGERPRINT_PRIME
        return ident if expect == self.tau else None


class GridL0Sampler:
    """Reference ``L0Sampler``: the reps x levels grid of live counters.

    Every update goes through every cell that admits its id, so the grid
    holds the counters that ``L0Sampler.query`` computes from its net
    vector.  All cells are drawn up front, with ``randrange``, in the order
    in which ``L0Sampler.query`` draws them from its seed as it reads them,
    so ``GridL0Sampler(n, delta, Random(seed))`` has the cells, and gives
    the outcome, of ``L0Sampler(n, delta, seed)``.
    """

    def __init__(self, n: int, delta: float, rng: random.Random):
        if n < 1:
            raise ParameterError(f"domain size must be >= 1, got {n}")
        if not 0.0 < delta < 1.0:
            raise ParameterError(f"delta must lie in (0, 1), got {delta}")
        self.n = n
        self.reps = repetitions_for(delta)
        self.levels = levels_for(n)
        p = next_prime(max(n, 1 << 31))
        grid = []
        for _ in range(self.reps):
            row = []
            for level in range(self.levels):
                a = rng.randrange(1, p)
                b = rng.randrange(p)
                z = rng.randrange(1, FINGERPRINT_PRIME)
                row.append((a, b, 1 << level, OneSparseSketch(z)))
            grid.append(row)
        self._p = p
        self._grid = grid

    def update(self, ident: int, count: int):
        if not 0 <= ident < self.n:
            raise DomainError(f"id {ident} outside [0, {self.n})")
        if type(count) is not int or not count:
            raise ParameterError(f"count must be a nonzero int, got {count!r}")
        p = self._p
        for row in self._grid:
            for a, b, r, sketch in row:
                if ((a * ident + b) % p) % r == 0:
                    sketch.update(ident, count)

    def query(self):
        """Sampled(id) from the first verified cell, EMPTY on the zero vector, else FAIL."""
        all_zero = True
        for row in self._grid:
            for _a, _b, _r, sketch in row:
                if all_zero and not sketch.is_zero():
                    all_zero = False
                ident = sketch.recover(self.n)
                if ident is not None:
                    return Sampled(ident)
        return EMPTY if all_zero else FAIL


def bank_key(dm, i: int, j: int, wc) -> int:
    """The bank key of entry (i, j) of weight class ``wc``; inverse of ``key_parts``."""
    r = dm._range_size
    return (dm._class_slot[wc] * r + i) * r + j


def key_parts(dm, key: int) -> tuple:
    """The (i, j, weight class) of a bank key."""
    r = dm._range_size
    rest, j = divmod(key, r)
    slot, i = divmod(rest, r)
    return i, j, dm._slot_class[slot]


def covered_vertex(dm) -> tuple[int, list[int]]:
    """The largest vertex x that shares each of its values with a smaller
    vertex y other than 0, and for each value one such y.

    With the edges (0, y) inserted in the class of (0, x), every entry of
    (0, x) holds a second id, so (0, x) is no single and reaches a query
    only as a slow entry's sample; and (0, x) is the top spoke at 0.
    """
    first: dict[int, int] = {}  # value -> the smallest vertex other than 0 that has it
    for y in range(1, dm.n):
        for j in key_indices(y, dm.scheme):
            first.setdefault(j, y)
    x = next(x for x in range(dm.n - 1, 0, -1) if all(first[j] < x for j in key_indices(x, dm.scheme)))
    return x, sorted({first[j] for j in key_indices(x, dm.scheme)})


def sweep_query(matcher) -> tuple[Matching | None, QueryStats]:
    """Reference ``DynamicMatcher.query``: decode every bank entry once.

    A zero vector is EMPTY and a one-sparse vector decodes as its id (the
    full construction's exact outcomes); any other entry decodes a freshly
    built sketch of its net vector, with the seed derived from the key's
    parts rather than read from the matcher, so the matcher is left
    untouched.  Returns the answer and the query stats.
    """
    stats = QueryStats()
    edges: set = set()
    reps: dict = {}
    for key, rec in matcher.bank.items():
        i, j, wc = key_parts(matcher, key)
        if not rec.net:
            res = EMPTY
        elif len(rec.net) == 1:
            res = Sampled(next(iter(rec.net)))
        else:
            seed = derive_seed(matcher._bank_seed, i, j, wc)
            res = rec._materialize(seed, matcher.n_ids, matcher.delta).query()
        if isinstance(res, Sampled):
            stats.sampled += 1
            u, v = edge_from_id(res.ident)
            if matcher.eps is not None:
                if wc not in reps:
                    reps[wc] = class_representative(wc, matcher.eps)
                w = reps[wc]
            else:
                w = wc
            edges.add((u, v, w))
        elif res is EMPTY:
            stats.empty += 1
        else:
            stats.failed += 1
    return (solve_exact(edges, matcher.k) if edges else None), stats


def top_keys(sampled: Iterable[tuple]) -> list[tuple]:
    """The top copy (class, u, v) of each pair among the sampled keys, ascending."""
    top: dict = {}
    for wc, u, v in sampled:
        if (u, v) not in top or wc > top[(u, v)]:
            top[(u, v)] = wc
    return sorted((wc, u, v) for (u, v), wc in top.items())


def eligible_pairs(sampled: Iterable[tuple], k: int) -> list[tuple]:
    """Reference ``DynamicMatcher._eligible``: the top copies of the sampled
    pairs that rank at most 2k-1 at both ends, ascending.  A key's rank at a
    vertex is the number of distinct pairs there whose top key is no smaller."""
    keys = top_keys(sampled)
    at: dict = {}  # vertex -> its top keys, ascending
    for key in keys:
        for x in key[1:]:
            at.setdefault(x, []).append(key)
    rank = {(key, x): len(ks) - i for x, ks in at.items() for i, key in enumerate(ks)}
    return [key for key in keys if rank[key, key[1]] <= 2 * k - 1 and rank[key, key[2]] <= 2 * k - 1]


def enumerate_oracle(edges: Sequence[Edge], k: int) -> Matching | None:
    """Exhaustive maximum over all vertex-disjoint k-subsets of edges.

    Caller-bounded: intended for instances small enough to enumerate all
    k-subsets.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    es = _sorted_desc(edges)
    best = None
    best_w = None
    for combo in itertools.combinations(es, k):
        seen: set[int] = set()
        ok = True
        for u, v, _w in combo:
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if not ok:
            continue
        w = sum(e[2] for e in combo)
        if best_w is None or w > best_w:
            best = combo
            best_w = w
    return Matching(best) if best is not None else None


def hub_graph(k, spokes=180, seed=0):
    """k-1 hubs with ``spokes`` spokes each and k light disjoint edges (the
    shape of the benchmark's hub-query workload).

    Hub h's spokes weigh 100+h, 102+h, ... and its top spoke, to a private
    leaf, weighs 100+2*spokes+h, above them all.  Returns the shuffled edges
    and the optimum: the top spokes and the heaviest light edge.
    """
    rng = random.Random(seed)
    n = (k - 1) * (spokes + 1) + 2 * k
    labels = iter(rng.sample(range(n), n))
    edges, planted = [], []
    for h in range(k - 1):
        hub = next(labels)
        weights = [100 + 2 * spokes + h] + [100 + h + 2 * i for i in range(spokes - 1)]
        for idx, w in enumerate(weights):
            leaf = next(labels)
            edges.append((min(hub, leaf), max(hub, leaf), w))
            if idx == 0:
                planted.append(edges[-1])
    light = []
    for w in rng.sample(range(1, 10), k):
        a, b = next(labels), next(labels)
        light.append((min(a, b), max(a, b), w))
    edges += light
    planted.append(max(light, key=edge_key))
    rng.shuffle(edges)
    return edges, Matching(tuple(sorted(planted, key=edge_key, reverse=True)))


def max_nice_matching(edges: Sequence[Edge], part_of: Callable[[int], int], k: int) -> Matching | None:
    """Exhaustive maximum over k-matchings whose 2k endpoints occupy 2k distinct parts."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    es = _sorted_desc(edges)
    best = None
    best_w = None
    for combo in itertools.combinations(es, k):
        seen: set[int] = set()
        parts: set[int] = set()
        ok = True
        for u, v, _w in combo:
            pu, pv = part_of(u), part_of(v)
            if u in seen or v in seen or pu == pv or pu in parts or pv in parts:
                ok = False
                break
            seen.add(u)
            seen.add(v)
            parts.add(pu)
            parts.add(pv)
        if not ok:
            continue
        w = sum(e[2] for e in combo)
        if best_w is None or w > best_w:
            best = combo
            best_w = w
    return Matching(best) if best is not None else None


def measure(config: TrialConfig, lengths: tuple[int, ...], seed: int) -> dict:
    """Per-update op and space profile across stream lengths.

    Space is reported in abstract words (counters, ids, coefficients), not
    process bytes: the dynamic bank is charged at the full l0-sampler
    construction it is equivalent to.
    """
    profile: dict = {"model": config.model, "k": config.k, "per_length": {}}
    for m in lengths:
        cfg_seed = derive_seed(seed, "measure", m)
        n = max(config.n, 2 * config.k)
        while n * (n - 1) // 2 < 2 * m:
            n *= 2
        sf, _opt = gen_planted(n, config.k, config.weights, m, config.del_rate, cfg_seed,
                               model="insert" if config.model == "insert" else "dynamic")
        algo_rng = spawn_rng(seed, "measure", m, "algo")
        matcher = make_matcher(config.model, n, config.k, algo_rng, config.eps, config.delta)
        updates = (EdgeUpdate(rec[1], rec[2], rec[3], rec[0] == "I")
                   for rec in sf.records if rec[0] != "Q")
        if config.model == "insert":
            copies = matcher.copies
            for upd in updates:
                matcher.update(upd)
            entry = dict(
                max_update_ops=max(c.max_update_ops for c in copies),
                budget=task_budget(config.k),
                copies=len(copies),
                max_stored_edges_per_copy=max(c.max_stored_edges for c in copies),
                stored_bound_5q=5 * window_length(config.k),
            )
        else:
            touched = set()
            for upd in updates:
                matcher.update(upd)
                touched.add(matcher.last_touched)
            params = matcher.scheme.params
            pair_count = params.family_size ** 2
            entry = dict(
                touched_per_update=sorted(touched),
                pairs_per_update=pair_count,
                bank_size=len(matcher.bank),
                bank_bound=min(matcher.updates_applied * pair_count,
                               len(matcher.wclasses) * params.range_size**2),
                weight_classes=len(matcher.wclasses),
                abstract_words=len(matcher.bank) * abstract_sampler_words(matcher.n_ids, matcher.delta),
            )
        profile["per_length"][m] = entry
    if config.model == "insert":
        maxima = [profile["per_length"][m]["max_update_ops"] for m in lengths]
        profile["update_ops_ratio"] = max(maxima) / min(maxima) if maxima else 1.0
    return profile
