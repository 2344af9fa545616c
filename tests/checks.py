"""Shared exhaustive checkers and reference implementations used by the tests."""

import itertools
from typing import Callable, Sequence

from streammatch.dynamic import (
    BankSampler,
    EdgeUpdate,
    QueryStats,
    abstract_sampler_words,
    class_representative,
    edge_from_id,
)
from streammatch.errors import ParameterError
from streammatch.exact import Edge, Matching, _sorted_desc, solve_exact
from streammatch.insertonly import task_budget, window_length
from streammatch.l0sampler import EMPTY, Sampled
from streammatch.partition import HashScheme, key_indices
from streammatch.seeds import derive_seed, spawn_rng
from streammatch.streams import gen_planted
from streammatch.trials import TrialConfig, make_matcher


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


def sweep_query(matcher) -> tuple[Matching | None, QueryStats]:
    """Reference ``DynamicMatcher.query``: decode every bank entry once.

    A zero vector is EMPTY and a one-sparse vector decodes as its id (the
    full construction's exact outcomes); a sketched entry queries its
    sketch; any other entry decodes a freshly materialized copy, so the
    matcher is left untouched.  Returns the answer and the query stats.
    """
    stats = QueryStats()
    edges: set = set()
    reps: dict = {}
    for (_i, _j, wc), rec in matcher.bank.items():
        if rec.sketch is not None:
            res = rec.sketch.query()
        elif not rec.net:
            res = EMPTY
        elif len(rec.net) == 1:
            res = Sampled(next(iter(rec.net)))
        else:
            copy = BankSampler(rec.seed)
            copy.net = dict(rec.net)
            res = copy.query(matcher.n_ids, matcher.delta)
        if isinstance(res, Sampled):
            stats.sampled += 1
            u, v = edge_from_id(res.ident)
            if matcher.mode == "approx":
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
    return (solve_exact(sorted(edges), matcher.k) if edges else None), stats


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
