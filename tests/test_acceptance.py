"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Thresholds and instance sizes are fixed here, not
tunable from outside.
"""

import math
import random
import time

from checks import (
    compact,
    enumerate_oracle,
    interval_violations,
    isolation_witness,
    max_nice_matching,
    measure,
    reduced_compact,
)

from streammatch.dynamic import DynamicMatcher, EdgeUpdate
from streammatch.exact import solve_exact
from streammatch.field_hash import universal_draw
from streammatch.insertonly import insert_preprocess, insert_update, task_budget, window_length
from streammatch.l0sampler import EMPTY, FAIL, L0Sampler, Sampled
from streammatch.partition import build_scheme
from streammatch.seeds import derive_seed, spawn_rng
from streammatch.streams import gen_planted
from streammatch.trials import TrialConfig, make_matcher, run_trials


def _report(num, name, ok, details):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {details}")
    assert ok, f"criterion {num} ({name}): {details}"


def test_criterion_01_toolkit_witness_rate():
    trials = 2000
    hits = 0
    start = time.perf_counter()
    for t in range(trials):
        rng = spawn_rng(20_251, "toolkit", t)
        scheme = build_scheme(4096, 8, rng)
        s = set(rng.sample(range(4096), 8))
        if isolation_witness(s, scheme).witness_indices is not None:
            hits += 1
    elapsed = time.perf_counter() - start
    rate = hits / trials
    _report(1, "toolkit witness rate", rate >= 0.98 and elapsed < 60.0,
            f"rate={rate:.4f} (>=0.98), {elapsed:.1f}s (<60s)")


def test_criterion_02_interval_disjointness_exhaustive():
    violations = []
    for k in (2, 3, 4):
        for seed in range(3):
            scheme = build_scheme(512, k, spawn_rng(7_331, "intervals", k, seed))
            violations.extend(interval_violations(scheme, 512))
    _report(2, "interval disjointness", not violations,
            f"universes k in {{2,3,4}}, |U|=512, violations={len(violations)}")


def test_criterion_03_l0_sampler():
    # single-support determinism and exact zero detection
    deterministic = 0
    empties = 0
    n_small = 2000
    for seed in range(n_small):
        sampler_seed = derive_seed(31, "l0-det", seed)
        ident = random.Random(sampler_seed).randrange(512)
        s = L0Sampler(512, 0.25, sampler_seed)
        s.update(ident, 1)
        deterministic += s.query() == Sampled(ident)
        s.update(ident, -1)
        empties += s.query() is EMPTY

    # support-64 uniformity over fresh samplers
    delta = 0.05
    trials = 10_000
    counts = [0] * 64
    fails = 0
    for seed in range(trials):
        s = L0Sampler(64, delta, derive_seed(31, "l0-uni", seed))
        for ident in range(64):
            s.update(ident, 1)
        res = s.query()
        if res is FAIL:
            fails += 1
        else:
            counts[res.ident] += 1
    non_fail = trials - fails
    lo = min(counts) / non_fail
    hi = max(counts) / non_fail
    ok = (
        deterministic == n_small
        and empties == n_small
        and fails <= 2 * delta * trials
        and lo >= 0.5 / 64
        and hi <= 1.5 / 64
    )
    _report(3, "l0-sampler", ok,
            f"deterministic={deterministic}/{n_small}, empty={empties}/{n_small}, "
            f"fail_rate={fails / trials:.4f} (<= {2 * delta}), "
            f"freq in [{lo * 64:.2f},{hi * 64:.2f}]x uniform (within [0.5,1.5])")


def _dynamic_corpus(model, eps=None):
    reports = {}
    for k in (1, 2, 3, 4):
        config = TrialConfig(model=model, n=50, k=k, weights=5, m=300,
                             del_rate=0.5, eps=eps)
        reports[k] = run_trials(config, 200, seed=derive_seed(404, model, k))
        infeasible = TrialConfig(model=model, n=50, k=k, weights=5, m=60,
                                 del_rate=0.3, eps=eps, feasible=False)
        reports[f"inf{k}"] = run_trials(infeasible, 40, seed=derive_seed(405, model, k))
    return reports


def test_criterion_04_dynamic_exact():
    start = time.perf_counter()
    reports = _dynamic_corpus("dynamic")
    elapsed = time.perf_counter() - start
    rates = {k: reports[k].successes / reports[k].with_matching for k in (1, 2, 3, 4)}
    violations = sum(r.one_sided_violations for r in reports.values())
    ghosts = sum(reports[f"inf{k}"].returned for k in (1, 2, 3, 4))
    ok = all(r >= 0.95 for r in rates.values()) and violations == 0 and ghosts == 0 \
        and elapsed < 300.0
    _report(4, "dynamic exact", ok,
            f"success rates {dict((k, round(v, 3)) for k, v in rates.items())} (>=0.95), "
            f"violations={violations}, infeasible returns={ghosts}, {elapsed:.0f}s (<300s)")


def test_criterion_05_dynamic_approx(monkeypatch):
    wclasses = []  # each trial matcher's weight classes, a dict that only grows

    def recording(*args):
        matcher = make_matcher(*args)
        wclasses.append(matcher.wclasses)
        return matcher

    monkeypatch.setattr("streammatch.trials.make_matcher", recording)
    reports = _dynamic_corpus("dynamic-approx", eps=0.1)
    within = sum(reports[k].within_eps for k in (1, 2, 3, 4))
    returned = sum(reports[k].returned for k in (1, 2, 3, 4))
    violations = sum(r.one_sided_violations for r in reports.values())
    # weights palette is 1..5 plus planted 7..9, so W' = 9
    class_bound = math.ceil(math.log(9) / math.log(1.1)) + 1
    classes = max(map(len, wclasses))
    ok = returned > 0 and within / returned >= 0.95 and violations == 0 \
        and classes <= class_bound
    _report(5, "dynamic approx", ok,
            f"within-(1-eps)OPT {within}/{returned} (>=0.95), violations={violations}, "
            f"classes={classes} (<= {class_bound})")


def test_criterion_06_reduction_preserves_nice_optimum():
    mismatches = 0
    for trial in range(500):
        rng = spawn_rng(606, "reduction", trial)
        pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
        chosen = rng.sample(pairs, 100)
        edges = [(u, v, rng.randint(1, 12)) for u, v in chosen]
        f = universal_draw(30, 16, rng)
        parts = {v: f(v) for v in range(30)}
        part_of = parts.__getitem__
        c_m = max_nice_matching(compact(edges, part_of, 2), part_of, 2)
        r_m = max_nice_matching(reduced_compact(edges, part_of, 2), part_of, 2)
        if (c_m is None) != (r_m is None):
            mismatches += 1
        elif c_m is not None and c_m.weight != r_m.weight:
            mismatches += 1
    _report(6, "reduction preserves nice optimum", mismatches == 0,
            f"500 instances (n=30, m=100, k=2), mismatches={mismatches}")


def test_criterion_07_insert_only_success():
    single = run_trials(
        TrialConfig(model="insert", n=50, k=2, weights=5, m=600, delta=0.5),
        1000, seed=707)
    amplified = run_trials(
        TrialConfig(model="insert", n=50, k=2, weights=5, m=600, delta=1 / 16),
        400, seed=708)
    rate1 = single.successes / single.trials
    rate4 = amplified.successes / amplified.trials
    violations = single.one_sided_violations + amplified.one_sided_violations
    ok = rate1 >= 0.45 and rate4 >= 0.90 and violations == 0
    _report(7, "insert-only success", ok,
            f"single copy {rate1:.3f} (>=0.45), four copies {rate4:.3f} (>=0.90), "
            f"violations={violations}")


def test_criterion_08_staggering_equivalence():
    bad_outputs = 0
    bad_inputs = 0
    windows = 0
    for m, seed in ((500, 1), (10_000, 2)):
        rng = spawn_rng(808, "stagger", seed)
        n = 200
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = rng.sample(pairs, m)
        stream = [(u, v, rng.randint(1, 40)) for u, v in chosen]
        copies = insert_preprocess(n, 2, 0.5, rng)
        copy = copies[0]
        parts = {v: copy.f(v) for v in range(n)}
        q = copy.window_len
        # The task of window j runs over reduced_prev + windows.prev as they
        # stand right after boundary j-1 (empty for the first window).
        task_input: list = []
        expected_gf: list = []
        for pos, e in enumerate(stream, start=1):
            insert_update(copies, e)
            if pos % q:
                continue
            windows += 1
            j = pos // q
            if j == 1:
                expected_input = []
            else:
                expected_input = expected_gf + stream[(j - 2) * q:(j - 1) * q]
            if task_input != expected_input:
                bad_inputs += 1
            produced = list(copy.reduced_prev)
            if produced != reduced_compact(task_input, parts.__getitem__, 2):
                bad_outputs += 1
            expected_gf = produced
            task_input = list(copy.reduced_prev) + list(copy.windows.prev)
    _report(8, "staggering equivalence", bad_outputs == 0 and bad_inputs == 0,
            f"{windows} windows over m in {{500, 10000}}: "
            f"input mismatches={bad_inputs}, output mismatches={bad_outputs}")


def test_criterion_09_update_time_budget():
    # insert-only: max per-update charged ops must not grow with stream length
    config = TrialConfig(model="insert", n=64, k=2, weights=5, m=100_000, delta=0.5)
    profile = measure(config, (1_000, 10_000, 100_000), seed=909)
    maxima = [profile["per_length"][m]["max_update_ops"] for m in (1_000, 10_000, 100_000)]
    ratio = max(maxima) / min(maxima)
    budget = task_budget(2)
    cap = budget + 16 + 3  # one over-full heap charge plus bookkeeping
    insert_ok = ratio <= 1.1 and all(mx <= cap for mx in maxima)

    # dynamic: every update touches exactly family_size^2 samplers
    dyn = measure(TrialConfig(model="dynamic", n=50, k=2, weights=5, m=500),
                  (500,), seed=910)
    entry = dyn["per_length"][500]
    dynamic_ok = entry["touched_per_update"] == [entry["pairs_per_update"]]
    _report(9, "update-time budget", insert_ok and dynamic_ok,
            f"insert max ops {maxima} (ratio {ratio:.3f} <= 1.1, cap {cap}); "
            f"dynamic touched == family_size^2 == {entry['pairs_per_update']}: {dynamic_ok}")


def test_criterion_10_space_budget():
    # dynamic bank bound (asserted inside the engine on every update, recheck here)
    dm = DynamicMatcher(40, 2, spawn_rng(1010, "space"))
    rng = spawn_rng(1010, "space-stream")
    params = dm.scheme.params
    pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)]
    for u, v in rng.sample(pairs, 300):
        dm.update(EdgeUpdate(u, v, rng.randint(1, 5), True))
    bound = min(dm.updates_applied * params.family_size**2,
                len(dm.wclasses) * params.range_size**2)
    dyn_ok = len(dm.bank) <= bound

    # insert-only: stored edges per copy never exceed 5q (asserted every update)
    config = TrialConfig(model="insert", n=64, k=2, weights=5, m=20_000, delta=0.5)
    profile = measure(config, (20_000,), seed=1011)
    entry = profile["per_length"][20_000]
    ins_ok = entry["max_stored_edges_per_copy"] <= 5 * window_length(2)
    _report(10, "space budget", dyn_ok and ins_ok,
            f"bank {len(dm.bank)} <= {bound}; "
            f"insert stored {entry['max_stored_edges_per_copy']} <= {5 * window_length(2)}")


def test_criterion_11_exact_solver_oracle_equivalence():
    mismatches = 0
    for trial in range(1000):
        rng = spawn_rng(1111, "solver", trial)
        k = rng.randint(1, 4)
        n = rng.randint(4, 14)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = rng.sample(pairs, min(rng.randint(0, 18), len(pairs)))
        edges = [(u, v, rng.randint(0, 9)) for u, v in chosen]
        got = solve_exact(edges, k)
        want = enumerate_oracle(edges, k)
        if (got is None) != (want is None):
            mismatches += 1
        elif got is not None and (got.weight != want.weight or got.edges != want.edges):
            mismatches += 1
    _report(11, "exact solver vs oracle", mismatches == 0,
            f"1000 instances (|E|<=18, k<=4), mismatches={mismatches}")
