"""The traced benchmark pass still binds to the package.

``perfbench/worker.py`` patches its spans at the names the package's
callers look up (``BankSampler._materialize``, ``DynamicMatcher.query``,
...) and reads ``last_touched`` and ``last_query_stats``; a rename in
``src`` makes the traced pass fail or record nothing.  Each case runs the
unchanged worker, as ``perfbench/run.py`` does, on a tiny input; the
coverage-guard cases run it on each workload's seed-1 input and apply
``run.py``'s own checks.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
import time

import pytest

from checks import covered_vertex, eligible_pairs, sampled_keys

from streammatch.dynamic import DynamicMatcher, EdgeUpdate, edge_from_id
from streammatch.insertonly import insert_preprocess, insert_update
from streammatch.l0sampler import Sampled
from streammatch.partition import key_indices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
MATCHER_SEED = 5


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench()


def _traced_pass(cfg, text=""):
    cfg = dict(cfg, src=os.path.join(ROOT, "src"), matcher_seed=MATCHER_SEED, trace=1,
               t0=time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.run([sys.executable, "-I", WORKER, json.dumps(cfg)], input=text,
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["errors"] == []
    assert "error" not in out["answers"]
    return out


def test_dynamic_pass_decodes_a_two_id_entry():
    # The worker builds DynamicMatcher(n, k, random.Random(matcher_seed));
    # the same scheme gives a vertex x whose edge (0, x) shares entries with
    # (0, 1), so the query decodes an entry holding two ids.
    n = 600
    dm = DynamicMatcher(n, 1, random.Random(MATCHER_SEED))
    values_1 = set(key_indices(1, dm.scheme))
    x = next(x for x in range(2, n) if values_1 & set(key_indices(x, dm.scheme)))
    dm.update(EdgeUpdate(0, 1, 3, True))
    dm.update(EdgeUpdate(0, x, 3, True))
    assert any(len(rec.net) == 2 for rec in dm.bank.values())

    out = _traced_pass({"kind": "dynamic"}, f"H {n} 1 0\nI 0 1 3\nI 0 {x} 3\nQ\n")
    assert out["extra"]["bank"]["entries"] == len(dm.bank)
    trace = out["trace"]
    assert trace["l0sampler.materialize"]["calls"] >= 1
    # dyn-churn's coverage guard needs both sampler spans to record calls.
    assert trace["l0sampler.update"]["calls"] >= 1
    assert trace["l0sampler.query"]["calls"] >= 1
    assert trace["dynamic.query"]["calls"] == 1
    assert trace["counters"]["touches"] == 2 * dm.last_touched


def test_dynamic_pass_without_a_two_id_entry():
    # hub-query's shape: no entry ever holds two ids, so the query decodes
    # nothing, and still its coverage guard wants seeds.derive_seed calls.
    # A seed derived only when an entry is decoded would leave that span empty.
    out = _traced_pass({"kind": "dynamic"}, "H 12 1 0\nI 0 1 3\nQ\nD 0 1 3\nI 0 2 3\nQ\n")
    trace = out["trace"]
    assert trace["l0sampler.materialize"]["calls"] == 0
    # One seed per created entry, and one key_indices call per vertex.
    assert trace["seeds.derive_seed"]["calls"] == out["extra"]["bank"]["entries"] >= 1
    assert trace["partition.key_indices"]["calls"] == 3


def test_dynamic_pass_counts_emptied_and_refilled_entries():
    # (0, x) shares entries with (0, 1): deleting (0, 1) empties all of its
    # entries, and inserting (0, x) refills the shared ones.  Emptied entries
    # all hold one shared empty vector; the worker counts zero entries by
    # ``not rec.net``, and its counts must be those of a direct matcher.
    n = 600
    dm = DynamicMatcher(n, 1, random.Random(MATCHER_SEED))
    values_1 = set(key_indices(1, dm.scheme))
    x = next(x for x in range(2, n) if values_1 & set(key_indices(x, dm.scheme)))
    for v, insert in ((1, True), (1, False), (x, True)):
        dm.update(EdgeUpdate(0, v, 3, insert))
    zero_entries = sum(1 for rec in dm.bank.values() if not rec.net)
    assert 0 < zero_entries < dm.last_touched < len(dm.bank) < 2 * dm.last_touched

    out = _traced_pass({"kind": "dynamic"}, f"H {n} 1 0\nI 0 1 3\nD 0 1 3\nI 0 {x} 3\nQ\n")
    bank = out["extra"]["bank"]
    assert (bank["entries"], bank["zero_entries"]) == (len(dm.bank), zero_entries)


def test_solver_input_is_the_eligible_edges():
    # At k=2 only the hub's 3 heaviest spokes rank within 2k-1 = 3 there, so
    # the query hands the solver those and the two disjoint edges, and the
    # counters record that view's length, not the live edge count.
    n, k = 12, 2
    edges = [(0, s, 10 - s) for s in range(1, 7)] + [(7, 8, 2), (9, 10, 1)]
    dm = DynamicMatcher(n, k, random.Random(MATCHER_SEED))
    for u, v, w in edges:
        dm.update(EdgeUpdate(u, v, w, True))
    # Every live edge is a single: before the first query the index counts only singles.
    assert {(u, v) for _wc, u, v in sampled_keys(dm)} == {(u, v) for u, v, _w in edges}
    assert dm._eligible == eligible_pairs(sampled_keys(dm), k) == sorted(
        (w, u, v) for u, v, w in edges[:3] + edges[-2:])

    text = f"H {n} {k} 0\n" + "".join(f"I {u} {v} {w}\n" for u, v, w in edges) + "Q\n"
    out = _traced_pass({"kind": "dynamic"}, text)
    assert out["trace"]["counters"]["solve_sizes"] == [2 * k - 1 + 2]


def test_solver_input_counts_slow_samples_that_are_not_singles():
    # Every entry of (0, x) is shared with another edge (0, y), so (0, x) is
    # no single and reaches the solver only as a slow entry's sample.  It is
    # the top spoke at 0, so at k=1 it is eligible with the two disjoint
    # edges.  The solver is handed a lazy view of the eligible keys; the
    # counter records its length, the extra sample included.
    n = 600
    dm = DynamicMatcher(n, 1, random.Random(MATCHER_SEED))
    x, others = covered_vertex(dm)
    edges = [(0, x, 3)] + [(0, y, 3) for y in others] + [(2, 3, 5), (4, 5, 1)]
    for u, v, w in edges:
        dm.update(EdgeUpdate(u, v, w, True))
    singles = set(sampled_keys(dm))  # before the first query, slow entries count as nothing
    dm.query()
    samples = {(3, *edge_from_id(res.ident)) for res in dm._slow.values() if isinstance(res, Sampled)}
    extra = samples - singles
    assert (3, 0, x) in extra
    assert sampled_keys(dm).keys() == singles | extra
    assert (3, 0, x) in dm._eligible == eligible_pairs(sampled_keys(dm), 1)
    assert len(dm._eligible) == 3

    text = f"H {n} 1 0\n" + "".join(f"I {u} {v} {w}\n" for u, v, w in edges) + "Q\n"
    out = _traced_pass({"kind": "dynamic"}, text)
    assert out["trace"]["counters"]["solve_sizes"] == [len(dm._eligible)]


def test_insert_pass():
    out = _traced_pass({"kind": "insert", "delta": 1 / 16}, "H 12 1 0\nI 0 1 3\nI 2 3 5\nQ\n")
    assert out["extra"]["insert"]["stored_edges_max"] == 2
    assert out["trace"]["insertonly.update"]["calls"] == 2


def test_insert_pass_across_rotations():
    # 50 > 3q edges at k=1 (q=15) over 4 copies: the windows rotate three
    # times, and the worker's counters equal those of a direct run.
    n, k, delta = 20, 1, 1 / 16
    rng = random.Random(7)
    pairs = rng.sample([(u, v) for v in range(1, n) for u in range(v)], 50)
    edges = [(u, v, rng.randint(1, 9)) for u, v in pairs]
    copies = insert_preprocess(n, k, delta, random.Random(MATCHER_SEED))
    for e in edges:
        insert_update(copies, e)
    assert len(copies) == 4 and len(edges) > 3 * copies[0].window_len
    assert all(copy.reduced_prev for copy in copies)

    text = f"H {n} {k} 0\n" + "".join(f"I {u} {v} {w}\n" for u, v, w in edges) + "Q\n"
    out = _traced_pass({"kind": "insert", "delta": delta}, text)
    assert out["extra"]["insert"] == {
        "charged_ops_max": max(copy.max_update_ops for copy in copies),
        "charged_ops_budget": copies[0].budget,
        "stored_edges_max": max(copy.max_stored_edges for copy in copies),
        "stored_edges_bound": 5 * copies[0].window_len,
    }


def test_trials_pass():
    trials = dict(n=12, k=1, weights=3, m=10, del_rate=0.5, eps=0.1, count=2)
    out = _traced_pass({"kind": "trials", "trials": trials})
    assert out["report"]["trials"] == 2
    assert out["extra"]["bank"]["entries"] >= 1
    assert out["trace"]["trials.run_trials"]["calls"] == 1


@pytest.mark.parametrize("name", list(BENCH.WORKLOADS))
def test_workload_meets_its_coverage_guard(name):
    # One traced pass on the workload's seed-1 input, built and checked by
    # run.py's own code: a span its guard needs recorded calls, no span it
    # forbids did, and every answer is sound, one per query.
    spec = BENCH.WORKLOADS[name]
    cfg = {"kind": spec["kind"], "src": BENCH.SRC, "matcher_seed": BENCH.derived_seed("matcher", name, 1)}
    if spec["kind"] == "trials":
        cfg["trials"] = BENCH.MC_TRIALS
        text = ""
    else:
        inp = spec["make"](1)
        text = BENCH.render(inp["n"], inp["k"], inp["records"])
        if spec["kind"] == "insert":
            cfg["delta"] = spec["delta"]
    out = BENCH.run_pass(cfg, text, 1, time.monotonic())
    assert out["errors"] == []
    trace = out["trace"]
    assert [span for span in BENCH.EXPECTED_SPANS[name] if trace[span]["calls"] == 0] == []
    assert [span for span in BENCH.FORBIDDEN_SPANS.get(name, ()) if trace[span]["calls"] != 0] == []
    if spec["kind"] == "trials":
        check = BENCH.check_trials(out["events"])
        check["unsound"] += out["report"]["one_sided_violations"]
        queries = BENCH.MC_TRIALS["count"]
    else:
        check = BENCH.check_stream(inp["records"], out["answers"], inp["k"], inp["opt"], inp["planted"])
        queries = sum(1 for rec in inp["records"] if rec[0] == "Q")
    assert (check["unsound"], check["queries"]) == (0, queries)
