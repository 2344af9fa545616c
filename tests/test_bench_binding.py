"""The traced benchmark pass still binds to the package.

``perfbench/worker.py`` patches its spans at the names the package's
callers look up (``BankSampler._materialize``, ``DynamicMatcher.query``,
...) and reads ``last_touched`` and ``last_query_stats``; a rename in
``src`` makes the traced pass fail or record nothing.  Each case runs the
unchanged worker, as ``perfbench/run.py`` does, on a tiny input.
"""

import json
import os
import random
import subprocess
import sys
import time

from streammatch.dynamic import DynamicMatcher, EdgeUpdate
from streammatch.partition import key_indices

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
MATCHER_SEED = 5


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
    assert trace["dynamic.query"]["calls"] == 1
    assert trace["counters"]["touches"] == 2 * dm.last_touched


def test_insert_pass():
    out = _traced_pass({"kind": "insert", "delta": 1 / 16}, "H 12 1 0\nI 0 1 3\nI 2 3 5\nQ\n")
    assert out["extra"]["insert"]["stored_edges_max"] == 2
    assert out["trace"]["insertonly.update"]["calls"] == 2


def test_trials_pass():
    trials = dict(n=12, k=1, weights=3, m=10, del_rate=0.5, eps=0.1, count=2)
    out = _traced_pass({"kind": "trials", "trials": trials})
    assert out["report"]["trials"] == 2
    assert out["extra"]["bank"]["entries"] >= 1
    assert out["trace"]["trials.run_trials"]["calls"] == 1
