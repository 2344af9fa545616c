#!/usr/bin/env python3
"""streammatch benchmark: replay one seeded workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload's input is generated from
``--seed`` before anything is timed.  The run then repeats passes, each a
fresh interpreter running ``worker.py`` on that input, until ``--seconds``
have elapsed (at least ``MIN_PASSES`` of each kind); an untraced run first
makes ``SETUP_PASSES`` passes that stop at the end of set-up.  Every timing
is scaled to a reference speed (see probe.py).  Every answer of every
pass is checked here, against a replay of the stream kept by this file and
the generator's planted optimum; no reference answer comes from the
package's own solver.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md beside this file for the workloads, the
metric definitions and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
BASELINE = os.path.join(HERE, "baseline.json")

MIN_PASSES = 3
SETUP_PASSES = 8
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("replay_s", "s"),
    ("update_us.p50", "us"),
    ("update_us.tail", "us"),
    ("query_ms.p50", "ms"),
    ("query_ms.tail", "ms"),
    ("peak_rss_mib", "MiB"),
    ("optimum_rate", "ratio"),
)

# Layers whose calls and self time are reported on every traced run.
TIMED_LAYERS = (
    "seeds.derive_seed",
    "partition.key_indices",
    "field_hash.kwise",
    "field_hash.universal",
    "dynamic.update",
    "dynamic.weight_class",
    "dynamic.query",
    "l0sampler.update",
    "l0sampler.query",
    "insertonly.update",
    "insertonly.reduce_step",
    "insertonly.query",
    "exact.solve_exact",
    "trials.run_trials",
)

PER_LAYER = (
    (("streams.parse_stream.s", "s"), ("streams.parse_stream.records", "count"),
     ("streams.gen_planted.s", "s"))
    + tuple(item for layer in TIMED_LAYERS
            for item in ((f"{layer}.calls", "count"), (f"{layer}.self_s", "s")))
    + (
        ("dynamic.touches", "count"),
        ("dynamic.bank.entries", "count"),
        ("dynamic.bank.zero_entries", "count"),
        ("dynamic.bank.bound", "count"),
        ("dynamic.bank.occupancy", "ratio"),
        ("dynamic.bank.abstract_words", "words"),
        ("dynamic.query.decodes", "count"),
        ("dynamic.query.useful_ratio", "ratio"),
        ("l0sampler.materialized", "count"),
        ("l0sampler.query.failed", "count"),
        ("insertonly.charged_ops.max", "count"),
        ("insertonly.charged_ops.budget", "count"),
        ("insertonly.stored_edges.max", "count"),
        ("insertonly.stored_edges.bound", "count"),
        ("insertonly.query.union_edges", "count"),
        ("exact.solve_exact.input_edges.p50", "count"),
        ("exact.solve_exact.input_edges.max", "count"),
        ("request.update.s", "s"),
        ("request.query.s", "s"),
        ("trace.overhead_ratio", "ratio"),
    )
)

DYNAMIC_SPANS = ("seeds.derive_seed", "partition.key_indices", "field_hash.kwise", "dynamic.update",
                 "dynamic.weight_class", "dynamic.query", "l0sampler.materialize",
                 "l0sampler.update", "l0sampler.query")

# Coverage guard: spans that must record calls, and spans that must not.
EXPECTED_SPANS = {
    "dyn-churn": ("streams.parse_stream", "seeds.derive_seed", "partition.key_indices",
                  "field_hash.kwise", "field_hash.universal", "dynamic.update", "dynamic.query",
                  "l0sampler.materialize", "l0sampler.update", "l0sampler.query",
                  "exact.solve_exact"),
    "insert-long": ("streams.parse_stream", "field_hash.universal", "insertonly.update",
                    "insertonly.reduce_step", "insertonly.query", "exact.solve_exact"),
    "hub-query": ("streams.parse_stream", "seeds.derive_seed", "partition.key_indices",
                  "field_hash.kwise", "field_hash.universal", "dynamic.update", "dynamic.query",
                  "exact.solve_exact"),
    "mc-approx": ("trials.run_trials", "streams.gen_planted", "seeds.derive_seed",
                  "partition.key_indices", "field_hash.kwise", "field_hash.universal",
                  "dynamic.update", "dynamic.weight_class", "dynamic.query", "exact.solve_exact"),
}
FORBIDDEN_SPANS = {"insert-long": DYNAMIC_SPANS}


def derived_seed(*path) -> int:
    """A 63-bit seed from a label path; the benchmark's own, independent of the package."""
    digest = hashlib.sha256("/".join(str(p) for p in path).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# ---------------------------------------------------------------- workloads


def _with_queries(records, every: int) -> list:
    """The edge records, with one Q after every ``every`` of them and one at the end."""
    edges = [r for r in records if r[0] != "Q"]
    out = []
    for idx, rec in enumerate(edges, start=1):
        out.append(rec)
        if idx % every == 0:
            out.append(("Q",))
    if out[-1][0] != "Q":
        out.append(("Q",))
    return out


def planted_stream(seed, n, k, weights, m, del_rate, model, query_every):
    from streammatch.streams import gen_planted

    sf, opt = gen_planted(n, k, weights, m, del_rate, derived_seed("stream", seed), model=model)
    records = _with_queries(sf.records, query_every)
    # gen_planted puts every edge heavier than the noise cap in the planted matching.
    planted = {(u, v) for tag, u, v, w in (r for r in records if r[0] == "I") if w > weights}
    return {"n": n, "k": k, "records": records, "opt": opt, "planted": planted}


def hub_stream(seed, k=3, spokes=180, rounds=8):
    """k-1 hubs with ``spokes`` heavy spokes each, plus k light disjoint edges.

    Hub h's spoke weights are the ladder 100+h, 102+h, ... and its top
    spoke weighs 100+2*spokes+h, above the ladder.  The hubs never share a
    weight, so the solver meets the edges in the same weight order for
    every seed; only the vertex labels and the churned spokes depend on
    it.  Top spokes and light edges are never deleted, so every query's
    optimum is the k-1 top spokes plus the heaviest light edge.
    """
    rng = random.Random(derived_seed("hub", seed))
    hubs = k - 1
    n = hubs * (spokes + 1) + 2 * k
    labels = iter(rng.sample(range(n), n))
    inserts, churn, planted = [], [], set()
    opt = 0
    for h in range(hubs):
        hub = next(labels)
        weights = [100 + 2 * spokes + h] + [100 + h + 2 * i for i in range(spokes - 1)]
        for idx, w in enumerate(weights):
            leaf = next(labels)
            edge = (min(hub, leaf), max(hub, leaf), w)
            inserts.append(edge)
            if idx == 0:
                planted.add(edge[:2])
            else:
                churn.append(edge)
        opt += weights[0]
    light = rng.sample(range(1, 10), k)
    for w in light:
        a, b = next(labels), next(labels)
        inserts.append((min(a, b), max(a, b), w))
        planted.add((min(a, b), max(a, b)))
    opt += max(light)
    rng.shuffle(inserts)
    records = [("I",) + e for e in inserts] + [("Q",)]
    for _ in range(rounds):
        e = rng.choice(churn)
        records += [("D",) + e, ("I",) + e, ("Q",)]
    return {"n": n, "k": k, "records": records, "opt": opt, "planted": planted}


MC_TRIALS = dict(n=50, k=4, weights=5, m=300, del_rate=0.5, eps=0.1, count=10)

WORKLOADS = {
    "dyn-churn": dict(kind="dynamic", make=lambda seed: planted_stream(
        seed, n=20000, k=2, weights=5, m=2500, del_rate=0.5, model="dynamic", query_every=100)),
    "insert-long": dict(kind="insert", delta=1 / 16, make=lambda seed: planted_stream(
        seed, n=300, k=2, weights=5, m=20000, del_rate=0.0, model="insert", query_every=100)),
    "hub-query": dict(kind="dynamic", make=hub_stream),
    "mc-approx": dict(kind="trials", make=None),
}


def render(n, k, records) -> str:
    """Stream text in the package's grammar, written here so that the input
    does not depend on the code under test."""
    lines = [f"H {n} {k} 0"]
    lines += ["Q" if r[0] == "Q" else f"{r[0]} {r[1]} {r[2]} {r[3]}" for r in records]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- checking


def _sound(answer, k, live, exact) -> bool:
    """One-sided check: exactly k disjoint live edges, weights as the mode promises."""
    if len(answer) != k:
        return False
    seen = set()
    for u, v, w in answer:
        true_w = live.get((u, v))
        if true_w is None or u in seen or v in seen:
            return False
        seen.update((u, v))
        if exact and Fraction(w) != true_w:
            return False
        if not exact and Fraction(w) < true_w:
            return False
    return True


def check_stream(records, answers, k, opt, planted) -> dict:
    """Soundness of every answer; optimality once every planted edge is live."""
    live: dict = {}
    missing = set(planted)
    res = {"queries": 0, "checked": 0, "optimal": 0, "unsound": 0}
    answers = iter(answers)
    for rec in records:
        if rec[0] == "I":
            live[rec[1:3]] = rec[3]
            missing.discard(rec[1:3])
            continue
        if rec[0] == "D":
            del live[rec[1:3]]
            continue
        answer = next(answers)
        res["queries"] += 1
        if answer == "error":
            continue
        if answer is not None and not _sound(answer, k, live, exact=True):
            res["unsound"] += 1
        elif not missing:
            res["checked"] += 1
            if answer is not None and sum(Fraction(e[2]) for e in answer) == opt:
                res["optimal"] += 1
    return res


def check_trials(events) -> dict:
    """Soundness of every answer a trial's matcher gave, against its own update log."""
    res = {"queries": 0, "unsound": 0}
    live, k, exact = {}, 0, True
    for ev in events:
        if ev[0] == "N":
            live, k, exact = {}, ev[1], ev[2] == "exact"
        elif ev[0] == "I":
            live[(ev[1], ev[2])] = ev[3]
        elif ev[0] == "D":
            del live[(ev[1], ev[2])]
        else:
            res["queries"] += 1
            if ev[1] is not None and not _sound(ev[1], k, live, exact):
                res["unsound"] += 1
    return res


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# ---------------------------------------------------------------- passes


def run_pass(cfg, text, traced, started):
    cfg = dict(cfg, trace=traced, t0=time.clock_gettime(time.CLOCK_MONOTONIC))
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise TimeoutError("run limit reached before the minimum number of passes")
    proc = subprocess.run([sys.executable, "-I", WORKER, json.dumps(cfg)], input=text,
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten of ``samples`` beyond it."""
    return 100 * (samples - 10) // samples


def percentile(values, pct: int):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    idx = -(-pct * len(ordered) // 100) - 1
    if len(ordered) - idx - 1 < 10:
        raise ValueError(f"p{pct} of {len(ordered)} samples has fewer than ten beyond it")
    return ordered[idx]


def trace_counts(p) -> dict:
    """Deterministic counters of one traced pass: must repeat exactly for a seed."""
    t = p["trace"]
    counts = {name: agg["calls"] for name, agg in t.items() if isinstance(agg, dict) and "calls" in agg}
    counts.update(t["counters"])
    counts.update(p.get("extra", {}))
    return counts


def layer_metrics(traced, untraced) -> dict:
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    first = traced[0]
    t = first["trace"]
    c = t["counters"]
    extra = first.get("extra", {})
    bank = extra.get("bank", {})
    ins = extra.get("insert", {})
    sizes = c["solve_sizes"]
    vals = {
        "streams.parse_stream.s": med(lambda p: p["trace"]["streams.parse_stream"]["total_s"]),
        "streams.parse_stream.records": extra.get("parse_records", 0),
        "streams.gen_planted.s": med(lambda p: p["trace"]["streams.gen_planted"]["total_s"]),
    }
    for layer in TIMED_LAYERS:
        vals[f"{layer}.calls"] = t[layer]["calls"]
        vals[f"{layer}.self_s"] = med(lambda p, layer=layer: p["trace"][layer]["self_s"])
    vals.update({
        "dynamic.touches": c["touches"],
        "dynamic.bank.entries": bank.get("entries", 0),
        "dynamic.bank.zero_entries": bank.get("zero_entries", 0),
        "dynamic.bank.bound": bank.get("bound", 0),
        "dynamic.bank.occupancy": bank["entries"] / bank["bound"] if bank.get("bound") else 0.0,
        "dynamic.bank.abstract_words": bank.get("abstract_words", 0),
        "dynamic.query.decodes": c["decodes"],
        "dynamic.query.useful_ratio": c["dynamic_solve_edges"] / c["sampled"] if c["sampled"] else 0.0,
        "l0sampler.materialized": t["l0sampler.materialize"]["calls"],
        "l0sampler.query.failed": c["l0_failed"],
        "insertonly.charged_ops.max": ins.get("charged_ops_max", 0),
        "insertonly.charged_ops.budget": ins.get("charged_ops_budget", 0),
        "insertonly.stored_edges.max": ins.get("stored_edges_max", 0),
        "insertonly.stored_edges.bound": ins.get("stored_edges_bound", 0),
        "insertonly.query.union_edges": c["union_edges"],
        "exact.solve_exact.input_edges.p50": statistics.median(sizes) if sizes else 0,
        "exact.solve_exact.input_edges.max": max(sizes) if sizes else 0,
        "request.update.s": med(lambda p: p["trace"]["request.update"]["total_s"]),
        "request.query.s": med(lambda p: p["trace"]["request.query"]["total_s"]),
        "trace.overhead_ratio": med(lambda p: p["replay_s"])
        / statistics.median(p["replay_s"] for p in untraced),
    })
    return vals


def _against(baseline, key, value) -> str:
    if baseline is None or key not in baseline:
        return ""
    return "  (matches seed-commit baseline)" if baseline[key] == value else "  (DIFFERS from seed-commit baseline)"


def load_baseline(workload, seed):
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(workload, {}).get("seeds", {}).get(str(seed))
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "streammatch", "__init__.py")):
        print(f"error: no streammatch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    name, spec = args.workload, WORKLOADS[args.workload]
    cfg = {"kind": spec["kind"], "src": SRC, "matcher_seed": derived_seed("matcher", name, args.seed)}
    if spec["kind"] == "trials":
        cfg["trials"] = MC_TRIALS
        inp, text = None, ""
        per_pass_updates = MC_TRIALS["count"] * MC_TRIALS["m"]
        per_pass_queries = MC_TRIALS["count"]
    else:
        inp = spec["make"](args.seed)
        text = render(inp["n"], inp["k"], inp["records"])
        if spec["kind"] == "insert":
            cfg["delta"] = spec["delta"]
        per_pass_queries = sum(1 for r in inp["records"] if r[0] == "Q")
        per_pass_updates = len(inp["records"]) - per_pass_queries
    # One latency per update record (see README).  Queries likewise when a
    # pass has enough of them for a tail of p90 or above; else pooled over passes.
    update_pct = tail_percentile(per_pass_updates)
    query_per_record = tail_percentile(per_pass_queries) >= 90
    query_pct = tail_percentile(per_pass_queries * (1 if query_per_record else MIN_PASSES))

    plain, traced, setups = [], [], []
    deadline = started + args.seconds
    if not args.trace:
        # Set-up-only passes, so that setup_s is a median of many set-ups.
        try:
            for _ in range(SETUP_PASSES):
                setups.append(run_pass(dict(cfg, setup_only=True), text, False, started)["setup_s"])
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    while True:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        try:
            result = run_pass(cfg, text, want_trace, started)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (traced if want_trace else plain).append(result)
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        if enough and time.monotonic() >= deadline:
            break
    passes = plain + traced

    problems = []
    digests = {digest(p["answers"]) for p in passes}
    if len(digests) != 1:
        problems.append(f"answers differ between passes of one seed ({len(digests)} digests)")
    answers_sha = digest(plain[0]["answers"])
    if inp is not None:
        check = check_stream(inp["records"], plain[0]["answers"], inp["k"], inp["opt"], inp["planted"])
        optimum_rate = check["optimal"] / check["checked"] if check["checked"] else 0.0
    else:
        check = check_trials(plain[0]["events"])
        report = plain[0]["report"]
        check["unsound"] += report["one_sided_violations"]
        check["checked"], check["optimal"] = report["with_matching"], report["successes"]
        optimum_rate = report["successes"] / report["with_matching"]
    if check["queries"] != per_pass_queries:
        problems.append(f"{check['queries']} answers for {per_pass_queries} queries")
    if check["unsound"]:
        problems.append(f"{check['unsound']} unsound answers")
    attempted = sum(len(p["update_s"]) + len(p["query_s"]) for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    for err in {e for p in passes for e in p["errors"]}:
        print(f"failed op: {err}", file=sys.stderr)

    baseline = load_baseline(name, args.seed)
    print(f"workload {name}  seed {args.seed}  passes {len(plain)} untraced"
          + (f" + {len(traced)} traced" if args.trace else "")
          + f"  ({per_pass_updates} updates, {per_pass_queries} queries per pass)")
    print(f"  answers sha256 {answers_sha}" + _against(baseline, "answers_sha256", answers_sha))
    print(f"  unsound_answers {check['unsound']} count   failed_ops {failed / attempted:.6g} ratio"
          f"   reference-checked queries {check['checked']}")
    print("  replay_s per pass: " + " ".join(f"{p['replay_s']:.3f}" for p in plain)
          + ("  traced: " + " ".join(f"{p['replay_s']:.3f}" for p in traced) if traced else ""))
    print("  host slowdown per pass (median probe / reference): "
          + " ".join(f"{p['speed']:.2f}" for p in passes))

    if args.trace:
        counts = [trace_counts(p) for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            diff = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
            problems.append(f"deterministic counters differ between traced passes: {diff}")
        for span in EXPECTED_SPANS[name]:
            if traced[0]["trace"][span]["calls"] == 0:
                problems.append(f"coverage guard: span {span} recorded no calls")
        for span in FORBIDDEN_SPANS.get(name, ()):
            if traced[0]["trace"][span]["calls"] != 0:
                problems.append(f"span {span} recorded calls on a workload that must not reach it")
        counters_sha = digest(counts[0])
        print(f"  counters sha256 {counters_sha}" + _against(baseline, "counters_sha256", counters_sha))
        values = layer_metrics(traced, plain)
        units = dict(PER_LAYER)
        by_request = traced[0]["trace"]["by_request"]
        for req in ("request.update", "request.query"):
            total = traced[0]["trace"][req]["total_s"]
            if total:
                shares = sorted(((s / total, layer) for layer, s in by_request.get(req, {}).items()),
                                reverse=True)
                print(f"  {req} self-time shares: "
                      + ", ".join(f"{layer} {share:.0%}" for share, layer in shares[:5]))
        print(f"  peak_rss_mib (untraced) {statistics.median(p['peak_rss_kib'] for p in plain) / 1024:.1f}"
              f"   dynamic.bank.abstract_words {values['dynamic.bank.abstract_words']}")
    else:
        update_us = [statistics.median(col) * 1e6 for col in zip(*(p["update_s"] for p in plain))]
        if spec["kind"] == "trials":
            # Its slow updates do not stay on the same records from pass to
            # pass (see README), so its tail is the median of each pass's.
            update_tail = statistics.median(percentile(p["update_s"], update_pct) for p in plain) * 1e6
            update_what = f"{per_pass_updates} updates of a pass, median over its {len(plain)} passes"
        else:
            update_tail = percentile(update_us, update_pct)
            update_what = f"{len(update_us)} update records (each the median of its {len(plain)} passes)"
        if query_per_record:
            query_ms = [statistics.median(col) * 1e3 for col in zip(*(p["query_s"] for p in plain))]
            query_what = f"query records (each the median of its {len(plain)} passes)"
        else:
            query_ms = [x * 1e3 for p in plain for x in p["query_s"]]
            query_what = "query timings pooled over the passes"
        values = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "replay_s": statistics.median(p["replay_s"] for p in plain),
            "update_us.p50": statistics.median(update_us),
            "update_us.tail": update_tail,
            "query_ms.p50": statistics.median(query_ms),
            "query_ms.tail": percentile(query_ms, query_pct),
            "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in plain) / 1024,
            "optimum_rate": optimum_rate,
        }
        units = dict(END_TO_END)
        print(f"  update_us.tail is p{update_pct} of {update_what}; query_ms.tail is p{query_pct}"
              f" of {len(query_ms)} {query_what}")
    for key, value in values.items():
        print(f"  {key:<36} {value:.6g} {units[key]}")
    for problem in problems:
        print(f"  FAIL: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
