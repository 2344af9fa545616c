"""One replay pass of a benchmark workload, run in a fresh interpreter.

Started by ``run.py`` as ``python3 -I worker.py <config json>`` with the
stream text (empty for ``trials``) on standard input.  The pass imports
``streammatch`` from the checkout's ``src``, parses the text, builds the
matcher and applies every record in order from a single thread, each
after the previous call returned (a closed loop with one caller).  It
prints one JSON object with the timings, the answers and, when traced,
the per-layer aggregates.  Answers are checked by ``run.py``, not here.
Every timing is scaled to the reference speed by the probes of
``probe.Meter`` (see probe.py).  With ``setup_only`` the pass stops at the
end of set-up and reports only ``setup_s``.

Kinds:
  dynamic  DynamicMatcher.update / query on the parsed stream.
  insert   insert_preprocess, then insert_update / insert_query.
  trials   trials.run_trials; its DynamicMatcher is replaced by a subclass
           that times each update and query and logs what it saw.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import random
import statistics
import sys
import time


def _now() -> float:
    # The parent stamps the run's start on the same system-wide clock.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(Exception):
    """Raised at the end of set-up in a ``setup_only`` pass."""


def end_setup(cfg, out):
    out["setup_end"] = time.perf_counter()
    if cfg.get("setup_only"):
        raise SetupDone


def scale_times(meter, out) -> None:
    """Replace the clock intervals kept by the pass with scaled seconds."""
    scales = meter.scales()
    # Set-up: from the parent's stamp to the first probe, then to its end.
    out["setup_s"] = (out.pop("pre_probe_s") * scales[0]
                      + meter.scaled([(meter.starts[0], out.pop("setup_end"))])[0])
    if "replay" in out:
        out["replay_s"] = meter.scaled([out.pop("replay")])[0]
        out["update_s"] = meter.scaled(out.pop("update"))
        out["query_s"] = meter.scaled(out.pop("query"))


def canonical(answer):
    """JSON form of an answer: None, or [[u, v, weight as str], ...]."""
    if answer is None:
        return None
    return [[u, v, str(w)] for u, v, w in answer.edges]


def bank_counters(matcher) -> dict:
    from streammatch.dynamic import abstract_sampler_words

    params = matcher.scheme.params
    pairs = params.family_size ** 2
    bank = matcher.bank
    return {
        "entries": len(bank),
        "zero_entries": sum(1 for rec in bank.values() if not rec.net),
        "bound": min(matcher.updates_applied * pairs, len(matcher.wclasses) * params.range_size ** 2),
        "abstract_words": len(bank) * abstract_sampler_words(matcher.n_ids, matcher.delta),
    }


def status_kib(field: str) -> int:
    """A memory figure of this process, such as ``VmHWM`` (its RSS high-water
    mark).  Not ``ru_maxrss``: that keeps the RSS the forked harness process
    had before ``exec``, which grows as the run goes on."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def insert_counters(copies) -> dict:
    return {
        "charged_ops_max": max(c.max_update_ops for c in copies),
        "charged_ops_budget": copies[0].budget,
        "stored_edges_max": max(c.max_stored_edges for c in copies),
        "stored_edges_bound": 5 * copies[0].window_len,
    }


def replay(records, update, query, tracer, out):
    """Apply every record in order; time each call and keep each answer."""
    if tracer is not None:
        update = functools.partial(tracer.request, "request.update", update)
        query = functools.partial(tracer.request, "request.query", query)
    clock = time.perf_counter
    update_iv, query_iv = out["update"], out["query"]
    answers, errors = out["answers"], out["errors"]
    begin = clock()
    for rec in records:
        if rec[0] == "Q":
            start = clock()
            try:
                answer = query()
            except Exception as exc:  # counted as a failed op; the pass goes on
                query_iv.append((start, clock()))
                answers.append("error")
                errors.append(repr(exc))
                continue
            query_iv.append((start, clock()))
            answers.append(canonical(answer))
        else:
            start = clock()
            try:
                update(rec)
            except Exception as exc:
                errors.append(repr(exc))
            update_iv.append((start, clock()))
    out["replay"] = (begin, clock())


def run_stream(cfg, tracer, out):
    streams = importlib.import_module("streammatch.streams")
    text = sys.stdin.read()
    sf = streams.parse_stream(text, insert_only=cfg["kind"] == "insert")
    rng = random.Random(cfg["matcher_seed"])
    if cfg["kind"] == "dynamic":
        dynamic = importlib.import_module("streammatch.dynamic")
        EdgeUpdate = dynamic.EdgeUpdate
        matcher = dynamic.DynamicMatcher(sf.n, sf.k, rng, mode="exact")

        def update(rec):
            matcher.update(EdgeUpdate(rec[1], rec[2], rec[3], rec[0] == "I"))

        query = matcher.query
    else:
        insertonly = importlib.import_module("streammatch.insertonly")
        copies = insertonly.insert_preprocess(sf.n, sf.k, cfg["delta"], rng)
        insert_update, insert_query, k = insertonly.insert_update, insertonly.insert_query, sf.k

        def update(rec):
            insert_update(copies, rec[1:])

        def query():
            return insert_query(copies, k)

    end_setup(cfg, out)
    replay(sf.records, update, query, tracer, out)
    if tracer is not None:
        extra = {"parse_records": len(sf.records)}
        if cfg["kind"] == "dynamic":
            extra["bank"] = bank_counters(matcher)
        else:
            extra["insert"] = insert_counters(copies)
        out["extra"] = extra


def run_trials(cfg, tracer, out):
    trials = importlib.import_module("streammatch.trials")
    base = trials.DynamicMatcher
    clock = time.perf_counter
    update_iv, query_iv, events = out["update"], out["query"], out["events"]
    banks: list[dict] = []  # bank counters at each trial's last query, by trial
    request = tracer.request if tracer is not None else (lambda _name, fn, *args: fn(*args))

    class TimedMatcher(base):
        """The trial's matcher, timed around each update and query call."""

        def __init__(self, n, k, rng, mode="exact", eps=None):
            super().__init__(n, k, rng, mode=mode, eps=eps)
            events.append(["N", k, mode])
            self.bench_trial = len(banks)
            banks.append({})

        def update(self, upd):
            if "setup_end" not in out:
                end_setup(cfg, out)
            start = clock()
            request("request.update", super().update, upd)
            update_iv.append((start, clock()))
            events.append(["I" if upd.insert else "D", upd.u, upd.v, upd.w])

        def query(self):
            start = clock()
            answer = request("request.query", super().query)
            query_iv.append((start, clock()))
            events.append(["Q", canonical(answer)])
            out["answers"].append(canonical(answer))
            if tracer is not None:
                # A span of its own keeps this out of run_trials' self time.
                banks[self.bench_trial] = tracer.request("trace.bank_counters", bank_counters, self)
            return answer

    trials.DynamicMatcher = TimedMatcher
    t = cfg["trials"]
    config = trials.TrialConfig(model="dynamic-approx", n=t["n"], k=t["k"], weights=t["weights"],
                                m=t["m"], del_rate=t["del_rate"], eps=t["eps"])
    begin = clock()
    report = trials.run_trials(config, t["count"], cfg["matcher_seed"])
    out["replay"] = (begin, clock())
    out["report"] = {key: getattr(report, key) for key in
                     ("trials", "queries", "with_matching", "returned", "successes",
                      "within_eps", "one_sided_violations")}
    if tracer is not None:
        out["extra"] = {"bank": {key: sum(b.get(key, 0) for b in banks)
                                 for key in ("entries", "zero_entries", "bound", "abstract_words")}}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    out = {"update": [], "query": [], "answers": [], "events": [], "errors": [],
           "pre_probe_s": _now() - cfg["t0"]}
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from probe import REFERENCE_S, Meter

    rss_kib = status_kib("VmRSS")
    meter = Meter()
    meter.start()
    probe_kib = status_kib("VmRSS") - rss_kib  # the probe's table, left out of peak_rss_kib
    sys.path.insert(0, cfg["src"])
    import streammatch

    if not os.path.abspath(streammatch.__file__).startswith(cfg["src"] + os.sep):
        raise SystemExit(f"imported streammatch from {streammatch.__file__}, not from {cfg['src']}")
    tracer = None
    if cfg["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if cfg["kind"] == "trials":
            run_trials(cfg, tracer, out)
        else:
            run_stream(cfg, tracer, out)
    except SetupDone:
        pass
    meter.stop()
    scale_times(meter, out)
    if cfg.get("setup_only"):
        json.dump({"setup_s": out["setup_s"]}, sys.stdout)
        return 0
    out["peak_rss_kib"] = status_kib("VmHWM") - probe_kib
    out["speed"] = statistics.median(meter.probes) / REFERENCE_S
    if tracer is not None:
        out["trace"] = tracer.summary()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
