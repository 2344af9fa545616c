"""Span recording around calls into the streammatch layers.

Each traced entry point is replaced, for the life of one worker process,
by a wrapper installed at the name its caller looks it up under: a
function imported by name into another module is patched in that module
(``streammatch.dynamic.derive_seed``), a method on its class.  A later
refactor that moves a function therefore makes the patch fail
(``AttributeError``) or leaves the span with zero calls, which the
benchmark's coverage guard reports, instead of silently reading 0.

Spans are kept in memory as tuples
``(request_id, span_id, parent_id, name, start, end, note)`` and reduced
to per-layer aggregates when the pass ends.  Every update or query record
opens one request span; the spans below it share its request id.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import importlib
import time

# (span name, module, attribute path as the caller resolves it)
PATCHES = (
    ("streams.parse_stream", "streammatch.streams", "parse_stream"),
    ("streams.gen_planted", "streammatch.trials", "gen_planted"),
    ("seeds.derive_seed", "streammatch.dynamic", "derive_seed"),
    ("seeds.derive_seed", "streammatch.trials", "derive_seed"),
    ("seeds.derive_seed", "streammatch.seeds", "derive_seed"),
    ("partition.key_indices", "streammatch.dynamic", "key_indices"),
    ("field_hash.kwise", "streammatch.field_hash", "KWiseHash.__call__"),
    ("field_hash.universal", "streammatch.field_hash", "UniversalHash.__call__"),
    ("dynamic.update", "streammatch.dynamic", "DynamicMatcher.update"),
    ("dynamic.query", "streammatch.dynamic", "DynamicMatcher.query"),
    ("dynamic.weight_class", "streammatch.dynamic", "weight_class"),
    ("l0sampler.materialize", "streammatch.dynamic", "BankSampler._materialize"),
    ("l0sampler.update", "streammatch.l0sampler", "L0Sampler.update"),
    ("l0sampler.query", "streammatch.l0sampler", "L0Sampler.query"),
    ("insertonly.update", "streammatch.insertonly", "insert_update"),
    ("insertonly.reduce_step", "streammatch.insertonly", "ReduceTask.step"),
    ("insertonly.query", "streammatch.insertonly", "insert_query"),
    ("exact.solve_exact", "streammatch.dynamic", "solve_exact"),
    ("exact.solve_exact", "streammatch.insertonly", "solve_exact"),
    ("trials.run_trials", "streammatch.trials", "run_trials"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _m, _a in PATCHES))


def _note_solve(args, result):
    return len(args[0])


def _note_l0_query(args, result):
    from streammatch.l0sampler import FAIL

    return result is FAIL


def _note_dynamic_update(args, result):
    return args[0].last_touched


def _note_dynamic_query(args, result):
    stats = args[0].last_query_stats
    return (stats.sampled + stats.empty + stats.failed, stats.sampled)


# Per-span values read right after the call returns, kept as the span's note.
NOTES = {
    "exact.solve_exact": _note_solve,
    "l0sampler.query": _note_l0_query,
    "dynamic.update": _note_dynamic_update,
    "dynamic.query": _note_dynamic_query,
}


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0

    def _begin(self, name: str, new_request: bool = False) -> list:
        sid = self._next_id
        self._next_id += 1
        if self._stack:
            parent = self._stack[-1]
            rec = [sid if new_request else parent[0], sid, parent[1], name, 0.0]
        else:
            rec = [sid, sid, -1, name, 0.0]
        self._stack.append(rec)
        rec[4] = time.perf_counter()
        return rec

    def _end(self, rec: list, stop: float, note=None):
        self._stack.pop()
        self.spans.append((rec[0], rec[1], rec[2], rec[3], rec[4], stop, note))

    def request(self, name: str, fn, *args):
        """Run one update or query record as a span that starts a new request."""
        rec = self._begin(name, new_request=True)
        try:
            return fn(*args)
        finally:
            self._end(rec, time.perf_counter())

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        begin, end, clock = self._begin, self._end, time.perf_counter

        def traced(*args, **kwargs):
            rec = begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end(rec, clock())
                raise
            stop = clock()
            end(rec, stop, None if note is None else note(args, result))
            return result

        return traced

    def install(self):
        """Patch every entry point of ``PATCHES``; raises if one has moved."""
        for name, module, path in PATCHES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds; self seconds per request
        kind; and the counters read from span notes."""
        child_time: dict[int, float] = {}
        for _rid, _sid, parent, _name, start, end, _note in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        names = {sid: name for _rid, sid, _p, name, _s, _e, _n in self.spans}
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in SPAN_NAMES + ("request.update", "request.query")}
        by_request: dict[str, dict[str, float]] = {}
        solve_sizes: list[int] = []
        union_edges = dynamic_solve_edges = touches = decodes = sampled = failed = 0
        for rid, sid, parent, name, start, end, note in self.spans:
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = end - start
            agg["calls"] += 1
            agg["total_s"] += dur
            own = dur - child_time.get(sid, 0.0)
            agg["self_s"] += own
            shares = by_request.setdefault(names[rid], {})
            shares[name] = shares.get(name, 0.0) + own
            if note is None:
                continue
            if name == "exact.solve_exact":
                solve_sizes.append(note)
                caller = names.get(parent)
                if caller == "insertonly.query":
                    union_edges += note
                elif caller == "dynamic.query":
                    dynamic_solve_edges += note
            elif name == "dynamic.update":
                touches += note
            elif name == "dynamic.query":
                decodes += note[0]
                sampled += note[1]
            elif name == "l0sampler.query":
                failed += note
        out["by_request"] = by_request
        out["counters"] = {
            "solve_sizes": solve_sizes,
            "union_edges": union_edges,
            "dynamic_solve_edges": dynamic_solve_edges,
            "touches": touches,
            "decodes": decodes,
            "sampled": sampled,
            "l0_failed": failed,
        }
        return out
