"""The stream driver and the Monte-Carlo trial runner.

``make_matcher`` builds either pipeline behind one interface (``update``,
``query``, ``eps``: None for exact weights) and ``replay`` drives it over
a record list; ``cli run`` and the trial runner both go through them.

Each trial draws a fresh planted stream and a fresh algorithm state from
per-trial sub-seeds, replays the stream, and compares every query answer
against the ground truth.  One-sided violations are structural, never
statistical: a returned matching must be a genuine k-matching of the live
graph (edges present, each weight the live weight or, under ``eps``, in
[w, (1+eps)w), endpoints disjoint), and nothing may be returned when the
live graph has no k-matching.

The whole run is a pure function of (config, trials, seed).  Trials are
fully independent (own stream, own state, own sub-seeds), so they could
run in parallel; this implementation runs them sequentially.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamic import DynamicMatcher, EdgeUpdate
from .errors import ParameterError, RecordError, StreamMatchError
from .exact import is_valid_matching
from .insertonly import InsertOnlyMatcher
from .seeds import derive_seed, spawn_rng
from .streams import GraphReplay, gen_planted

MODELS = ("dynamic", "dynamic-approx", "insert")


@dataclass(frozen=True)
class TrialConfig:
    model: str
    n: int
    k: int
    weights: int
    m: int
    del_rate: float = 0.0
    eps: float | None = None
    delta: float = 0.5
    feasible: bool = True

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParameterError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.model == "dynamic-approx" and self.eps is None:
            raise ParameterError("dynamic-approx needs eps")


@dataclass
class TrialReport:
    trials: int = 0
    queries: int = 0
    with_matching: int = 0
    returned: int = 0
    successes: int = 0
    within_eps: int = 0
    one_sided_violations: int = 0
    distinct_weight_classes: int = 0


def make_matcher(model: str, n: int, k: int, rng, eps, delta: float):
    """The matcher for ``model``: an ``InsertOnlyMatcher`` or a ``DynamicMatcher``."""
    if model == "insert":
        return InsertOnlyMatcher(n, k, delta, rng)
    mode = "approx" if model == "dynamic-approx" else "exact"
    return DynamicMatcher(n, k, rng, mode=mode, eps=eps)


def replay(records, matcher, truth: GraphReplay):
    """Apply each edge record to ``truth``, then to ``matcher``; yield the
    matcher's answer at each query record.  An error raised while applying
    a record is re-raised as a ``RecordError`` naming the record's index."""
    for index, record in enumerate(records):
        if record[0] == "Q":
            yield matcher.query()
            continue
        try:
            truth.apply(record)
            matcher.update(EdgeUpdate(record[1], record[2], record[3], record[0] == "I"))
        except StreamMatchError as exc:
            raise RecordError(index, str(exc)) from exc


def _evaluate_query(config: TrialConfig, eps, answer, live: dict, opt, report: TrialReport):
    report.queries += 1
    has_matching = opt is not None
    if has_matching:
        report.with_matching += 1

    if answer is None:
        return

    report.returned += 1
    if not is_valid_matching(answer, config.k, live, eps) or not has_matching:
        # The structural check catches any fabrication, so a valid answer
        # on a stream without a k-matching means OPT was miscomputed.
        report.one_sided_violations += 1
        return

    true_w = sum(live[(u, v)] for u, v, _w in answer.edges)
    if true_w > opt:
        report.one_sided_violations += 1
        return
    if eps is not None and true_w > (1 - eps) * opt:
        report.within_eps += 1
    if true_w == opt:
        report.successes += 1


def run_trials(config: TrialConfig, trials: int, seed: int) -> TrialReport:
    """Seeded, reproducible Monte-Carlo run; see the module docstring."""
    report = TrialReport()
    for t in range(trials):
        sf, opt = gen_planted(
            config.n, config.k, config.weights, config.m, config.del_rate,
            derive_seed(seed, "trial", t, "stream"),
            model="insert" if config.model == "insert" else "dynamic",
            feasible=config.feasible,
        )
        algo_rng = spawn_rng(seed, "trial", t, "algo")
        matcher = make_matcher(config.model, config.n, config.k, algo_rng, config.eps, config.delta)
        truth = GraphReplay()
        for answer in replay(sf.records, matcher, truth):
            _evaluate_query(config, matcher.eps, answer, truth.live, opt, report)
        if config.model != "insert":  # wclasses only grows, so its final size is the maximum
            report.distinct_weight_classes = max(report.distinct_weight_classes,
                                                 len(matcher.wclasses))
        report.trials += 1
    return report
