"""Command-line surface.

    streammatch run    --model {dynamic|dynamic-approx|insert} [--k K]
                       [--epsilon E] [--delta D] --seed S [--stats] FILE
    streammatch gen    --n N --k K --weights W --m M [--del-rate R]
                       --seed S [--model M] [--infeasible] [--out FILE]
    streammatch verify FILE

``run`` takes ``--epsilon`` only with ``dynamic-approx`` and ``--delta``
only with ``insert``; an option the model does not use exits 2.  It builds
its matcher with ``trials.make_matcher`` and drives it with
``trials.replay``, which also replays the true graph: an ill-formed
stream (a duplicate insertion, a deletion of a dead edge, a weight that
changes) or a record the matcher rejects (a zero weight under
``dynamic-approx``) stops the run with the record's line number, and every
answer is checked against the live graph with ``exact.is_valid_matching``.
Exit codes: 0 on success, 2 on a parse, format or well-formedness error,
3 on a one-sided violation.

Timings and per-update counters are measured by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ModelError, ParameterError, RecordError, StreamMatchError, StreamFormatError
from .exact import is_valid_matching, solve_exact
from .seeds import spawn_rng
from .streams import (GraphReplay, format_weight, gen_planted, parse_stream, record_line, render_stream,
                      split_lines)
from .trials import MODELS, make_matcher, replay

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ONE_SIDED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streammatch",
                                     description="streaming maximum-weight k-matching")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="replay a stream file and answer its queries")
    run.add_argument("--model", required=True, choices=MODELS)
    run.add_argument("--k", type=int, default=None, help="override the header parameter")
    run.add_argument("--epsilon", type=float, default=None,
                     help="dynamic-approx only (default 0.1)")
    run.add_argument("--delta", type=float, default=None, help="insert only (default 1/16)")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--stats", action="store_true")
    run.add_argument("file")

    gen = sub.add_parser("gen", help="generate a planted stream")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--weights", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--del-rate", type=float, default=0.0)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--model", choices=("dynamic", "insert"), default="dynamic")
    gen.add_argument("--infeasible", action="store_true")
    gen.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="check stream well-formedness and replay the oracle")
    verify.add_argument("file")
    return parser


def _read_stream_text(path: str) -> str:
    """The file's text; bytes that are not UTF-8 raise ``StreamFormatError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line parse_stream would put the bad byte on.
        line_no = len(split_lines(data[:exc.start].decode("utf-8")))
        raise StreamFormatError(line_no, f"not UTF-8: byte {data[exc.start]:#04x}") from None


def _format_answer(answer, precision: int) -> str:
    if answer is None:
        return "no k-matching"
    shown = " ".join(f"({u},{v},{format_weight(w, precision)})" for u, v, w in answer.edges)
    return f"weight={format_weight(answer.weight, precision)} edges: {shown}"


def _cmd_run(args) -> int:
    for option, value, model in (("--epsilon", args.epsilon, "dynamic-approx"),
                                 ("--delta", args.delta, "insert")):
        if value is not None and args.model != model:
            raise ParameterError(f"{option} applies only to --model {model}")
    eps = 0.1 if args.epsilon is None else args.epsilon
    delta = 1 / 16 if args.delta is None else args.delta
    text = _read_stream_text(args.file)
    sf = parse_stream(text, insert_only=args.model == "insert")
    k = args.k if args.k is not None else sf.k
    rng = spawn_rng(args.seed, "cli-run", args.model, k)
    matcher = make_matcher(args.model, sf.n, k, rng, eps, delta)

    truth = GraphReplay()
    violated = False
    try:
        for query_no, answer in enumerate(replay(sf.records, matcher, truth), 1):
            print(f"query {query_no}: {_format_answer(answer, sf.precision)}")
            if answer is not None and not is_valid_matching(answer, k, truth.live, matcher.eps):
                print(f"one-sided violation at query {query_no}", file=sys.stderr)
                violated = True
    except RecordError as exc:
        raise StreamFormatError(record_line(text, exc.index), str(exc)) from exc

    if args.stats:
        if args.model == "insert":
            for idx, copy in enumerate(matcher.copies):
                print(f"stats copy {idx}: max_update_ops={copy.max_update_ops} "
                      f"max_stored_edges={copy.max_stored_edges} budget={copy.budget} "
                      f"window={copy.window_len}")
        else:
            params = matcher.scheme.params
            print(f"stats: bank={len(matcher.bank)} touched_per_update={params.family_size ** 2} "
                  f"weight_classes={len(matcher.wclasses)} delta={matcher.delta:.3g}")
    return EXIT_ONE_SIDED if violated else EXIT_OK


def _cmd_gen(args) -> int:
    sf, opt = gen_planted(args.n, args.k, args.weights, args.m, args.del_rate,
                          args.seed, model=args.model, feasible=not args.infeasible)
    text = render_stream(sf)
    header = f"# planted optimum: {opt if opt is not None else 'none'}\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header + text)
    else:
        sys.stdout.write(header + text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    text = _read_stream_text(args.file)
    sf = parse_stream(text)
    truth = GraphReplay()
    query_no = 0
    for index, record in enumerate(sf.records):
        if record[0] == "Q":
            query_no += 1
            answer = solve_exact(truth.edges(), sf.k)
            print(f"query {query_no}: oracle {_format_answer(answer, sf.precision)}")
        else:
            try:
                truth.apply(record)
            except ModelError as exc:
                raise StreamFormatError(record_line(text, index), str(exc)) from exc
    print(f"ok: {len(sf.records)} records, {query_no} queries")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "gen": _cmd_gen, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except (StreamMatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
