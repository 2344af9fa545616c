"""Stream file format, well-formedness replay, and planted-instance generation.

Grammar (one record per line, ``#`` starts a comment):

    H <n> <k> <precision>     header: vertex count, parameter, weight decimals
    I <u> <v> <w>             insert edge uv with weight w
    D <u> <v> <w>             delete edge uv (dynamic streams only)
    Q                         query marker

Weights are parsed as exact scaled integers: with precision p, the token
``1.25`` becomes 125.  Endpoints are normalized to u < v at parse time.
A file must contain a header with 1 <= k <= n/2 and at least one query
record.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import ModelError, ParameterError, StreamFormatError
from .seeds import spawn_rng

_WEIGHT_RE = re.compile(r"\d+(\.\d+)?")

Record = tuple  # ("I", u, v, w) | ("D", u, v, w) | ("Q",)


@dataclass(frozen=True)
class StreamFile:
    n: int
    k: int
    precision: int
    records: tuple[Record, ...]


def scale_weight(token: str, precision: int, line_no: int = 0) -> int:
    if not _WEIGHT_RE.fullmatch(token):
        raise StreamFormatError(line_no, f"bad weight {token!r}")
    whole, _, frac = token.partition(".")
    if len(frac) > precision:
        raise StreamFormatError(
            line_no, f"weight {token!r} has more than {precision} decimal places")
    return int(whole) * 10**precision + int(frac.ljust(precision, "0") or "0")


def format_weight(scaled: int, precision: int) -> str:
    if precision == 0:
        return str(scaled)
    return f"{scaled // 10**precision}.{scaled % 10**precision:0{precision}d}"


def _fields(text: str):
    """(line number, fields) of each line that is not blank or a comment."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line.split()


def parse_stream(text: str, insert_only: bool = False) -> StreamFile:
    header = None
    records: list[Record] = []
    for line_no, fields in _fields(text):
        tag = fields[0]
        if tag == "H":
            if header is not None:
                raise StreamFormatError(line_no, "duplicate header")
            if len(fields) != 4:
                raise StreamFormatError(line_no, "header needs: H <n> <k> <precision>")
            try:
                n, k, precision = (int(f) for f in fields[1:])
            except ValueError:
                raise StreamFormatError(line_no, "header fields must be integers") from None
            if n < 2 or k < 1 or precision < 0:
                raise StreamFormatError(line_no, f"bad header values n={n}, k={k}, precision={precision}")
            if 2 * k > n:
                raise StreamFormatError(line_no, f"need k <= n/2, got k={k}, n={n}")
            header = (n, k, precision)
        elif tag in ("I", "D"):
            if header is None:
                raise StreamFormatError(line_no, "record before header")
            if tag == "D" and insert_only:
                raise StreamFormatError(line_no, "deletion in insert-only mode")
            if len(fields) != 4:
                raise StreamFormatError(line_no, f"{tag} record needs: {tag} <u> <v> <w>")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise StreamFormatError(line_no, "vertex ids must be integers") from None
            n = header[0]
            if not (0 <= u < n and 0 <= v < n):
                raise StreamFormatError(line_no, f"vertex id outside [0, {n})")
            if u == v:
                raise StreamFormatError(line_no, "self-loops are not allowed")
            if u > v:
                u, v = v, u
            w = scale_weight(fields[3], header[2], line_no)
            records.append((tag, u, v, w))
        elif tag == "Q":
            if header is None:
                raise StreamFormatError(line_no, "record before header")
            if len(fields) != 1:
                raise StreamFormatError(line_no, "query record takes no fields")
            records.append(("Q",))
        else:
            raise StreamFormatError(line_no, f"unknown record tag {tag!r}")
    if header is None:
        raise StreamFormatError(0, "missing header")
    if not any(r[0] == "Q" for r in records):
        raise StreamFormatError(0, "no query record")
    return StreamFile(n=header[0], k=header[1], precision=header[2], records=tuple(records))


def record_line(text: str, index: int) -> int:
    """The source line of record ``index`` of a text ``parse_stream`` accepted."""
    return [line_no for line_no, fields in _fields(text) if fields[0] != "H"][index]


def render_stream(sf: StreamFile) -> str:
    lines = [f"H {sf.n} {sf.k} {sf.precision}"]
    for r in sf.records:
        if r[0] == "Q":
            lines.append("Q")
        else:
            tag, u, v, w = r
            lines.append(f"{tag} {u} {v} {format_weight(w, sf.precision)}")
    return "\n".join(lines) + "\n"


class GraphReplay:
    """Exact replay of a stream: the live edge set plus well-formedness checks.

    Flags duplicate insertions of a live edge, deletions of a dead edge,
    and any weight drift across occurrences of the same edge.
    """

    def __init__(self):
        self.live: dict[tuple[int, int], int] = {}
        self._first_weight: dict[tuple[int, int], int] = {}

    def apply(self, record: Record):
        tag, u, v, w = record
        pair = (u, v)
        first = self._first_weight.setdefault(pair, w)
        if first != w:
            raise ModelError(f"weight of edge {pair} changed from {first} to {w}")
        if tag == "I":
            if pair in self.live:
                raise ModelError(f"duplicate insertion of live edge {pair}")
            self.live[pair] = w
        elif tag == "D":
            if pair not in self.live:
                raise ModelError(f"deletion of dead edge {pair}")
            del self.live[pair]
        else:
            raise ParameterError(f"not an edge operation: {record}")

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted((u, v, w) for (u, v), w in self.live.items())


def _sample_pairs(n: int, count: int, exclude: set, rng: random.Random) -> list[tuple[int, int]]:
    total = n * (n - 1) // 2
    if count > total - len(exclude):
        raise ParameterError(f"cannot place {count} distinct edges on {n} vertices")
    if total <= 200_000:
        pool = [(u, v) for v in range(1, n) for u in range(v) if (u, v) not in exclude]
        return rng.sample(pool, count)
    chosen: set = set()
    while len(chosen) < count:
        v = rng.randrange(1, n)
        u = rng.randrange(v)
        if (u, v) not in exclude and (u, v) not in chosen:
            chosen.add((u, v))
    return sorted(chosen)


def gen_planted(n: int, k: int, weights: int, m: int, del_rate: float, seed: int,
                model: str = "dynamic", feasible: bool = True) -> tuple[StreamFile, int | None]:
    """A planted stream and its ground-truth optimum.

    Feasible instances plant k vertex-disjoint edges with weights in
    [weights+2, weights+4] among noise edges of weight at most ``weights``;
    since every edge heavier than the noise cap is planted and the planted
    edges are pairwise disjoint, the planted matching is the unique-weight
    optimum and its weight is returned as OPT.  Infeasible instances put
    every edge on a single star (or nothing, for k=1), so no k-matching
    exists and OPT is None.  Deletions, when requested, remove noise edges
    at legal positions after their insertion.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if 2 * k > n:
        raise ParameterError(f"need k <= n/2, got k={k}, n={n}")
    if weights < 1:
        raise ParameterError(f"weights must be >= 1, got {weights}")
    if not 0.0 <= del_rate <= 1.0:
        raise ParameterError(f"del_rate must lie in [0, 1], got {del_rate}")
    if model not in ("dynamic", "insert"):
        raise ParameterError(f"model must be 'dynamic' or 'insert', got {model!r}")
    if model == "insert" and del_rate > 0:
        raise ParameterError("insert-only streams cannot request deletions")

    rng = spawn_rng(seed, "gen", model, n, k, weights, m, del_rate, feasible)

    if feasible:
        if m < k:
            raise ParameterError(f"m={m} cannot hold the {k} planted edges")
        verts = rng.sample(range(n), 2 * k)
        planted = []
        for idx in range(k):
            u, v = verts[2 * idx], verts[2 * idx + 1]
            if u > v:
                u, v = v, u
            planted.append((u, v, rng.choice((weights + 2, weights + 3, weights + 4))))
        opt = sum(e[2] for e in planted)
        noise_count = int((m - k) / (1.0 + del_rate))
        del_count = min(m - k - noise_count, noise_count)
        pairs = _sample_pairs(n, noise_count, {(u, v) for u, v, _ in planted}, rng)
        noise = [(u, v, rng.randint(1, weights)) for u, v in pairs]
        inserts = planted + noise
        deleted = rng.sample(noise, del_count)
    else:
        if k == 1:
            inserts, deleted, opt = [], [], None
        else:
            count = min(m, n - 1)
            spokes = rng.sample(range(1, n), count)
            inserts = [(0, v, rng.randint(1, weights)) for v in spokes]
            del_count = int(round(del_rate * len(inserts) / (1.0 + del_rate)))
            deleted = rng.sample(inserts, del_count)
            opt = None

    ops: list[Record] = [("I", u, v, w) for u, v, w in inserts]
    rng.shuffle(ops)
    for u, v, w in deleted:
        pos = ops.index(("I", u, v, w))
        ops.insert(rng.randrange(pos + 1, len(ops) + 1), ("D", u, v, w))
    ops.append(("Q",))
    return StreamFile(n=n, k=k, precision=0, records=tuple(ops)), opt
