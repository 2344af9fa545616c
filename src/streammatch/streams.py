"""Stream file format, well-formedness replay, and planted-instance generation.

Grammar (one record per line, lines end at \\n, \\r\\n or \\r; a line is a
comment only when its first non-blank character is ``#``):

    H <n> <k> <precision>     header: vertex count, parameter, weight decimals
    I <u> <v> <w>             insert edge uv with weight w
    D <u> <v> <w>             delete edge uv (dynamic streams only)
    Q                         query marker

Every integer field, and every digit of a weight, is ASCII 0-9: no sign,
no ``_``, no other script's digits.  Weights are parsed as exact scaled
integers: with precision p, the token ``1.25`` becomes 125.  ``DIGITS_CAP``
caps the precision and a weight's digits before the point, leading zeros
aside, so every weight and sum of weights prints; weights are read and
printed ``_CHUNK`` digits at a time, under the least limit
PYTHONINTMAXSTRDIGITS sets (640), so no setting refuses one.  Endpoints
are normalized to u < v at parse time.  A file must contain one header and
at least one query record.

``MAX_VERTICES`` = 2^41 caps n in ``check_size``, which the header, both
matchers and ``gen_planted`` pass through.  Below it, the edge-id domain
n(n-1)/2 and every prime drawn for a domain of that size stay below
psi_13, under which ``field_hash.is_prime`` is deterministic.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, ModelError, ParameterError, StreamFormatError
from .seeds import spawn_rng

_WEIGHT_RE = re.compile(r"\d+(\.\d+)?", re.ASCII)
DIGITS_CAP = 1000
MAX_VERTICES = 1 << 41
_CHUNK = 600


def check_size(n: int, k: int):
    """Refuse a size outside 1 <= k <= n/2 and n <= MAX_VERTICES."""
    if k < 1 or 2 * k > n:
        raise ParameterError(f"need 1 <= k <= n/2, got k={k}, n={n}")
    if n > MAX_VERTICES:
        raise ParameterError(f"n={n} is above the cap of 2^41 vertices")


def check_edge(u: int, v: int, n: int):
    """Refuse an endpoint pair outside 0 <= u < v < n."""
    if not 0 <= u < v < n:
        raise DomainError(f"need 0 <= u < v < n, got u={u}, v={v}, n={n}")


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
    whole = whole.lstrip("0") or "0"
    if len(whole) > DIGITS_CAP:
        raise StreamFormatError(line_no, f"weight has more than {DIGITS_CAP} digits before the point")
    if len(frac) > precision:
        raise StreamFormatError(
            line_no, f"weight {token!r} has more than {precision} decimal places")
    return digits_int(whole + frac.ljust(precision, "0"))


def digits_int(digits: str) -> int:
    """int(digits) for ASCII digits, made _CHUNK digits at a time."""
    if len(digits) <= _CHUNK:
        return int(digits)
    return digits_int(digits[:-_CHUNK]) * 10**_CHUNK + int(digits[-_CHUNK:])


def int_digits(x: int) -> str:
    """str(x) for an int x >= 0, made _CHUNK digits at a time."""
    if x < 10**_CHUNK:
        return str(x)
    high, low = divmod(x, 10**_CHUNK)
    return int_digits(high) + str(low).zfill(_CHUNK)


def format_weight(w, precision: int) -> str:
    """w / 10**precision: exactly for a scaled int, else to six significant digits."""
    if isinstance(w, int):
        text = int_digits(w).zfill(precision + 1)
        return f"{text[:-precision]}.{text[-precision:]}" if precision else text
    x = w / 10**precision
    if 2.0**-1022 <= x <= 1.7976931348623157e308:  # the normal floats, whose six digits hold
        return f"{float(x):.6g}"
    from decimal import Context, Decimal  # kept out of the pipelines' imports: rarely needed

    # Rounded to six digits with the trailing zeros stripped, as .6g prints a float.
    return f"{(Decimal(x.numerator) / Decimal(x.denominator)).normalize(Context(prec=6)):g}"


def _ints(line_no: int, what: str, *tokens: str) -> Iterator[int]:
    """The ints of ``tokens``: all must be ASCII digits, then each at most
    _CHUNK digits after its leading zeros: far more than an n, k, precision
    or vertex id in range has, and few enough for int() under any
    PYTHONINTMAXSTRDIGITS setting."""
    joined = "".join(tokens)
    if not (joined.isdigit() and joined.isascii()):
        raise StreamFormatError(line_no, f"{what}s must be ASCII digits")
    if len(joined) > _CHUNK:
        tokens = tuple(t.lstrip("0") or "0" for t in tokens)
        if max(map(len, tokens)) > _CHUNK:
            raise StreamFormatError(line_no, f"{what} has too many digits")
    return map(int, tokens)


def split_lines(text: str) -> list[str]:
    """The lines of ``text``: only \\n, \\r\\n and \\r end one (``str.splitlines``
    also ends a line at a form feed, \\x85 or a Unicode line separator)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _fields(text: str):
    """(line number, fields) of each line that is not blank or a comment."""
    for line_no, raw in enumerate(split_lines(text), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line.split()


def parse_stream(text: str, insert_only: bool = False) -> StreamFile:
    header = None
    records: list[Record] = []
    for line_no, fields in _fields(text):
        tag = fields[0]
        if tag not in ("H", "I", "D", "Q"):
            raise StreamFormatError(line_no, f"unknown record tag {tag!r}")
        if tag == "H":
            if header is not None:
                raise StreamFormatError(line_no, "duplicate header")
            if len(fields) != 4:
                raise StreamFormatError(line_no, "header needs: H <n> <k> <precision>")
            n, k, precision = _ints(line_no, "header field", *fields[1:])
            try:
                check_size(n, k)
            except ParameterError as exc:
                raise StreamFormatError(line_no, str(exc)) from None
            if precision > DIGITS_CAP:
                raise StreamFormatError(line_no, f"precision {precision} is above the cap of {DIGITS_CAP}")
            header = (n, k, precision)
            continue
        if header is None:
            raise StreamFormatError(line_no, "record before header")
        if tag == "Q":
            if len(fields) != 1:
                raise StreamFormatError(line_no, "query record takes no fields")
            records.append(("Q",))
            continue
        if tag == "D" and insert_only:
            raise StreamFormatError(line_no, "deletion in insert-only mode")
        if len(fields) != 4:
            raise StreamFormatError(line_no, f"{tag} record needs: {tag} <u> <v> <w>")
        u, v = _ints(line_no, "vertex id", fields[1], fields[2])
        n = header[0]
        if not (u < n and v < n):
            raise StreamFormatError(line_no, f"vertex id outside [0, {n})")
        if u == v:
            raise StreamFormatError(line_no, "self-loops are not allowed")
        if u > v:
            u, v = v, u
        records.append((tag, u, v, scale_weight(fields[3], header[2], line_no)))
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
            raise ModelError(f"weight of edge {pair} changed from {int_digits(first)} to {int_digits(w)}")
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
    check_size(n, k)
    if weights < 1:
        raise ParameterError(f"weights must be >= 1, got {weights}")
    if m < 0:
        raise ParameterError(f"m must be >= 0, got {m}")
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
