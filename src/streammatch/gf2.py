"""Arithmetic in the binary fields GF(2^w), w <= 64.

Field elements are plain ints whose bits are the coefficients of a
polynomial over GF(2).  Addition is xor; multiplication is carry-less
multiplication followed by reduction modulo a fixed irreducible
polynomial of degree w.  The reduction polynomial per width is found by
deterministic search (lowest odd tail first) and certified with Ben-Or's
irreducibility test, so the table is reproducible and self-verified.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ParameterError

MAX_WIDTH = 64


def clmul(a: int, b: int) -> int:
    """Carry-less product of two nonnegative ints."""
    if a < b:
        a, b = b, a
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def _poly_mod(a: int, f: int) -> int:
    df = f.bit_length()
    while a.bit_length() >= df:
        a ^= f << (a.bit_length() - df)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def is_irreducible(f: int, w: int) -> bool:
    """Ben-Or's test for a degree-w polynomial over GF(2): f is irreducible
    iff gcd(x^(2^i) - x, f) = 1 for every i = 1 .. floor(w/2)."""
    if f.bit_length() != w + 1:
        return False
    t = 0b10
    for _ in range(w // 2):
        t = _poly_mod(clmul(t, t), f)
        if _poly_gcd(t ^ 0b10, f) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def reduction_poly(w: int) -> int:
    """The fixed irreducible polynomial used for GF(2^w)."""
    if not 1 <= w <= MAX_WIDTH:
        raise ParameterError(f"field width must be in [1, {MAX_WIDTH}], got {w}")
    for tail in range(1, 1 << min(w, 16), 2):
        f = (1 << w) | tail
        if is_irreducible(f, w):
            return f
    raise AssertionError(f"no irreducible polynomial found for width {w}")


def gf_mul(a: int, b: int, w: int) -> int:
    """Product of a and b in GF(2^w)."""
    f = reduction_poly(w)
    p = clmul(a, b)
    while p.bit_length() > w:
        p ^= f << (p.bit_length() - (w + 1))
    return p
