"""Arithmetic in the binary fields GF(2^w), w <= 64.

Field elements are plain ints whose bits are the coefficients of a
polynomial over GF(2).  Addition is xor; multiplication is carry-less
multiplication followed by reduction modulo a fixed irreducible
polynomial of degree w.  The reduction polynomial per width is found by
deterministic search (lowest odd tail first) and certified with Ben-Or's
irreducibility test, so the table is reproducible and self-verified.

For w <= TABLE_WIDTH = 16, ``log_tables`` gives the discrete log and antilog tables of
the field's multiplicative group to its smallest generator, so a product of
nonzero elements is ``exp[log[a] + log[b]]``: two lookups and an add
instead of a carry-less multiply and a reduction (the standard table
multiply, Plank 1997, "A Tutorial on Reed-Solomon Coding for
Fault-Tolerance in RAID-like Systems").  ``gf_mul`` is the reference
product and the only one for wider fields.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .errors import ParameterError

MAX_WIDTH = 64
TABLE_WIDTH = 16


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
    return _poly_mod(clmul(a, b), reduction_poly(w))


@lru_cache(maxsize=None)
def log_tables(w: int) -> tuple[array, array]:
    """``(log, exp)`` for GF(2^w), w <= TABLE_WIDTH, to the base g, the
    smallest generator of the field's multiplicative group.

    ``exp[i]`` is g^i for 0 <= i < 2(2^w - 1), so ``exp[log[a] + log[b]]``
    is the product of nonzero a and b with no reduction of the exponent;
    ``log[a]`` is the exponent of nonzero a, and ``log[0]`` is 0 and means
    nothing.  The build steps g = 1, 2, ... through its powers and keeps the
    first g whose powers return to 1 only at step 2^w - 1.  Built on first
    use and kept per width.
    """
    if not 1 <= w <= TABLE_WIDTH:
        raise ParameterError(f"table width must be in [1, {TABLE_WIDTH}], got {w}")
    order = (1 << w) - 1
    exp = array("H", bytes(4 * order))
    log = array("H", bytes(2 << w))
    for g in range(1, order + 1):
        # Multiplying by g is GF(2)-linear, so it is the xor of its values on
        # the low byte and on the high byte of the multiplicand.
        lo = [gf_mul(b, g, w) for b in range(min(256, order + 1))]
        hi = [gf_mul(b << 8, g, w) for b in range(1 << max(w - 8, 0))]
        a = 1
        for i in range(order):
            exp[i] = exp[i + order] = a
            log[a] = i
            a = lo[a & 255] ^ hi[a >> 8]
            if a == 1:
                break
        if i == order - 1:  # first back at 1 after 2^w - 1 steps: g generates
            return log, exp
    raise AssertionError(f"no generator found for width {w}")
