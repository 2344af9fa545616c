"""Exact universal and t-wise independent hash families.

Two constructions, both over finite fields:

* ``UniversalHash`` -- the classic ``((a*x + b) mod p) mod r`` family with
  p the smallest prime at least the domain size.  For any two distinct
  keys the number of colliding members is at most |family|/r.

* ``KWiseHash`` -- a random polynomial over GF(2^w) whose degree is one
  less than the independence order, evaluated by Horner's rule, with the
  low ``out_bits`` bits of the field element as output.  Taking low-order
  bits of a uniform GF(2^w) element preserves exact t-wise independence,
  unlike truncating a prime-field value mod a power of two.  For
  w <= ``gf2.TABLE_WIDTH`` each Horner step multiplies through the
  field's log/antilog tables (``gf2.log_tables``, built on the first call
  at that width); wider fields multiply with ``gf2.gf_mul``.  Both give
  the same field element.

Hash objects are immutable after drawing and safe to share between
threads; the caller owns the rng used for drawing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError, ParameterError
from .gf2 import MAX_WIDTH, TABLE_WIDTH, gf_mul, log_tables

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


# A scheme draws part_count * family_size members over one domain: each
# member's prime is found and certified once per value, not once per member.
@lru_cache(maxsize=256)
def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases through 41: deterministic for
    n < ``PSI_13``, the least strong pseudoprime to all of them (Sorensen
    and Webster, 2015)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64)
def next_prime(n: int) -> int:
    """Smallest prime >= n; ParameterError if it is not below ``PSI_13``,
    where ``is_prime`` is no longer deterministic."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    if c >= PSI_13:
        raise ParameterError(f"no prime >= {n} below psi_13, above which is_prime is not deterministic")
    return c


@dataclass(frozen=True)
class UniversalHash:
    """One member h(x) = ((a*x + b) mod p) mod r of the universal family."""

    p: int
    a: int
    b: int
    r: int

    def __post_init__(self):
        if not (is_prime(self.p) and 1 <= self.a <= self.p - 1 and 0 <= self.b <= self.p - 1):
            raise ParameterError(f"invalid universal hash parameters {self}")
        if self.r < 1:
            raise ParameterError("output range must be positive")

    def __call__(self, x: int) -> int:
        if not 0 <= x < self.p:
            raise DomainError(f"key {x} outside [0, {self.p})")
        return ((self.a * x + self.b) % self.p) % self.r


def universal_draw(domain_size: int, r: int, rng: random.Random) -> UniversalHash:
    """Draw uniformly from the universal family for the given domain and range.

    Uses p = smallest prime >= domain_size, a uniform in [1, p-1] and
    b uniform in [0, p-1].
    """
    if domain_size < 1 or r < 1:
        raise ParameterError("domain_size and r must be >= 1")
    p = next_prime(domain_size)
    return UniversalHash(p=p, a=rng.randrange(1, p), b=rng.randrange(p), r=r)


@dataclass(frozen=True)
class KWiseHash:
    """A uniformly random polynomial a_0 + a_1 x + ... over GF(2^w).

    The independence order is the coefficient count.  Maps ``in_bits``-bit
    strings to ``out_bits``-bit strings; the field width w is
    max(in_bits, out_bits), and storage is exactly the coefficients.
    """

    coeffs: tuple[int, ...]
    in_bits: int
    out_bits: int
    width: int = field(init=False)

    def __post_init__(self):
        if self.out_bits < 1:
            raise ParameterError("out_bits must be >= 1")
        width = max(self.in_bits, self.out_bits)
        if width > MAX_WIDTH:
            raise ParameterError(f"field width {width} exceeds supported maximum {MAX_WIDTH}")
        if not self.coeffs or not all(0 <= c < (1 << width) for c in self.coeffs):
            raise ParameterError(f"coefficients must be elements of GF(2^{width}), got {self.coeffs}")
        object.__setattr__(self, "width", width)

    def __call__(self, x: int) -> int:
        if not 0 <= x < (1 << self.in_bits):
            raise DomainError(f"key {x} is not a {self.in_bits}-bit string")
        w = self.width
        if w > TABLE_WIDTH:
            acc = 0
            for c in reversed(self.coeffs):
                acc = gf_mul(acc, x, w) ^ c
        elif x:
            # acc * x is exp[log acc + log x] for nonzero acc, and 0 otherwise.
            log, exp = log_tables(w)
            lx = log[x]
            acc = 0
            for c in reversed(self.coeffs):
                acc = (exp[log[acc] + lx] if acc else 0) ^ c
        else:
            acc = self.coeffs[0]
        return acc & ((1 << self.out_bits) - 1)


def kwise_draw(independence: int, in_bits: int, out_bits: int, rng: random.Random) -> KWiseHash:
    """Draw the polynomial's coefficients independently and uniformly from GF(2^w).

    The field width is w = max(in_bits, out_bits).
    """
    if independence < 1 or in_bits < 1 or out_bits < 1:
        raise ParameterError("independence, in_bits and out_bits must be >= 1")
    width = max(in_bits, out_bits)
    coeffs = tuple(rng.getrandbits(width) for _ in range(independence))
    return KWiseHash(coeffs=coeffs, in_bits=in_bits, out_bits=out_bits)
