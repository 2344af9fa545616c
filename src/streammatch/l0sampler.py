"""Linear-sketch l0-sampler over an integer id domain.

Standard construction: ceil(log2(1/delta)) independent repetitions, each
with ceil(log2 N)+1 geometric subsampling levels.  Level l admits an id
with probability about 2^-l through a pairwise-independent hash drawn
over a field far larger than the domain (level 0 admits everything).  A
cell (repetition, level) is a verified one-sparse sketch of the admitted
sub-vector: the sums

    phi = sum c_i,   iota = sum c_i * id_i,   tau = sum c_i * z^id_i mod P

for a per-cell random z and the fixed Mersenne prime P = 2^61 - 1.  A
cell is decoded only if phi is nonzero, phi divides iota, the recovered
id is in range and the fingerprint matches, so a multi-sparse cell is
mistaken for one-sparse with probability at most (support size)/P, which
is negligible and the only caveat on the otherwise exact outcomes below.

The sampler is its seed and its exact net vector (id -> nonzero net
count).  An update adds any nonzero int to one id's net count, and
``query`` computes each cell's sums from the net vector.  The sketch is
linear, so these are the counters the grid of cells would hold had it
been updated from the start, in unit steps or one whole count per id, in
any order, and the outcome is the grid's, bit for bit: ``Sampled`` from
the first cell that verifies, in repetition-major order; ``EMPTY`` on the
zero vector (all sums are zero); ``FAIL`` when some sum is nonzero but no
cell verifies.
A one-sparse vector always decodes at repetition 0, level 0.

All of a sampler's randomness is its seed.  ``query`` draws each cell's
(a, b, z) from ``random.Random(seed)`` as it reads the cell, as ``randrange``
would, at ``getrandbits`` cost: width.bit_length() bits, drawn again while
not below the width.  So a query draws no cell it does not read, and every
query reads the same cells.  The field prime depends only on the domain
size, and ``next_prime`` memoizes it per size; it refuses one not below
psi_13, so a domain of psi_13 or more is a ParameterError.

A sampler is single-owner mutable state; distinct samplers are
independent.  Queries never mutate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from .errors import DomainError, ParameterError
from .field_hash import next_prime

FINGERPRINT_PRIME = (1 << 61) - 1


@dataclass(frozen=True)
class Sampled:
    """Successful sample: one id with nonzero net count."""

    ident: int


class _Outcome:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


EMPTY = _Outcome("Empty")
FAIL = _Outcome("Fail")


def _recover(phi: int, iota: int, tau: int, z: int, n: int) -> int | None:
    """The unique id if a cell's sums are verifiably one-sparse, else None."""
    if phi == 0 or iota % phi != 0:
        return None
    ident = iota // phi
    if not 0 <= ident < n:
        return None
    expect = (phi % FINGERPRINT_PRIME) * pow(z, ident, FINGERPRINT_PRIME) % FINGERPRINT_PRIME
    return ident if expect == tau else None


def repetitions_for(delta: float) -> int:
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    # ceil(log2(1/delta)), exact: delta = m * 2^e with 1/2 <= m < 1, so
    # 2^-e <= 1/delta < 2^(1-e).  1/delta itself overflows for subnormal delta.
    return max(1, 1 - math.frexp(delta)[1])


def levels_for(n: int) -> int:
    # ceil(log2 n) + 1; (n-1).bit_length() is ceil(log2 n) for n >= 1.
    return (n - 1).bit_length() + 1


def _field_prime(n: int) -> int:
    """The prime of the subsampling field for the domain [0, n).

    The field must be far larger than the domain: with p close to n the
    map a*x+b is a near-permutation of [p], so the number of ids admitted
    at level l is essentially fixed at p/2^l and deep levels are almost
    never one-sparse.
    """
    return next_prime(max(n, 1 << 31))


class L0Sampler:
    """Sampler over the domain [0, n) with failure parameter delta; its cells come from ``seed``."""

    def __init__(self, n: int, delta: float, seed: int):
        if n < 1:
            raise ParameterError(f"domain size must be >= 1, got {n}")
        self.n = n
        self.reps = repetitions_for(delta)
        self.levels = levels_for(n)
        self._p = _field_prime(n)
        self.seed = seed
        self.net: dict[int, int] = {}

    def update(self, ident: int, count: int):
        """Add ``count``, any nonzero int, to the id's net count (module docstring)."""
        if not 0 <= ident < self.n:
            raise DomainError(f"id {ident} outside [0, {self.n})")
        if type(count) is not int or not count:
            raise ParameterError(f"count must be a nonzero int, got {count!r}")
        c = self.net.get(ident, 0) + count
        if c:
            self.net[ident] = c
        else:
            del self.net[ident]

    def query(self):
        """Sampled(id) from the first verified cell, EMPTY on the zero vector, else FAIL."""
        p = self._p
        getrandbits = Random(self.seed).getrandbits

        def below(width: int) -> int:  # randrange(width), drawn as randrange draws it
            k = width.bit_length()
            x = getrandbits(k)
            while x >= width:
                x = getrandbits(k)
            return x

        nonzero = False
        for cell in range(self.reps * self.levels):  # repetition-major
            a, b, z = below(p - 1) + 1, below(p), below(FINGERPRINT_PRIME - 1) + 1
            r = 1 << cell % self.levels
            phi = iota = tau = 0
            for ident, c in self.net.items():
                if ((a * ident + b) % p) % r == 0:
                    phi += c
                    iota += c * ident
                    tau += c * pow(z, ident, FINGERPRINT_PRIME)
            tau %= FINGERPRINT_PRIME
            nonzero = nonzero or phi != 0 or iota != 0 or tau != 0
            ident = _recover(phi, iota, tau, z, self.n)
            if ident is not None:
                return Sampled(ident)
        return FAIL if nonzero else EMPTY
