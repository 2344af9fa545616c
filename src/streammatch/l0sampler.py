"""Linear-sketch l0-sampler over an integer id domain.

Standard construction: ceil(log2(1/delta)) independent repetitions, each
with ceil(log2 N)+1 geometric subsampling levels.  Level l admits an id
with probability about 2^-l through a pairwise-independent hash drawn
over a field far larger than the domain (level 0 admits everything), and
keeps a verified one-sparse sketch of the admitted sub-vector: the
running sums

    phi = sum c_i,   iota = sum c_i * id_i,   tau = sum c_i * z^id_i mod P

for a per-sketch random z and the fixed Mersenne prime P = 2^61 - 1.  A
level is decoded only if phi is nonzero, phi divides iota, the recovered
id is in range and the fingerprint matches, so a multi-sparse level is
mistaken for one-sparse with probability at most (support size)/P, which
is negligible and the only caveat on the otherwise exact outcomes below.

Query outcomes are exact on the extremes: the zero vector always yields
``EMPTY`` (all counters are zero by linearity), and a one-sparse vector is
always decoded at repetition 0, level 0.  ``FAIL`` is returned only when
some counter is nonzero but no level verifies.

A sampler is single-owner mutable state; distinct samplers are
independent.  Queries never mutate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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


class OneSparseSketch:
    """Signed counters (phi, iota, tau) for one subsampling cell."""

    __slots__ = ("phi", "iota", "tau", "z")

    def __init__(self, z: int):
        if not 1 <= z < FINGERPRINT_PRIME:
            raise ParameterError("fingerprint base must lie in [1, P)")
        self.phi = 0
        self.iota = 0
        self.tau = 0
        self.z = z

    def update(self, ident: int, count: int):
        self.phi += count
        self.iota += count * ident
        self.tau = (self.tau + count * pow(self.z, ident, FINGERPRINT_PRIME)) % FINGERPRINT_PRIME

    def is_zero(self) -> bool:
        return self.phi == 0 and self.iota == 0 and self.tau == 0

    def recover(self, n: int) -> int | None:
        """The unique id if the cell is verifiably one-sparse, else None."""
        if self.phi == 0 or self.iota % self.phi != 0:
            return None
        ident = self.iota // self.phi
        if not 0 <= ident < n:
            return None
        expect = (self.phi % FINGERPRINT_PRIME) * pow(self.z, ident, FINGERPRINT_PRIME) % FINGERPRINT_PRIME
        return ident if expect == self.tau else None


def repetitions_for(delta: float) -> int:
    # ceil(log2(1/delta)), without forming 1/delta: it overflows for subnormal delta.
    return max(1, math.ceil(-math.log2(delta)))


def levels_for(n: int) -> int:
    # ceil(log2 n) + 1; (n-1).bit_length() is ceil(log2 n) for n >= 1.
    return (n - 1).bit_length() + 1


class L0Sampler:
    """Sampler over the domain [0, n) with failure parameter delta."""

    def __init__(self, n: int, delta: float, rng: random.Random):
        if n < 1:
            raise ParameterError(f"domain size must be >= 1, got {n}")
        if not 0.0 < delta < 1.0:
            raise ParameterError(f"delta must lie in (0, 1), got {delta}")
        self.n = n
        self.reps = repetitions_for(delta)
        self.levels = levels_for(n)
        # The subsampling field must be far larger than the domain: with
        # p close to n the map a*x+b is a near-permutation of [p], so the
        # number of ids admitted at level l is essentially fixed at p/2^l
        # and deep levels are almost never one-sparse.
        p = next_prime(max(n, 1 << 31))
        grid = []
        for _ in range(self.reps):
            row = []
            for level in range(self.levels):
                a = rng.randrange(1, p)
                b = rng.randrange(p)
                z = rng.randrange(1, FINGERPRINT_PRIME)
                row.append((a, b, 1 << level, OneSparseSketch(z)))
            grid.append(row)
        self._p = p
        self._grid = grid

    def update(self, ident: int, count: int):
        """Apply a signed update; linear, so update order never matters."""
        if not 0 <= ident < self.n:
            raise DomainError(f"id {ident} outside [0, {self.n})")
        if count not in (1, -1):
            raise ParameterError(f"count must be +1 or -1, got {count}")
        p = self._p
        for row in self._grid:
            for a, b, r, sketch in row:
                if ((a * ident + b) % p) % r == 0:
                    sketch.update(ident, count)

    def query(self):
        """Sampled(id) from the first verified cell, EMPTY on the zero vector, else FAIL."""
        all_zero = True
        for row in self._grid:
            for _a, _b, _r, sketch in row:
                if all_zero and not sketch.is_zero():
                    all_zero = False
                ident = sketch.recover(self.n)
                if ident is not None:
                    return Sampled(ident)
        return EMPTY if all_zero else FAIL
