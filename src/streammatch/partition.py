"""Two-level hashing scheme for isolating the elements of an unknown k-subset.

The scheme is built in two phases.  First the universe is split into
``part_count`` parts by a ceil(12 ln k)-wise independent function, where
part_count is the power of two bracketing k/ln k from above.  Second,
each part gets its own family of ``family_size`` = ceil(8 ln k) members
drawn independently from a universal family with output range
``member_range`` = ceil(13 ln k)^2.

A key x in part j is then associated with one value per family member:
the i-th member h_i (0-based) contributes

    j * family_size * member_range  +  i * member_range  +  h_i(x),

which lies inside the i-th length-``member_range`` window of part j's
block.  Values produced by different members, or by keys in different
parts, therefore never coincide, and preimage sets of distinct values
inside one window are disjoint.  That geometry is what lets a family
member that is injective on its part's share of a target subset isolate
those elements: their values are distinct and their preimage sets are
pairwise disjoint.

All ceilings of c*ln k are computed with 60-digit decimal arithmetic and
a margin guard: c*ln k is irrational for integer k >= 2, so the guard can
only fail on an arithmetic bug, never on a legitimate input.  Floating
point is deliberately avoided here because an off-by-one in family_size
or member_range would change the isolation probability.

Schemes are immutable after drawing and safe to share between threads;
all functions here are pure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .errors import DomainError, ParameterError
from .field_hash import KWiseHash, UniversalHash, kwise_draw, universal_draw

_PRECISION = 60
_GUARD = Decimal("1e-30")
_MAX_UNIVERSE = 1 << 61


def _ln(k: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        return Decimal(k).ln()


def scaled_ln_ceil(c: int, k: int) -> int:
    """ceil(c * ln k) for integers c >= 1, k >= 2, computed exactly."""
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        v = c * _ln(k)
    floor = int(v)
    frac = v - floor
    # c*ln k is irrational, so the fractional part cannot sit on a boundary.
    assert frac > _GUARD and 1 - frac > _GUARD, f"ln precision exhausted for c={c}, k={k}"
    return floor + 1


def _part_bits(k: int) -> int:
    """The unique b >= 1 with 2^(b-1) < k/ln k <= 2^b."""
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        val = Decimal(k) / _ln(k)
    assert val > 1
    bits = 1
    while Decimal(2) ** bits < val:
        bits += 1
    assert (Decimal(2) ** bits) - val > _GUARD and val - (Decimal(2) ** (bits - 1)) > _GUARD
    return bits


@dataclass(frozen=True)
class SchemeParams:
    """Derived parameters of the two-level scheme.

    ``key_bits`` is minimal with u_size <= 2^key_bits, ``part_bits``
    satisfies 2^(part_bits-1) < k/ln k <= 2^part_bits, and
    part_count = 2^part_bits.  ``independence`` = ceil(12 ln k) is the
    independence order of the part function.
    """

    u_size: int
    k: int
    key_bits: int
    part_bits: int
    part_count: int
    family_size: int
    member_range: int
    independence: int

    @classmethod
    def from_sizes(cls, u_size: int, k: int) -> "SchemeParams":
        if u_size <= 1:
            raise ParameterError(f"universe size must exceed 1, got {u_size}")
        if u_size > _MAX_UNIVERSE:
            raise ParameterError(f"universe size must be <= 2^61, got {u_size}")
        if k < 1:
            raise ParameterError(f"subset size must be >= 1, got {k}")
        # k=1 degenerates every ln-based formula; clamp to the k=2 values,
        # which over-provision but stay correct.
        k_eff = max(k, 2)
        part_bits = _part_bits(k_eff)
        return cls(
            u_size=u_size,
            k=k_eff,
            key_bits=(u_size - 1).bit_length(),
            part_bits=part_bits,
            part_count=1 << part_bits,
            family_size=scaled_ln_ceil(8, k_eff),
            member_range=scaled_ln_ceil(13, k_eff) ** 2,
            independence=scaled_ln_ceil(12, k_eff),
        )

    @property
    def range_size(self) -> int:
        """Total number of indices a key's values are drawn from."""
        return self.part_count * self.family_size * self.member_range


@dataclass(frozen=True)
class HashScheme:
    """The drawn scheme: the part function plus one member family per part."""

    params: SchemeParams
    f: KWiseHash
    families: tuple[tuple[UniversalHash, ...], ...]


def build_scheme(u_size: int, k: int, rng: random.Random) -> HashScheme:
    """Draw a fresh scheme for a universe of ``u_size`` keys and subsets of size ``k``.

    Families are drawn part by part in index order, members in draw order;
    "the i-th member of a family" is fixed as draw order so a seed fully
    determines the scheme.
    """
    params = SchemeParams.from_sizes(u_size, k)
    f = kwise_draw(params.independence, params.key_bits, params.part_bits, rng)
    families = tuple(
        tuple(universal_draw(u_size, params.member_range, rng) for _ in range(params.family_size))
        for _ in range(params.part_count)
    )
    return HashScheme(params=params, f=f, families=families)


def key_indices(x: int, scheme: HashScheme) -> list[int]:
    """The ``family_size`` indices associated with key x, in member order.

    The i-th index (0-based) lies in the half-open window
    [block + i*member_range, block + (i+1)*member_range) where block is
    the offset of x's part, so the returned indices are pairwise distinct.
    """
    params = scheme.params
    if not 0 <= x < params.u_size:
        raise DomainError(f"key {x} outside universe [0, {params.u_size})")
    j = scheme.f(x)
    base = j * params.family_size * params.member_range
    span = params.member_range
    return [base + i * span + h(x) for i, h in enumerate(scheme.families[j])]

