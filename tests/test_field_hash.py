import itertools
import random

import pytest

from checks import reference_kwise

from streammatch.errors import DomainError, ParameterError
from streammatch.field_hash import (
    PSI_13,
    KWiseHash,
    UniversalHash,
    is_prime,
    kwise_draw,
    next_prime,
    universal_draw,
)
from streammatch.partition import build_scheme


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(7) == 7
    assert next_prime(8) == 11
    assert next_prime(128) == 131
    assert is_prime((1 << 61) - 1)


def test_is_prime_catches_the_least_strong_pseudoprime_to_the_bases_through_37():
    # psi_12 passes Miller-Rabin to every prime base through 37; base 41 finds it.
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert next_prime(psi12 - 10) == 318665857834031151167483


def test_next_prime_stops_below_psi_13():
    # psi_13 passes all of is_prime's bases, so next_prime refuses to reach it:
    # the last prime below it is 168 lower, and every n above that is refused.
    assert PSI_13 == 1287836182261 * 2575672364521
    assert is_prime(PSI_13)
    last = PSI_13 - 168
    assert next_prime(last) == last
    for n in (last + 1, PSI_13, PSI_13 + 1):
        with pytest.raises(ParameterError, match="psi_13"):
            next_prime(n)


def test_a_scheme_certifies_its_prime_once_whatever_its_member_count():
    # Every member of a scheme is drawn over one domain, so the smallest prime
    # >= 1000 is found and certified once: 10 Miller-Rabin runs (1000 to 1009,
    # counted as cache misses) and one next_prime, for 24 members or 14336.
    runs = []
    for k in (2, 64, 1024):
        next_prime.cache_clear()
        is_prime.cache_clear()
        params = build_scheme(1000, k, random.Random(k)).params
        runs.append((params.part_count * params.family_size,
                     is_prime.cache_info().misses, next_prime.cache_info().misses))
    assert runs == [(24, 10, 1), (544, 10, 1), (14336, 10, 1)]


class _FixedRng:
    """Feeds queued values to randrange; for forcing specific draws."""

    def __init__(self, values):
        self._values = list(values)

    def randrange(self, *args):
        return self._values.pop(0)


def test_universal_draw_copies_fields():
    h = universal_draw(7, 2, _FixedRng([3, 2]))
    assert (h.p, h.a, h.b, h.r) == (7, 3, 2, 2)


def test_universal_draw_deterministic_under_seed():
    h1 = universal_draw(100, 10, random.Random(42))
    h2 = universal_draw(100, 10, random.Random(42))
    assert h1 == h2


def test_universal_eval_hand_values():
    assert UniversalHash(p=7, a=3, b=2, r=2)(4) == 0
    assert UniversalHash(p=7, a=1, b=0, r=7)(5) == 5
    assert UniversalHash(p=13, a=5, b=11, r=4)(9) == 0


def test_universal_eval_domain_error():
    h = UniversalHash(p=7, a=3, b=2, r=2)
    with pytest.raises(DomainError):
        h(7)
    with pytest.raises(DomainError):
        h(-1)


def test_universal_validation():
    with pytest.raises(ParameterError):
        UniversalHash(p=8, a=1, b=0, r=2)  # not prime
    with pytest.raises(ParameterError):
        UniversalHash(p=7, a=0, b=0, r=2)  # a out of range
    with pytest.raises(ParameterError):
        universal_draw(0, 2, random.Random(0))


def test_universal_collision_fraction_example():
    # exhaustive over the 12*13 functions for p=13, r=4, keys x=1, y=2
    p, r = 13, 4
    collisions = sum(
        1
        for a in range(1, p)
        for b in range(p)
        if UniversalHash(p=p, a=a, b=b, r=r)(1) == UniversalHash(p=p, a=a, b=b, r=r)(2)
    )
    assert collisions / (12 * 13) <= 1 / r


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_universal_collision_bound_exhaustive(p):
    # family property: #collisions <= |H|/r for every key pair and every r <= p
    family_size = (p - 1) * p
    for r in range(1, p + 1):
        table = [
            [((a * x + b) % p) % r for x in range(p)]
            for a in range(1, p)
            for b in range(p)
        ]
        for x, y in itertools.combinations(range(p), 2):
            collisions = sum(1 for row in table if row[x] == row[y])
            assert collisions * r <= family_size, (p, r, x, y)


def test_kwise_constant_polynomial():
    rng = random.Random(3)
    h = kwise_draw(1, 8, 3, rng)
    expected = h.coeffs[0] & 0b111
    assert all(h(x) == expected for x in range(256))


def test_kwise_zero_coefficients_map_to_zero():
    h = KWiseHash(coeffs=(0, 0, 0), in_bits=8, out_bits=4)
    assert all(h(x) == 0 for x in (0, 1, 17, 255))


def test_kwise_at_zero_returns_low_bits_of_a0():
    h = KWiseHash(coeffs=(45, 9, 3, 1), in_bits=6, out_bits=3)
    assert h(0) == 45 & 0b111


def test_kwise_seed_reproducibility_and_storage():
    h1 = kwise_draw(5, 10, 4, random.Random(9))
    h2 = kwise_draw(5, 10, 4, random.Random(9))
    assert h1 == h2
    assert len(h1.coeffs) == 5  # storage is exactly independence field elements


def test_kwise_pairwise_exhaustive_count():
    # independence=2, w=4, d=2: over all 2^8 coefficient pairs, each joint target
    # pair is hit by exactly 2^8/16 functions.
    w, d = 4, 2
    x1, x2 = 3, 12
    hits: dict[tuple[int, int], int] = {}
    for c0 in range(16):
        for c1 in range(16):
            h = KWiseHash(coeffs=(c0, c1), in_bits=w, out_bits=d)
            pair = (h(x1), h(x2))
            hits[pair] = hits.get(pair, 0) + 1
    assert all(hits[(a1, a2)] == 2**8 // 16 for a1 in range(4) for a2 in range(4))


@pytest.mark.parametrize("w,independence,d", [(3, 2, 1), (3, 3, 2), (4, 3, 1)])
def test_kwise_joint_frequencies_exact(w, independence, d):
    # empirical joint frequencies over the whole family equal 1/2^(independence*d)
    keys = list(range(independence))  # any independence distinct keys
    counts: dict[tuple, int] = {}
    total = 0
    for coeffs in itertools.product(range(1 << w), repeat=independence):
        h = KWiseHash(coeffs=coeffs, in_bits=w, out_bits=d)
        values = tuple(h(x) for x in keys)
        counts[values] = counts.get(values, 0) + 1
        total += 1
    assert len(counts) == 2 ** (independence * d)
    assert all(c == total // 2 ** (independence * d) for c in counts.values())


def test_kwise_domain_error():
    h = kwise_draw(2, 4, 2, random.Random(0))
    with pytest.raises(DomainError):
        h(16)


@pytest.mark.parametrize("w", [6, 9, 15, 16, 17, 32])
def test_kwise_equals_reference_horner(w):
    # 6..16 multiply through log tables, 17 and 32 through gf_mul.
    rng = random.Random(w)
    for in_bits, out_bits in ((w, 3), (w, w), (4, w)):
        h = kwise_draw(17, in_bits, out_bits, rng)
        assert h.width == w
        top = (1 << in_bits) - 1
        keys = [0, 1, top] + [rng.getrandbits(in_bits) for _ in range(300)]
        for x in keys:
            assert h(x) == reference_kwise(h, x), (in_bits, out_bits, x)
    zero_tail = KWiseHash(coeffs=(5, 0, 0, 1), in_bits=w, out_bits=w)
    for x in (0, 1, 2, (1 << w) - 1):
        assert zero_tail(x) == reference_kwise(zero_tail, x)


def test_kwise_coefficients_must_be_field_elements():
    with pytest.raises(ParameterError):
        KWiseHash(coeffs=(16,), in_bits=4, out_bits=2)
    with pytest.raises(ParameterError):
        KWiseHash(coeffs=(), in_bits=4, out_bits=2)
