import hashlib
import random

import pytest

from streammatch.errors import ParameterError
from streammatch.gf2 import (
    MAX_WIDTH,
    TABLE_WIDTH,
    clmul,
    gf_mul,
    is_irreducible,
    log_tables,
    reduction_poly,
)


def test_clmul_hand_values():
    # (x+1)(x+1) = x^2+1 over GF(2)
    assert clmul(0b11, 0b11) == 0b101
    assert clmul(0b10, 0b10) == 0b100
    assert clmul(5, 0) == 0
    assert clmul(1, 7) == 7


def test_known_reduction_polys():
    assert reduction_poly(2) == 0b111        # x^2+x+1 is the only degree-2 irreducible
    assert reduction_poly(3) == 0b1011       # x^3+x+1 comes before x^3+x^2+1
    assert is_irreducible(0b1011, 3)
    assert not is_irreducible(0b101, 2)      # x^2+1 = (x+1)^2


@pytest.mark.parametrize("w", [1, 2, 3, 4, 8, 12, 16, 32, 61, 64])
def test_reduction_polys_are_irreducible(w):
    f = reduction_poly(w)
    assert f.bit_length() == w + 1
    assert is_irreducible(f, w)


def test_reduction_poly_table_digest():
    # Pins every width's reduction polynomial, so a change of the
    # irreducibility test cannot silently change the fields.
    table = ",".join(hex(reduction_poly(w)) for w in range(1, MAX_WIDTH + 1))
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "a98639bbeb4a7db7ce99d02c3e8af2e640eef603f3b12c4f9363b3964164c26d")


def test_is_irreducible_agrees_with_a_sieve():
    # Independent of is_irreducible: a polynomial of degree <= top is
    # reducible iff it is the product of two polynomials of degree >= 1.
    top = 10
    reducible = set()
    for a in range(2, 1 << top):
        for b in range(a, 1 << (top + 2 - a.bit_length())):
            reducible.add(clmul(a, b))
    counts = [0] * (top + 1)
    for f in range(2, 1 << (top + 1)):
        w = f.bit_length() - 1
        assert is_irreducible(f, w) == (f not in reducible), bin(f)
        counts[w] += f not in reducible
    # The number of irreducible binary polynomials of each degree 1..10.
    assert counts[1:] == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99]


@pytest.mark.parametrize("w", [2, 4, 8, 12])
def test_field_axioms_random_triples(w):
    # distributivity and associativity, bit-exact, 10^4 triples per width
    rng = random.Random(w)
    mask = (1 << w) - 1
    for _ in range(10_000):
        a, b, c = (rng.getrandbits(w) for _ in range(3))
        assert gf_mul(a, b ^ c, w) == gf_mul(a, b, w) ^ gf_mul(a, c, w)
        assert gf_mul(gf_mul(a, b, w), c, w) == gf_mul(a, gf_mul(b, c, w), w)
        assert gf_mul(a, b, w) == gf_mul(b, a, w)
        assert gf_mul(a, 1, w) == a
        assert gf_mul(a, b, w) <= mask


def test_products_stay_in_field():
    for w in (3, 5, 7):
        for a in range(1 << w):
            for b in range(1 << w):
                assert gf_mul(a, b, w) < (1 << w)


def test_nonzero_products_nonzero():
    # a field has no zero divisors
    w = 4
    for a in range(1, 16):
        for b in range(1, 16):
            assert gf_mul(a, b, w) != 0


def _table_mul(a, b, w):
    log, exp = log_tables(w)
    return exp[log[a] + log[b]] if a and b else 0


@pytest.mark.parametrize("w", range(1, 9))
def test_table_product_equals_gf_mul_for_every_pair(w):
    for a in range(1 << w):
        for b in range(1 << w):
            assert _table_mul(a, b, w) == gf_mul(a, b, w), (a, b)


@pytest.mark.parametrize("w", range(9, TABLE_WIDTH + 1))
def test_table_product_equals_gf_mul_random_pairs(w):
    rng = random.Random(w)
    top = (1 << w) - 1
    pairs = [(a, b) for a in (0, 1, top) for b in (0, 1, top)]
    pairs += [(rng.getrandbits(w), rng.getrandbits(w)) for _ in range(10_000)]
    pairs += [(rng.choice((0, 1)), rng.getrandbits(w)) for _ in range(100)]
    for a, b in pairs:
        assert _table_mul(a, b, w) == gf_mul(a, b, w), (a, b)
        assert _table_mul(b, a, w) == gf_mul(a, b, w), (b, a)


# The smallest generator of GF(2^w)'s multiplicative group for w = 1 .. 16,
# certified by the prime factors of 2^w - 1 when the tables were introduced.
SMALLEST_GENERATORS = (1, 2, 2, 2, 2, 2, 2, 3, 7, 2, 2, 3, 2, 7, 2, 3)


@pytest.mark.parametrize("w", range(1, TABLE_WIDTH + 1))
def test_log_tables_invert_and_generator_has_full_order(w):
    log, exp = log_tables(w)
    order = (1 << w) - 1
    g = exp[1]
    assert g == SMALLEST_GENERATORS[w - 1]
    assert len(log) == 1 << w and len(exp) == 2 * order
    assert all(exp[log[a]] == a for a in range(1, 1 << w))
    # g's powers step by gf_mul and cover every nonzero element once.
    assert exp[0] == 1
    assert all(exp[i + 1] == gf_mul(exp[i], g, w) for i in range(2 * order - 1))
    assert sorted(exp[:order]) == list(range(1, order + 1))
    assert gf_mul(exp[order - 1], g, w) == 1


def test_log_tables_memoised_and_bounded():
    assert log_tables(9) is log_tables(9)
    assert log_tables(15)[1][1] == 2  # x itself generates GF(2^15)
    for w in (0, TABLE_WIDTH + 1):
        with pytest.raises(ParameterError):
            log_tables(w)
