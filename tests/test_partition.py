import hashlib
import random

import pytest

from checks import collect_preimages, isolation_witness

from streammatch.errors import DomainError, ParameterError
from streammatch.field_hash import KWiseHash, UniversalHash
from streammatch.partition import (
    HashScheme,
    SchemeParams,
    build_scheme,
    key_indices,
    scaled_ln_ceil,
)


def test_params_u16_k2():
    p = SchemeParams.from_sizes(16, 2)
    assert (p.key_bits, p.part_bits, p.part_count, p.family_size, p.member_range) == (4, 2, 4, 6, 100)


def test_params_u1024_k8():
    p = SchemeParams.from_sizes(1024, 8)
    assert (p.key_bits, p.part_bits, p.part_count, p.family_size, p.member_range) == (10, 2, 4, 17, 784)
    assert p.independence == 25


def test_params_boundary_u2():
    assert SchemeParams.from_sizes(2, 2).key_bits == 1


def test_params_k1_clamps_to_k2():
    assert SchemeParams.from_sizes(16, 1) == SchemeParams.from_sizes(16, 2)


def test_params_validation():
    with pytest.raises(ParameterError):
        SchemeParams.from_sizes(1, 2)
    with pytest.raises(ParameterError):
        SchemeParams.from_sizes(16, 0)


def test_scaled_ln_ceil_values():
    assert scaled_ln_ceil(8, 2) == 6
    assert scaled_ln_ceil(13, 2) == 10
    assert scaled_ln_ceil(12, 8) == 25
    assert scaled_ln_ceil(8, 8) == 17


def _constant_part_scheme(u_size, k, part, member_builder):
    """A scheme whose f maps everything to ``part``; members built per (j, i)."""
    params = SchemeParams.from_sizes(u_size, k)
    f = KWiseHash(coeffs=(part,), in_bits=params.key_bits, out_bits=params.part_bits)
    families = tuple(
        tuple(member_builder(j, i) for i in range(params.family_size))
        for j in range(params.part_count)
    )
    return HashScheme(params=params, f=f, families=families)


def test_key_indices_zero_offsets():
    # every member sends x=0 to 0 and f sends it to part 0
    scheme = _constant_part_scheme(
        16, 2, 0, lambda j, i: UniversalHash(p=17, a=1, b=0, r=100))
    member_range = scheme.params.member_range
    assert key_indices(0, scheme) == [0, member_range, 2 * member_range, 3 * member_range, 4 * member_range, 5 * member_range]


def test_key_indices_extreme_value():
    # part 3, every member value 99 at x=0: the last entry is part_count*family_size*member_range - 1
    scheme = _constant_part_scheme(
        128, 2, 3, lambda j, i: UniversalHash(p=131, a=1, b=99, r=100))
    values = key_indices(0, scheme)
    assert values[5] == 3 * 600 + 5 * 100 + 99 == 2399
    assert values[5] == scheme.params.range_size - 1


def test_key_indices_structure():
    scheme = build_scheme(512, 4, random.Random(11))
    params = scheme.params
    for x in range(0, 512, 7):
        values = key_indices(x, scheme)
        assert len(values) == params.family_size
        assert len(set(values)) == params.family_size
        j = scheme.f(x)
        for i, value in enumerate(values):
            lo = j * params.family_size * params.member_range + i * params.member_range
            assert lo <= value < lo + params.member_range
            assert value < params.range_size


def test_key_indices_domain_error():
    scheme = build_scheme(16, 2, random.Random(0))
    with pytest.raises(DomainError):
        key_indices(16, scheme)


def test_determinism_same_seed_same_scheme():
    s1 = build_scheme(256, 4, random.Random(5))
    s2 = build_scheme(256, 4, random.Random(5))
    assert s1 == s2
    assert all(key_indices(x, s1) == key_indices(x, s2) for x in range(256))


@pytest.mark.parametrize("u_size,keys,digest", [
    # w = 15: the part function multiplies through GF(2^15) log tables
    (20000, range(20000), "db4362700fe72f32cc6e41bc3fc9f3f652f71e95da1923bd93e23f1cfde1bd1d"),
    # w = 20: the part function multiplies with gf_mul
    (1 << 20, range(0, 1 << 20, 53), "35d2c59c3d2cff2d1fa07b95ce9d2a47c06be712a26c40294236de6adbd117e0"),
])
def test_key_indices_digest_pinned(u_size, keys, digest):
    # Pins every value set of one seeded scheme, so a faster field
    # multiply cannot silently change which indices a key maps to.
    scheme = build_scheme(u_size, 4, random.Random(3))
    text = ";".join(",".join(map(str, key_indices(x, scheme))) for x in keys)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_collect_preimages_membership_counts():
    scheme = build_scheme(64, 2, random.Random(2))
    pre = collect_preimages(scheme)
    params = scheme.params
    # each key contributes exactly family_size memberships and the union covers U
    memberships = {x: 0 for x in range(64)}
    for t in pre.values():
        for x in t:
            memberships[x] += 1
    assert all(c == params.family_size for c in memberships.values())
    assert set().union(*pre.values()) == set(range(64))


def test_collect_preimages_single_key():
    scheme = build_scheme(64, 2, random.Random(2))
    pre = collect_preimages(scheme)
    holding_0 = {value for value, t in pre.items() if 0 in t}
    assert holding_0 == set(key_indices(0, scheme))
    assert len(holding_0) == scheme.params.family_size


def test_interval_disjointness_small():
    from checks import interval_violations

    scheme = build_scheme(128, 3, random.Random(17))
    assert interval_violations(scheme, 128) == []


def test_witness_k2_singletons():
    # both elements in distinct parts: any member is injective on a singleton
    for seed in range(20):
        scheme = build_scheme(64, 2, random.Random(seed))
        for s in ({1, 2}, {0, 63}, {17, 40}):
            report = isolation_witness(s, scheme)
            if len({scheme.f(x) for x in s}) == 2:
                assert report.perfect_per_part
                assert report.witness_indices is not None


def test_witness_conditions_verified_exhaustively():
    hits = 0
    s = {3, 31, 59}
    for seed in range(10):
        scheme = build_scheme(64, 3, random.Random(seed))
        report = isolation_witness(s, scheme)
        if report.witness_indices is not None:
            hits += 1
            preimages = collect_preimages(scheme)
            sets = [preimages.get(i, set()) for i in report.witness_indices]
            assert all(len(t & s) == 1 for t in sets)
            assert s <= set().union(*sets)
            assert all(not (sets[a] & sets[b]) for a in range(3) for b in range(a + 1, 3))
            assert len(set(report.witness_indices)) == 3
    assert hits > 0


def test_witness_wrong_size_rejected():
    scheme = build_scheme(64, 3, random.Random(0))
    with pytest.raises(ParameterError):
        isolation_witness({1, 2}, scheme)


def test_witness_monte_carlo_rate_small():
    ok = 0
    trials = 120
    for seed in range(trials):
        rng = random.Random(1000 + seed)
        scheme = build_scheme(512, 4, rng)
        s = set(rng.sample(range(512), 4))
        if isolation_witness(s, scheme).witness_indices is not None:
            ok += 1
    assert ok / trials >= 0.95
