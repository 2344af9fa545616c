import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checks import GridL0Sampler

from streammatch import l0sampler
from streammatch.errors import DomainError, ParameterError
from streammatch.field_hash import PSI_13, next_prime
from streammatch.l0sampler import (
    EMPTY,
    FAIL,
    FINGERPRINT_PRIME,
    L0Sampler,
    Sampled,
    _field_prime,
    repetitions_for,
)


def _sampler(n=64, delta=0.25, seed=0):
    return L0Sampler(n, delta, seed)


def _reference(n=64, delta=0.25, seed=0):
    return GridL0Sampler(n, delta, random.Random(seed))


def test_construction_counts():
    assert _sampler(n=1, delta=0.3).levels == 1
    assert _sampler(delta=0.5).reps == 1
    s = L0Sampler(2**20, 2**-10, 1)
    assert (s.reps, s.levels) == (10, 21)


@pytest.mark.parametrize("delta, reps", [(0.5, 1), (0.25, 2), (1 / 16, 4), (0.3, 2), (1e-320, 1064),
                                         (5e-324, 1074), (math.nextafter(1 / 16, 0), 5),
                                         (math.nextafter(0.25, 0), 3)])
def test_repetitions_for_is_ceil_log2_of_one_over_delta(delta, reps):
    # 1/delta overflows for a subnormal delta; the count must not.  Just
    # below a power of two, 1/delta exceeds it and needs one more copy.
    assert repetitions_for(delta) == reps


def test_parameter_validation():
    with pytest.raises(ParameterError):
        L0Sampler(0, 0.5, 0)
    with pytest.raises(ParameterError):
        L0Sampler(4, 1.5, 0)
    # psi_13 passes is_prime; a domain at or above it gets no field prime.
    for n in (PSI_13, PSI_13 + 1, 1 << 90):
        with pytest.raises(ParameterError, match="psi_13"):
            L0Sampler(n, 0.5, 0)
    s = _sampler()
    with pytest.raises(DomainError):
        s.update(64, 1)
    for count in (0, 2.0, 0.5, "1"):
        with pytest.raises(ParameterError):
            s.update(3, count)


def test_single_update_always_sampled():
    for seed in range(300):
        s = _sampler(seed=seed)
        s.update(5, 1)
        assert s.query() == Sampled(5)


def test_insert_delete_returns_empty():
    for seed in range(300):
        s = _sampler(seed=seed)
        s.update(5, 1)
        s.update(5, -1)
        assert s.query() is EMPTY


def test_double_insert_phi_two_at_level_zero():
    s = _reference(seed=3)
    s.update(5, 1)
    s.update(5, 1)
    # level 0 of repetition 0 admits unconditionally
    sketch = s._grid[0][0][3]
    assert sketch.phi == 2
    assert sketch.iota == 10
    assert s.query() == Sampled(5)
    t = _sampler(seed=3)
    t.update(5, 1)
    t.update(5, 1)
    assert t.net == {5: 2}
    assert t.query() == s.query()


def test_fresh_state_is_empty():
    assert _sampler().query() is EMPTY


def test_query_does_not_mutate():
    s = _sampler(seed=7)
    s.update(3, 1)
    s.update(9, 1)
    first = s.query()
    assert all(s.query() == first for _ in range(5))


def test_determinism_under_fixed_seed():
    def run(seed):
        s = _sampler(seed=seed)
        for ident in (3, 9, 11, 3):
            s.update(ident, 1)
        s.update(3, -1)
        return s.query()

    assert run(12) == run(12)


@settings(max_examples=60, deadline=None)
@given(st.permutations(list(range(6))), st.integers(min_value=0, max_value=2**30))
def test_linearity_update_order_irrelevant(order, seed):
    base = [(3, 1), (9, 1), (11, 1), (9, -1), (20, 1), (20, -1)]
    s1 = _reference(n=32, seed=seed)
    s2 = _reference(n=32, seed=seed)
    t1 = _sampler(n=32, seed=seed)
    t2 = _sampler(n=32, seed=seed)
    for ident, c in base:
        s1.update(ident, c)
        t1.update(ident, c)
    for idx in order:
        s2.update(*base[idx])
        t2.update(*base[idx])
    g1 = [(sk.phi, sk.iota, sk.tau) for row in s1._grid for (_a, _b, _r, sk) in row]
    g2 = [(sk.phi, sk.iota, sk.tau) for row in s2._grid for (_a, _b, _r, sk) in row]
    assert g1 == g2
    assert t1.net == t2.net
    assert t1.query() == t2.query()


def _random_updates(rng, n):
    # A support of 0-64 ids with net counts in {-2, -1, 1, 2}, applied as
    # +-1 steps, plus up to two cancelling insert/delete pairs, shuffled.
    updates = []
    for ident in rng.sample(range(n), min(n, rng.choice((0, 0, 1, 2, 3, 5, 8, 30, 64)))):
        c = rng.choice((1, -1, 2, -2))
        updates += [(ident, 1 if c > 0 else -1)] * abs(c)
    for _ in range(rng.randrange(3)):
        ident = rng.randrange(n)
        updates += [(ident, 1), (ident, -1)]
    rng.shuffle(updates)
    return updates


def test_sampler_decodes_as_the_counter_grid():
    # Same seed, same updates: the net-vector sampler, drawing its cells from
    # the seed as it reads them, gives the outcome of the reference grid,
    # which draws every cell with randrange up front.  The fifth shape is a
    # dyn-churn bank entry (n=20000, k=2: 9 x 29 cells); the last domain lies
    # above 2^31, so its field prime and the widths its cell values are drawn
    # below differ; support 64 at delta 0.5 fails often.
    rng = random.Random(11)
    seen = set()
    for n, delta in [(1, 0.3), (16, 0.01), (64, 0.5), (300, 1 / 16), (20000 * 19999 // 2, 0.00225),
                     (1 << 40, 0.01)]:
        assert _field_prime(n) == next_prime(max(n, 1 << 31))
        for _ in range(150):
            seed = rng.getrandbits(63)
            ref, s = GridL0Sampler(n, delta, random.Random(seed)), L0Sampler(n, delta, seed)
            for ident, c in _random_updates(rng, n):
                ref.update(ident, c)
                s.update(ident, c)
            res = s.query()
            assert res == ref.query(), (n, delta, seed)
            seen.add(type(res) if isinstance(res, Sampled) else res)
    assert seen == {Sampled, EMPTY, FAIL}


def test_whole_counts_give_the_unit_steps_state():
    # The sketch is linear: a net vector applied as one whole count per id
    # gives the net vector and the outcome that its +-1 steps give, shuffled;
    # the reference grid takes the whole counts too.
    rng = random.Random(21)
    seen = set()
    for _ in range(200):
        n = rng.choice((16, 300, 1 << 40))
        delta = rng.choice((0.5, 0.1, 0.01))
        seed = rng.getrandbits(63)
        support = rng.sample(range(n), rng.randint(0, 8))
        net = {ident: rng.choice((-1, 1)) * rng.randint(1, 5) for ident in support}
        steps = [(ident, 1 if c > 0 else -1) for ident, c in net.items() for _ in range(abs(c))]
        rng.shuffle(steps)
        whole, unit = L0Sampler(n, delta, seed), L0Sampler(n, delta, seed)
        grid = GridL0Sampler(n, delta, random.Random(seed))
        for ident, c in net.items():
            whole.update(ident, c)
            grid.update(ident, c)
        for ident, c in steps:
            unit.update(ident, c)
        assert whole.net == unit.net == net
        res = whole.query()
        assert res == unit.query() == grid.query(), (n, delta, seed)
        seen.add(type(res) if isinstance(res, Sampled) else res)
    assert seen == {Sampled, EMPTY, FAIL}


def _counting_random(calls: list):
    """A ``random.Random`` that appends each getrandbits call, as (width,
    value), to ``calls``; its randrange draws through getrandbits too."""

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            calls.append((k, super().getrandbits(k)))
            return calls[-1][1]

    return CountingRandom


def _cell_draws(seed: int, p: int, cells: int) -> list:
    """The getrandbits calls randrange makes for the first ``cells`` cells of ``seed``."""
    calls: list = []
    rng = _counting_random(calls)(seed)
    for _ in range(cells):
        rng.randrange(1, p)
        rng.randrange(p)
        rng.randrange(1, FINGERPRINT_PRIME)
    return calls


def test_a_query_draws_only_the_cells_it_reads(monkeypatch):
    # Counted in getrandbits calls, over construction, updates and query: a
    # one-sparse vector verifies at its first cell and draws that cell alone;
    # EMPTY and FAIL read, so draw, every one of reps x levels cells.
    draws: list = []
    monkeypatch.setattr(l0sampler, "Random", _counting_random(draws))
    n_ids, delta = 20000 * 19999 // 2, 0.00225  # a dyn-churn bank entry: 9 x 29 cells
    p = _field_prime(n_ids)
    for seed in range(20):
        draws.clear()
        s = L0Sampler(n_ids, delta, seed)
        s.update(seed * 7919, 1)
        assert s.query() == Sampled(seed * 7919)
        assert draws == _cell_draws(seed, p, 1)
    assert (s.reps, s.levels) == (9, 29)
    outcomes = set()
    for seed in range(40):
        draws.clear()
        s = L0Sampler(64, 0.5, seed)
        for ident in range(64 if seed % 4 else 0):
            s.update(ident, 1)
        res = s.query()
        if not isinstance(res, Sampled):
            assert draws == _cell_draws(seed, _field_prime(64), s.reps * s.levels), seed
            outcomes.add(res)
    assert outcomes == {EMPTY, FAIL}


def test_each_query_starts_from_the_seed(monkeypatch):
    # A query draws the same cells however often it runs, and leaves the net
    # vector as it was.
    draws: list = []
    monkeypatch.setattr(l0sampler, "Random", _counting_random(draws))
    for seed in range(30):
        s = L0Sampler(300, 0.1, seed)
        for ident in (3, 9, 11, 40):
            s.update(ident, 1 + ident % 2)
        net = dict(s.net)
        draws.clear()
        first = s.query()
        once = list(draws)
        draws.clear()
        assert s.query() == first
        assert draws == once
        assert s.net == net


def test_support_two_frequencies():
    # support {3, 9}: each id lands in [0.4, 0.6] of non-fail queries,
    # fail rate stays under 2*delta
    delta = 0.01
    trials = 3000
    hits = {3: 0, 9: 0}
    fails = 0
    for seed in range(trials):
        s = L0Sampler(16, delta, 900_000 + seed)
        s.update(3, 1)
        s.update(9, 1)
        res = s.query()
        if res is FAIL:
            fails += 1
        elif isinstance(res, Sampled):
            hits[res.ident] += 1
        else:
            raise AssertionError("nonzero vector reported as empty")
    non_fail = trials - fails
    assert fails <= 2 * delta * trials + 1
    for ident in (3, 9):
        assert 0.4 <= hits[ident] / non_fail <= 0.6


def test_support_eight_uniformity():
    support = list(range(0, 64, 8))
    trials = 3000
    counts = dict.fromkeys(support, 0)
    fails = 0
    for seed in range(trials):
        s = L0Sampler(64, 0.25, 7_000_000 + seed)
        for ident in support:
            s.update(ident, 1)
        res = s.query()
        if res is FAIL:
            fails += 1
        else:
            counts[res.ident] += 1
    non_fail = trials - fails
    target = 1 / len(support)
    assert fails <= 0.5 * trials
    for ident in support:
        assert 0.5 * target <= counts[ident] / non_fail <= 1.5 * target
