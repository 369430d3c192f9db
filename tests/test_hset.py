import itertools
import random

import pytest

import heytord.hf as hf
from heytord.errors import NotEnumerableError
from heytord.hset import Universe, embed_check, enumerate_hsets, truth_eq, truth_mem
from heytord.intervals import IntervalAlgebra
from heytord.order import build_upset_algebra, zoo


@pytest.fixture()
def chain2():
    alg = build_upset_algebra(zoo()["chain2"])
    U = Universe(alg)
    bot, h, top = alg.enumerate_elements()
    return U, bot, h, top


def test_embed_check_basics(chain2):
    U, bot, h, top = chain2
    assert embed_check(U, hf.EMPTY).entries == ()
    two = embed_check(U, hf.numeral(2))
    assert [U.format_hset(c) for c, _ in two.entries] == ["#0", "#1"]
    assert all(l == top for _, l in two.entries)
    assert truth_eq(U, U.numeral(1), U.numeral(2)) == bot
    assert truth_mem(U, U.numeral(0), U.numeral(1)) == top


def test_check_embedding_is_two_valued(chain2):
    U, bot, h, top = chain2
    sets = [U.embed(x) for x in [hf.EMPTY, hf.numeral(1), hf.numeral(2), hf.parse_hf("{1}"), hf.parse_hf("{0,{0}}")]]
    for u, v in itertools.product(sets, repeat=2):
        assert truth_mem(U, u, v) in (bot, top)
        assert truth_eq(U, u, v) in (bot, top)


def test_truth_values_on_three_chain(chain2):
    U, bot, h, top = chain2
    u_h = U.make_hset([(U.numeral(0), h)])
    assert truth_mem(U, u_h, U.numeral(2)) == h
    assert truth_mem(U, u_h, u_h) == bot
    assert truth_eq(U, u_h, U.numeral(1)) == h


def test_bottom_labels_dropped_and_duplicates_joined(chain2):
    U, bot, h, top = chain2
    u = U.make_hset([(U.numeral(0), bot)])
    assert u is U.empty
    v = U.make_hset([(U.numeral(0), h), (U.numeral(0), top)])
    assert v.entries == ((U.numeral(0), top),)


def test_equality_laws_over_pool(chain2):
    U, bot, h, top = chain2
    pool = enumerate_hsets(U, 2)
    rng = random.Random(0)
    pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(150)]
    for u, v in pairs:
        assert truth_eq(U, u, u) == top
        assert truth_eq(U, u, v) == truth_eq(U, v, u)


def test_substitutivity_over_pool(chain2):
    U, bot, h, top = chain2
    alg = U.algebra
    pool = enumerate_hsets(U, 2)
    rng = random.Random(1)
    for _ in range(200):
        u, v, w = (rng.choice(pool) for _ in range(3))
        eq = truth_eq(U, u, v)
        assert alg.le(alg.meet(eq, truth_mem(U, u, w)), truth_mem(U, v, w))
        assert alg.le(alg.meet(eq, truth_mem(U, w, u)), truth_mem(U, w, v))


def test_no_self_membership_over_full_pool(chain2):
    U, bot, h, top = chain2
    for u in enumerate_hsets(U, 2):
        assert truth_mem(U, u, u) == bot


def test_memo_transparency():
    """memo=False, with neither truth memo nor value table, is the cache-free
    reference: the same values on every poset of the zoo."""
    for poset in zoo().values():
        alg = build_upset_algebra(poset)
        U, U2 = Universe(alg), Universe(alg, memo=False)
        pool = enumerate_hsets(U, 2)
        pool2 = enumerate_hsets(U2, 2)
        rng = random.Random(2)
        idx = [(rng.randrange(len(pool)), rng.randrange(len(pool))) for _ in range(100)]
        for i, j in idx:
            assert truth_mem(U, pool[i], pool[j]) == truth_mem(U2, pool2[i], pool2[j])
            assert truth_eq(U, pool[i], pool[j]) == truth_eq(U2, pool2[i], pool2[j])


def test_enumerate_counts():
    b2 = Universe(build_upset_algebra(zoo()["chain1"]))
    assert len(enumerate_hsets(b2, 2)) == 4
    c3 = Universe(build_upset_algebra(zoo()["chain2"]))
    assert len(enumerate_hsets(c3, 0)) == 1
    rank1 = enumerate_hsets(c3, 1)
    assert [c3.format_hset(u) for u in rank1] == ["#0", "{#0 @ {b}}", "#1"]
    assert len(enumerate_hsets(c3, 2)) == 27


def test_enumerate_budget_sampling_is_deterministic():
    alg = build_upset_algebra(zoo()["antichain3"])
    a = [u.id for u in enumerate_hsets(Universe(alg), 2, budget=500, seed=9)]
    b = [u.id for u in enumerate_hsets(Universe(alg), 2, budget=500, seed=9)]
    assert a == b and len(a) == 500


def test_enumerate_interval_algebra_raises():
    with pytest.raises(NotEnumerableError):
        enumerate_hsets(Universe(IntervalAlgebra()), 1)


def test_witness_equality_with_two_is_bottom(witness_universe):
    U, P = witness_universe
    assert truth_eq(U, P.A, U.numeral(2)) == U.algebra.bottom()
