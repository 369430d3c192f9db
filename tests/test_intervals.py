import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heytord.errors import LiteralParseError
from heytord.intervals import (
    BOT,
    TOP,
    IntervalAlgebra,
    format_interval_set,
    iv_canon,
    iv_imp,
    iv_lattice,
    parse_interval_set,
    point_complement,
)
from heytord.ivcore import NEG_INF, POS_INF

ALG = IntervalAlgebra()


def ivs(text):
    return parse_interval_set(text)


def test_canon_does_not_merge_at_a_missing_point():
    assert iv_canon([(F(0), F(1)), (F(1), F(2))]) == ivs("(0,1)|(1,2)")


def test_canon_merges_overlap():
    assert iv_canon([(F(0), F(2)), (F(1), F(3))]) == ivs("(0,3)")


def test_canon_empty_is_bottom():
    assert iv_canon([]) == BOT
    assert iv_canon([(F(1), F(1)), (F(2), F(1))]) == BOT  # lo >= hi dropped silently


def test_canon_idempotent_on_random_inputs():
    rng = random.Random(7)
    for x in ALG.sample_elements(rng, 100):
        assert iv_canon(list(x.ivs)) == x


def test_lattice_examples():
    a, b = ivs("(0,2)"), ivs("(1,3)")
    meet, join = iv_lattice(a, b)
    assert meet == ivs("(1,2)") and join == ivs("(0,3)")
    meet, join = iv_lattice(BOT, b)
    assert meet == BOT and join == b
    a, b = ivs("!5"), ivs("(5,+inf)")
    meet, join = iv_lattice(a, b)
    assert meet == b and join == a


def test_imp_examples():
    assert iv_imp(ivs("(0,1)"), ivs("(0,1/2)")) == ivs("(-inf,1/2)|(1,+inf)")
    for x in (BOT, TOP, ivs("(0,1)")):
        assert iv_imp(BOT, x) == TOP
    # interior of a single point is empty
    q = point_complement(F(3))
    assert iv_imp(q, BOT) == BOT


def test_residuation_on_200_random_triples():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = ALG.sample_elements(rng, 3)
        assert ALG.le(ALG.meet(a, c), b) == ALG.le(c, ALG.imp(a, b))


def test_lattice_ops_return_canonical_forms():
    rng = random.Random(3)
    for _ in range(50):
        a, b = ALG.sample_elements(rng, 2)
        for out in (*iv_lattice(a, b), iv_imp(a, b)):
            assert iv_canon(list(out.ivs)) == out


@given(
    st.lists(
        st.tuples(st.fractions(min_value=-9, max_value=9), st.fractions(min_value=-9, max_value=9)),
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_canon_sorted_disjoint(pairs):
    out = iv_canon(pairs)
    for (lo1, hi1), (lo2, hi2) in zip(out.ivs, out.ivs[1:]):
        assert hi1 <= lo2
        assert lo1 < hi1 and lo2 < hi2


def test_literal_roundtrip():
    for text in ("0", "1", "(0,1)|(1,2)", "(-inf,1/2)|(1,+inf)", "(-3/2,7)"):
        assert format_interval_set(parse_interval_set(text)) == text
    assert parse_interval_set("!2") == point_complement(F(2))
    assert parse_interval_set("(-inf,+inf)") == TOP


@pytest.mark.parametrize(
    "bad", ["(1,0)", "(a,b)", "(1,2", "", "(1,2)|", "!+inf", "(1,q,2)", "(q,1)|!+inf", "(q,1)|(3,2)", "(q,q)"]
)
def test_literal_errors(bad):
    # the same grammar reads family labels, where q names the parameter
    for param in (None, "q"):
        with pytest.raises(LiteralParseError):
            parse_interval_set(bad, param)


def test_infinity_sentinels_order():
    assert NEG_INF < F(0) < POS_INF
    assert NEG_INF < POS_INF
    assert not NEG_INF < NEG_INF
