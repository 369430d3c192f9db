import itertools

import pytest

import heytord.hf as hf
from heytord.antichain import (
    build_antichain,
    certify,
    merge_families,
    minimal_gamma,
    perp_lift,
    pow_lift,
    subset_decode,
    subset_encode,
    tc_stage,
)
from heytord.errors import EngineError, StageIncompleteError
from heytord.hset import Universe
from heytord.order import build_upset_algebra, zoo
from heytord.ordinals import perp, trivial_pair


def nums(*ns):
    return [hf.numeral(n) for n in ns]


def test_hf_utilities():
    x = hf.parse_hf("{0,{0}}")
    assert x == hf.numeral(2)
    assert hf.format_hf(hf.parse_hf("{{1}}")) == "{{1}}"
    assert hf.hf_rank(x) == 2
    assert [hf.format_hf(y) for y in hf.tc(x)] == ["0", "1", "2"]
    assert hf.kpair(hf.numeral(0), hf.numeral(0)) == hf.parse_hf("{{0}}")


def test_parse_hf_nests_without_recursion():
    depth = 10_000
    x = hf.parse_hf("{" * depth + "}" * depth)
    for _ in range(depth - 1):
        (x,) = x
    assert x == hf.EMPTY


def test_tc_stages_for_two():
    x = hf.numeral(2)
    assert tc_stage(x, 0).members == ()
    assert [hf.format_hf(m) for m in tc_stage(x, 1).members] == ["0"]
    assert [hf.format_hf(m) for m in tc_stage(x, 3).members] == ["0", "1", "2"]


def test_tc_stage_monotone_and_covering():
    for text in ["0", "1", "2", "{1}", "{0,{0},{{0}}}"]:
        x = hf.parse_hf(text)
        r = hf.hf_rank(x)
        prev = set()
        for g in range(r + 2):
            cur = set(tc_stage(x, g).members)
            assert prev <= cur
            prev = cur
        assert x in tc_stage(x, r + 1).members
        assert minimal_gamma(x) <= r + 1


def test_perp_lift_witness(witness_universe):
    U, P = witness_universe
    f0 = certify(U, nums(0, 1), {hf.numeral(0): U.numeral(0), hf.numeral(1): U.numeral(1)})
    f = perp_lift(U, P, f0)
    assert f.certified
    assert all(v == U.algebra.top() for v in f.theta_values.values())


def test_perp_lift_empty_and_singleton(witness_universe):
    U, P = witness_universe
    empty = perp_lift(U, P, certify(U, (), {}))
    assert empty.domain == () and empty.certified
    single = perp_lift(U, P, certify(U, nums(5), {hf.numeral(5): U.numeral(5)}))
    assert single.certified and len(single.domain) == 1


def test_perp_lift_refuses_noninjective(witness_universe):
    U, P = witness_universe
    f0 = certify(U, nums(0, 1), {hf.numeral(0): U.numeral(3), hf.numeral(1): U.numeral(3)})
    with pytest.raises(EngineError):
        perp_lift(U, P, f0)


def test_subset_roundtrip_witness(witness_universe):
    U, P = witness_universe
    f0 = certify(U, nums(0, 1), {hf.numeral(0): U.numeral(0), hf.numeral(1): U.numeral(1)})
    f = perp_lift(U, P, f0)
    assert subset_encode(U, f, frozenset()) is U.numeral(0)
    one = frozenset({hf.numeral(0)})
    from heytord.ordinals import hsucc

    assert subset_encode(U, f, one) is hsucc(U, f[hf.numeral(0)])
    for r in range(3):
        for y in itertools.combinations(f.domain, r):
            keys, residue = subset_decode(U, f, subset_encode(U, f, frozenset(y)))
            assert set(keys) == set(y) and residue == {}


def test_subset_encode_requires_domain_keys(witness_universe):
    U, P = witness_universe
    f = certify(U, nums(0), {hf.numeral(0): U.numeral(0)})
    with pytest.raises(EngineError):
        subset_encode(U, f, frozenset({hf.numeral(7)}))


def test_decode_needs_incomparability_boolean_counterexample():
    U = Universe(build_upset_algebra(zoo()["chain1"]))
    f = certify(U, nums(0, 1), {hf.numeral(0): U.numeral(0), hf.numeral(1): U.numeral(1)})
    assert not f.certified
    tau = subset_encode(U, f, frozenset({hf.numeral(1)}))
    keys, residue = subset_decode(U, f, tau)
    assert set(keys) == {hf.numeral(0), hf.numeral(1)}  # 0 leaks in classically


def test_decode_of_zero_is_empty(witness_universe):
    U, P = witness_universe
    f0 = certify(U, nums(0, 1), {hf.numeral(0): U.numeral(0), hf.numeral(1): U.numeral(1)})
    f = perp_lift(U, P, f0)
    keys, residue = subset_decode(U, f, U.numeral(0))
    assert keys == [] and residue == {}


def test_pow_lift_witness(witness_universe):
    U, P = witness_universe
    f0 = certify(U, nums(0, 1), {hf.numeral(0): U.numeral(0), hf.numeral(1): U.numeral(1)})
    f = perp_lift(U, P, f0)
    subsets = [frozenset(y) for r in range(3) for y in itertools.combinations(f.domain, r)]
    g = pow_lift(U, P, f, subsets)
    assert g.certified and len(g.domain) == 4 and len(g.theta_values) == 6
    with pytest.raises(EngineError):
        pow_lift(U, P, f, subsets + [frozenset()])


def test_pow_lift_single_empty_subset(witness_universe):
    from heytord.ordinals import hsucc, hunion, ord_add

    U, P = witness_universe
    f0 = certify(U, nums(0, 1), {hf.numeral(0): U.numeral(0), hf.numeral(1): U.numeral(1)})
    f = perp_lift(U, P, f0)
    g = pow_lift(U, P, f, [frozenset()])
    want = hunion(U, hsucc(U, P.A), ord_add(U, hsucc(U, P.B), U.numeral(0)))
    assert g[frozenset()] is want


def test_merge_families_witness(witness_universe):
    U, P = witness_universe
    f0 = certify(U, nums(0, 1), {hf.numeral(0): U.numeral(0), hf.numeral(1): U.numeral(1)})
    f = perp_lift(U, P, f0)
    k0, k1 = f.domain
    single = merge_families(U, P, {0: f})
    assert single.certified and single.domain == f.domain
    two = merge_families(
        U,
        P,
        {0: certify(U, [k0], {k0: f[k0]}), 1: certify(U, [k1], {k1: f[k1]})},
    )
    assert two.certified and set(two.domain) == {k0, k1}
    # overlapping domains: the shared key keeps a single slot driven by its fiber
    overlap = merge_families(
        U,
        P,
        {0: certify(U, [k0], {k0: f[k0]}), 1: certify(U, [k0, k1], {k0: f[k0], k1: f[k1]})},
    )
    assert overlap.certified and set(overlap.domain) == {k0, k1}


def test_build_antichain_examples(witness_universe):
    U, P = witness_universe
    f = build_antichain(U, P, hf.EMPTY, 1)
    assert [hf.format_hf(k) for k in f.domain] == ["0"] and f.certified

    f2 = build_antichain(U, P, hf.parse_hf("{0}"), 2)
    assert len(f2.domain) == 2 and f2.certified and len(f2.theta_values) == 1

    x = hf.parse_hf("{0,{0}}")
    f3 = build_antichain(U, P, x, 3)
    assert len(f3.domain) == 3 and f3.certified and len(f3.theta_values) == 3


def test_build_antichain_gamma_too_small(witness_universe):
    U, P = witness_universe
    with pytest.raises(StageIncompleteError) as exc:
        build_antichain(U, P, hf.parse_hf("{0,{0}}"), 2)
    assert exc.value.minimal == 3


def test_pipeline_runs_on_finite_algebra_with_soundness_inequality():
    U = Universe(build_upset_algebra(zoo()["chain2"]))
    P = trivial_pair(U)
    f = build_antichain(U, P, hf.numeral(2), 3)
    assert not f.certified  # perp is bottom here, nothing can certify
    pab = perp(U, P.A, P.B)
    assert all(U.algebra.le(pab, v) for v in f.theta_values.values())


def test_certification_soundness_recompute(witness_universe):
    from heytord.ordinals import theta

    U, P = witness_universe
    f = build_antichain(U, P, hf.parse_hf("{0,{0}}"), 3)
    assert f.certified
    for (k1, k2), v in f.theta_values.items():
        assert theta(U, U.embed(k1), f[k1], U.embed(k2), f[k2]) == v == U.algebra.top()
