import json

import pytest

from heytord.hset import Universe
from heytord.lemmas import LEMMAS, generate_pool, run_lemma
from heytord.order import build_upset_algebra, zoo
from heytord.ordinals import is_ord


@pytest.fixture()
def chain2_pools():
    U = Universe(build_upset_algebra(zoo()["chain2"]))
    return U, generate_pool(U, "all", 2), generate_pool(U, "ord", 2)


def test_pool_filtering(chain2_pools):
    U, pool_all, pool_ord = chain2_pools
    top = U.algebra.top()
    assert len(pool_all) == 27
    assert all(is_ord(U, u) == top for u in pool_ord)
    names = {U.format_hset(u) for u in pool_ord}
    assert {"#0", "#1", "#2", "{#0 @ {b}}"} <= names
    assert "{#1 @ {a,b}}" not in names
    assert generate_pool(U, "all", 0) == [U.empty]


def test_pool_determinism():
    a = Universe(build_upset_algebra(zoo()["diamond"]))
    b = Universe(build_upset_algebra(zoo()["diamond"]))
    pa = generate_pool(a, "ord", 2, budget=800, seed=5)
    pb = generate_pool(b, "ord", 2, budget=800, seed=5)
    assert [a.format_hset(u) for u in pa] == [b.format_hset(u) for u in pb]


def test_l1_passes_on_chain2(chain2_pools):
    U, pool_all, _ = chain2_pools
    rep = run_lemma(U, LEMMAS["L1"], pool_all)
    assert rep.passed and rep.instances == 27


def test_l3_on_boolean_check_numerals():
    U = Universe(build_upset_algebra(zoo()["chain1"]))
    pool = [U.numeral(n) for n in range(5)]
    rep = run_lemma(U, LEMMAS["L3"], pool)
    assert rep.passed and rep.instances == 125


def test_l6_over_witness_numerals(witness_universe):
    U, P = witness_universe
    pool = [U.numeral(n) for n in range(3)]
    rep = run_lemma(U, LEMMAS["L6"], pool, P)
    assert rep.passed and rep.instances == 9  # (A,B) pinned, 3x3 numeral pairs


def test_pipeline_lemmas_on_chain2():
    U = Universe(build_upset_algebra(zoo()["chain2"]))
    for lid in ("L7", "L8", "L9", "L10", "L11"):
        rep = run_lemma(U, LEMMAS[lid], [])
        assert rep.passed, (lid, rep.failures[:3])


def test_report_json_shape(chain2_pools):
    U, pool_all, _ = chain2_pools
    rep = run_lemma(U, LEMMAS["L1"], pool_all)
    d = json.loads(rep.to_json())
    assert list(d.keys()) == ["lemma", "algebra", "pool_rank", "instances", "failures", "elapsed_ms"]
    assert d["failures"] == [] and d["algebra"] == "chain2"


def test_reports_reproducible(chain2_pools):
    U, _, pool_ord = chain2_pools
    U2 = Universe(U.algebra)
    pool2 = generate_pool(U2, "ord", 2)
    r1 = run_lemma(U, LEMMAS["L2"], pool_ord, seed=3).to_dict()
    r2 = run_lemma(U2, LEMMAS["L2"], pool2, seed=3).to_dict()
    r1["elapsed_ms"] = r2["elapsed_ms"] = 0
    assert json.dumps(r1) == json.dumps(r2)


def test_mutation_sensitivity_corrupted_symmetric_side():
    """Dropping the symmetric side of equality must break the harness."""

    class Corrupted(Universe):
        def truth_eq(self, a, b):
            ka, kb = a.key, b.key
            if ka == kb:
                return self.algebra.top()
            key = ("ceq", ka, kb)
            hit = self._memo.get(key)
            if hit is not None:
                return hit
            val = self.algebra.top()
            for child, lab in a.entries:
                val = self.vmeet(val, self.vimp(lab, self.truth_mem(child, b)))
            self._memo[key] = val
            return val

    U = Corrupted(build_upset_algebra(zoo()["chain2"]))
    pool_all = generate_pool(U, "all", 2)
    pool_ord = generate_pool(U, "ord", 2)
    l1 = run_lemma(U, LEMMAS["L1"], pool_all)
    l3 = run_lemma(U, LEMMAS["L3"], pool_ord)
    assert not (l1.passed and l3.passed)


def test_failures_record_counterexamples(chain2_pools):
    """A deliberately false inequality yields concrete failure rows."""
    U, pool_all, _ = chain2_pools
    from heytord.lemmas import LemmaSpec, _TUPLE_CHECKS

    bogus = LemmaSpec("LX", 1, "all", "every set contains itself (false)")
    _TUPLE_CHECKS["LX"] = lambda U, args: (
        None
        if U.truth_mem(args[0], args[0]) == U.algebra.top()
        else (U.algebra.format_element(U.algebra.top()), U.algebra.format_element(U.truth_mem(args[0], args[0])))
    )
    try:
        rep = run_lemma(U, bogus, pool_all)
    finally:
        del _TUPLE_CHECKS["LX"]
    assert not rep.passed
    row = rep.failures[0]
    assert set(row) == {"tuple", "premise", "conclusion"}
