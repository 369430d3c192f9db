"""Checks of the cached engine against evaluators that share no code with it.

Over the up-sets of a finite poset a Heyting-valued model is a Kripke model
(Fourman & Scott, "Sheaves and logic", 1979): a node p forces u in v iff some
entry (e, l) of v has p in l and p forces e = u, and p forces u = v iff for
every q >= p and every entry (e, l) of either side with q in l, q forces that
e belongs to the other side.  A truth value is the set of forcing nodes.  The
forcing evaluator below reads only the poset's covers and the nodes' entries:
no Heyting implication, no memo and no value table from heytord.hset.
"""

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import heytord.hf as hf
from heytord.antichain import certify, perp_lift, pow_lift
from heytord.hset import Universe
from heytord.intervals import BOT, TOP, IntervalAlgebra, parse_interval_set
from heytord.ivcore import POS_INF
from heytord.lemmas import generate_pool
from heytord.order import build_upset_algebra, zoo
from heytord.ordinals import witness_pair
from heytord.templates import (
    DOM_ALL,
    Template,
    eliminate_param,
    point_complement_body,
    rename_param,
    template_from_body,
    template_op,
)

ZOO = zoo()


def _above(poset):
    """above[i]: the nodes j with element i <= element j, closed from the covers."""
    idx = {e: i for i, e in enumerate(poset.elements)}
    succ = {i: [idx[hi] for lo, hi in poset.covers if idx[lo] == i] for i in idx.values()}
    above = []
    for i in range(len(poset.elements)):
        seen, stack = set(), [i]
        while stack:
            j = stack.pop()
            if j not in seen:
                seen.add(j)
                stack.extend(succ[j])
        above.append(sorted(seen))
    return above


def _forces_mem(above, p, u, v):
    return any(l >> p & 1 and _forces_eq(above, p, e, u) for e, l in v.entries)


def _forces_eq(above, p, u, v):
    return all(
        not l >> q & 1 or _forces_mem(above, q, e, other)
        for x, other in ((u, v), (v, u))
        for e, l in x.entries
        for q in above[p]
    )


def forcing_value(poset, forces, u, v):
    above = _above(poset)
    assert not (u.families or v.families)
    return sum(1 << p for p in range(len(poset.elements)) if forces(above, p, u, v))


@functools.cache
def _zoo_universe(name):
    U = Universe(build_upset_algebra(ZOO[name]))
    return U, generate_pool(U, "all", 2)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(ZOO)), st.data())
def test_forcing_oracle_agrees_on_zoo_pools(name, data):
    U, pool = _zoo_universe(name)
    u = data.draw(st.sampled_from(pool))
    v = data.draw(st.sampled_from(pool))
    assert U.truth_mem(u, v) == forcing_value(ZOO[name], _forces_mem, u, v)
    assert U.truth_eq(u, v) == forcing_value(ZOO[name], _forces_eq, u, v)


def test_memo_off_interval_witness_and_theta_values():
    """Cache-free reference on the interval algebra: witness values and the
    theta values of a powerset lift equal those of a cached universe."""
    runs = []
    for memo in (True, False):
        U = Universe(IntervalAlgebra(), memo=memo)
        P = witness_pair(U)
        witness = [U.truth_mem(P.A, P.B), U.truth_eq(P.A, P.B), U.truth_mem(P.B, P.A), P.perp_value]
        keys = [hf.numeral(n) for n in range(3)]
        f = perp_lift(U, P, certify(U, keys, {k: U.embed(k) for k in keys}))
        subsets = [frozenset(y) for r in range(3) for y in itertools.combinations(f.domain, r)]
        g = pow_lift(U, P, f, subsets)
        assert f.certified and g.certified
        runs.append((witness, f.theta_values, g.theta_values))
    assert runs[0] == runs[1]
    assert len(runs[0][2]) == 21


def test_value_table_matches_fresh_computation():
    """Every value-table answer, first computed or read back, equals the
    templates and intervals modules' own result for the same operation."""
    U = Universe(IntervalAlgebra())
    q = (("q", DOM_ALL),)
    values = [
        BOT,
        TOP,
        parse_interval_set("(0,1)"),
        parse_interval_set("!0"),
        template_from_body(point_complement_body("q"), q),
        template_from_body(((("s", "q"), POS_INF),), q),
    ]
    ops = {"meet": U.vmeet, "join": U.vjoin, "imp": U.vimp}
    for _ in range(2):
        for x, y in itertools.product(values, repeat=2):
            for op, tabled in ops.items():
                if isinstance(x, Template) or isinstance(y, Template):
                    fresh = template_op(x, y, op)
                else:
                    fresh = getattr(U.algebra, op)(x, y)
                assert tabled(x, y) == fresh, (op, x, y)
        for x in values:
            for sym in ("q0", "q1"):
                renamed = rename_param(x, "q", sym) if isinstance(x, Template) else x
                assert U._formal_as(x, sym) == renamed
                for mode in ("meet", "join"):
                    fresh = eliminate_param(renamed, sym, mode) if isinstance(x, Template) else x
                    assert U.eliminate(renamed, sym, mode) == fresh
