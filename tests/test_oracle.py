"""Checks of the cached engine against evaluators that share no code with it.

Over the up-sets of a finite poset a Heyting-valued model is a Kripke model
(Fourman & Scott, "Sheaves and logic", 1979): a node p forces u in v iff some
entry (e, l) of v has p in l and p forces e = u, and p forces u = v iff for
every q >= p and every entry (e, l) of either side with q in l, q forces that
e belongs to the other side.  A truth value is the set of forcing nodes.  The
forcing evaluator below reads only the poset's covers and the nodes' entries:
no Heyting implication, no memo and no value table from heytord.hset.

The open sets of the rationals with endpoints in a finite cut set S form a
finite Heyting subalgebra of the interval algebra: the up-sets of the zigzag
poset on S's cuts and gaps, in which each cut lies below its two neighbouring
gaps (Esakia duality).  Reading each label at every cut and at one rational
per gap turns a family-free interval-valued set into a Kripke model on that
poset, so the same forcing evaluator checks the interval path too.

Over the interval algebra a family entry is an infinite join (in membership)
or meet (in a universal quantifier) over its parameter (Grayson,
"Heyting-valued models for intuitionistic set theory", 1979).  Replacing a
family by its instances at a finite set F of rationals, built point by point
with template_eval, keeps only some of the joinands or meetands, which bounds
the symbolic value from below or above for every F.
"""

import functools
import itertools
from fractions import Fraction
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import heytord.hf as hf
from heytord.antichain import certify, perp_lift, pow_lift
from heytord.formulas import Eq, Exists, Forall, Mem, Var, eval_formula
from heytord.hset import FORMAL, ParamHSet, Universe
from heytord.intervals import BOT, TOP, IntervalAlgebra, contains_rational, parse_interval_set
from heytord.ivcore import POS_INF
from heytord.lemmas import generate_pool
from heytord.order import build_upset_algebra, zoo
from heytord.ordinals import hsucc, ord_add, pair_encode, witness_pair
from heytord.parsing import parse_hset
from heytord.templates import (
    DOM_ALL,
    Template,
    eliminate_param,
    point_complement_body,
    rename_param,
    template_eval,
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


def forcing_value(above, forces, u, v):
    assert not (u.families or v.families)
    return sum(1 << p for p in range(len(above)) if forces(above, p, u, v))


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
    above = _above(ZOO[name])
    assert U.truth_mem(u, v) == forcing_value(above, _forces_mem, u, v)
    assert U.truth_eq(u, v) == forcing_value(above, _forces_eq, u, v)


def _zigzag_above(n):
    """above[j] in the zigzag poset on n cuts: node 2i is the gap below cut i,
    node 2i + 1 is cut i, and node 2n the gap above the last cut."""
    return [[j] if j % 2 == 0 else [j - 1, j, j + 1] for j in range(2 * n + 1)]


def _zigzag_samples(cuts):
    """One rational per zigzag node: a point inside each gap, and each cut."""
    if not cuts:
        return [Fraction(0)]
    lows = [cuts[0] - 1, *cuts]
    return [x for low, c in zip(lows, cuts) for x in ((low + c) / 2, c)] + [cuts[-1] + 1]


def _labels(u):
    for c, l in u.entries:
        yield l
        yield from _labels(c)


def _kripke_node(u, upset, seen):
    if u.id not in seen:
        entries = [(_kripke_node(c, upset, seen), upset(l)) for c, l in u.entries]
        seen[u.id] = SimpleNamespace(entries=entries, families=())
    return seen[u.id]


_ENDS = ["-inf", "-1", "0", "1/2", "1", "+inf"]
_iv_label = st.one_of(
    st.sampled_from(["0", "1", "!0", "!1/2"]),
    st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True).map(sorted), min_size=1, max_size=3).map(
        lambda pairs: "|".join(f"({_ENDS[a]},{_ENDS[b]})" for a, b in pairs)
    ),
)
_iv_hset = st.recursive(
    st.sampled_from(["#0", "#1"]),
    lambda kids: st.lists(st.tuples(kids, _iv_label), max_size=3).map(
        lambda entries: "{" + ", ".join(f"{c} @ {l}" for c, l in entries) + "}"
    ),
    max_leaves=6,
)


@functools.cache
def _interval_universe():
    return Universe(IntervalAlgebra())


@settings(max_examples=200, deadline=None)
@given(_iv_hset, _iv_hset)
def test_zigzag_forcing_oracle_agrees_on_interval_literals(a, b):
    U = _interval_universe()
    u, v = parse_hset(U, a), parse_hset(U, b)
    cuts = sorted({e for x in (u, v) for l in _labels(x) for pair in l.ivs for e in pair if isinstance(e, Fraction)})
    samples = _zigzag_samples(cuts)

    def upset(l):
        return sum(1 << j for j, r in enumerate(samples) if contains_rational(l, r))

    seen = {}
    ku, kv = _kripke_node(u, upset, seen), _kripke_node(v, upset, seen)
    above = _zigzag_above(len(cuts))
    for truth, forces in ((U.truth_mem, _forces_mem), (U.truth_eq, _forces_eq)):
        value = truth(u, v)
        # the value lies in the subalgebra, where upset is one-to-one
        assert {e for pair in value.ivs for e in pair if isinstance(e, Fraction)} <= set(cuts)
        assert upset(value) == forcing_value(above, forces, ku, kv), (a, b)


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


def _at(label, r):
    return template_eval(label, {FORMAL: r}) if isinstance(label, Template) else label


def _instance(U, ph, r):
    """The family element shape ph at parameter value r, entry by entry."""
    return U.make_hset(
        [(_instance(U, c, r) if isinstance(c, ParamHSet) else c, _at(l, r)) for c, l in ph.entries]
    )


def _truncate(U, u, F):
    """u with each family replaced by its instances at the points of F in its domain."""
    inst = [
        (_instance(U, f.elem, r), _at(f.label, r))
        for f in u.families
        for r in F
        if f.domain == DOM_ALL or f.domain[1] < r < f.domain[2]
    ]
    return U.make_hset(list(u.entries) + inst)


@functools.cache
def _family_universe():
    U = Universe(IntervalAlgebra())
    P = witness_pair(U)
    num = U.numeral
    literals = [
        "{ #0 @ 1, fam q in (0,1) : { #0 @ !q } @ (0,1) }",
        "{ fam q in QQ : { #0 @ (q,2), #1 @ 1 } @ !q }",
        "{ #1 @ (0,2), fam q in (-1,2) : { #0 @ (q,3), { #0 @ !q } @ 1 } @ (0,q)|(1,3) }",
    ]
    family_sets = [P.A, hsucc(U, P.A), ord_add(U, hsucc(U, P.B), P.A), pair_encode(U, P, num(1), num(0))]
    family_sets += [parse_hset(U, text) for text in literals]
    assert all(u.families for u in family_sets)
    partners = [num(0), num(1), num(2), P.A, parse_hset(U, "{ #0 @ !0 }"), parse_hset(U, "{ #0 @ (0,1) }")]
    return U, family_sets, partners + family_sets[1:2]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=4, unique=True))
def test_family_terms_bound_their_finite_instances(F):
    """[x in u_F] <= [x in u] and [A z : u . z in y] <= [A z : u_F . z in y]
    for every finite F, and E z : u . z = x agrees with [x in u]."""
    U, family_sets, partners = _family_universe()
    le = U.algebra.le
    every = Forall("z", Var("u"), Mem(Var("z"), Var("y")))
    some = Exists("z", Var("u"), Eq(Var("z"), Var("x")))
    for u in family_sets:
        u_F = _truncate(U, u, F)
        for x in partners:
            assert le(U.truth_mem(x, u_F), U.truth_mem(x, u))
            assert le(eval_formula(U, every, {"u": u, "y": x}), eval_formula(U, every, {"u": u_F, "y": x}))
            assert eval_formula(U, some, {"u": u, "x": x}) == U.truth_mem(x, u)


def test_finite_truncations_of_the_witness_are_not_incomparable_with_two():
    """With F the multiples of 1/3 in [-3, 3], [A_F = 2] is a dense open set:
    only the infinite family makes the witness incomparable with 2."""
    U, family_sets, _ = _family_universe()
    A = family_sets[0]
    A_F = _truncate(U, A, [Fraction(k, 3) for k in range(-9, 10)])
    assert U.truth_eq(A, U.numeral(2)) == BOT
    assert len(U.truth_eq(A_F, U.numeral(2)).ivs) == 20
