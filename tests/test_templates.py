import itertools
import random
from fractions import Fraction as F

import pytest

from heytord.errors import ArityError
from heytord.intervals import BOT, TOP, IntervalAlgebra, iv_canon, parse_interval_set, point_complement
from heytord.ivcore import NEG_INF, POS_INF, is_inf
from heytord.templates import (
    DOM_ALL,
    Template,
    constant_template,
    dom_interval,
    family_join,
    family_meet,
    point_complement_body,
    template_eval,
    template_from_body,
    template_op,
    template_reduce,
)

P1 = (("q0", DOM_ALL),)
P2 = (("q0", DOM_ALL), ("q1", DOM_ALL))
ALG = IntervalAlgebra()


def pc(name="q0", params=P1):
    return template_from_body(point_complement_body(name), params)


def test_family_meet_of_point_complements_is_bottom():
    assert family_meet(pc()) == BOT


def test_family_meet_of_constant_template():
    c = parse_interval_set("(0,1)")
    assert family_meet(constant_template(c, P1)) == c


def test_family_meet_right_ray_over_unit_interval():
    t = template_from_body(((("s", "q0"), POS_INF),), (("q0", dom_interval(F(0), F(1))),))
    assert family_meet(t) == parse_interval_set("(1,+inf)")


def test_family_join_right_ray_over_unit_interval():
    t = template_from_body(((("s", "q0"), POS_INF),), (("q0", dom_interval(F(0), F(1))),))
    assert family_join(t) == parse_interval_set("(0,+inf)")


def test_family_join_of_point_complements_is_top():
    assert family_join(pc()) == TOP


def test_family_join_of_bottom_template():
    assert family_join(constant_template(BOT, P1)) == BOT


def test_family_ops_need_arity_one():
    with pytest.raises(ArityError):
        family_meet(pc(params=P2))
    with pytest.raises(ArityError):
        template_reduce(pc(), "q0", "join")


def test_reduce_constant_in_bound_parameter():
    t = constant_template(parse_interval_set("(0,2)"), P2)
    out = template_reduce(t, "q1", "meet")
    assert out.constant_value() == parse_interval_set("(0,2)")


def test_reduce_join_of_other_point_complement_is_top():
    out = template_reduce(pc("q1", P2), "q1", "join")
    assert out.constant_value() == TOP


def test_reduce_biconditional_diagonal_is_top():
    nq0, nq1 = pc("q0", P2), pc("q1", P2)
    bic = template_op(
        template_op(nq0, nq1, "imp"), template_op(nq1, nq0, "imp"), "meet"
    )
    out = template_reduce(bic, "q1", "join")
    assert out.constant_value() == TOP


def test_template_eval_matches_pointwise_ops():
    rng = random.Random(11)
    nq0, nq1 = pc("q0", P2), pc("q1", P2)
    t = template_op(template_op(nq0, nq1, "meet"), constant_template(parse_interval_set("(-2,5)"), P2), "join")
    for _ in range(40):
        v0 = F(rng.randrange(-8, 8), rng.randrange(1, 4))
        v1 = F(rng.randrange(-8, 8), rng.randrange(1, 4))
        got = template_eval(t, {"q0": v0, "q1": v1})
        want = ALG.join(
            ALG.meet(point_complement(v0), point_complement(v1)),
            parse_interval_set("(-2,5)"),
        )
        assert got == want, (v0, v1)


def test_family_meet_sound_at_samples():
    # every rational inside the meet lies in every instance; every sampled
    # rational outside escapes some instance
    t = template_from_body(((("s", "q0"), POS_INF),), (("q0", dom_interval(F(0), F(1))),))
    out = family_meet(t)
    rng = random.Random(5)
    qs = [F(rng.randrange(1, 999), 1000) for _ in range(50)]
    inside = [F(3, 2), F(2), F(7)]
    for p in inside:
        assert all(template_eval(t, {"q0": q}).ivs and p > q for q in qs)
    from heytord.intervals import contains_rational

    outside = [F(1, 2), F(0), F(-1), F(1)]
    boundary = {lo for lo, _ in out.ivs} | {hi for _, hi in out.ivs}
    for p in outside:
        assert not contains_rational(out, p)
        escapes = any(not contains_rational(template_eval(t, {"q0": q}), p) for q in qs)
        assert escapes or p in boundary


def test_family_join_contains_every_sampled_instance():
    t = pc()
    out = family_join(t)
    rng = random.Random(9)
    for _ in range(50):
        q = F(rng.randrange(-50, 50), rng.randrange(1, 9))
        inst = template_eval(t, {"q0": q})
        assert ALG.le(inst, out)


def test_pointwise_residuation_on_templates():
    a = pc("q0", P1)
    b = template_from_body(((("v", F(0)), ("s", "q0")),), P1)
    c = template_op(a, b, "imp")
    rng = random.Random(13)
    for _ in range(30):
        q = F(rng.randrange(-6, 6), rng.randrange(1, 5))
        av, bv, cv = (template_eval(x, {"q0": q}) if isinstance(x, Template) else x for x in (a, b, c))
        assert cv == ALG.imp(av, bv)


def test_imp_into_bottom_is_the_canonical_ray():
    left_ray = template_from_body(((NEG_INF, ("s", "q0")),), P1)
    assert template_op(left_ray, BOT, "imp") == template_from_body(((("s", "q0"), POS_INF),), P1)


def _row_values(t, cfg):
    """Parameter values in the arrangement that the row config cfg names."""
    cuts = t.cuts
    vals = {}
    for (name, _), pl in zip(t.params, cfg):
        if pl[0] == "pt":
            vals[name] = cuts[pl[1]]
            continue
        g, rel = pl[1], pl[2]
        lo = cuts[g - 1] if g else (cuts[0] if cuts else F(0)) - 2
        hi = cuts[g] if g < len(cuts) else (cuts[-1] if cuts else F(0)) + 2
        mid = (lo + hi) / 2
        vals[name] = {None: mid, "eq": mid, "lt": (lo + mid) / 2, "gt": (mid + hi) / 2}[rel]
    return vals


def _assert_rows_canonical(t):
    """No stored row has a piece that is empty in its arrangement, and the
    pieces come in order and apart, so equal functions get equal tables."""
    if not isinstance(t, Template):
        return
    for cfg, body in t.table:
        vals = _row_values(t, cfg)
        ends = [ep if is_inf(ep) else vals[ep[1]] if ep[0] == "s" else ep[1] for piece in body for ep in piece]
        for i in range(len(ends) - 1):
            assert ends[i] < ends[i + 1] if i % 2 == 0 else ends[i] <= ends[i + 1], (cfg, body)


def _random_body(rng, params):
    names = [n for n, _ in params]
    body = []
    for _ in range(rng.randrange(1, 4)):
        eps = []
        for _ in range(2):
            kind = rng.randrange(4)
            if kind == 0:
                eps.append(("s", rng.choice(names)))
            elif kind == 1:
                eps.append(rng.choice([POS_INF]) if rng.randrange(2) else ("v", F(rng.randrange(-4, 5))))
            else:
                eps.append(("v", F(rng.randrange(-4, 5), rng.randrange(1, 3))))
        body.append(tuple(eps))
    return tuple(body)


def _sample_qs(rng, n=12):
    qs = [F(rng.randrange(-12, 12), rng.randrange(1, 5)) for _ in range(n)]
    return qs + [F(-5), F(5), F(0)]


def test_symbolic_ops_agree_with_concrete_instances():
    rng = random.Random(101)
    for trial in range(60):
        t1 = template_from_body(_random_body(rng, P1), P1)
        t2 = template_from_body(_random_body(rng, P1), P1)
        for opname in ("meet", "join", "imp"):
            out = template_op(t1, t2, opname)
            _assert_rows_canonical(out)
            for q in _sample_qs(rng, 6):
                v1 = template_eval(t1, {"q0": q})
                v2 = template_eval(t2, {"q0": q})
                got = out if not isinstance(out, Template) else template_eval(out, {"q0": q})
                want = getattr(ALG, opname)(v1, v2)
                assert got == want, (trial, opname, q)


def test_family_elimination_against_sampled_instances():
    rng = random.Random(55)
    for trial in range(40):
        t = template_from_body(_random_body(rng, P1), P1)
        meet_out, join_out = family_meet(t), family_join(t)
        instances = [template_eval(t, {"q0": q}) for q in _sample_qs(rng)]
        for inst in instances:
            assert ALG.le(meet_out, inst), (trial, "meet not below an instance")
            assert ALG.le(inst, join_out), (trial, "join not above an instance")


def test_reduce_against_pointwise_elimination():
    # reducing q1 out of a two-parameter template, then instantiating q0, must
    # bound every concrete q1 instance from the right side
    rng = random.Random(77)
    for trial in range(25):
        t = template_from_body(_random_body(rng, P2), P2)
        red_meet = template_reduce(t, "q1", "meet")
        red_join = template_reduce(t, "q1", "join")
        for out in (t, red_meet, red_join):
            _assert_rows_canonical(out)
        for q0 in _sample_qs(rng, 4):
            m = template_eval(red_meet, {"q0": q0})
            j = template_eval(red_join, {"q0": q0})
            for q1 in _sample_qs(rng, 8):
                inst = template_eval(t, {"q0": q0, "q1": q1})
                assert ALG.le(m, inst), (trial, q0, q1)
                assert ALG.le(inst, j), (trial, q0, q1)


def test_ops_on_mixed_parameter_lists_agree_with_instances():
    # operands over different parameter lists (q0 over an interval domain, q1
    # over QQ, both) and constants: each operand is read in the arrangements
    # of the merged parameters over the merged cuts
    rng = random.Random(23)
    d0 = (("q0", dom_interval(F(-1), F(2))),)
    d1 = (("q1", DOM_ALL),)
    const = parse_interval_set("(-3,1/2)|(2,+inf)")
    for trial in range(12):
        pool = [template_from_body(_random_body(rng, ps), ps) for ps in (d0, d1, d0 + d1)] + [const]
        for x, y in itertools.permutations(pool, 2):
            for opname in ("meet", "join", "imp"):
                out = template_op(x, y, opname)
                _assert_rows_canonical(out)
                for _ in range(6):
                    q0 = F(rng.randrange(-2, 6), 3)
                    vals = {"q0": q0, "q1": rng.choice([q0, q0 + F(1, 7), F(rng.randrange(-9, 9), 2)])}
                    inst = [template_eval(z, vals) if isinstance(z, Template) else z for z in (x, y, out)]
                    assert inst[2] == getattr(ALG, opname)(inst[0], inst[1]), (trial, opname, vals)
