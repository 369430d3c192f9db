import pytest

import heytord.hf as hf
from heytord.errors import EngineError, LiteralParseError
from heytord.formulas import eval_formula, ordinal_formula
from heytord.hset import Universe
from heytord.order import build_upset_algebra, zoo
from heytord.parsing import apply_definition, apply_definitions, parse_formula, parse_hset


@pytest.fixture()
def U():
    return Universe(build_upset_algebra(zoo()["chain2"]))


def crumbs(U):
    bot, h, top = U.algebra.enumerate_elements()
    return bot, h, top


def test_ord_formula_values(U):
    bot, h, top = crumbs(U)
    assert eval_formula(U, ordinal_formula(), {"x": U.numeral(2)}) == top
    not_trans = U.make_hset([(U.numeral(1), top)])
    assert eval_formula(U, ordinal_formula(), {"x": not_trans}) == bot
    u_h = U.make_hset([(U.numeral(0), h)])
    assert eval_formula(U, ordinal_formula(), {"x": u_h}) == top


def test_trichotomy_formula_from_text(U):
    bot, h, top = crumbs(U)
    apply_definition(U, "u := {#0 @ {b}}")
    phi = parse_formula(U, r"(u in #1 & u = #0) \/ (u = #1) \/ (#1 in u)")
    assert eval_formula(U, phi, {}) == h


def test_unbound_variable_raises(U):
    phi = parse_formula(U, "zz in #1")
    with pytest.raises(EngineError):
        eval_formula(U, phi, {})


def test_connectives_and_quantifiers(U):
    bot, h, top = crumbs(U)
    apply_definition(U, "u := {#0 @ {b}}")
    cases = {
        "tt": top,
        "ff": bot,
        "~ (u = #1)": bot,
        "u = #1 -> ff": bot,
        "A y : #2 . y in #2": top,
        "E y : u . y = #0": h,
        "A y : u . ff": U.algebra.imp(h, bot),
    }
    for text, want in cases.items():
        assert eval_formula(U, parse_formula(U, text), {}) == want, text


def test_quantifier_keyword_does_not_shadow_constants(U):
    U.bind_constant("A", U.numeral(1))
    phi = parse_formula(U, "A in #2")
    assert eval_formula(U, phi, {}) == U.algebra.top()
    phi2 = parse_formula(U, "A y : A . y = #0")
    assert eval_formula(U, phi2, {}) == U.algebra.top()


def test_hset_literals(U):
    bot, h, top = crumbs(U)
    assert parse_hset(U, "#3") is U.numeral(3)
    u = parse_hset(U, "{ #0 @ {b} , #1 @ {a,b} }")
    assert u.entries == ((U.numeral(0), h), (U.numeral(1), top))
    assert parse_hset(U, "{}") is U.empty
    apply_definitions(U, "# defs demo\none := #1\ntwo := { one @ {a,b}, #0 @ {a,b} }")
    assert U.constants["two"] is U.numeral(2)


def test_hset_literal_errors(U):
    for bad in ["#", "{#0}", "{#0 @ }", "{#0 @ {b},}", "nope", "{#0 @ {zzz}}"]:
        with pytest.raises(LiteralParseError):
            parse_hset(U, bad)


def test_family_literal_over_interval(witness_universe):
    U, P = witness_universe
    a = parse_hset(U, "{ #0 @ 1, #1 @ 1, fam q in QQ : { #0 @ !q } @ 1 }")
    assert a is P.A
    assert U.format_hset(a) == "{#0 @ 1, #1 @ 1, fam q in QQ : {#0 @ !q} @ 1}"


def test_family_literal_with_interval_domain(witness_universe):
    U, _ = witness_universe
    u = parse_hset(U, "{ fam q in (0,1) : { #0 @ !q } @ (0,1) }")
    fam = u.families[0]
    assert fam.domain == ("iv", 0, 1)


def test_nested_family_rejected(witness_universe):
    U, _ = witness_universe
    with pytest.raises(LiteralParseError):
        parse_hset(U, "{ fam q in QQ : { fam r in QQ : {#0 @ !r} @ 1 } @ 1 }")


def test_function_style_terms(U):
    top = U.algebra.top()
    assert eval_formula(U, parse_formula(U, "succ(#1) = #2"), {}) == top
    assert eval_formula(U, parse_formula(U, "add(#2, #2) = #4"), {}) == top
    assert eval_formula(U, parse_formula(U, "union(#1, #2) = #2"), {}) == top
    assert eval_formula(U, parse_formula(U, "ord(ordem({b}))"), {}) == top
    h = U.algebra.enumerate_elements()[1]
    assert eval_formula(U, parse_formula(U, "ordem({b}) = #2"), {}) == h
    assert eval_formula(U, parse_formula(U, "tri(#0, #1)"), {}) == top
    assert eval_formula(U, parse_formula(U, "perp(#2, #2)"), {}) == U.algebra.bottom()


def test_pairenc_needs_constants(U):
    with pytest.raises(EngineError):
        eval_formula(U, parse_formula(U, "pairenc(#0, #0) = #0"), {})


def test_pairenc_over_witness(witness_universe):
    U, P = witness_universe
    phi = parse_formula(U, "theta(#0, pairenc(#0, #0), #1, pairenc(#0, #1))")
    assert eval_formula(U, phi, {}) == U.algebra.top()


def test_formula_parse_errors(U):
    for bad in ["u in", "( tt", "A : #1 . tt", "#1 zz #2", "tt &", "theta(#0,#0)"]:
        with pytest.raises(LiteralParseError):
            parse_formula(U, bad)


def test_deep_input_parses_or_is_a_typed_error(U):
    from heytord.errors import DepthExceededError

    n = 10_000
    for parse, text in (
        (parse_hset, "{" * n + "}" + " @ {a,b}}" * (n - 1)),
        (parse_formula, "(" * n + "tt" + ")" * n),
        (parse_formula, "~" * n + "tt"),
    ):
        try:
            parse(U, text)
        except DepthExceededError:
            pass


def test_quantifier_depth_limit(witness_universe):
    from heytord.errors import DepthExceededError

    U, _ = witness_universe
    phi = parse_formula(U, "A x : A . A y : A . E z : A . tt")
    with pytest.raises(DepthExceededError):
        eval_formula(U, phi, {})
    # two nested family quantifiers stay within the limit
    ok = parse_formula(U, "A x : A . A y : A . x = y -> x = y")
    assert eval_formula(U, ok, {}) == U.algebra.top()
