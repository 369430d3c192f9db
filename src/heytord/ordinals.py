"""Ordinal toolkit: successor, uniform addition, incomparability measurements,
the excluded-middle-deficient ordinal, pair encoding and the antichain predicate.

Addition follows the uniform recursion  a + b = a  union  U_{g in b} (a + g)+,
mirrored entry-wise on H-sets: the big union flattens the successors' members,
meeting labels through and joining duplicates.  Incomparability and trichotomy
are algebra-valued measurements, not booleans; "incomparable" means value top.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DepthExceededError, EngineError, UnsupportedAddendError
from .formulas import (
    eval_formula,
    ordinal_formula,
    register_pred_function,
    register_term_function,
)
from .hset import FORMAL, Family, HSet, Universe
from .intervals import IntervalAlgebra
from .templates import DOM_ALL, point_complement_body, template_from_body

_ORD = ordinal_formula()


def hsucc(U: Universe, u: HSet) -> HSet:
    """u union {u}: entries of u plus (u @ top)."""
    return U.make_hset(list(u.entries) + [(u, U.algebra.top())], u.families)


def hunion(U: Universe, a: HSet, b: HSet) -> HSet:
    """Entry-wise union; labels joined on shared entries."""
    return U.make_hset(list(a.entries) + list(b.entries), list(a.families) + list(b.families))


def _weight(U: Universe, u: HSet, l) -> list:
    """Entries and families of u with every label met with l."""
    entries = [(c, U.vmeet(lab, l)) for c, lab in u.entries]
    families = [Family(f.domain, f.elem, U.vmeet(f.label, l)) for f in u.families]
    return entries, families


def _padd(U: Universe, a: HSet, t):
    """Parametric sum a + t(q) as a one-parameter shape, for family-free a.

    The right template's concrete members recurse through ord_add; its own
    parametric children recurse through _padd.  Members of the successor sums
    are flattened with labels met through, exactly like the concrete clause."""
    from .hset import ParamHSet

    if a.families:
        raise UnsupportedAddendError("addition with families on both sides")
    entries = list(a.entries)
    for c, l in t.entries:
        if isinstance(c, ParamHSet):
            s = ord_add_param_succ(U, a, c)
            for z, m in s.entries:
                entries.append((z, U.vmeet(m, l)))
        else:
            s = hsucc(U, ord_add(U, a, c))
            if s.families:
                raise DepthExceededError("family-bearing member inside a family template")
            for z, m in s.entries:
                entries.append((z, U.vmeet(m, l)))
    return U.make_param_hset(entries)


def ord_add_param_succ(U: Universe, a: HSet, t):
    """(a + t(q))+ as a one-parameter shape."""
    s = _padd(U, a, t)
    return U.make_param_hset(list(s.entries) + [(s, U.algebra.top())])


def ord_add(U: Universe, a: HSet, b: HSet) -> HSet:
    """Uniform ordinal addition, recursing on the right argument's entries.

    A family entry on the right flattens symbolically: its members contribute
    the entries of the parametric successor sum (a + t(q))+, with q-dependent
    weights joined out over the family's domain, plus the sum itself as a new
    family entry."""
    key = (a.id, b.id)
    hit = U._add_memo.get(key)
    if hit is not None:
        return hit
    entries = list(a.entries)
    families = list(a.families)
    for g, l in b.entries:
        s = hsucc(U, ord_add(U, a, g))
        went, wfam = _weight(U, s, l)
        entries.extend(went)
        families.extend(wfam)
    for fam in b.families:
        s = ord_add_param_succ(U, a, fam.elem)
        for c, l in s.entries:
            if isinstance(c, HSet):
                w = U.eliminate(U.vmeet(fam.label, l), FORMAL, "join")
                entries.append((c, w))
            else:
                families.append(Family(fam.domain, c, U.vmeet(fam.label, l)))
    out = U.make_hset(entries, families)
    U._add_memo[key] = out
    return out


def is_ord(U: Universe, u: HSet):
    """Truth value of `u is a transitive set of transitive sets`."""
    return eval_formula(U, _ORD, {"x": u})


def perp(U: Universe, a: HSet, b: HSet):
    """Incomparability measurement: neg(a in succ b) meet neg(b in succ a),
    computed as neg(trichotomy(a, b)) without building either successor.

    This is exact.  succ b adds the single entry (b @ top) to the entries of
    b, and it never merges with one of them, because a node's children all
    have smaller ids than the node.  So [a in succ b] = [a in b] or [a = b],
    and likewise for succ a.  Since neg(p or q) = neg p and neg q holds in
    every Heyting algebra, the meet of the two negations is the negation of
    [a in b] or [a = b] or [b in a]."""
    return U.vneg(trichotomy(U, a, b))


def trichotomy(U: Universe, a: HSet, b: HSet):
    """Value of  a in b  or  a = b  or  b in a."""
    return U.vjoin(U.vjoin(U.truth_mem(a, b), U.truth_eq(a, b)), U.truth_mem(b, a))


def theta(U: Universe, a: HSet, a2: HSet, b: HSet, b2: HSet):
    """Strengthened antichain predicate:
    neg(a2 in b2) meet neg(b2 in a2) meet (a2 = b2 iff a = b)."""
    c1 = U.vneg(U.truth_mem(a2, b2))
    c2 = U.vneg(U.truth_mem(b2, a2))
    pe = U.truth_eq(a2, b2)
    be = U.truth_eq(a, b)
    bic = U.vmeet(U.vimp(pe, be), U.vimp(be, pe))
    return U.vmeet(U.vmeet(c1, c2), bic)


def ord_em(U: Universe, a) -> HSet:
    """The ordinal {0, 1, {0 @ a}} whose equality with 2 measures a or not a."""
    u_a = U.make_hset([(U.numeral(0), a)])
    top = U.algebra.top()
    return U.make_hset([(U.numeral(0), top), (U.numeral(1), top), (u_a, top)])


@dataclass
class OrdinalWitnessPair:
    """A pair of top-valued ordinals with cached incomparability value."""

    A: HSet
    B: HSet
    perp_value: object


def pair_encode(U: Universe, P: OrdinalWitnessPair, g1: HSet, g2: HSet) -> HSet:
    """(A+ + g1) union (B+ + g2)."""
    return hunion(
        U,
        ord_add(U, hsucc(U, P.A), g1),
        ord_add(U, hsucc(U, P.B), g2),
    )


def trivial_pair(U: Universe) -> OrdinalWitnessPair:
    """A = B = 2: the degenerate pair (perp bottom) used over finite algebras."""
    two = U.numeral(2)
    return OrdinalWitnessPair(two, two, perp(U, two, two))


def witness_pair(U: Universe) -> OrdinalWitnessPair:
    """The incomparable pair over the interval algebra: A extends 2 by the
    family q |-> {0 @ !q}, B = 2.  Certifies perp(A, B) = top by computing all
    four constituent membership/equality values to be bottom."""
    if not isinstance(U.algebra, IntervalAlgebra):
        raise EngineError("the witness pair needs the interval algebra")
    top = U.algebra.top()
    u_q = U.make_param_hset(
        [(U.numeral(0), template_from_body(point_complement_body("q"), (("q", DOM_ALL),)))]
    )
    A = U.make_hset(
        [(U.numeral(0), top), (U.numeral(1), top)],
        [Family(DOM_ALL, u_q, top)],
    )
    B = U.numeral(2)
    bot = U.algebra.bottom()
    values = {
        "A in B": U.truth_mem(A, B),
        "A = B": U.truth_eq(A, B),
        "B in A": U.truth_mem(B, A),
        "B = A": U.truth_eq(B, A),
    }
    if any(v != bot for v in values.values()):
        raise EngineError(f"witness certification failed: {values}")
    p = perp(U, A, B)
    if p != top:
        raise EngineError("witness perp value is not top")
    U.bind_constant("A", A)
    U.bind_constant("B", B)
    return OrdinalWitnessPair(A, B, p)


def _pair_from_constants(U: Universe) -> OrdinalWitnessPair:
    if "A" not in U.constants or "B" not in U.constants:
        raise EngineError("pairenc needs constants A and B bound in the universe")
    A, B = U.constants["A"], U.constants["B"]
    return OrdinalWitnessPair(A, B, perp(U, A, B))


register_term_function("succ", hsucc)
register_term_function("add", ord_add)
register_term_function("ordem", ord_em)
register_term_function("union", hunion)
register_term_function(
    "pairenc", lambda U, g1, g2: pair_encode(U, _pair_from_constants(U), g1, g2)
)
register_pred_function("perp", perp)
register_pred_function("tri", trichotomy)
register_pred_function("theta", theta)
register_pred_function("ord", is_ord)
