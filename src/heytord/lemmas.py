"""Lemma harness: turn each verified statement into a truth-value inequality
checked over enumerated pools, with counterexample reporting.

Positive statements Hyp -> Concl are checked as [Hyp] <= [Concl]; negative
statements (conclusion not-phi under premise) as meet([Hyp], [phi]) = bottom,
the exact lattice form of [Hyp -> not phi] = top.  Pipeline statements run
through the actual constructions with their recomputed premises.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field

from . import hf as hfmod
from .antichain import (
    build_antichain,
    certify,
    merge_families,
    minimal_gamma,
    perp_lift,
    pow_lift,
    subset_encode,
    tc_stage,
)
from .hset import Universe
from .ordinals import (
    OrdinalWitnessPair,
    hsucc,
    is_ord,
    ord_add,
    pair_encode,
    perp,
    theta,
    trivial_pair,
)


@dataclass
class LemmaSpec:
    id: str
    arity: int
    pool_filter: str  # 'all' | 'ord' | 'none' (pipeline lemmas draw no tuples)
    description: str


LEMMAS = {
    s.id: s
    for s in [
        LemmaSpec("L1", 1, "all", "no set is a member of itself"),
        LemmaSpec("L2", 2, "ord", "a + b is never a member of a"),
        LemmaSpec("L3", 3, "ord", "addition is injective in membership and equality"),
        LemmaSpec("L4", 3, "ord", "incomparability survives shifted sums"),
        LemmaSpec("L5", 6, "ord", "the two-ordinal pair encoding is injective"),
        LemmaSpec("L6", 4, "ord", "shifted sums form antichains"),
        LemmaSpec("L7", 0, "none", "subset encode/decode biconditional"),
        LemmaSpec("L8", 0, "none", "powerset lift keeps pairwise incomparability"),
        LemmaSpec("L9", 0, "none", "ordinal-indexed merge keeps pairwise incomparability"),
        LemmaSpec("L10", 0, "none", "tc hierarchy is monotone and covering"),
        LemmaSpec("L11", 0, "none", "antichain values are independent of the base set"),
    ]
}


@dataclass
class Report:
    lemma: str
    algebra: str
    pool_rank: int
    instances: int
    failures: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        return {
            "lemma": self.lemma,
            "algebra": self.algebra,
            "pool_rank": self.pool_rank,
            "instances": self.instances,
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)

    def summary(self):
        state = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return (
            f"{self.lemma} on {self.algebra}: {state}, "
            f"{self.instances} instances, {self.elapsed_ms} ms"
        )


def generate_pool(U: Universe, pool_filter: str, rank: int, budget: int = 4000, seed: int = 0):
    """Enumerated H-sets, optionally filtered to top-valued ordinals."""
    items = U.enumerate_hsets(rank, budget, seed)
    if pool_filter == "ord":
        top = U.algebra.top()
        items = [u for u in items if is_ord(U, u) == top]
    return items


def _draw_tuples(pool, arity, tuple_budget, seed):
    total = len(pool) ** arity
    if total <= tuple_budget:
        return itertools.product(pool, repeat=arity), total
    rng = random.Random(seed)
    n = len(pool)

    def sample():
        for _ in range(tuple_budget):
            yield tuple(pool[rng.randrange(n)] for _ in range(arity))

    return sample(), tuple_budget


def _fmt(U, u):
    return U.format_hset(u)


def _el(U, v):
    return U.algebra.format_element(v)


def run_lemma(
    U: Universe,
    spec: LemmaSpec,
    pool,
    P: OrdinalWitnessPair | None = None,
    tuple_budget: int = 20000,
    seed: int = 0,
    pool_rank: int = 2,
) -> Report:
    t0 = time.monotonic()
    if P is None:
        P = trivial_pair(U)
    rep = Report(
        lemma=spec.id,
        algebra=getattr(U.algebra, "name", "algebra"),
        pool_rank=pool_rank,
        instances=0,
    )
    if spec.pool_filter != "none":
        if not pool:
            raise ValueError("empty pool")
        # With a certified pair the standing incomparability hypothesis is
        # realized by (A, B): L4-L6 pin their pair slots to it and draw the
        # remaining arguments from the pool.
        prefix = ()
        arity = spec.arity
        if spec.id in ("L4", "L5", "L6") and P.perp_value == U.algebra.top():
            prefix = (P.A, P.B)
            arity -= 2
        tuples, _ = _draw_tuples(pool, arity, tuple_budget, seed)
        checker = _TUPLE_CHECKS[spec.id]
        for args in tuples:
            args = prefix + args
            rep.instances += 1
            try:
                failure = checker(U, args)
            except Exception as exc:  # evaluator errors recorded, not fatal
                failure = ("error", f"{type(exc).__name__}: {exc}")
            if failure is not None:
                rep.failures.append(
                    {
                        "tuple": [_fmt(U, u) for u in args],
                        "premise": failure[0],
                        "conclusion": failure[1],
                    }
                )
    else:
        for label, premise, conclusion, ok in _PIPELINE_CHECKS[spec.id](U, P):
            rep.instances += 1
            if not ok:
                rep.failures.append(
                    {"tuple": [label], "premise": premise, "conclusion": conclusion}
                )
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep


# --- tuple lemmas ---------------------------------------------------------------


def _check_l1(U, args):
    (u,) = args
    v = U.truth_mem(u, u)
    if v != U.algebra.bottom():
        return (_el(U, U.algebra.top()), _el(U, v))
    return None


def _check_l2(U, args):
    a, b = args
    v = U.truth_mem(ord_add(U, a, b), a)
    if v != U.algebra.bottom():
        return (_el(U, U.algebra.top()), _el(U, v))
    return None


def _check_l3(U, args):
    a, b, c = args
    ab, ac = ord_add(U, a, b), ord_add(U, a, c)
    p1, c1 = U.truth_mem(ab, ac), U.truth_mem(b, c)
    if not U.algebra.le(p1, c1):
        return (_el(U, p1), _el(U, c1))
    p2, c2 = U.truth_eq(ab, ac), U.truth_eq(b, c)
    if not U.algebra.le(p2, c2):
        return (_el(U, p2), _el(U, c2))
    return None


def _check_l4(U, args):
    a, b, g = args
    p = perp(U, a, b)
    if p == U.algebra.bottom():  # bottom is below everything
        return None
    c = perp(U, a, ord_add(U, hsucc(U, b), g))
    if not U.algebra.le(p, c):
        return (_el(U, p), _el(U, c))
    return None


def _check_l5(U, args):
    a, b, g1, g2, d1, d2 = args
    pab = OrdinalWitnessPair(a, b, perp(U, a, b))
    if pab.perp_value == U.algebra.bottom():
        return None
    p = U.vmeet(
        pab.perp_value,
        U.truth_eq(pair_encode(U, pab, g1, g2), pair_encode(U, pab, d1, d2)),
    )
    c = U.vmeet(U.truth_eq(g1, d1), U.truth_eq(g2, d2))
    if not U.algebra.le(p, c):
        return (_el(U, p), _el(U, c))
    return None


def _check_l6(U, args):
    a, b, g, d = args
    p = perp(U, a, b)
    if p == U.algebra.bottom():
        return None
    pab = OrdinalWitnessPair(a, b, p)
    zero = U.numeral(0)
    c = theta(U, g, pair_encode(U, pab, zero, g), d, pair_encode(U, pab, zero, d))
    if not U.algebra.le(p, c):
        return (_el(U, p), _el(U, c))
    return None


_TUPLE_CHECKS = {
    "L1": _check_l1,
    "L2": _check_l2,
    "L3": _check_l3,
    "L4": _check_l4,
    "L5": _check_l5,
    "L6": _check_l6,
}


# --- pipeline lemmas --------------------------------------------------------------


def _base_lift(U, P):
    keys = [hfmod.numeral(n) for n in range(3)]
    f0 = certify(U, keys, {k: U.embed(k) for k in keys})
    return perp_lift(U, P, f0)


def _theta_meet(U, mf):
    v = U.algebra.top()
    for x in mf.theta_values.values():
        v = U.vmeet(v, x)
    return v


def _run_l7(U, P):
    f = _base_lift(U, P)
    premise = _theta_meet(U, f)
    top, bot = U.algebra.top(), U.algebra.bottom()
    for r in range(len(f.domain) + 1):
        for y in itertools.combinations(f.domain, r):
            tau = subset_encode(U, f, frozenset(y))
            for z in f.domain:
                v = U.truth_mem(f[z], tau)
                label = f"z={hfmod.format_hf(z)} y={{{','.join(hfmod.format_hf(t) for t in y)}}}"
                if z in y:
                    yield (label, _el(U, top), _el(U, v), v == top)
                else:
                    m = U.vmeet(premise, v)
                    yield (label, _el(U, m), _el(U, bot), m == bot)


def _run_l8(U, P):
    f = _base_lift(U, P)
    premise = _theta_meet(U, f)
    subsets = [frozenset(y) for r in range(len(f.domain) + 1) for y in itertools.combinations(f.domain, r)]
    g = pow_lift(U, P, f, subsets)
    for (k1, k2), v in sorted(g.theta_values.items(), key=lambda kv: (hfmod.hf_key(kv[0][0]), hfmod.hf_key(kv[0][1]))):
        label = f"({hfmod.format_hf(k1)},{hfmod.format_hf(k2)})"
        yield (label, _el(U, premise), _el(U, v), U.algebra.le(premise, v))


def _run_l9(U, P):
    f = _base_lift(U, P)
    k0, k1, k2 = f.domain
    s0 = certify(U, [k0], {k0: f[k0]})
    s1 = certify(U, [k1, k2], {k1: f[k1], k2: f[k2]})
    premise = U.vmeet(_theta_meet(U, s0), _theta_meet(U, s1))
    merged = merge_families(U, P, {0: s0, 1: s1})
    for (a, b), v in sorted(merged.theta_values.items(), key=lambda kv: (hfmod.hf_key(kv[0][0]), hfmod.hf_key(kv[0][1]))):
        label = f"({hfmod.format_hf(a)},{hfmod.format_hf(b)})"
        yield (label, _el(U, premise), _el(U, v), U.algebra.le(premise, v))


_L10_FAMILY = ["0", "1", "2", "{1}", "{0,{0}}", "{{1}}"]


def _run_l10(U, P):
    top, bot = U.algebra.top(), U.algebra.bottom()
    for text in _L10_FAMILY:
        x = hfmod.parse_hf(text)
        r = hfmod.hf_rank(x)
        prev: set = set()
        mono = True
        for g in range(r + 2):
            cur = set(tc_stage(x, g).members)
            if not prev <= cur:
                mono = False
            prev = cur
        yield (f"monotone tc({text})", _el(U, top), _el(U, top if mono else bot), mono)
        cover = x in tc_stage(x, r + 1).members
        yield (f"covering tc({text})", _el(U, top), _el(U, top if cover else bot), cover)


def _run_l11(U, P):
    top, bot = U.algebra.top(), U.algebra.bottom()
    builds = {}

    def get(x, g):
        if (x, g) not in builds:
            builds[(x, g)] = build_antichain(U, P, x, g)
        return builds[(x, g)]

    for text in ["0", "1", "2", "{1}"]:
        x = hfmod.parse_hf(text)
        g = minimal_gamma(x)
        fx = get(x, g)
        for y in hfmod.tc(x):
            fy = get(y, g)
            ok = fx[y] is fy[y] and U.truth_eq(fx[y], fy[y]) == top
            label = f"x={text} y={hfmod.format_hf(y)} gamma={g}"
            yield (label, _el(U, top), _el(U, top if ok else bot), ok)


_PIPELINE_CHECKS = {
    "L7": _run_l7,
    "L8": _run_l8,
    "L9": _run_l9,
    "L10": _run_l10,
    "L11": _run_l11,
}

