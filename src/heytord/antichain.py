"""The construction pipeline from an incomparable pair to certified antichains.

Domains are meta-level hereditarily finite sets (check sets); values are
H-sets.  Each stage of the pipeline recomputes its pairwise antichain
predicate from scratch, so a set certification flag is always backed by
actual top values.  The final builder stratifies the transitive closure of
the input and alternates the powerset lift with the ordinal-indexed merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import hf as hfmod
from .errors import EngineError, StageIncompleteError
from .hset import HSet, Universe
from .ordinals import OrdinalWitnessPair, hsucc, hunion, ord_add, theta


@dataclass
class MetaFunction:
    """Finite map from HF keys to H-set values, with recomputed certification."""

    domain: tuple  # HF keys, canonically sorted
    values: dict  # key -> HSet
    certified: bool = False
    theta_values: dict = field(default_factory=dict)  # (key, key) -> algebra element

    def __getitem__(self, k):
        return self.values[k]


@dataclass
class TCStage:
    base: frozenset
    gamma: int
    members: tuple  # HF sets, canonically sorted


def certify(U: Universe, domain, values) -> MetaFunction:
    """Compute every pairwise antichain value; certified iff all are top."""
    dom = tuple(hfmod.hf_sorted(domain))
    thetas = {}
    top = U.algebra.top()
    flag = True
    for i, k1 in enumerate(dom):
        for k2 in dom[i + 1 :]:
            v = theta(U, U.embed(k1), values[k1], U.embed(k2), values[k2])
            thetas[(k1, k2)] = v
            if v != top:
                flag = False
    return MetaFunction(dom, dict(values), flag, thetas)


def perp_lift(U: Universe, P: OrdinalWitnessPair, f: MetaFunction) -> MetaFunction:
    """y |-> A+ union (B+ + f(y)); pairwise incomparable whenever f was injective
    in the strong sense and perp(A,B) = top."""
    top = U.algebra.top()
    bot = U.algebra.bottom()
    if P.perp_value == top:
        for i, k1 in enumerate(f.domain):
            for k2 in f.domain[i + 1 :]:
                if U.truth_eq(f[k1], f[k2]) != bot:
                    raise EngineError(
                        f"perp_lift refused: [f({hfmod.format_hf(k1)}) = f({hfmod.format_hf(k2)})] "
                        "is not below the keys' check equality"
                    )
    a_plus = hsucc(U, P.A)
    b_plus = hsucc(U, P.B)
    values = {k: hunion(U, a_plus, ord_add(U, b_plus, f[k])) for k in f.domain}
    return certify(U, f.domain, values)


def subset_encode(U: Universe, f: MetaFunction, y) -> HSet:
    """Union of the successors of f over a subset of keys; empty set encodes to 0."""
    keys = set(y)
    if not keys <= set(f.domain):
        raise EngineError("subset_encode: keys outside the function's domain")
    out = U.numeral(0)
    for t in hfmod.hf_sorted(keys):
        out = hunion(U, out, hsucc(U, f[t]))
    return out


def subset_decode(U: Universe, f: MetaFunction, tau: HSet):
    """Keys whose value membership in tau is top, plus the strictly partial rest.

    The exact round-trip (decode(encode(y)) == y with empty residue) is
    guaranteed only for certified f; the function still runs uncertified to
    let callers observe the failure."""
    top = U.algebra.top()
    bot = U.algebra.bottom()
    keys = []
    residue = {}
    for k in f.domain:
        v = U.truth_mem(f[k], tau)
        if v == top:
            keys.append(k)
        elif v != bot:
            residue[k] = v
    return keys, residue


def pow_lift(U: Universe, P: OrdinalWitnessPair, f: MetaFunction, ys) -> MetaFunction:
    """Lift to a family indexed by subsets of f's domain."""
    subsets = [frozenset(y) for y in ys]
    if len(set(subsets)) != len(subsets):
        raise EngineError("pow_lift: duplicate subsets")
    enc = MetaFunction(
        tuple(hfmod.hf_sorted(subsets)),
        {s: subset_encode(U, f, s) for s in subsets},
    )
    return perp_lift(U, P, enc)


def merge_families(U: Universe, P: OrdinalWitnessPair, stages: dict) -> MetaFunction:
    """Merge an ordinal-indexed family of pairwise incomparable functions:
    tagged pairs, the injectivity lift, fiber sets, a powerset lift over the
    fibers, and finally g(x) = h(fiber of x)."""
    idxs = sorted(stages)
    pairs = []
    pair_vals = {}
    for g in idxs:
        stage = stages[g]
        g_num = hfmod.numeral(g)
        g_chk = U.embed(g_num)
        for x in stage.domain:
            key = hfmod.kpair(g_num, x)
            pairs.append(key)
            pair_vals[key] = hunion(
                U,
                ord_add(U, hsucc(U, P.A), g_chk),
                ord_add(U, hsucc(U, P.B), stage[x]),
            )
    f_tilde = certify(U, pairs, pair_vals)
    lifted = perp_lift(U, P, f_tilde)
    xs = hfmod.hf_sorted({x for g in idxs for x in stages[g].domain})
    fibers = {}
    for x in xs:
        fibers[x] = frozenset(
            hfmod.kpair(hfmod.numeral(g), x) for g in idxs if x in stages[g].values
        )
    h = pow_lift(U, P, lifted, list(dict.fromkeys(fibers[x] for x in xs)))
    values = {x: h[fibers[x]] for x in xs}
    return certify(U, xs, values)


def tc_stage(x: frozenset, gamma: int) -> TCStage:
    """Stage of the transitive-closure hierarchy, computed classically."""
    closure = hfmod.tc(x)
    members: set = set()
    for _ in range(gamma):
        members = {y for y in closure if set(y) <= members}
    return TCStage(x, gamma, tuple(hfmod.hf_sorted(members)))


def minimal_gamma(x: frozenset) -> int:
    g = 0
    while x not in tc_stage(x, g).members:
        g += 1
        if g > hfmod.hf_rank(x) + 1:
            raise EngineError("covering bound exceeded")  # pragma: no cover
    return g


def build_antichain(U: Universe, P: OrdinalWitnessPair, x: frozenset, gamma: int) -> MetaFunction:
    """The stage-gamma pairwise incomparable function on the tc hierarchy of x."""
    need = minimal_gamma(x)
    if gamma < need:
        raise StageIncompleteError(
            f"stage {gamma} does not contain the base set; minimal sufficient stage is {need}",
            minimal=need,
        )
    f = certify(U, (), {})
    fs = [f]
    g_stages = []
    for n in range(1, gamma + 1):
        prev = fs[n - 1]
        nxt_members = tc_stage(x, n).members
        g_stages.append(pow_lift(U, P, prev, [frozenset(y) for y in nxt_members]))
        fs.append(merge_families(U, P, {d: g_stages[d] for d in range(n)}))
    return fs[gamma]


def pipeline_report(U: Universe, f: MetaFunction, x: frozenset, gamma: int) -> dict:
    """JSON-ready build summary: per-pair antichain values, certification, stages."""
    alg = U.algebra
    return {
        "x": hfmod.format_hf(x),
        "gamma": gamma,
        "minimal_gamma": minimal_gamma(x),
        "domain": [hfmod.format_hf(k) for k in f.domain],
        "certified": f.certified,
        "theta": [
            {
                "a": hfmod.format_hf(k1),
                "b": hfmod.format_hf(k2),
                "value": alg.format_element(v),
            }
            for (k1, k2), v in sorted(
                f.theta_values.items(),
                key=lambda kv: (hfmod.hf_key(kv[0][0]), hfmod.hf_key(kv[0][1])),
            )
        ],
    }
