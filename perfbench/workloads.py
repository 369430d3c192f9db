"""The benchmark's workloads: seeded inputs, timed units and known answers.

A workload builds one *round*: a set-up (fresh universes, pools, the witness
pair) and a fixed list of units.  A unit is one timed public heytord call and
carries the number of verdicts it must produce; its check, run outside the
timed region, counts wrong, errored and missing verdicts against the known
answer and returns the scrubbed output that feeds the determinism digest.

Every heytord name is looked up through its module at call time, so the
tracer's and the self-test's replacements are seen by the benchmark's own
calls as well.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable

from heytord import antichain, hf, hset, intervals, lemmas, order, ordinals


@dataclass
class Unit:
    kind: str
    verdicts: int  # verdicts the unit must produce
    call: Callable  # the timed public call; its result goes to check
    check: Callable  # result -> (failed verdicts, scrubbed output text)
    sampled: bool = True  # False for a check that makes no public call


@dataclass
class Round:
    universes: list
    units: list
    setup_failed: int = 0  # failed set-up verdicts (the witness pair)
    setup_verdicts: int = 0
    setup_text: str = ""
    state: dict = field(default_factory=dict)


def _rng(seed, *salt):
    return random.Random(f"{seed}:" + ":".join(map(str, salt)))


# --- lemma_zoo ----------------------------------------------------------------

# Tuples per run_lemma call, chosen so that each call costs roughly the same
# (20–30 ms when the benchmark was added) whatever the lemma: L3 builds sums of three
# ordinals per tuple, L1 is a single membership.  Equal unit costs keep
# unit_ms.p50 and p90 inside one cluster of units instead of between two.
LEMMA_BUDGETS = {"L1": 1000, "L2": 100, "L3": 16, "L4": 220, "L5": 240, "L6": 180}
LARGE_POSETS = ("chain4", "antichain3", "vee", "diamond")
# antichain3 (the 8-element carrier) costs about 2.2x per verdict, so its
# units carry proportionally fewer tuples and pairs.
POSET_SHARE = {"antichain3": 0.45}
POOL_RANK = 2
POOL_BUDGET = 4000


def _share(poset, n):
    return max(1, round(n * POSET_SHARE.get(poset, 1.0)))


def _zoo_universes(names, seed, pool_kinds):
    zoo = order.zoo()
    out = []
    for name in names:
        U = hset.Universe(order.build_upset_algebra(zoo[name]))
        pools = {k: lemmas.generate_pool(U, k, POOL_RANK, POOL_BUDGET, seed) for k in pool_kinds}
        out.append((name, U, pools))
    return out


def _lemma_unit(U, lid, pool, budget, unit_seed):
    def call():
        return lemmas.run_lemma(
            U, lemmas.LEMMAS[lid], pool, tuple_budget=budget, seed=unit_seed, pool_rank=POOL_RANK
        )

    def check(rep):
        # the known answer: every instance holds, and exactly `budget` ran
        failed = len(rep.failures) + abs(budget - rep.instances)
        return min(failed, budget), json.dumps(dict(rep.to_dict(), elapsed_ms=0), sort_keys=True)

    return Unit(f"lemma.{lid}", budget, call, check)


class LemmaZoo:
    name = "lemma_zoo"

    def __init__(self, posets=LARGE_POSETS, budgets=LEMMA_BUDGETS, calls_per_cell=5):
        self.posets = posets
        self.budgets = budgets
        self.calls_per_cell = calls_per_cell

    def setup(self, seed):
        zoo = _zoo_universes(self.posets, seed, ("all", "ord"))
        rng = _rng(seed, self.name)
        units = []
        for name, U, pools in zoo:
            for lid, budget in self.budgets.items():
                spec = lemmas.LEMMAS[lid]
                pool = pools["all"] if spec.pool_filter == "all" else pools["ord"]
                for _ in range(self.calls_per_cell):
                    units.append(_lemma_unit(U, lid, pool, _share(name, budget), rng.randrange(2**31)))
        rng.shuffle(units)
        return Round([U for _, U, _ in zoo], units)


# --- nogo_zoo -----------------------------------------------------------------

PAIRS_PER_BATCH = 300
BATCHES_PER_POSET = 30
# Pairs come from a seeded sample of each ordinal pool, capped as acceptance
# criterion 4 caps it, so that perp mostly reads memoized values.
NOGO_POOL_CAP = 600


def _perp_unit(U, pairs):
    def call():
        return [ordinals.perp(U, a, b) for a, b in pairs]

    def check(values):
        bot = U.algebra.bottom()
        failed = sum(1 for v in values if v != bot) + abs(len(pairs) - len(values))
        return min(failed, len(pairs)), ",".join(map(str, values))

    return Unit("nogo.perp_batch", len(pairs), call, check)


class NogoZoo:
    name = "nogo_zoo"

    def __init__(self, posets=LARGE_POSETS, pairs=PAIRS_PER_BATCH, batches=BATCHES_PER_POSET):
        self.posets = posets
        self.pairs = pairs
        self.batches = batches

    def setup(self, seed):
        zoo = _zoo_universes(self.posets, seed, ("ord",))
        rng = _rng(seed, self.name)
        units = []
        for name, U, pools in zoo:
            pool = pools["ord"]
            if len(pool) > NOGO_POOL_CAP:
                pool = rng.sample(pool, NOGO_POOL_CAP)
            for _ in range(self.batches):
                pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(_share(name, self.pairs))]
                units.append(_perp_unit(U, pairs))
        rng.shuffle(units)
        return Round([U for _, U, _ in zoo], units)


# --- antichain_interval ---------------------------------------------------------


def _tc(x):
    """Transitive closure {x} with all hereditary members (the known domain)."""
    seen, stack = set(), [x]
    while stack:
        y = stack.pop()
        if y not in seen:
            seen.add(y)
            stack.extend(y)
    return seen


def _rank(x):
    return 0 if not x else 1 + max(_rank(c) for c in x)


TRIPS_PER_UNIT = 16


def hf_sets_up_to_rank3():
    """The 16 hereditarily finite sets of rank <= 3 (the subsets of V_3)."""
    v3 = [hf.numeral(0), hf.numeral(1), hf.parse_hf("{{0}}"), hf.parse_hf("{0,{0}}")]
    return [frozenset(s) for r in range(5) for s in itertools.combinations(v3, r)]


class AntichainInterval:
    name = "antichain_interval"

    def __init__(self, xs=None):
        self.xs = hf_sets_up_to_rank3() if xs is None else xs

    def setup(self, seed):
        U = hset.Universe(intervals.IntervalAlgebra())
        rnd = Round([U], [])
        try:
            P = ordinals.witness_pair(U)
        except Exception as exc:  # a decertified witness is a failed verdict
            P = None
            rnd.setup_text = f"witness error {type(exc).__name__}"
        rnd.setup_verdicts = 1
        if P is None or not self._witness_ok(U, P):
            rnd.setup_failed = 1
        elif not rnd.setup_text:
            rnd.setup_text = "witness " + U.algebra.format_element(P.perp_value)
        # Builds run in canonical order, smallest set first, each followed by
        # its value-agreement checks (as acceptance criterion 6 does).  The
        # round trips come after all builds, set by set in the same order,
        # and the seed orders the subsets of each set.  The first trip that
        # meets a value pays for comparing it, so a seeded order of builds or
        # of sets would move that cost from unit to unit and with it
        # unit_ms.p50 and p90 by a quarter to a half between seeds, while the
        # work stays the same.  A round trip takes about 1.5 ms, short enough
        # for the host's brief stalls to move it by half, so round trips are
        # timed 16 at a time, never mixing two sets, which keeps each set's
        # first comparisons in its own units.
        builds = rnd.state
        requested = set()
        trips = []
        rng = _rng(seed, self.name)
        for x in hf.hf_sorted(self.xs):
            gamma = _rank(x) + 1  # minimal stage containing x
            dom = hf.hf_sorted(_tc(x))
            requested.add((x, gamma))
            rnd.units.append(self._build_unit(U, P, builds, x, gamma, dom))
            for y in dom:
                cached = (y, gamma) in requested
                requested.add((y, gamma))
                rnd.units.append(self._agree_unit(U, P, builds, x, y, gamma, cached))
            subsets = [frozenset(y) for r in range(len(dom) + 1) for y in itertools.combinations(dom, r)]
            rng.shuffle(subsets)
            for i in range(0, len(subsets), TRIPS_PER_UNIT):
                trips.append(self._trips_unit(U, builds, x, gamma, subsets[i : i + TRIPS_PER_UNIT]))
        rnd.units.extend(trips)
        return rnd

    @staticmethod
    def _witness_ok(U, P):
        alg, bot = U.algebra, U.algebra.bottom()
        parts = (
            U.truth_mem(P.A, P.B),
            U.truth_eq(P.A, P.B),
            U.truth_mem(P.B, P.A),
            U.truth_eq(P.B, P.A),
        )
        return all(v == bot for v in parts) and ordinals.perp(U, P.A, P.B) == alg.top()

    @staticmethod
    def _build_unit(U, P, builds, x, gamma, dom):
        pairs = comb(len(dom), 2)

        def call():
            f = antichain.build_antichain(U, P, x, gamma)
            builds[(x, gamma)] = f
            return f

        def check(f):
            # one verdict per theta value plus one for certification with the
            # expected domain; a wrong domain fails them all
            if set(f.domain) != set(dom) or not f.certified:
                return pairs + 1, f"bad build {hf.format_hf(x)}"
            top = U.algebra.top()
            bad = sum(1 for v in f.theta_values.values() if v != top)
            bad += abs(pairs - len(f.theta_values))
            report = antichain.pipeline_report(U, f, x, gamma)
            return min(bad, pairs), json.dumps(report, sort_keys=True)

        return Unit("antichain.build", pairs + 1, call, check)

    @staticmethod
    def _trips_unit(U, builds, x, gamma, subsets):
        def call():
            f = builds[(x, gamma)]
            return [antichain.subset_decode(U, f, antichain.subset_encode(U, f, y)) for y in subsets]

        def check(outs):
            bad, texts = abs(len(subsets) - len(outs)), []
            for y, (keys, residue) in zip(subsets, outs):
                bad += not (set(keys) == set(y) and not residue)
                texts.append(
                    ",".join(hf.format_hf(k) for k in keys)
                    + "|"
                    + ",".join(f"{hf.format_hf(k)}:{U.algebra.format_element(v)}" for k, v in residue.items())
                )
            return min(bad, len(subsets)), ";".join(texts)

        return Unit("antichain.roundtrips", len(subsets), call, check)

    @staticmethod
    def _agree_unit(U, P, builds, x, y, gamma, cached):
        def call():
            fy = builds.get((y, gamma))
            if fy is None:
                fy = builds[(y, gamma)] = antichain.build_antichain(U, P, y, gamma)
            return fy

        def check(fy):
            fx = builds[(x, gamma)]
            ok = fx[y] is fy[y] and U.truth_eq(fx[y], fy[y]) == U.algebra.top()
            return (0 if ok else 1), f"{hf.format_hf(x)}/{hf.format_hf(y)}:{ok}"

        # a value-agreement check on an already built f_y makes no public call,
        # so it is a verdict but not a latency sample
        return Unit("antichain.agree", 1, call, check, sampled=not cached)


WORKLOADS = {w.name: w for w in (LemmaZoo, NogoZoo, AntichainInterval)}
