"""Outside-in tracing of the heytord layers, installed from the benchmark.

No heytord source file is touched: the tracer replaces public functions and
methods with timing wrappers at run time, both in the module that defines
them and under every name another heytord module imported them as (for
example ``ordinals.ord_add`` and ``antichain.ord_add``).  Methods are
replaced on their class, so recursive calls through ``self`` are traced too.

Spans are aggregated in memory per traced function, since a round makes
millions of traced calls: call count, self time
(span minus the spans of traced callees) and inclusive time of the outermost
activation (recursive re-entries are not double counted).  The harness reads
the aggregates at phase boundaries and writes them out when the run ends.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, span name).  The span name's prefix is the layer.
TARGETS = (
    ("heytord.hset", "Universe.truth_mem", "hset.truth"),
    ("heytord.hset", "Universe.truth_eq", "hset.truth"),
    ("heytord.hset", "Universe.make_hset", "hset.make"),
    ("heytord.hset", "Universe.make_param_hset", "hset.make"),
    ("heytord.hset", "Universe.enumerate_hsets", "hset.enumerate"),
    ("heytord.order", "UpsetAlgebra.meet", "order.op"),
    ("heytord.order", "UpsetAlgebra.join", "order.op"),
    ("heytord.order", "UpsetAlgebra.imp", "order.op"),
    ("heytord.order", "UpsetAlgebra.neg", "order.op"),
    ("heytord.order", "UpsetAlgebra.le", "order.op"),
    ("heytord.intervals", "IntervalAlgebra.meet", "intervals.op"),
    ("heytord.intervals", "IntervalAlgebra.join", "intervals.op"),
    ("heytord.intervals", "IntervalAlgebra.imp", "intervals.op"),
    ("heytord.intervals", "IntervalAlgebra.neg", "intervals.op"),
    ("heytord.intervals", "IntervalAlgebra.le", "intervals.op"),
    ("heytord.intervals", "iv_canon", "intervals.sweep"),
    ("heytord.ivcore", "normalize", "intervals.sweep"),
    ("heytord.ivcore", "union", "intervals.sweep"),
    ("heytord.ivcore", "intersect", "intervals.sweep"),
    ("heytord.ivcore", "complement", "intervals.sweep"),
    ("heytord.ivcore", "interior", "intervals.sweep"),
    ("heytord.ivcore", "subset", "intervals.sweep"),
    ("heytord.ivcore", "point_in", "intervals.sweep"),
    ("heytord.templates", "template_op", "templates.op"),
    ("heytord.templates", "eliminate_param", "templates.eliminate"),
    ("heytord.ordinals", "ord_add", "ordinals.add"),
    ("heytord.ordinals", "perp", "ordinals.perp"),
    ("heytord.ordinals", "theta", "ordinals.theta"),
    ("heytord.formulas", "eval_formula", "formulas.eval"),
    ("heytord.antichain", "build_antichain", "antichain.build"),
    ("heytord.antichain", "certify", "antichain.certify"),
    ("heytord.antichain", "subset_encode", "antichain.roundtrip"),
    ("heytord.antichain", "subset_decode", "antichain.roundtrip"),
    ("heytord.lemmas", "generate_pool", "lemmas.pool"),
    ("heytord.lemmas", "run_lemma", "lemmas.run"),
)

# Extra counters fed from a traced call's result.
RESULT_COUNTERS = {
    "antichain.certify": ("antichain.certify_pairs", lambda mf: len(mf.theta_values)),
    "lemmas.run": ("lemmas.instances", lambda rep: rep.instances),
}


class Patcher:
    """Replaces heytord callables everywhere they are bound; undoes it on exit."""

    def __init__(self):
        self._undo = []

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def replace(self, module_name, path, make):
        """Swap the callable at `module_name`.`path` for make(original)."""
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        wrapper = make(original)
        self._set(owner, attr, wrapper)
        if owner_name:
            return  # a method: every call site looks it up on the class
        # a function: rebind every module global and registry entry that
        # holds the original, so `from .x import f` call sites see the wrapper
        for name, mod in list(sys.modules.items()):
            if not (name == "heytord" or name.startswith("heytord.")) or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is original and mod is not module:
                    self._set(mod, key, wrapper)
                elif type(val) is dict:
                    for k2, v2 in list(val.items()):
                        if v2 is original:
                            self._set(val, k2, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


class Tracer:
    """Aggregated spans per traced function; see the module docstring."""

    def __init__(self):
        self.stats = {}  # span name -> [calls, self_s, inclusive_s]
        self.counters = {}
        self._children = [0.0]  # child-time accumulator per open span
        self._depth = {}  # span name -> open activations
        self._patcher = None

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        depth = self._depth
        depth.setdefault(name, 0)
        counter = RESULT_COUNTERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        def span(*args, **kwargs):
            children.append(0.0)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                depth[name] -= 1
                stat[0] += 1
                stat[1] += dur - children.pop()
                if depth[name] == 0:
                    stat[2] += dur
                children[-1] += dur
            if counter is not None:
                counters[counter[0]] = counters.get(counter[0], 0) + counter[1](out)
            return out

        return span

    def install(self):
        self._patcher = Patcher()
        for module_name, path, name in TARGETS:
            self._patcher.replace(module_name, path, lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self):
        if self._patcher is not None:
            self._patcher.restore()
            self._patcher = None

    def snapshot(self):
        """Copy of the aggregates, for differencing phases."""
        return {k: tuple(v) for k, v in self.stats.items()}, dict(self.counters)


def delta(after, before):
    """Per-span (calls, self_s, inclusive_s) and counters between snapshots."""
    stats_a, counters_a = after
    stats_b, counters_b = before
    stats = {}
    for k, v in stats_a.items():
        b = stats_b.get(k, (0, 0.0, 0.0))
        stats[k] = tuple(x - y for x, y in zip(v, b))
    counters = {k: v - counters_b.get(k, 0) for k, v in counters_a.items()}
    return stats, counters
