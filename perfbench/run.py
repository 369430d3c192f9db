"""heytord benchmark: one workload, single process, single thread, closed loop.

    python3 perfbench/run.py --workload lemma_zoo --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; heytord is imported from its ``src``
directory, never from an installed copy.  A run is a sequence of identical
*rounds*.  Each round sets up afresh (universes, pools, witness pair; timed as
``setup_s``) and then runs its units one after another, each starting when the
previous one has returned.  Rounds repeat until ``--seconds`` have passed
(at least three rounds and 100 latency samples).  Throughput and set-up time
are medians over rounds and latency quantiles are taken over all unit
samples, which keeps them steady on a machine whose speed drifts for seconds
at a time.

Every verdict is checked against its known answer outside the timed region;
``failed`` counts wrong, errored and missing verdicts (their ratio to
``attempted`` is the fail ratio).  The scrubbed outputs of each round are
hashed; every round must reproduce round 0's digest, which is printed.

``--trace 1`` alternates untraced and traced rounds of the same inputs and
reports per-layer figures per round from the traced ones, plus the tracing
overhead; the aggregated spans are written to ``perfbench/out/``.  The last
line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

from tracer import Tracer, delta

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 3
MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it
# Do not start a round that would end after this many seconds of the run.
HARD_LIMIT_S = 150.0
# A round repeats a set-up shorter than this, keeping the last, so that a
# set-up of milliseconds still gives a steady median.
SETUP_REPEAT_S = 0.25


def import_heytord():
    """Import heytord from this checkout's sources, or exit with code 1."""
    if not os.path.isfile(os.path.join(SRC, "heytord", "__init__.py")):
        sys.exit(f"perfbench: no heytord sources under {SRC}")
    sys.path.insert(0, SRC)
    import heytord

    if not os.path.abspath(heytord.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: heytord was imported from {heytord.__file__}, not {SRC}")


def run_round(workload, seed, tracer=None):
    """One set-up plus its units; returns the round's measurements."""
    gc.collect()
    if tracer is not None:
        tracer.install()
        before_setup = tracer.snapshot()
    setup_s = []
    while not setup_s or (tracer is None and sum(setup_s) < SETUP_REPEAT_S):
        rnd = None  # drop the previous set-up before timing the next
        t0 = time.perf_counter()
        rnd = workload.setup(seed)
        setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        after_setup = tracer.snapshot()
        unit_deltas = [0, 0, 0]
    digest = hashlib.sha256(rnd.setup_text.encode())
    attempted, failed = rnd.setup_verdicts, rnd.setup_failed
    verdicts = 0
    unit_s = 0.0
    samples = []
    for unit in rnd.units:
        if tracer is not None:
            probe = _universe_counts(rnd.universes)
        t = time.perf_counter()
        try:
            out = unit.call()
            err = None
        except Exception as exc:  # an erroring unit fails all its verdicts
            err = exc
        dt = time.perf_counter() - t
        if tracer is not None:
            after = _universe_counts(rnd.universes)
            for i in range(3):
                unit_deltas[i] += after[i] - probe[i]
        unit_s += dt
        if unit.sampled:
            samples.append(dt)
        attempted += unit.verdicts
        verdicts += unit.verdicts
        if err is None:
            try:
                bad, text = unit.check(out)
            except Exception as exc:
                bad, text = unit.verdicts, f"check error {type(exc).__name__}"
        else:
            bad, text = unit.verdicts, f"error {type(err).__name__}: {err}"
        failed += bad
        digest.update(unit.kind.encode() + b"\0" + text.encode() + b"\0")
    result = {
        "setup_s": setup_s,
        "unit_s": unit_s,
        "verdicts": verdicts,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        end = tracer.snapshot()
        tracer.uninstall()
        entries = _universe_counts(rnd.universes)[0]
        result["layers"] = _layer_metrics(before_setup, after_setup, end, unit_deltas, entries)
    return result


def _universe_counts(universes):
    """(memo entries, ord_add memo entries, interned nodes) over a round's universes."""
    memo = add = nodes = 0
    for U in universes:
        memo += len(getattr(U, "_memo", ()))
        add += len(getattr(U, "_add_memo", ()))
        nodes += getattr(U, "_next_id", 0)
    return memo, add, nodes


def _hit_ratio(calls, misses):
    return 1.0 - misses / calls if calls else 0.0


def _layer_metrics(before_setup, after_setup, end, unit_deltas, memo_entries):
    setup, _ = delta(after_setup, before_setup)
    units, counters = delta(end, after_setup)

    def get(stats, name, field):
        return stats.get(name, (0, 0.0, 0.0))[field]

    calls, self_s, incl_s = 0, 1, 2
    memo_new, add_new, nodes_new = unit_deltas
    truth_calls = get(units, "hset.truth", calls)
    make_calls = get(units, "hset.make", calls)
    add_calls = get(units, "ordinals.add", calls)
    return {
        "hset.truth_calls": truth_calls,
        "hset.truth_s": get(units, "hset.truth", self_s),
        "hset.memo_hit_ratio": _hit_ratio(truth_calls, memo_new),
        "hset.memo_entries": memo_entries,
        "hset.make_calls": make_calls,
        "hset.make_s": get(units, "hset.make", self_s),
        "hset.intern_hit_ratio": _hit_ratio(make_calls, nodes_new),
        "hset.enumerate_s": get(setup, "hset.enumerate", incl_s),
        "lemmas.pool_s": get(setup, "lemmas.pool", incl_s),
        "formulas.eval_s": get(setup, "formulas.eval", incl_s),
        "order.ops": get(units, "order.op", calls),
        "order.s": get(units, "order.op", self_s),
        "intervals.ops": get(units, "intervals.op", calls),
        "intervals.s": get(units, "intervals.op", self_s) + get(units, "intervals.sweep", self_s),
        "templates.op_calls": get(units, "templates.op", calls),
        "templates.op_s": get(units, "templates.op", self_s),
        "templates.eliminate_calls": get(units, "templates.eliminate", calls),
        "templates.eliminate_s": get(units, "templates.eliminate", self_s),
        "ordinals.add_calls": add_calls,
        "ordinals.add_s": get(units, "ordinals.add", self_s),
        "ordinals.add_memo_hit_ratio": _hit_ratio(add_calls, add_new),
        "ordinals.perp_calls": get(units, "ordinals.perp", calls),
        "ordinals.theta_calls": get(units, "ordinals.theta", calls),
        "antichain.build_s": get(units, "antichain.build", incl_s),
        "antichain.certify_pairs": counters.get("antichain.certify_pairs", 0),
        "antichain.certify_s": get(units, "antichain.certify", incl_s),
        "antichain.roundtrip_s": get(units, "antichain.roundtrip", incl_s),
        "lemmas.run_s": get(units, "lemmas.run", incl_s),
        "lemmas.instances": counters.get("lemmas.instances", 0),
    }


def run(workload, seed, seconds, trace):
    """Rounds until the time is up; returns (rounds, traced rounds, tracer)."""
    tracer = Tracer() if trace else None
    rounds, traced = [], []
    start = time.perf_counter()
    while True:
        use_tracer = tracer if len(rounds) % 2 else None
        r = run_round(workload, seed, use_tracer)
        rounds.append(r)
        if use_tracer is not None:
            traced.append(r)
        elapsed = time.perf_counter() - start
        longest = max(sum(x["setup_s"]) + x["unit_s"] for x in rounds)
        if elapsed + longest > HARD_LIMIT_S:
            break
        if trace:
            enough = len(rounds) >= 2
        else:
            enough = len(rounds) >= MIN_ROUNDS and sum(len(x["samples"]) for x in rounds) >= MIN_SAMPLES
        if elapsed >= seconds and enough:
            break
    return rounds, traced, tracer


def summarize(rounds, traced):
    """Medians over the untraced rounds, quantiles over all their unit samples."""
    plain = [r for r in rounds if "layers" not in r]
    samples = sorted(s for r in plain for s in r["samples"])
    p90 = statistics.quantiles(samples, n=10)[8]
    end_to_end = {
        "verdicts_per_s": (statistics.median(r["verdicts"] / r["unit_s"] for r in plain), "1/s"),
        "unit_ms.p50": (statistics.median(samples) * 1000.0, "ms"),
        "unit_ms.p90": (p90 * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(s for r in plain for s in r["setup_s"]), "s"),
    }
    info = {"samples": len(samples), "beyond_p90": sum(1 for s in samples if s > p90)}
    if not traced:
        return end_to_end, None, info
    layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    traced_s = statistics.median(r["unit_s"] for r in traced)
    plain_s = statistics.median(r["unit_s"] for r in plain)
    layers["trace.overhead_ratio"] = traced_s / plain_s
    return end_to_end, layers, info


def write_trace(workload, seed, tracer, traced, layers):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    doc = {
        "workload": workload,
        "seed": seed,
        "traced_rounds": len(traced),
        "per_round": layers,
        "spans": {k: {"calls": v[0], "self_s": v[1], "inclusive_s": v[2]} for k, v in tracer.stats.items()},
        "counters": tracer.counters,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_heytord()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    rounds, traced, tracer = run(workload, args.seed, args.seconds, args.trace)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    digest = rounds[0]["digest"]
    drifted = [i for i, r in enumerate(rounds) if r["digest"] != digest]
    for i in drifted:  # a round that does not reproduce round 0 fails wholesale
        failed += rounds[i]["attempted"] - rounds[i]["failed"]
    end_to_end, layers, info = summarize(rounds, traced)

    print(f"digest {args.workload} seed={args.seed} sha256={digest} rounds={len(rounds)} drifted={len(drifted)}")
    print(
        f"{args.workload}: {len(rounds)} rounds, {info['samples']} unit samples "
        f"({info['beyond_p90']} beyond p90), fail_ratio={failed / attempted:.6g} "
        f"({failed}/{attempted})"
    )
    if args.trace:
        path = write_trace(args.workload, args.seed, tracer, traced, layers)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
    else:
        for k, (v, unit) in end_to_end.items():
            print(f"  {k} = {v:.6g} {unit}")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in end_to_end.items()}
    result = {
        "correct": failed == 0 and not drifted,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
