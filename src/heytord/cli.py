"""Command-line entry point: algebra checks, formula evaluation, lemma runs,
witness certification and antichain builds, all batch and reproducible.

Exit codes: 0 success / all checks pass, 1 lemma failure or decertification,
2 usage, parse or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hf as hfmod
from .antichain import build_antichain, minimal_gamma, pipeline_report
from .errors import (
    DepthExceededError,
    EngineError,
    LiteralParseError,
    MalformedPosetError,
    StageIncompleteError,
)
from .formulas import eval_formula
from .hset import Universe
from .intervals import IntervalAlgebra
from .lemmas import LEMMAS, generate_pool, run_lemma
from .order import build_upset_algebra, parse_poset, validate_algebra
from .ordinals import _pair_from_constants, trichotomy, trivial_pair, witness_pair
from .parsing import apply_definition, apply_definitions, parse_formula

def _universe(args) -> Universe:
    if getattr(args, "interval", False) and getattr(args, "poset", None):
        raise EngineError("exactly one algebra source: --poset or --interval")
    if getattr(args, "interval", False):
        U = Universe(IntervalAlgebra())
        witness_pair(U)  # binds the constants A and B
        return U
    if getattr(args, "poset", None):
        with open(args.poset) as fh:
            text = fh.read()
        name = args.poset.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        return Universe(build_upset_algebra(parse_poset(text, name=name)))
    raise EngineError("an algebra source is required: --poset FILE or --interval")


def _write_out(args, payload):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=False))
            fh.write("\n")


def _add_source_flags(p):
    p.add_argument("--poset", help="poset file defining the up-set algebra")
    p.add_argument("--interval", action="store_true", help="use the interval algebra")
    p.add_argument("--out", help="write a JSON report here")
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    ap = argparse.ArgumentParser(prog="heytord", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="validate or show an algebra")
    p.add_argument("action", choices=["validate", "show"])
    _add_source_flags(p)

    p = sub.add_parser("eval", help="evaluate a formula")
    p.add_argument("formula")
    p.add_argument("-c", "--define", action="append", default=[], metavar="DEF",
                   help="inline definition `name := <hset-literal>`")
    p.add_argument("--defs", help="definitions file")
    _add_source_flags(p)

    p = sub.add_parser("lemma", help="run lemma suites")
    p.add_argument("action", choices=["run"])
    p.add_argument("--lemma", default="all", help="comma-separated ids or `all`")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--budget", type=int, default=20000, help="tuple budget per lemma")
    p.add_argument("--pool-budget", type=int, default=4000)
    p.add_argument("--jobs", type=int, default=1)
    _add_source_flags(p)

    p = sub.add_parser("witness", help="certify the incomparable pair")
    p.add_argument("action", choices=["check"])
    _add_source_flags(p)

    p = sub.add_parser("antichain", help="build a certified antichain")
    p.add_argument("action", choices=["build"])
    p.add_argument("--x", required=True, help="HF set literal, e.g. {0,{0}}")
    p.add_argument("--gamma", type=int, default=None)
    _add_source_flags(p)
    return ap


def cmd_algebra(args):
    U = _universe(args)
    alg = U.algebra
    if args.action == "show":
        if alg.finite:
            els = alg.enumerate_elements()
            print(f"algebra {alg.name}: {len(els)} elements")
            for e in els:
                print(" ", alg.format_element(e))
        else:
            print("algebra interval: open subsets of the rationals (infinite)")
            print("  bottom = 0, top = 1, literals like (0,1)|(2,+inf), !r")
        _write_out(args, {"algebra": alg.name, "finite": alg.finite})
        return 0
    samples = alg.enumerate_elements() if alg.finite else alg.sample_elements(
        __import__("random").Random(args.seed), 12
    )
    rep = validate_algebra(alg, samples)
    print(f"algebra {alg.name}: {'all laws pass' if rep.passed else 'LAW FAILURES'}")
    print(rep.summary())
    _write_out(
        args,
        {
            "algebra": alg.name,
            "passed": rep.passed,
            "laws": [
                {"law": r.law, "passed": r.passed,
                 "counterexample": None if r.counterexample is None
                 else [alg.format_element(x) for x in r.counterexample]}
                for r in rep.laws
            ],
        },
    )
    return 0 if rep.passed else 1


def cmd_eval(args):
    U = _universe(args)
    if args.defs:
        with open(args.defs) as fh:
            apply_definitions(U, fh.read())
    for d in args.define:
        apply_definition(U, d)
    phi = parse_formula(U, args.formula)
    value = eval_formula(U, phi, {})
    lit = U.algebra.format_element(value)
    print(lit)
    _write_out(args, {"formula": args.formula, "value": lit})
    return 0


def _lemma_pool(U, spec, args):
    if spec.pool_filter == "none":
        return []
    if U.algebra.finite:
        return generate_pool(U, spec.pool_filter, args.rank, args.pool_budget, args.seed)
    # infinite algebra: check numerals 0..rank stand in for the enumerated pool
    return [U.numeral(n) for n in range(args.rank + 1)]


def _run_one_lemma(src_args, lid):
    args = argparse.Namespace(**src_args)
    U = _universe(args)
    spec = LEMMAS[lid]
    pool = _lemma_pool(U, spec, args)
    P = U_pair(U)
    rep = run_lemma(U, spec, pool, P, tuple_budget=args.budget,
                    seed=args.seed, pool_rank=args.rank)
    return rep.to_dict()


def U_pair(U):
    if isinstance(U.algebra, IntervalAlgebra):
        return _pair_from_constants(U)
    return trivial_pair(U)


def cmd_lemma(args):
    ids = list(LEMMAS) if args.lemma == "all" else [s.strip() for s in args.lemma.split(",")]
    for lid in ids:
        if lid not in LEMMAS:
            raise EngineError(f"unknown lemma {lid}; known: {', '.join(LEMMAS)}")
    src_args = vars(args).copy()
    reports = []
    if args.jobs > 1 and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            futures = {lid: ex.submit(_run_one_lemma, src_args, lid) for lid in ids}
            reports = [futures[lid].result() for lid in ids]
    else:
        reports = [_run_one_lemma(src_args, lid) for lid in ids]
    failed = 0
    for rep in reports:
        state = "PASS" if not rep["failures"] else f"FAIL ({len(rep['failures'])} failures)"
        failed += bool(rep["failures"])
        print(f"{rep['lemma']} on {rep['algebra']}: {state}, "
              f"{rep['instances']} instances, {rep['elapsed_ms']} ms")
    _write_out(args, reports[0] if len(reports) == 1 else reports)
    return 1 if failed else 0


def cmd_witness(args):
    if not args.interval:
        raise EngineError("witness check needs --interval")
    U = Universe(IntervalAlgebra())
    P = witness_pair(U)
    alg = U.algebra
    values = {
        "A in B": alg.format_element(U.truth_mem(P.A, P.B)),
        "A = B": alg.format_element(U.truth_eq(P.A, P.B)),
        "B in A": alg.format_element(U.truth_mem(P.B, P.A)),
        "B = A": alg.format_element(U.truth_eq(P.B, P.A)),
    }
    tri = alg.format_element(trichotomy(U, P.A, P.B))
    plit = alg.format_element(P.perp_value)
    for k, v in values.items():
        print(f"[{k}] = {v}")
    print(f"trichotomy(A,B) = {tri}")
    print(f"perp(A,B) = {plit}")
    _write_out(args, {"values": values, "trichotomy": tri, "perp": plit})
    return 0 if P.perp_value == alg.top() else 1


def cmd_antichain(args):
    U = _universe(args)
    P = U_pair(U)
    x = hfmod.parse_hf(args.x)
    gamma = args.gamma if args.gamma is not None else minimal_gamma(x)
    f = build_antichain(U, P, x, gamma)
    payload = pipeline_report(U, f, x, gamma)
    print(f"antichain on tc({payload['x']}) stage {gamma}: "
          f"{len(f.domain)} keys, certified={f.certified}")
    for row in payload["theta"]:
        print(f"  theta({row['a']},{row['b']}) = {row['value']}")
    _write_out(args, payload)
    expected_top = P.perp_value == U.algebra.top()
    return 0 if (f.certified or not expected_top) else 1


_COMMANDS = {
    "algebra": cmd_algebra,
    "eval": cmd_eval,
    "lemma": cmd_lemma,
    "witness": cmd_witness,
    "antichain": cmd_antichain,
}


def execute(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        try:
            return _COMMANDS[args.command](args)
        except RecursionError as exc:
            raise DepthExceededError("input nests too deeply for the recursive parsers and semantics") from exc
    except StageIncompleteError as exc:
        print(f"error: {exc} (use --gamma {exc.minimal} or higher)", file=sys.stderr)
        return 2
    except (EngineError, LiteralParseError, MalformedPosetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
