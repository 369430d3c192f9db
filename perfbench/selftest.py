"""Self-test of the benchmark's correctness gate, at a tiny size.

    python3 perfbench/selftest.py

Runs one small round of every workload three times: clean, with
``Universe.truth_mem`` forced to top, and with it forced to bottom (each
replacement installed from outside, like the tracer's wrappers).  It passes
when every clean round fails no verdict and reproduces its digest, every
workload fails verdicts under at least one corruption, and a corrupted round
attempts exactly as many verdicts as the clean one.  Exits 0 on success.
"""

from __future__ import annotations

import sys

from run import import_heytord, run_round

TINY_POSETS = ("chain2", "antichain2")


def tiny_workloads():
    import heytord.hf as hf
    from workloads import AntichainInterval, LemmaZoo, NogoZoo

    return [
        LemmaZoo(posets=TINY_POSETS, budgets={f"L{i}": 20 for i in range(1, 7)}, calls_per_cell=1),
        NogoZoo(posets=TINY_POSETS, pairs=50, batches=2),
        AntichainInterval(xs=[hf.numeral(0), hf.numeral(1)]),
    ]


def corrupted(which):
    """A Patcher that forces every membership value to the algebra's top or bottom."""
    from tracer import Patcher

    def make(_original):
        if which == "top":
            return lambda U, u, v: U.algebra.top()
        return lambda U, u, v: U.algebra.bottom()

    patcher = Patcher()
    patcher.replace("heytord.hset", "Universe.truth_mem", make)
    return patcher


def main():
    import_heytord()
    ok = True
    for wl in tiny_workloads():
        clean = run_round(wl, seed=7)
        again = run_round(wl, seed=7)
        line = [f"{wl.name}: clean {clean['failed']}/{clean['attempted']} failed"]
        good = clean["failed"] == 0 and clean["attempted"] > 0 and clean["digest"] == again["digest"]
        caught = False
        for which in ("top", "bottom"):
            patcher = corrupted(which)
            try:
                bad = run_round(wl, seed=7)
            finally:
                patcher.restore()
            line.append(f"truth_mem={which} {bad['failed']}/{bad['attempted']} failed")
            good = good and bad["attempted"] == clean["attempted"]
            caught = caught or bad["failed"] > 0
        good = good and caught
        ok = ok and good
        print(("PASS " if good else "FAIL ") + ", ".join(line))
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
