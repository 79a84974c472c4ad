"""Self-test of the benchmark itself, at toy sizes (rank one, window 3).

    python3 perfbench/selftest.py

Checks that every workload verifies something (``checked`` > 0) and fails
nothing on the current program; that a deliberately wrong expectation (an
off-diagonal pairing expected to be 1, a GKM bump expected to pass, a row
recursion expected to fail, a hyperbolic braid expected to hold) is caught
as a failure; and that the traced job counts the same work twice and leaves
every patched function as it found it.  Exits 0 when all checks pass.
"""
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fada  # noqa: E402
from fada import connective, duals, scalars  # noqa: E402
from job import run_job  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (SER_CONNECTIVE, WORKLOADS, ConnectiveWorkload,  # noqa: E402
                       GkmWorkload, SeriesWorkload, TablesWorkload, make_algebras)

SEED = 7

TOY = {
    "tables": TablesWorkload(configs=(
        (("A1", "connective", "small", 8), 3, None),
        (("A1", "connective", "big", 8), 3, None)), pairs=8),
    "gkm": GkmWorkload(key=("A1", "additive", "small", 8), length=3,
                       combos=3, bumps=4),
    "connective": ConnectiveWorkload(key=("A1", "connective", "small", 8),
                                     length=3, structure_length=1,
                                     hecke_samples=2),
    # braid relations need rank two; the A2 braid at p=8 is still cheap
    "series": SeriesWorkload(
        gkm_configs=((("A1", "hyperbolic", "small", 12), 3, 2),),
        hyperbolic_braids=(("A2", "hyperbolic", "small", 8),),
        connective_braids=(("A2", SER_CONNECTIVE, "small", 8),),
        pairs=((1, 2),)),
}


def one_job(spec, seed, sabotage=False, tracer_factory=None):
    algs = make_algebras(spec.algebra_keys())
    return run_job(spec, algs, seed, sabotage, tracer_factory)


def counts(tracer):
    return {k: v for k, v in tracer.metrics().items() if not k.endswith(("_s", "_ms"))}


def main() -> int:
    problems = []
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    if sorted(declared) != sorted(WORKLOADS) or sorted(TOY) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json, WORKLOADS and TOY name different workloads")
    for name, spec in TOY.items():
        _, chk, _ = one_job(spec, SEED)
        if chk.failed or chk.checked <= 0:
            problems.append("%s: failed %d, checked %d: %s"
                            % (name, chk.failed, chk.checked, chk.failures[:3]))
        _, wrong, _ = one_job(spec, SEED, sabotage=True)
        if wrong.failed == 0 or wrong.sabotage:
            problems.append("%s: a wrong expectation went unnoticed" % name)
        print("%-10s checked %5d  attempted %3d  wrong expectation -> %d failed"
              % (name, chk.checked, chk.attempted, wrong.failed))

    originals = (duals.dual_x, connective.dual_x, scalars.Scalar.__mul__,
                 scalars.Scalar.__rmul__)
    _, _, first = one_job(TOY["connective"], SEED, tracer_factory=Tracer)
    _, _, second = one_job(TOY["connective"], SEED, tracer_factory=Tracer)
    if counts(first) != counts(second):
        problems.append("traced jobs counted different work")
    if first.metrics()["duals.dual_x.calls"] <= 0 or not first.spans:
        problems.append("traced job recorded no dual_x calls or no spans")
    after = (duals.dual_x, connective.dual_x, scalars.Scalar.__mul__,
             scalars.Scalar.__rmul__)
    if any(a is not b for a, b in zip(originals, after)) or fada.dual_x is not duals.dual_x:
        problems.append("uninstall left a patched function behind")

    for line in problems:
        print("FAIL", line)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
