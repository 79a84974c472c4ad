"""One job of a benchmark workload, in a fresh process.

    python3 perfbench/job.py <workload> <seed> <trace 0|1>

Imports fada from ``src/``, builds the workload's algebras, notes the time
(``ready``, on the system-wide monotonic clock, so that ``run.py`` can take
the set-up time from the moment it started this process), times the
reference computation, runs the job, times the reference again and prints
one JSON line: the job's time, the reference times, the verification
counts, the process's peak resident memory and, when traced, the
per-module metrics.
A traced job also writes its spans to ``perfbench/out/``.
"""
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS, Checker, make_algebras  # noqa: E402


def reference_seconds() -> float:
    """Least time of three repeats of a fixed computation in the program's
    own style: products of small Laurent polynomials held as dicts keyed by
    integer tuples.  It is written here, so no change to fada moves it;
    ``run.py`` divides by it to take the host's momentary speed out of the
    job's time."""
    rng = random.Random(5)
    polys = [{(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(0, 3)): rng.randint(1, 5)
              for _ in range(12)} for _ in range(6)]
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        kept = []
        for _ in range(6):
            for a in polys:
                for b in polys:
                    out = {}
                    for e1, c1 in a.items():
                        for e2, c2 in b.items():
                            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                            out[e] = out.get(e, 0) + c1 * c2
                    kept.append(out)
        best = min(best, time.perf_counter() - t0)
    return best


def run_job(spec, algs, seed: int, sabotage: bool = False, tracer_factory=None):
    """Run and time the workload's job once on the given algebras."""
    chk = Checker(sabotage)
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory(lambda: chk.item_id)
        tracer.install()
    gc.collect()
    t0 = time.perf_counter()
    try:
        spec.solve(algs, random.Random(seed), chk)
    except Exception as exc:  # a job the program aborts is a failed one
        chk.attempted += 1
        chk.failed += 1
        chk.failures.append("job aborted: %s: %s" % (type(exc).__name__, exc))
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return elapsed, chk, tracer


def main(argv) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spec = WORKLOADS[workload]
    tracer_factory = None
    if trace:
        from tracing import Tracer as tracer_factory
    algs = make_algebras(spec.algebra_keys())
    ready = time.perf_counter()
    reference_before = reference_seconds()
    elapsed, chk, tracer = run_job(spec, algs, seed, tracer_factory=tracer_factory)
    out = {
        "ready": ready,
        "solve_s": elapsed,
        "reference_s": [reference_before, reference_seconds()],
        "attempted": chk.attempted,
        "failed": chk.failed,
        "checked": chk.checked,
        "failures": chk.failures[:5],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["metrics"] = tracer.metrics()
        OUT.mkdir(exist_ok=True)
        with open(OUT / ("spans-%s-seed%d.json" % (workload, seed)), "w") as fh:
            json.dump({"span_fields": ["name", "start", "end", "parent", "item"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
