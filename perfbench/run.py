"""Run one workload of the fada benchmark and print its metrics.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``fada`` is imported from ``src/``.
The run repeats the workload's fixed job until ``--seconds`` are used, each
job in a fresh process (``job.py``), as each ``fada`` command runs in its own:
no cache survives from one job to the next.  With ``--trace 0`` it reports
the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it
alternates plain and traced jobs and reports the per-module metrics and the
tracing overhead instead.  The last line of standard output is the result
object; the line before it holds the run's metadata.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 150
# The reference computation's time (job.reference_seconds) at the speed the
# reported times are scaled to: about what it takes on an idle 2-vCPU Xeon VM.
REFERENCE_S = 0.010


def fail(message: str) -> NoReturn:
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def declared():
    """Workload names and metric declarations from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    return names, bench["end_to_end"], bench["per_layer"]


# -- jobs -----------------------------------------------------------------------


def spawn_job(workload: str, seed: int, trace: bool) -> dict:
    """One job in a fresh process; adds its set-up time, from the start of
    the process to the end of ``make_algebras``, as ``setup_s``."""
    # perf_counter reads CLOCK_MONOTONIC on Linux, one clock for all processes
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), workload, str(seed), str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE)
    watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:   # interrupted: leave no job behind
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail("%s job exited with %d" % (workload, proc.returncode))
    job = json.loads(out.decode().strip().splitlines()[-1])
    job["setup_s"] = job["ready"] - t0
    return job


def run_jobs(workload: str, seed: int, seconds: float, traced: bool):
    """Jobs while the slowest round so far still fits in the time; with
    ``traced``, a round is a plain and a traced job.  Returns the plain jobs
    and the traced jobs."""
    start = time.perf_counter()
    plain, traced_jobs = [], []
    slowest = 0.0
    while True:
        begin = time.perf_counter()
        plain.append(spawn_job(workload, seed, False))
        if traced:
            traced_jobs.append(spawn_job(workload, seed, True))
        end = time.perf_counter()
        slowest = max(slowest, end - begin)
        if end - start + slowest > seconds:
            return plain, traced_jobs


def at_reference_speed(seconds: float, reference: float) -> float:
    """A time measured while the reference computation took ``reference``,
    scaled to the speed at which it takes REFERENCE_S.

    The host's speed switches between levels about 1.6x apart, in spells of
    seconds to minutes, and slows the reference computation with fada.
    """
    return seconds * REFERENCE_S / reference


def tally(jobs):
    """attempted, failed and per-job checked count over all jobs of a run.

    Every job runs the same inputs, so each must report the same number of
    checked conditions, and a traced job the same counts of work; a job that
    does not counts as one more failure.
    """
    attempted = sum(job["attempted"] for job in jobs)
    failed = sum(job["failed"] for job in jobs)
    for job in jobs:
        for label in job["failures"]:
            sys.stderr.write("perfbench: failed: %s\n" % label)
    checked = jobs[0]["checked"]
    counted = [{k: v for k, v in job["metrics"].items() if not k.endswith(("_s", "_ms"))}
               for job in jobs if "metrics" in job]
    if (any(job["checked"] != checked for job in jobs)
            or any(c != counted[0] for c in counted)):
        attempted += 1
        failed += 1
        sys.stderr.write("perfbench: jobs of one seed checked or counted different work\n")
    return attempted, failed, checked


# -- reporting ----------------------------------------------------------------


def metadata(workload: str, seed: int, trace: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = 0
    for path in sorted((SRC / "fada").glob("*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "src_fada_lines": lines,
    }


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result(metrics, values: dict, attempted: int, failed: int) -> dict:
    names = [m["name"] for m in metrics]
    if sorted(names) != sorted(values):
        fail("measured metrics %s do not match BENCHMARK.json %s"
             % (sorted(values), sorted(names)))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that spawn_job stops its job process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "fada" / "__init__.py").is_file():
        fail("no fada sources at %s; run from the root of a fada checkout"
             % os.path.relpath(SRC))
    names, end_to_end, per_layer = declared()
    if args.workload not in names:
        fail("unknown workload %r; choose from %s" % (args.workload, names))
    meta = metadata(args.workload, args.seed, args.trace)

    plain, traced = run_jobs(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failed, checked = tally(plain + traced)
    meta["solve_s_jobs"] = [job["solve_s"] for job in plain]
    meta["setup_s_jobs"] = [job["setup_s"] for job in plain]
    meta["reference_s_jobs"] = [job["reference_s"] for job in plain]
    if args.trace:
        # counts repeat exactly (tally checks it); times are medians
        values = {name: statistics.median(job["metrics"][name] for job in traced)
                  if name.endswith(("_s", "_ms")) else value
                  for name, value in traced[0]["metrics"].items()}
        values["trace.overhead_ratio"] = (
            statistics.median(job["solve_s"] for job in traced)
            / statistics.median(job["solve_s"] for job in plain))
        out = result(per_layer, values, attempted, failed)
    else:
        # medians over the jobs: how many jobs fit in the run depends on the
        # program's speed, and a median, unlike a least time, does not.  Each
        # set-up is scaled by the reference timed right after it, each job's
        # time by the mean of the references timed before and after it.
        meta["solve_s_unscaled"] = statistics.median(meta["solve_s_jobs"])
        meta["setup_s_unscaled"] = statistics.median(meta["setup_s_jobs"])
        values = {
            "setup_s": statistics.median(at_reference_speed(job["setup_s"], job["reference_s"][0])
                                         for job in plain),
            "solve_s": statistics.median(
                at_reference_speed(job["solve_s"], statistics.mean(job["reference_s"]))
                for job in plain),
            "peak_rss_mb": statistics.median(job["rss_mb"] for job in plain),
            "pass_ratio": (attempted - failed) / attempted,
            "checked": checked,
        }
        out = result(end_to_end, values, attempted, failed)
    print(json.dumps({"meta": meta}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
