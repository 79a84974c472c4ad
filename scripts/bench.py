"""Measure fada end to end and write one BENCH_<n>.json file.

    python3 scripts/bench.py --out BENCH_16.json

Run from anywhere; the checkout is the parent of this script's directory.
The file records three things, on the machine the script runs on:

* ``perfbench``: ``perfbench/run.py --trace 0`` on every workload that
  ``BENCHMARK.json`` declares, for its ``run_seconds`` and seed 101, the
  metrics and the run's metadata;
* ``cli``: the twelve north-star runs (``expand``, ``gkm``, ``peterson --u 0``
  and ``recurse --i 1`` on A1 L=8, A2 L=6 and B3 L=4), three fresh
  processes each, with their wall times, exit code and the SHA-256 of stdout.
  Each process runs ``fada.cli.main`` under a small timer (`TIMER`), which
  writes the time of ``main`` after the import to stderr: ``main_s`` is
  that time, the part of ``wall_s`` that start-up does not move.  It also
  writes the process's peak resident memory, import included:
  ``peak_rss_mb`` is its largest value over the repeats.  Each repeat is also run from
  bytecode compiled once into a temporary ``PYTHONPYCACHEPREFIX``
  (`compile_bytecode`): ``cached_wall_s`` is its wall time, which the size
  of the source does not move, as it moves ``wall_s`` when
  ``PYTHONDONTWRITEBYTECODE`` is set.
  An exit code is data, not a failure: ``peterson --u 0`` on B3 L=4 exits
  2, because P_{s_0} needs window 8 there, so ``peterson --u 0`` on B3 L=8
  is timed as well, as an extra run after the twelve, and so are ``gkm`` on
  A3 L=7, where the GKM checks are most of the run, ``gkm --fgl
  additive`` on A2 L=8, the CLI shape of the ``gkm`` perfbench workload,
  ``expand --fgl hyperbolic`` on A2 L=3, ``gkm`` on A6 L=2 and on D5 L=3
  (a Cartan matrix), where enumerating the finite Weyl group is most of the
  run, ``expand --word`` on A3 L=7 and ``expand`` on A3 L=7, whose 36 MB of
  output make printing and its memory the largest part of the run;
* ``tier1``: one run of the tier-1 suite, its wall time, its pass and fail
  counts and the time of each acceptance criterion.

With ``--compare OLD.json`` the script also compares the CLI runs with
those of an earlier file and exits 1 when an exit code or a stdout digest
differs.  A run the earlier file lacks is named on stderr and not compared.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 101
REPEATS = 3

EXTRA = {"peterson": ["--u", "0"], "recurse": ["--i", "1"]}


def cli_argv(command: str, root: str, window: int, *args: str) -> list:
    """The argument list of one CLI run: the command's `EXTRA` options, then
    the run's own."""
    return [command, "--root", root, "--window", str(window)] + EXTRA.get(command, []) + list(args)


NORTH_STAR = [
    cli_argv(command, root, window)
    for root, window in (("A1", 8), ("A2", 6), ("B3", 4))
    for command in ("expand", "gkm", "peterson", "recurse")
]
# D5 has no type name, so its runs give the Cartan matrix as JSON
D5 = json.dumps({"cartan": [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
                            [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]]})
# timed after the twelve: the B3 peterson run above ends in its exit-2 path,
# the twelve hold no run whose time the GKM checks dominate, the additive gkm
# run is the CLI shape of the `gkm` perfbench workload, the hyperbolic
# expand run is the one whose rows come by back-substitution, and the gkm
# runs on A6 L=2 (|W| = 5,040) and D5 L=3 (|W| = 1,920) are the ones whose
# time the finite Weyl group enumeration dominates; the expand run with
# --word prints one row of a large window, so it times that one row, not
# the window's table; the expand run on A3 L=7 prints 36 MB, the largest
# output of any run, so its time and peak RSS are those of printing rows
EXTRA_RUNS = [cli_argv("peterson", "B3", 8), cli_argv("gkm", "A3", 7),
              cli_argv("gkm", "A2", 8, "--fgl", "additive"),
              cli_argv("expand", "A2", 3, "--fgl", "hyperbolic", "--degree", "12"),
              cli_argv("gkm", "A6", 2), cli_argv("gkm", D5, 3),
              cli_argv("expand", "A3", 7, "--word", "0,1,2"), cli_argv("expand", "A3", 7)]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# `python -m fada.cli` with its peak RSS in KiB and the time of main, after
# the import, on stderr.  The peak is VmHWM, this process's own: on Linux
# ru_maxrss also counts the peak of the process that spawned it, and this
# script's peak passes 100 MB once it has read one 36 MB stdout
TIMER = """
import resource, sys, time
import fada.cli
start = time.perf_counter()
try:
    code = fada.cli.main(sys.argv[1:])
finally:
    main_s = time.perf_counter() - start
    try:
        with open("/proc/self/status") as fh:
            peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("\\npeak_rss_kb %d\\nmain_s %.6f\\n" % (peak, main_s))
sys.exit(code)
"""
MAIN_S = re.compile(rb"\nmain_s ([\d.]+)\n$")
PEAK_RSS_KB = re.compile(rb"\npeak_rss_kb (\d+)\nmain_s [\d.]+\n$")
CRITERION = re.compile(r"criterion\s+(\d+): (\w+)\s+.*\(([\d.]+)s, budget ([\d.]+)s\)")
SUMMARY = re.compile(r"(\d+) (\w+)")


def environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, text=True, capture_output=True,
                                    check=True).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        revision, dirty = "unknown", None
    lines = sum(len(path.read_text().splitlines()) for path in (SRC / "fada").glob("*.py"))
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "git_revision": revision,
            "git_dirty": dirty, "src_fada_lines": lines}


def run_perfbench() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    out = {}
    for name in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, text=True, capture_output=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            out[name] = {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
            continue
        out[name] = dict(json.loads(lines[-2]), **json.loads(lines[-1]))
        sys.stderr.write("bench: perfbench %s solve_s %.4f\n"
                         % (name, out[name]["metrics"]["solve_s"]["value"]))
    return out


def compile_bytecode(prefix: str) -> dict:
    """The environment of `environment` that reads bytecode from `prefix`
    and writes none, after one untimed CLI run has compiled into `prefix`
    src/fada and the standard library modules the CLI imports: the prefix
    hides every other __pycache__, the standard library's included."""
    env = dict(environment(), PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", TIMER, "a1hat", "--kmax", "0"], cwd=ROOT, env=env,
                   capture_output=True, check=True)
    return dict(env, PYTHONDONTWRITEBYTECODE="1")


def run_timed(argv: list, env: dict) -> tuple:
    """One fresh CLI process in `env`: (wall seconds, main seconds, exit
    code, stdout, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", TIMER] + argv, cwd=ROOT,
                          env=env, capture_output=True)
    wall = time.perf_counter() - start
    return (wall, float(MAIN_S.search(proc.stderr).group(1)), proc.returncode, proc.stdout,
            int(PEAK_RSS_KB.search(proc.stderr).group(1)) / 1024)


def run_cli() -> list:
    out = []
    plain = environment()
    with tempfile.TemporaryDirectory() as prefix:
        compiled = compile_bytecode(prefix)
        for argv in NORTH_STAR + EXTRA_RUNS:
            times, mains, cached, rss, digests, codes = [], [], [], [], set(), set()
            for _ in range(REPEATS):
                wall, main_s, code, stdout, peak = run_timed(argv, plain)
                times.append(wall)
                mains.append(main_s)
                rss.append(peak)
                digests.add(hashlib.sha256(stdout).hexdigest())
                codes.add(code)
                wall, _, code, stdout, _ = run_timed(argv, compiled)
                cached.append(wall)
                digests.add(hashlib.sha256(stdout).hexdigest())
                codes.add(code)
            if len(digests) > 1 or len(codes) > 1:
                sys.stderr.write("bench: %s gave different output on repeats\n"
                                 % " ".join(argv))
            out.append({"argv": argv, "exit": sorted(codes)[0],
                        "stdout_sha256": sorted(digests)[0],
                        "deterministic": len(digests) == 1 and len(codes) == 1,
                        "wall_s": [round(t, 4) for t in times], "best_s": round(min(times), 4),
                        "main_s": [round(t, 4) for t in mains],
                        "main_best_s": round(min(mains), 4),
                        "cached_wall_s": [round(t, 4) for t in cached],
                        "cached_best_s": round(min(cached), 4),
                        "peak_rss_mb": round(max(rss), 1)})
            sys.stderr.write("bench: %-50s exit %d  %.3f s (main %.3f s, cached %.3f s) %.0f MB\n"
                             % (" ".join(argv), out[-1]["exit"], min(times), min(mains),
                                min(cached), max(rss)))
    return out


def run_tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=environment(), text=True, capture_output=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in SUMMARY.findall(summary)}
    criteria = {int(n): {"status": status, "seconds": float(s), "budget_s": float(b)}
                for n, status, s, b in CRITERION.findall(proc.stdout)}
    sys.stderr.write("bench: tier-1 exit %d in %.1f s\n" % (proc.returncode, wall))
    return {"command": " ".join(TIER1[1:]), "exit": proc.returncode, "wall_s": round(wall, 2),
            "counts": counts, "criteria": {str(k): criteria[k] for k in sorted(criteria)}}


def compare(old: list, new: list) -> tuple:
    """The CLI runs of the newer file whose exit code or stdout differs from
    the older file's, and those the older file lacks."""
    before = {tuple(run["argv"]): (run["exit"], run["stdout_sha256"]) for run in old}
    changed, missing = [], []
    for run in new:
        key = tuple(run["argv"])
        if key not in before:
            missing.append(" ".join(key))
        elif before[key] != (run["exit"], run["stdout_sha256"]):
            changed.append(" ".join(key))
    return changed, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--compare", help="an earlier BENCH file whose CLI runs must agree")
    args = parser.parse_args(argv)
    report = {"machine": machine(), "perfbench": run_perfbench(), "cli": run_cli(),
              "tier1": run_tier1()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.compare:
        with open(args.compare) as fh:
            changed, missing = compare(json.load(fh).get("cli", []), report["cli"])
        for line in missing:
            sys.stderr.write("bench: not in %s, not compared: %s\n" % (args.compare, line))
        for line in changed:
            sys.stderr.write("bench: differs from %s: %s\n" % (args.compare, line))
        if changed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
