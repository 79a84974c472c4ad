"""The maintenance scripts under scripts/, each run as a user runs it, so a
change to ``fada`` that breaks one fails here rather than on its next use."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name)] + list(argv),
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_regen_golden_compares_every_golden():
    lines = run_script("regen_golden.py")
    assert [line.split()[0] for line in lines] == ["ok"] * 3


def test_gkm_survey_finds_no_violation():
    lines = run_script("gkm_survey.py")
    assert lines
    assert all("violations=0" in line for line in lines)


def test_peterson_survey_runs():
    run_script("peterson_survey.py")


def test_bench_prints_its_usage():
    lines = run_script("bench.py", "--help")
    assert lines[0].startswith("usage: bench.py")


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_compare_names_changed_runs_and_skips_new_ones():
    bench = load_bench()

    def run(argv, code, digest):
        return {"argv": argv.split(), "exit": code, "stdout_sha256": digest}

    old = [run("gkm --root A1", 0, "a"), run("expand --root A1", 0, "b")]
    new = [run("gkm --root A1", 0, "a"), run("expand --root A1", 1, "b"),
           run("peterson --root B3", 0, "c")]
    assert bench.compare(old, new) == (["expand --root A1"], ["peterson --root B3"])
    # each run is one argument list; against a file from before the additive
    # gkm, the hyperbolic expand, the A6 and D5 gkm and the one-row expand
    # runs, every other run keeps its argument list and those five are skipped
    runs = bench.NORTH_STAR + bench.EXTRA_RUNS
    assert all(isinstance(a, list) and all(isinstance(s, str) for s in a) for a in runs)
    assert len({tuple(a) for a in runs}) == len(runs)
    with open(ROOT / "BENCH_24.json") as fh:
        old = json.load(fh)["cli"]
    before = {tuple(r["argv"]): r for r in old}
    new = [before.get(tuple(a), run(" ".join(a), 0, "d")) for a in runs]
    assert bench.compare(old, new) == ([], [
        "gkm --root A2 --window 8 --fgl additive",
        "expand --root A2 --window 3 --fgl hyperbolic --degree 12",
        "gkm --root A6 --window 2", "gkm --root %s --window 3" % bench.D5,
        "expand --root A3 --window 7 --word 0,1,2"])


def test_bench_runs_from_compiled_bytecode_with_the_same_stdout(tmp_path):
    bench = load_bench()
    argv = ["a1hat", "--kmax", "0"]
    _, _, code, plain = bench.run_timed(argv, bench.environment())
    before = set(ROOT.rglob("*.pyc"))
    env = bench.compile_bytecode(str(tmp_path))
    assert list(tmp_path.rglob("cli.*.pyc")) and env["PYTHONDONTWRITEBYTECODE"] == "1"
    _, _, cached_code, cached = bench.run_timed(argv, env)
    assert code == cached_code == 0
    assert hashlib.sha256(cached).digest() == hashlib.sha256(plain).digest()
    # the bytecode goes to the prefix only, never into the checkout
    assert set(ROOT.rglob("*.pyc")) == before


def test_bench_times_main_inside_the_wall_time_with_the_same_stdout():
    bench = load_bench()
    argv = ["a1hat", "--kmax", "0"]
    wall, main_s, code, stdout = bench.run_timed(argv, bench.environment())
    assert 0 < main_s <= wall
    plain = subprocess.run([sys.executable, "-m", "fada.cli"] + argv, cwd=ROOT,
                           env=bench.environment(), capture_output=True)
    assert code == plain.returncode == 0
    assert hashlib.sha256(stdout).digest() == hashlib.sha256(plain.stdout).digest()
