#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures the
repository's own CMake project into .bench_build/cmake (adding the
benchmark binary through perfbench/inject.cmake) and builds it; later
calls only rebuild what changed. The measuring binary prints a
provenance line, a detail line and, last, the result object
{"correct", "attempted", "failed", "metrics"}; this script checks that
the result carries exactly the metrics BENCHMARK.json declares for the
mode (end_to_end untraced, per_layer traced) and prints it as the last
line of stdout. The provenance line's "git" is `git describe` of the
checkout at run time ("unknown" outside a git work tree), so results of
different commits built in one tree stay apart. Build output goes to
stderr. Any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
BINARY = BUILD_DIR / "f3d_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (once) and build the measuring binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a source checkout (no CMakeLists.txt / src)")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release",
             f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'inject.cmake'}"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "f3d_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def git_describe():
    """`git describe` of the checkout now, or "unknown"."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def with_git(line, describe):
    """The binary's provenance line with "git" set to @describe."""
    prefix = "provenance: "
    record = json.loads(line[len(prefix):])
    record["git"] = describe
    return prefix + json.dumps(record, separators=(",", ":"))


def declared(spec, mode):
    """{name: unit} of BENCHMARK.json's metrics for one mode."""
    return {m["name"]: m["unit"] for m in spec[mode]}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(result, spec, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    want = declared(spec, "per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {wrong}")


def selftest():
    """Harness self-tests plus the metric table against BENCHMARK.json."""
    subprocess.run([str(BINARY), "--selftest"], check=True)
    spec = load_spec()
    listed = subprocess.run([str(BINARY), "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout.split("\n")
    table = {"end_to_end": {}, "per_layer": {}}
    for line in filter(None, listed):
        mode, name, unit = line.split()
        table[mode][name] = unit
    for mode in table:
        if table[mode] != declared(spec, mode):
            fail(f"binary's {mode} metric table differs from BENCHMARK.json")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    if e2e.get("setup_s", {}).get("unit") != "s":
        fail("BENCHMARK.json lacks setup_s in seconds")
    if any(m["bound"] > 0.25 for m in spec["end_to_end"]):
        fail("an end_to_end bound exceeds 0.25")
    print("selftest: BENCHMARK.json matches the metric table")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        fail(f"build failed: {err}")

    if args.selftest:
        try:
            selftest()
        except subprocess.CalledProcessError as err:
            fail(f"selftest failed: {err}")
        return

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(BINARY), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"f3d_perfbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result: {lines[-1]!r}")
    check_result(result, spec, args.trace == 1)
    describe = git_describe()
    for line in lines[:-1]:
        print(with_git(line, describe) if line.startswith("provenance: ") else line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
