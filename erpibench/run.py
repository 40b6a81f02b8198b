#!/usr/bin/env python3
"""Build and run the ER-pi benchmark.

    python3 erpibench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 erpibench/run.py --test      # decorator-transparency tests
    python3 erpibench/run.py --record    # re-record the expected reports

Run from the repository root. The first call configures and builds the
benchmark (erpibench/CMakeLists.txt, which compiles ../src) into
.bench_build/; later calls only rebuild what changed. The last line of
standard output is the workload's JSON result. Exits non-zero when the
library sources are missing, the build fails, or a correctness gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "erpibench")
WORKLOADS = ["table1-hunt", "town-sweep", "fault-sweep", "service-jobs"]
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"erpibench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD, target)


def run(cmd, cwd):
    proc = subprocess.Popen(cmd, cwd=cwd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    expected = os.path.join(HERE, "expected")

    if args.test:
        sys.exit(run([build("erpibench_tests")], cwd=BUILD))

    binary = build("erpibench")
    names = WORKLOADS if args.record and not args.workload else [args.workload]
    if names == [None]:
        parser.error("--workload is required")
    for name in names:
        # Stores, journals, sockets and the span file live in a fresh
        # directory per run, inside the build tree. Run directories are kept:
        # deleting thousands of small files leaves deferred file-system work
        # (online discard) that slows the next runs' file operations several
        # fold. Remove .bench_build/run by hand when done.
        runs = os.path.join(ROOT, ".bench_build", "run")
        os.makedirs(runs, exist_ok=True)
        work = tempfile.mkdtemp(prefix=f"{name}-", dir=runs)
        cmd = [binary, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--expected", expected, "--work-dir", "."]
        if args.record:
            cmd.append("--record")
        sys.stdout.flush()
        try:
            code = run(cmd, cwd=work)
        finally:
            spans = os.path.join(work, f"trace-{name}.jsonl")
            if os.path.exists(spans):
                os.replace(spans, os.path.join(ROOT, ".bench_build", f"trace-{name}.jsonl"))
        if code != 0:
            sys.exit(code)


if __name__ == "__main__":
    main()
