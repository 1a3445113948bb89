#!/usr/bin/env python3
"""Builds and runs the libslim end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload desktop --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (libslim from ../src plus the slim_e2e
program) into .bench_build/, or into $CARGO_TARGET_DIR when that is set; later runs
only check that the build is up to date. Build output goes to stderr. The last line of
stdout is slim_e2e's JSON result. With --trace 1 the Chrome trace slim_e2e writes is
checked here as well (a JSON array whose B/E spans balance), and a bad trace turns the
result incorrect.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out):
    """Configures (once) and builds slim_e2e; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: libslim sources (src/) not found next to perfbench/", file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "slim_e2e", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build step failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "slim_e2e")


def trace_problem(path):
    """Returns why the Chrome trace at `path` is malformed, or None."""
    try:
        with open(path) as f:
            events = json.load(f)
    except (OSError, ValueError) as e:
        return "unreadable trace: %s" % e
    if not isinstance(events, list) or not events:
        return "trace is not a non-empty JSON array"
    open_spans = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict) or not isinstance(e.get("name"), str):
            return "event %d has no name" % i
        ph = e.get("ph")
        if ph != "M" and not isinstance(e.get("ts"), (int, float)):
            return "event %d has no ts" % i
        stack = open_spans.setdefault(e.get("tid", 0), [])
        if ph == "B":
            stack.append(e["name"])
        elif ph == "E":
            if not stack or stack.pop() != e["name"]:
                return "event %d closes a span that is not open" % i
    if any(open_spans.values()):
        return "trace ends with open spans"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["desktop", "video", "farm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    trace_path = os.path.join(out, "trace_%s_%d.json" % (args.workload, args.seed))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", trace_path]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: slim_e2e did not finish in %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if not lines:
        print("run.py: slim_e2e printed nothing (exit %d)" % run.returncode, file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    code = run.returncode
    if args.trace == 1:
        problem = trace_problem(trace_path)
        if problem is not None:
            print("run.py: %s: %s" % (trace_path, problem), file=sys.stderr)
            result["correct"] = False
            code = code or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
