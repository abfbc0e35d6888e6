#!/usr/bin/env python3
"""Build and run the two-clock benchmark of the FluidMem reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload <fleet|elastic|writeback> \
        --seed N --seconds S --trace <0|1>

The benchmark is its own Cargo package (``perfbench/Cargo.toml``) that
builds the repository's crates from source into ``$CARGO_TARGET_DIR``
(default ``.bench_build``). Cargo's output goes to stderr; stdout carries
the benchmark's report, whose last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. That line is
checked against the metric lists in ``BENCHMARK.json`` before it is
printed.

    python3 perfbench/run.py --all --seed N --seconds S

runs every workload untraced and traced and prints every metric.

Exit status: 0 when the run completed and every check held; non-zero
(and no result line) when the build or the run failed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet", "elastic", "writeback"]
# One run may take at most this long once the program is built.
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the executable's path, or None."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "fluidmem-perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Returns a reason the result line is malformed, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"unexpected keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    expected = expected_metrics(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    return None


def run(exe, argv, trace):
    """Runs one benchmark invocation; returns (exit code, result line)."""
    try:
        done = subprocess.run([exe] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    except OSError as e:
        print(f"error: cannot run the benchmark: {e}", file=sys.stderr)
        return 1, None
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode == 2 or not lines:
        return done.returncode or 1, None
    problem = check_result(lines[-1], trace)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 1, None
    return done.returncode, lines[-1]


def main(argv):
    exe = build()
    if exe is None:
        return 1
    if argv and argv[0] == "--all":
        rest = argv[1:]
        status = 0
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                code, line = run(exe, ["--workload", workload, "--trace", trace] + rest,
                                 trace == "1")
                if line:
                    print(line)
                status = status or code
        return status
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    code, line = run(exe, argv, trace)
    if line:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
