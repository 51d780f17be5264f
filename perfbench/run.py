#!/usr/bin/env python3
"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds the
library and lcrb_perfbench (Release) into .bench_build/perfbench; later runs
only re-check the build. lcrb_perfbench generates the workload's inputs from
--seed, runs the closed loop through the query service for --seconds, checks
the outputs, and prints a provenance line and then, as the last line of
stdout, the result object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is nonzero when the build fails, any query or
output check fails, or a declared metric is missing or not finite. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lcrb_perfbench")
# lcrb_perfbench must finish well inside 180 s, the longest a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources under %s"
                           % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "lcrb_perfbench"],
                   stdout=sys.stderr, check=True)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout a run
    measures need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD when ROOT is itself a git work tree (not merely inside one)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    return spec()["per_layer" if trace else "end_to_end"]


def validate(result, trace):
    """Every declared metric present, finite, with its declared unit."""
    problems = []
    metrics = result.get("metrics", {})
    for m in declared_metrics(trace):
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("metric %s is not a finite number" % m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("metric %s has unit %r, declared %r"
                            % (m["name"], got.get("unit"), m["unit"]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs, for the smoke tests")
    ap.add_argument("--corrupt-payload", action="store_true",
                    help="flip one byte of a compared payload (tests that "
                         "the output check fails the run)")
    args = ap.parse_args()

    try:
        build()
    except (OSError, RuntimeError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_payload:
        cmd.append("--corrupt-payload")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("lcrb_perfbench exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        edges = os.path.join(workdir,
                             "%s-%d.edges" % (args.workload, args.seed))
        if os.path.exists(edges):
            os.remove(edges)

    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        log("lcrb_perfbench exited %d without a result" % proc.returncode)
        return proc.returncode or 1
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    provenance["commit"] = git_commit()
    provenance["source_sha256"] = source_digest()
    problems = validate(result, args.trace == 1)
    for p in problems:
        log(p)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)
    if proc.returncode != 0:
        return proc.returncode
    return 1 if problems or not result["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
