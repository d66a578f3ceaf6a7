#!/usr/bin/env python3
"""The stap benchmark: builds perfbench/ (libstap plus one benchmark binary)
from the checkout it runs in, runs one workload, and prints the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from the repository root. The build goes to .bench_build/perfbench
(Release). Standard output carries the host fingerprint line, the
workload's detail line, and as the last line the result record

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end_to_end metrics of BENCHMARK.json (--trace 0) or
its per_layer metrics (--trace 1). Per-layer metrics of layers the chosen
workload does not exercise read 0. --self-check runs every workload at
smoke size, traced and untraced, and fails unless every named metric
appears with its unit and no operation failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "stap_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json (run from the repository root): %s" % e)


def build():
    for required in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt",
                     "examples/data/relaxng_style.stap"):
        if not os.path.isfile(required):
            fail("%s is missing; run from the root of a stap checkout" % required)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_build_step(["cmake", "--build", BUILD_DIR, "--target",
                    "stap_perfbench", "-j", jobs])


def run_build_step(command):
    # Build output goes to stderr: stdout is reserved for the result.
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build step failed: " + " ".join(command))


def source_revision():
    """The git commit when the checkout is a repository, otherwise a hash
    of the sources the benchmark builds and reads."""
    if os.path.isdir(".git"):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0 and done.stdout.strip():
                return {"commit": done.stdout.strip()}
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for root in ("src", "perfbench", "examples/data"):
        for directory, dirs, files in sorted(os.walk(root)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"commit": "unknown", "source_sha256": digest.hexdigest()}


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark binary; returns (host, detail, result) from its
    output."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 3:
        fail("%s exited with code %d" % (workload, done.returncode))
    try:
        host, detail, result = (json.loads(line) for line in lines[-3:])
    except ValueError as e:
        fail("unparsable output from %s: %s" % (workload, e))
    return host["host"], detail["detail"], result


def complete(result, spec, trace):
    """Checks the metrics against BENCHMARK.json; fills per-layer metrics of
    layers this workload does not exercise with 0."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    measured = result["metrics"]
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            fail("metric %s (%s) is not listed with that unit in BENCHMARK.json"
                 % (name, metric["unit"]))
    metrics = {}
    for m in listed:
        if m["name"] in measured:
            metrics[m["name"]] = measured[m["name"]]
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            fail("end-to-end metric %s was not measured" % m["name"])
    result["metrics"] = metrics
    return result


def run(args, spec):
    build()
    host, detail, result = run_binary(args.workload, args.seed, args.seconds,
                                      args.trace)
    host.update(source_revision())
    print(json.dumps({"host": host}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(complete(result, spec, args.trace)))


def self_check(spec):
    """Every workload at smoke size: each named metric present with its unit,
    fail_ratio 0, and each workload's own end-to-end metrics nonzero."""
    build()
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            _, detail, result = run_binary(workload, 1, 3, trace, smoke=True)
            raw = dict(result["metrics"])
            result = complete(result, spec, trace)
            label = "%s --trace %d" % (workload, trace)
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d operations failed"
                                % (label, result["failed"], result["attempted"]))
            if trace:
                if raw.get("fail_ratio", {}).get("value") != 0:
                    problems.append("%s: fail_ratio is not 0" % label)
                for common in ("trace_overhead", "accounting_gap"):
                    if common not in raw:
                        problems.append("%s: %s missing" % (label, common))
            else:
                for name, metric in raw.items():
                    if not metric["value"] > 0:
                        problems.append("%s: %s is not positive" % (label, name))
            if not detail:
                problems.append("%s: no detail figures" % label)
            print("self-check: %s: %d metrics, %d operations, %d detail figures"
                  % (label, len(raw), result["attempted"], len(detail)))
    if problems:
        for problem in problems:
            print("self-check: FAIL: " + problem, file=sys.stderr)
        sys.exit(1)
    print("self-check: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    spec = load_spec()
    if args.self_check:
        self_check(spec)
        return
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    run(args, spec)


if __name__ == "__main__":
    main()
