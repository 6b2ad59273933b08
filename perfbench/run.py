#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (perfbench/src) once.

    python3 perfbench/run.py --workload uniform|zipf --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds `sm_perfbench` (library sources included) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Every run
prints its host metadata, the human-readable report, and as the last
line of stdout one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1). Each result is also kept, with its metadata, in
<build>/results/; a traced run writes its spans to <build>/traces/ and
compares itself with the untraced result of the same workload and seed
when one is there. Exits non-zero, printing no result, when the build
or the run fails; when a correctness check fails it prints the result
(with "correct": false) and exits 1. One of those checks is here: the
digest of the full-size survey's outputs must equal the one recorded in
perfbench/reference.json.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("uniform", "zipf")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures once, then builds sm_perfbench; build output to stderr."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "sm_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "sm_perfbench")


def source_identity():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none"
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_nproc(lines):
    """The thread count the binary ran with, from its "host:" line."""
    for line in lines:
        match = re.match(r"host: nproc (\d+),", line)
        if match:
            return int(match.group(1))
    return None


def check_survey_digest(lines, reference):
    """A CHECK FAILED line when the survey digest differs, else None."""
    expected = reference["survey_digest"]
    for line in lines:
        match = re.match(r"survey: .*\(digest ([0-9a-f]{16})\)$", line)
        if match:
            if match.group(1) == expected:
                return None
            return (f"CHECK FAILED: survey digest {match.group(1)} differs "
                    f"from the reference {expected} (perfbench/reference.json)")
    return "CHECK FAILED: the run printed no survey digest"


def not_gated_metrics(lines):
    """The report's "not gated:" line as {name: {"value", "unit"}}."""
    metrics = {}
    for line in lines:
        if line.startswith("not gated:"):
            for item in line[len("not gated:"):].split(";"):
                if "=" in item:
                    name, rest = item.strip().split("=", 1)
                    value, unit = rest.split(" ", 1)
                    metrics[name] = {"value": float(value),
                                     "unit": unit.split(" ")[0]}
    return metrics


def compare_with_reference(reference, meta, workload, metrics, trace):
    """Prints the ratio to the recorded reference medians, or why not."""
    host = reference["host"]
    if host["nproc"] != meta["nproc"]:
        print(f"WARNING: nproc {meta['nproc']} differs from the reference "
              f"host's {host['nproc']} (perfbench/reference.json); these "
              f"figures are not comparable with it")
        return False
    if trace:
        return True
    medians = reference["medians"].get(workload, {})
    ratios = [f"{name} {metrics[name]['value'] / medians[name]:.3f}x"
              for name in metrics if medians.get(name)]
    if ratios:
        print(f"vs reference medians (seed {reference['seeds']}): "
              + ", ".join(ratios))
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "notary", "service.h")):
        fail(f"library sources not found under {ROOT}/src; run from the root "
             "of a source checkout")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    tag = f"{args.workload}-seed{args.seed}"
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        command += ["--trace-out",
                    os.path.join(out_dir, "traces", f"{args.workload}.json")]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout + run.stderr)
        fail(f"the run failed (exit code {run.returncode})")
    result = json.loads(lines[-1])
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    digest_failure = check_survey_digest(lines, reference)
    if digest_failure:
        lines.insert(-1, digest_failure)
        result["correct"] = False
        result["failed"] += 1
        lines[-1] = json.dumps(result)
        run.stdout = "\n".join(lines) + "\n"
    if not result["correct"] or result["failed"]:
        print(run.stdout, end="")
        print("perfbench: the run's outputs failed a correctness check",
              file=sys.stderr)
        sys.exit(1)

    commit, digest = source_identity()
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "commit": commit,
            "source_digest": digest, "nproc": host_nproc(lines),
            "cpu": cpu_model()}
    for line in lines:  # compiler and build type come from the binary
        if line.startswith("host:"):
            meta["host_line"] = line
    print("meta: " + json.dumps(meta))
    print("\n".join(lines[:-1]))
    meta["comparable"] = compare_with_reference(
        reference, meta, args.workload, result["metrics"], args.trace)

    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    not_gated = not_gated_metrics(lines)
    if args.trace:
        untraced_path = os.path.join(results_dir, f"{tag}-trace0.json")
        if os.path.isfile(untraced_path):
            with open(untraced_path) as f:
                stored = json.load(f)
            untraced = dict(stored["result"]["metrics"])
            untraced.update(stored.get("not_gated", {}))
            print("tracing overhead (traced vs. untraced run, same seed):")
            for name, value in untraced.items():
                traced = (result["metrics"].get(f"traced.{name}")
                          or result["metrics"].get(f"tail.{name}"))
                if traced and value["value"]:
                    change = traced["value"] / value["value"] - 1
                    print(f"  {name}: {value['value']:.6g} -> "
                          f"{traced['value']:.6g} {value['unit']} "
                          f"({change:+.1%})")
        else:
            print("tracing overhead: no untraced result for this workload "
                  "and seed yet; run with --trace 0 first to compare")
    with open(os.path.join(results_dir, f"{tag}-trace{args.trace}.json"),
              "w") as f:
        json.dump({"meta": meta, "result": result, "not_gated": not_gated},
                  f, indent=1)
    print(lines[-1])


if __name__ == "__main__":
    main()
