#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench/delta_perf from the checkout's own sources (Release, into
$CARGO_TARGET_DIR or .bench_build) and runs one workload:

    python3 perfbench/run.py --workload sdss_fleet_event --seed 1 \
        --seconds 12 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and the tracing overhead. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. `--workload all` runs the
three workloads one after another and ends with one combined line whose
metric names are prefixed by the workload.

Exits non-zero when a workload fails an output check (its result line
then reads "correct": false), and without a result line when the build
fails or delta_perf does not finish in time.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("sdss_fleet_event", "ycsb_b_1m_sync", "ycsb_a_open_wan")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds delta_perf; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "experiment.h")):
        raise RuntimeError(f"no delta sources under {ROOT}/src")
    out = build_dir()
    tmp = os.path.join(out, "tmp")  # keep compiler temporaries in the build
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "delta_perf",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "delta_perf")


def revision():
    """Git revision when the checkout is a repository, plus a digest of the
    measured sources (checkouts without .git still get a fingerprint)."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            rev = done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return f"git:{rev} sources:{digest.hexdigest()[:12]}"


def run_workload(binary, workload, seed, seconds, trace, rev):
    """Runs one workload; returns (report lines, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--revision", rev]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise RuntimeError(f"{workload}: delta_perf exited with "
                           f"{done.returncode} and no result")
    if not result.get("correct", False):
        log(f"{workload}: output checks failed (named above)")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    try:
        binary = build()
        rev = revision()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for workload in workloads:
            lines, result = run_workload(binary, workload, args.seed,
                                         args.seconds, args.trace, rev)
            print(f"== {workload}")
            print("\n".join(lines), flush=True)
            if len(workloads) == 1:
                print(json.dumps(result))
                return 0 if result["correct"] else 1
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as error:
        log(f"error: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
