#!/usr/bin/env python3
"""End-to-end benchmark of the crowdprice pricing service.

    python3 perfbench/run.py --workload decide-direct --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. Builds crowdprice_serve, crowdprice_router
and the load generator from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs the load generator, which launches the servers
as child processes and drives them (see loadgen.cc for the workloads).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Span files and full result records (with the host
fingerprint) go to .bench_out/; compare two records with
perfbench/compare.py. --workload all runs every workload untraced and
traced and prints every metric.
"""

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["decide-direct", "decide-routed", "reprice"]
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def build(build_dir):
    """Configures once, then builds the three binaries; False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench_build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1), "--target", "crowdprice_serve",
                      "crowdprice_router", "perfbench_loadgen"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.stderr.write("run.py: build failed (full log: %s)\n" % log_path)
                return False
    return True


def reap_all(group):
    """Stops whatever the load generator left behind and waits for it."""
    try:
        os.killpg(group, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_once(build_dir, out_dir, workload, seed, seconds, trace):
    """Runs the load generator once; returns (stdout, result) or None."""
    command = [os.path.join(build_dir, "perfbench_loadgen"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--bin-dir", os.path.join(build_dir, "crowdprice"),
               "--out-dir", out_dir]
    child = subprocess.Popen(command, stdout=subprocess.PIPE,
                             start_new_session=True, text=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: %s timed out\n" % workload)
        out = None
    reap_all(child.pid)
    if out is None or child.returncode != 0:
        if out:
            sys.stderr.write(out)
        sys.stderr.write("run.py: %s failed (exit %s)\n" % (workload, child.returncode))
        return None
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(out + "run.py: no result line\n")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write("run.py: malformed result line\n")
        return None
    return "\n".join(lines[:-1]), result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # Orphans of a crashed load generator are re-parented here, so they
    # can be stopped and waited for.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    if not build(build_dir):
        return 1

    if args.workload != "all":
        got = run_once(build_dir, out_dir, args.workload, args.seed,
                       args.seconds, args.trace)
        if got is None:
            return 1
        print(got[0])
        print(json.dumps(got[1]))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            got = run_once(build_dir, out_dir, workload, args.seed,
                           args.seconds, trace)
            if got is None:
                return 1
            print(got[0])
            result = got[1]
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"]["%s/%s" % (workload, name)] = metric
    print("%-52s %16s  %s" % ("workload/metric", "value", "unit"))
    for name, metric in combined["metrics"].items():
        print("%-52s %16.6g  %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
