#!/usr/bin/env python3
"""The COSMOS benchmark: one command per (workload, seed).

  python3 perfbench/run.py --workload band-join|fanout|churn [--seed N]
                           --seconds S --trace 0|1

The seed defaults to 1.

Builds the library, the worker daemon and the benchmark driver from the
checkout's sources (perfbench/CMakeLists.txt, Release) into .bench_build
(or $CARGO_TARGET_DIR), runs the driver, and prints its provenance header
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
the per-module set, the driver's own numbers plus the self times and wire
bytes trace_reduce.py derives from the merged Chrome traces.

Exits non-zero without printing a result when the build or a run fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the checkout's sources untouched
import trace_reduce  # noqa: E402

RUN_TIMEOUT_S = 170
# Frame types reported on their own; the rest are summed as "other".
FRAME_TYPES = ["Execute", "MatchRequest", "MatchResponse", "Result", "StatsSample"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / d).resolve()


def build(out):
    """Configures (once) and builds; build output goes to stderr."""
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   check=True, stdout=sys.stderr)


def run_driver(cmd):
    """Runs the driver in its own session; kills the whole group on timeout
    so no worker outlives the benchmark."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("benchmark driver timed out")
    if proc.returncode != 0:
        raise RuntimeError("benchmark driver exited with %d" % proc.returncode)
    return out.splitlines()


def trace_metrics(traces, tuples):
    """Per-module metrics from the traced run, fed and durable passes, per
    tuple of the traced prefix."""
    us = 1e6 / tuples
    m = {}
    fed = trace_reduce.reduce_file(traces["fed"])
    other = 0.0
    for frame, nbytes in fed["wire_bytes"].items():
        if frame not in FRAME_TYPES:
            other += nbytes
    for frame in FRAME_TYPES:
        m["wire.bytes_per_tuple." + frame] = (
            fed["wire_bytes"].get(frame, 0.0) / tuples, "B")
    m["wire.bytes_per_tuple.other"] = (other / tuples, "B")
    for side in ("driver", "workers"):
        m["wire.send_self_us_per_tuple." + side] = (
            fed["cat_self_s"][side].get("wire_send", 0.0) * us, "us")
    workers = fed["self_s"]["workers"]
    m["node.task_self_us_per_tuple"] = (workers.get("task", 0.0) * us, "us")
    m["node.match_self_us_per_tuple"] = (workers.get("match", 0.0) * us, "us")
    durable = trace_reduce.reduce_file(traces["durable"])
    m["journal.checkpoint_self_us_per_tuple"] = (
        durable["self_s"]["driver"].get("checkpoint", 0.0) * us, "us")
    run = trace_reduce.reduce_file(traces["run"])
    for stage in ("route", "dispatch", "deliver"):
        m["cosmos.%s_self_us_per_tuple.run" % stage] = (
            run["self_s"]["driver"].get(stage, 0.0) * us, "us")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    trace_dir = out / "traces" / str(os.getpid())
    try:
        build(out)
        cmd = [str(out / "cosmos_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               # Relative, so socket paths stay within the sun_path limit.
               "--tmp", os.path.relpath(out / "tmp", ROOT)]
        if args.trace:
            trace_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(trace_dir)]
        lines = run_driver(cmd)
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        if args.trace:
            metrics.update(trace_metrics(result["traces"],
                                         result["traced_tuples"]))
    except Exception as e:  # build failure, driver failure, bad output
        log("run.py: %s" % e)
        return 1
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    for line in lines:
        if line.startswith("#"):
            print(line)
    print("# passes=%d tuples=%d" % (result["passes"], result["tuples"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
