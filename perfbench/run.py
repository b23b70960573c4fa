#!/usr/bin/env python3
"""Benchmark command of ompgpu: builds the harness from source, runs one
workload for a fixed time and prints its metrics.

    python3 perfbench/run.py --workload proxy-ladder --seed 1 --seconds 10 \
        --trace 0

Workloads: proxy-ladder, fuzz-oracle, cg-multidevice (perfbench/README.md).
With --trace 0 the last line of standard output is a JSON object holding
every end-to-end metric; with --trace 1 it holds every per-layer metric and
the spans are kept as a Chrome trace (open it in Perfetto). The run fails
(exit 1, "correct": false) when a case fails or a deterministic counter
differs from an earlier pass or an earlier run of the same binary.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/ at the
repository root); raw records, traces and counter fingerprints go under it.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import metrics  # noqa: E402

WORKLOADS = ("proxy-ladder", "fuzz-oracle", "cg-multidevice")
BUILD_TIMEOUT_S = 850
HARNESS_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or \
        os.path.join(os.path.dirname(HERE), ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def run(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group and waits for it; on timeout the
    whole group (make's compiler children too) is killed and reaped, and
    the run exits 1. Returns (exit code, captured stdout or None)."""
    proc = subprocess.Popen(cmd, start_new_session=True, text=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: %s timed out" % " ".join(cmd))
    return proc.returncode, out


def check_call(cmd, timeout):
    """Runs a build step; on failure prints its output and exits 1."""
    code, out = run(cmd, timeout, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT)
    if code != 0:
        sys.stderr.write(out[-4000:])
        sys.exit("perfbench: %s failed" % " ".join(cmd))


def build(bdir):
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        check_call(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    check_call(["cmake", "--build", bdir, "--target", "perfbench_harness",
                "-j", "4"], BUILD_TIMEOUT_S)
    return os.path.join(bdir, "perfbench_harness")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_determinism(bdir, binary, record):
    """Compares the run's counters with its own earlier passes and with every
    earlier run of this binary on the workload, then records them."""
    path = os.path.join(bdir, "determinism", file_digest(binary),
                        record["workload"] + ".json")
    previous = None
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
    drift, merged = metrics.determinism_drift(record["cases"], previous)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(merged, f, sort_keys=True)
    os.replace(path + ".tmp", path)
    return drift


def show(name, value, unit, note=""):
    print("  %-42s %16.6g %-6s %s" % (name, value, unit, note))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    out = os.path.join(bdir, "out")
    os.makedirs(out, exist_ok=True)
    stem = os.path.join(out, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".record.json"]
    if args.trace:
        cmd += ["--trace-out", stem + ".trace.json"]
    code, _ = run(cmd, HARNESS_TIMEOUT_S)
    if code != 0:
        sys.exit("perfbench: harness exited with %d" % code)
    with open(stem + ".record.json") as f:
        record = json.load(f)

    cases = record["cases"]
    failed = [c for c in cases if not c["ok"]]
    drift = check_determinism(bdir, binary, record)

    print("perfbench %s seed=%d seconds=%g trace=%d: %d cases in %d passes"
          % (args.workload, args.seed, args.seconds, args.trace, len(cases),
             len(record["passes"])))
    for c in failed[:10]:
        print("  FAILED %s: %s" % (c["key"], c["reason"]))
    for d in drift[:10]:
        print("  COUNTER DRIFT %s" % d)

    if args.trace:
        with open(stem + ".trace.json") as f:
            events = json.load(f)["traceEvents"]
        values, table = metrics.per_layer(record, events)
        units = metrics.PER_LAYER
        print("per-layer metrics (trace: %s.trace.json):" % stem)
        for name, value in values.items():
            show(name, value, units[name])
        traced = sum(1 for c in cases if c["traced"])
        print("layer self time per traced case:")
        for layer, ms in sorted(table.layer_self_ms().items()):
            show(layer, ms / traced, "ms")
    else:
        values, extra = metrics.end_to_end(record)
        units = metrics.END_TO_END
        print("end-to-end metrics:")
        for name, value in values.items():
            show(name, value, units[name])
        print("printed only (not bounded):")
        show("cases", extra["cases"], "count", "untraced")
        show("failed_frac", extra["failed_frac"], "ratio")
        for name in sorted(extra):
            if name.startswith("case_ms_p"):
                show(name, extra[name], "ms", "n=%d" % extra["cases"])
        if "sim_minst_per_s" in extra:
            show("sim_minst_per_s", extra["sim_minst_per_s"], "Minst/s")
        if "sim_cycles" in extra:
            show("sim_cycles", extra["sim_cycles"], "cycles", "geomean")

    correct = not failed and not drift
    print(json.dumps({
        "correct": correct,
        "attempted": len(cases),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
