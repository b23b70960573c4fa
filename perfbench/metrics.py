"""Arithmetic of the ompgpu benchmark: turns the harness's raw record and
Chrome trace into end-to-end and per-layer metrics, and checks that the
deterministic counters repeat.

A *case* is one workload x preset (proxy-ladder), one recipe x preset
(fuzz-oracle) or one CG solve (cg-multidevice). Cases run in whole passes
over a fixed case list; traced and untraced passes alternate in a traced run.
"""

import math
import statistics

# Per-workload unit of throughput: cases, or CG iterations on cg-multidevice.
CG = "cg-multidevice"

# The metrics BENCHMARK.json bounds (trace 0), in print order: name -> unit.
END_TO_END = {
    "throughput": "1/s",
    "case_ms_p50": "ms",
    "compile_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Pass self times reported per compile: metric name -> span name.
PASS_METRICS = {
    "core.openmp-opt.self_ms": "core.openmp-opt",
    "core.internalize_ms": "core.internalize",
    "core.heap-to-stack_ms": "core.heap-to-stack",
    "core.heap-to-shared_ms": "core.heap-to-shared",
    "core.fold-runtime-calls_ms": "core.fold-runtime-calls",
    "core.custom-state-machine_ms": "core.custom-state-machine",
    "core.spmdization_ms": "core.spmdization",
    "analysis.omp-lint_ms": "analysis.omp-lint",
    "analysis.map-inference_ms": "analysis.map-inference",
    "transforms.inline-parallel-regions_ms": "transforms.inline-parallel-regions",
    "transforms.mem2reg_ms": "transforms.mem2reg",
    "transforms.simplify_ms": "transforms.simplify",
    "transforms.function-attrs_ms": "transforms.function-attrs",
    "transforms.store-to-load-forwarding_ms":
        "transforms.store-to-load-forwarding",
    "rtl.link-device-rtl_ms": "rtl.link-device-rtl",
}

# Deterministic counters summed per pass (per solve on cg-multidevice).
PER_PASS_COUNTERS = [
    "gpusim.dyn_insts", "gpusim.barriers", "gpusim.runtime_calls",
    "gpusim.indirect_calls", "driver.pass_execs",
    "core.spmdized_kernels", "core.heap_to_stack", "core.heap_to_shared",
    "core.custom_state_machines", "core.guarded_regions", "core.folded_calls",
    "gpusim.cycles", "gpusim.transfer_cycles", "gpusim.heap_fallback_bytes",
    "gpusim.makespan_cycles", "gpusim.comm_fraction",
    "gpusim.host_link_bytes", "gpusim.sync_points",
    "ir.insts_emitted", "ir.insts_compiled",
]

# Every per-layer metric (trace 1): name -> unit. A metric of a layer the
# workload does not exercise reads 0.
PER_LAYER = {
    "gpusim.launch_ms": "ms",
    "gpusim.ns_per_inst": "ns",
    "gpusim.dyn_insts": "count",
    "gpusim.barriers": "count",
    "gpusim.runtime_calls": "count",
    "gpusim.indirect_calls": "count",
    "gpusim.launches": "count",
    "gpusim.launch_us": "us",
    "workloads.cg_solve_ms": "ms",
    "rtl.bind_us": "us",
    "driver.compile_ms": "ms",
    "driver.compile_calls": "count",
    "driver.pass_execs": "count",
    "driver.instrument_ms": "ms",
    "fuzz.judge_ms": "ms",
    "fuzz.emit_ms": "ms",
    "fuzz.verdict_ok_ratio": "ratio",
    **{name: "ms" for name in PASS_METRICS},
    "core.spmdized_kernels": "count",
    "core.heap_to_stack": "count",
    "core.heap_to_shared": "count",
    "core.custom_state_machines": "count",
    "core.guarded_regions": "count",
    "core.folded_calls": "count",
    "gpusim.cycles": "cycles",
    "gpusim.transfer_cycles": "cycles",
    "gpusim.heap_fallback_bytes": "bytes",
    "gpusim.makespan_cycles": "cycles",
    "gpusim.comm_fraction": "ratio",
    "gpusim.host_link_bytes": "bytes",
    "gpusim.sync_points": "count",
    "ir.insts_emitted": "count",
    "ir.insts_compiled": "count",
    "frontend.emit_ms": "ms",
    "workloads.setup_ms": "ms",
    "workloads.check_ms": "ms",
    "bench.trace_overhead_frac": "ratio",
    "bench.span_coverage": "ratio",
}


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples, ladder=(0.99, 0.95, 0.9), min_beyond=10):
    """The highest percentile of `ladder` with at least `min_beyond`
    samples above its nearest rank, as (q, value); None when even the
    lowest rung has fewer."""
    n = len(samples)
    for q in ladder:
        if n - max(1, math.ceil(q * n)) >= min_beyond:
            return q, percentile(samples, q)
    return None


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def failed_frac(cases):
    """Failed cases over cases attempted."""
    if not cases:
        raise ValueError("no cases attempted")
    return sum(1 for c in cases if not c["ok"]) / len(cases)


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------

def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(events):
    """Self time of each span (id -> us): its duration minus the part of its
    interval that its child spans cover."""
    children = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            children.setdefault(parent, []).append((e["ts"], e["ts"] + e["dur"]))
    return {
        e["args"]["id"]: e["dur"] - covered(children.get(e["args"]["id"], []),
                                            e["ts"], e["ts"] + e["dur"])
        for e in events
    }


class SpanTable:
    """Per-name totals of span duration and self time (microseconds)."""

    def __init__(self, events):
        selfs = self_times(events)
        self.count, self.dur, self.self = {}, {}, {}
        for e in events:
            name = e["name"]
            self.count[name] = self.count.get(name, 0) + 1
            self.dur[name] = self.dur.get(name, 0.0) + e["dur"]
            self.self[name] = self.self.get(name, 0.0) + selfs[e["args"]["id"]]

    def mean_self_ms(self, *names):
        calls = sum(self.count.get(n, 0) for n in names)
        return sum(self.self.get(n, 0.0) for n in names) / calls / 1e3 \
            if calls else 0.0

    def mean_dur_ms(self, name):
        calls = self.count.get(name, 0)
        return self.dur[name] / calls / 1e3 if calls else 0.0

    def layer_self_ms(self):
        """Total self time per layer (the span-name prefix), in ms."""
        out = {}
        for name, us in self.self.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + us / 1e3
        return out


def span_coverage(table):
    """Share of case wall time covered by layer spans: one minus the
    benchmark's own self time inside cases over the case wall time."""
    wall = table.dur.get("bench.case", 0.0)
    return 1.0 - table.self.get("bench.case", 0.0) / wall if wall else 0.0


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def work_units(workload, case):
    """Throughput units of one case: CG iterations or one case."""
    return case["iterations"] if workload == CG else 1


def fastest(cases, field):
    """Each case key's smallest `field` over the passes that ran it. The
    cases are deterministic and host interference only ever adds time, so
    the fastest pass is the steadiest estimate of the program's own cost."""
    best = {}
    for c in cases:
        best[c["key"]] = min(best.get(c["key"], math.inf), c[field])
    return best


def throughput(record, traced):
    """Work units per second of the case list, each case at its fastest
    pass among the passes of the given kind."""
    cases = [c for c in record["cases"] if c["traced"] == traced]
    units = {c["key"]: work_units(record["workload"], c) for c in cases}
    best = fastest(cases, "wall_ms")
    return sum(units.values()) / (sum(best.values()) / 1e3)


def end_to_end(record):
    """Every end-to-end metric of an untraced run, plus the ones the
    benchmark prints but does not bound (sample counts, tail latency,
    deterministic simulated cycles, failures)."""
    workload = record["workload"]
    cases = [c for c in record["cases"] if not c["traced"]]
    walls = [c["wall_ms"] for c in cases]
    compiles = [c for c in cases if c["compile_ms"] >= 0]
    metrics = {
        "throughput": throughput(record, traced=False),
        "case_ms_p50": statistics.median(fastest(cases, "wall_ms").values()),
        "compile_ms_p50":
            statistics.median(fastest(compiles, "compile_ms").values()),
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
    }
    extra = {"cases": len(walls), "failed_frac": failed_frac(record["cases"])}
    tail = tail_percentile(walls)
    if tail:
        extra["case_ms_p%d" % round(tail[0] * 100)] = tail[1]
    launched = [c for c in cases if c["launch_ms"] >= 0]
    if launched:
        insts = {c["key"]: int(c["counters"]["gpusim.dyn_insts"])
                 for c in launched}
        launch_s = sum(fastest(launched, "launch_ms").values()) / 1e3
        extra["sim_minst_per_s"] = sum(insts.values()) / 1e6 / launch_s
    cycles = "gpusim.makespan_cycles" if workload == CG \
        else "gpusim.total_cycles"
    per_case = {c["key"]: int(c["counters"][cycles]) for c in cases
                if cycles in c["counters"]}
    if per_case:
        extra["sim_cycles"] = geomean(per_case.values())
    return metrics, extra


def per_layer(record, events):
    """Every per-layer metric of a traced run."""
    workload = record["workload"]
    traced = [c for c in record["cases"] if c["traced"]]
    npasses = sum(1 for p in record["passes"] if p["traced"])
    table = SpanTable(events)
    out = {name: 0.0 for name in PER_LAYER}

    for name in PER_PASS_COUNTERS:
        values = [float(c["counters"][name]) for c in traced
                  if name in c["counters"]]
        if values:
            out[name] = sum(values) / npasses

    if workload == CG:
        # runCG compiles once per solve; its pass timer is the compile clock.
        compiles = len(traced)
        out["driver.compile_calls"] = compiles / npasses
        out["driver.compile_ms"] = \
            sum(c["compile_ms"] for c in traced) / compiles
        launches = [int(c["counters"]["gpusim.launches"]) for c in traced]
        solves = table.dur["workloads.runCG"] / 1e3
        out["gpusim.launches"] = sum(launches) / npasses
        out["gpusim.launch_us"] = \
            (solves - sum(c["compile_ms"] for c in traced)) * 1e3 / sum(launches)
        out["workloads.cg_solve_ms"] = table.mean_dur_ms("workloads.runCG")
    else:
        compiles = table.count.get("driver.optimizeDeviceModule", 0)
        out["driver.compile_calls"] = compiles / npasses
        out["driver.compile_ms"] = table.mean_dur_ms("driver.optimizeDeviceModule")
        out["driver.instrument_ms"] = \
            table.mean_self_ms("driver.optimizeDeviceModule")

    launch_calls = table.count.get("gpusim.launchKernel", 0)
    if launch_calls:
        out["gpusim.launches"] = launch_calls / npasses
        out["gpusim.launch_ms"] = table.mean_self_ms("gpusim.launchKernel")
        insts = sum(int(c["counters"]["gpusim.dyn_insts"]) for c in traced
                    if "gpusim.dyn_insts" in c["counters"])
        out["gpusim.ns_per_inst"] = \
            table.self["gpusim.launchKernel"] * 1e3 / insts
    out["rtl.bind_us"] = table.mean_self_ms("rtl.makeOpenMPRuntimeBinding") * 1e3
    out["fuzz.judge_ms"] = table.mean_self_ms("fuzz.judgeCompiledPreset")
    out["fuzz.emit_ms"] = table.mean_self_ms("frontend.emitFuzzKernel")
    judged = [int(c["counters"]["fuzz.verdict_ok"]) for c in record["cases"]
              if "fuzz.verdict_ok" in c["counters"]]
    if judged:
        out["fuzz.verdict_ok_ratio"] = sum(judged) / len(judged)
    out["frontend.emit_ms"] = table.mean_self_ms(
        "frontend.emitWorkloadModule", "frontend.emitFuzzKernel")
    out["workloads.setup_ms"] = table.mean_self_ms("workloads.setupInputs")
    out["workloads.check_ms"] = table.mean_self_ms("workloads.checkOutputs")

    if compiles:
        for metric, span in PASS_METRICS.items():
            out[metric] = table.self.get(span, 0.0) / 1e3 / compiles

    out["bench.trace_overhead_frac"] = \
        throughput(record, traced=False) / throughput(record, traced=True) - 1
    out["bench.span_coverage"] = span_coverage(table)
    return out, table


# --------------------------------------------------------------------------
# Determinism
# --------------------------------------------------------------------------

def counter_drift(expected, actual, where):
    """Messages for counters both dicts hold that differ."""
    return ["%s: %s %s != %s" % (where, name, actual[name], expected[name])
            for name in sorted(expected.keys() & actual.keys())
            if expected[name] != actual[name]]


def determinism_drift(cases, previous=None):
    """Checks that every case's counters repeat exactly: across the passes
    of this run and against `previous` ({key: counters} of earlier runs of
    the same binary). Returns (drift messages, {key: counters} merged)."""
    expected = {key: dict(c) for key, c in (previous or {}).items()}
    drift = []
    for c in cases:
        ref = expected.setdefault(c["key"], {})
        drift += counter_drift(ref, c["counters"],
                               "%s (pass %d)" % (c["key"], c["pass"]))
        for name, value in c["counters"].items():
            ref.setdefault(name, value)
    return drift, expected
