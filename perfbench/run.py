#!/usr/bin/env python3
"""End-to-end benchmark of ffc: the gateway daemon over its socket,
`exp all`, and a 10^5-flow desim run, with per-layer self time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of an ffc source tree.  The script builds `ffc` and the
workload runner (perfbench/perfbench.ml) with dune, runs one workload, checks
its outputs, prints every metric by name and unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (measured with tracing off); with --trace 1
the workload runs once untraced and once traced, and the metrics are the
per-layer ones.  README.md defines every workload and metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("gateway-calm", "gateway-surge", "repro-all", "desim-1e5")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
JOBS = 2  # ffc serve --jobs, run_all ~jobs, desim shards and jobs
RUN_DIR = ".perfbench_run"
SETUP_PROBES = 15
FFC = os.path.join("_build", "default", "bin", "ffc_cli.exe")
RUNNER = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SOURCES = ("dune-project", "bin/ffc_cli.ml", "lib", "perfbench/perfbench.ml", "perfbench/dune")
PARTS_TOLERANCE = 0.05

END_TO_END = {
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

EXPERIMENTS = ["E%d" % i for i in range(1, 28)]
PER_LAYER = dict(
    [
        ("server.overhead_ms", "ms"),
        ("protocol.parse_us", "us"),
        ("admission.self_ms", "ms"),
        ("admission.alloc_kw", "kword"),
        ("steady_state.self_ms", "ms"),
        ("steady_state.updates", "count"),
        ("jacobian.self_ms", "ms"),
        ("jacobian.alloc_kw", "kword"),
        ("jacobian.builds", "count"),
        ("jacobian.updates", "count"),
        ("controller.partial_steps", "count"),
        ("sparsity.self_ms", "ms"),
        ("eigen.self_ms", "ms"),
        ("eigen.rho_structural", "count"),
        ("eigen.rho_power", "count"),
        ("eigen.rho_fallback", "count"),
        ("eigen.structural_frac", "ratio"),
        ("pool.efficiency", "ratio"),
        ("pool.critical_path_s", "s"),
    ]
    + [("experiments.%s_s" % e, "s") for e in EXPERIMENTS]
    + [
        ("jacobian.self_s", "s"),
        ("eigen.self_s", "s"),
        ("steady_state.self_s", "s"),
        ("desim.self_s", "s"),
        ("desim.loop_s", "s"),
        ("desim.ns_per_event", "ns"),
        ("desim.shard_imbalance", "ratio"),
        ("desim.setup_merge_s", "s"),
        ("desim.alloc_kw", "kword"),
        ("topology.build_s", "s"),
        ("other.self_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("layers.sum_error", "ratio"),
    ]
)

# Exact counts of the traffic a workload puts through a layer (and the
# admitted share they imply).  The workload fixes them, so a change means
# different work, not better or worse work: the traced run prints them,
# but they are not per-layer metrics of BENCHMARK.json, which need a
# direction.
WORK_COUNTS = {
    "admission.served_full": "count",
    "admission.served_incremental": "count",
    "admission.served_cached": "count",
    "admission.served_shed": "count",
    "admission.degrades": "count",
    "admission.admit_frac": "ratio",
    "pool.tasks": "count",
    "controller.steps": "count",
    "controller.runs": "count",
    "injector.steps": "count",
    "desim.events": "count",
    "desim.injections": "count",
    "desim.deliveries": "count",
    "desim.drops": "count",
    "desim.components": "count",
}


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def p99(sorted_values):
    """Nearest-rank 99th percentile of an ascending list, or NaN unless at
    least 10 samples lie beyond it."""
    i = -(-99 * len(sorted_values) // 100) - 1
    return sorted_values[i] if len(sorted_values) - 1 - i >= 10 else float("nan")


# --------------------------------------------------------------------------
# Build and run environment
# --------------------------------------------------------------------------


def dune():
    return [shutil.which("dune")] if shutil.which("dune") else ["opam", "exec", "--", "dune"]


def build():
    cmd = dune() + ["build", "--root", ".", "./bin/ffc_cli.exe", "./perfbench/perfbench.exe"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail("build failed", 3)


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is inside user)
    return sum(fields[:8]), fields[7]


def command_output(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def source_digest():
    """A digest of the sources the benchmark builds and runs."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for path in sorted(paths):
            if path.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment():
    ocaml = command_output(["ocamlfind", "ocamlopt", "-version"]) or command_output(["ocaml", "-vnum"])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "jobs": JOBS,
        "shards": JOBS,
        "ocaml": ocaml or "unknown",
        "commit": (command_output(["git", "rev-parse", "--short=12", "HEAD"]) if os.path.isdir(".git") else "")
        or "none (not a git checkout)",
        "sources": source_digest(),
    }


# --------------------------------------------------------------------------
# Span traces: self time from start/end nesting
# --------------------------------------------------------------------------


class Span:
    __slots__ = ("name", "id", "wall", "alloc", "children")

    def __init__(self, name, ident):
        self.name, self.id = name, ident
        self.wall, self.alloc, self.children = None, 0, []


def span_forest(lines):
    """Rebuilds span trees from the order of start/end events.

    Pool tasks capture their trace and restart span ids at "0", and the
    captures are flushed in task order at the join, so ids collide between
    tasks.  Nesting is therefore taken from the event sequence (an end
    closes the innermost open span with its name and id), never from ids.
    Returns (roots, number of spans that never ended)."""
    roots, stack, abandoned = [], [], 0
    for line in lines:
        if not line.startswith('{"ev":"span.'):
            continue
        ev = json.loads(line)
        if ev["ev"] == "span.start":
            node = Span(ev["name"], ev["id"])
            (stack[-1].children if stack else roots).append(node)
            stack.append(node)
        elif ev["ev"] == "span.end":
            for k in range(len(stack) - 1, -1, -1):
                if stack[k].name == ev["name"] and stack[k].id == ev["id"]:
                    node = stack[k]
                    abandoned += len(stack) - k - 1
                    del stack[k:]
                    break
            else:
                raise ValueError("span.end without a matching start: " + line)
            node.wall = ev["wall_ns"] / 1e9
            node.alloc = ev["alloc_w"]
    return roots, abandoned + len(stack)


def layer_of(name):
    if name in ("svc.request", "svc.batch"):
        return "admission"
    if name == "sparsity.probe":
        return "sparsity"
    for prefix, layer in (("steady.", "steady_state"), ("jac.", "jacobian"), ("eigen.", "eigen"),
                          ("cache.", "cache"), ("desim.", "desim")):
        if name.startswith(prefix):
            return layer
    return "other"  # the benchmark's own spans: time outside every program span


def attribute(roots, self_s=None, self_alloc=None):
    """Adds each span's self time (its wall minus its children's) to its layer.

    Children that ran in parallel on pool domains can sum to more than
    their parent's wall; the parent's self time is then 0 and each child
    keeps its own.  A layer's total is therefore domain-seconds: the time
    some domain spent in that layer's own code."""
    self_s = {} if self_s is None else self_s
    self_alloc = {} if self_alloc is None else self_alloc
    for node in roots:
        wall = node.wall or 0.0
        layer = layer_of(node.name)
        self_s[layer] = self_s.get(layer, 0.0) + max(0.0, wall - sum(c.wall or 0.0 for c in node.children))
        alloc = node.alloc - sum(c.alloc for c in node.children)
        self_alloc[layer] = self_alloc.get(layer, 0) + max(0, alloc)
        attribute(node.children, self_s, self_alloc)
    return self_s, self_alloc


def walk(roots):
    for node in roots:
        yield node
        yield from walk(node.children)


def read_trace(path):
    with open(path) as f:
        return span_forest(f)


def self_test():
    """Two pool tasks whose span ids collide ("0" and "0.0" in both), flushed
    under one benchmark span; then the same tasks run in parallel."""
    def trace(outer_ns):
        ev = lambda kind, ident, name, ns=0: json.dumps(
            dict([("ev", "span." + kind), ("id", ident), ("name", name), ("lc", 0)]
                 + ([("wall_ns", ns), ("alloc_w", ns // 1000)] if kind == "end" else [])),
            separators=(",", ":"))
        return [
            ev("start", "0", "bench.run_all"),
            ev("start", "0", "jac.sparse"), ev("start", "0.0", "eigen.spectrum.sparse"),
            ev("end", "0.0", "eigen.spectrum.sparse", 2_000_000), ev("end", "0", "jac.sparse", 5_000_000),
            ev("start", "0", "jac.sparse"), ev("start", "0.0", "steady.fair"),
            ev("end", "0.0", "steady.fair", 1_000_000), ev("end", "0", "jac.sparse", 4_000_000),
            ev("end", "0", "bench.run_all", outer_ns),
        ]

    roots, abandoned = span_forest(trace(10_000_000))
    got = {k: round(v * 1e3, 9) for k, v in attribute(roots)[0].items()}
    want = {"other": 1.0, "jacobian": 6.0, "eigen": 2.0, "steady_state": 1.0}
    if abandoned or len(roots) != 1 or len(roots[0].children) != 2 or got != want:
        fail("self-test: sequential tasks: got %s, want %s" % (got, want), 4)
    roots, _ = span_forest(trace(6_000_000))
    got = {k: round(v * 1e3, 9) for k, v in attribute(roots)[0].items()}
    want = dict(want, other=0.0)
    if got != want:
        fail("self-test: parallel tasks: got %s, want %s" % (got, want), 4)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


def run_runner(args, timeout=170):
    # Its own process group, so that a timeout or a signal to this script
    # also stops any daemon the runner spawned.
    p = subprocess.Popen([RUNNER] + [str(a) for a in args], stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("workload runner timed out", 5)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
    if p.returncode != 0 or not out.strip():
        fail("workload runner exited with %d" % p.returncode, 5)
    return json.loads(out.strip().splitlines()[-1])


def counter(metrics, name):
    for m in metrics:
        if m.get("name") == name:
            return m.get("value", 0)
    return 0


def counters_from(metrics):
    c = lambda n: counter(metrics, n)
    rho = [c("jac.rho.structural"), c("jac.rho.power"), c("jac.rho.fallback")]
    return {
        "steady_state.updates": c("ss.update.incremental"),
        "jacobian.builds": c("jac.build.sparse") + c("jac.build.dense"),
        "jacobian.updates": c("jac.update.incremental"),
        "controller.partial_steps": c("controller.partial_steps"),
        "eigen.rho_structural": rho[0],
        "eigen.rho_power": rho[1],
        "eigen.rho_fallback": rho[2],
        "eigen.structural_frac": rho[0] / sum(rho) if sum(rho) else 0.0,
        "pool.tasks": c("pool.tasks"),
        "controller.steps": c("controller.steps"),
        "controller.runs": c("controller.runs"),
        "injector.steps": c("injector.steps"),
    }


def gateway(args, run_dir):
    raw = run_runner(["gateway", args.workload, args.seed, args.seconds, args.trace,
                      os.path.abspath(FFC), run_dir])
    streams = raw["streams"]
    timed = [s["pass"] for s in streams]
    passes = timed + ([raw["traced"]] if "traced" in raw else [])
    attempted = raw["probe_attempted"] + sum(p["attempted"] for p in passes)
    failed = raw["probe_failed"] + sum(p["failed"] for p in passes)
    for p in passes:
        if p["mismatches"]:
            print("reply mismatch (got, expected): %s" % p["mismatches"][:2], file=sys.stderr)
    stats = [json.loads(p["extra"][0]) for p in passes]
    served = lambda s: {k: v for k, v in s.items() if k.startswith("served_") or k in
                        ("admits", "rejects", "sheds", "removes", "queries", "degrades", "mutations")}
    # Every pass must answer the same per-op/tier/decision counts and the
    # same post-stream `stats` reply as the in-process replay.
    consistent = all(s["pass"]["counts"] == s["expected_counts"]
                     and s["pass"]["extra"][0] == s["expected_stats"] for s in streams)
    if "traced" in raw:
        consistent = consistent and raw["traced"]["counts"] == streams[0]["expected_counts"] \
            and raw["traced"]["extra"][0] == streams[0]["expected_stats"]
    counts = [{"seed": s["seed"], "replies": s["expected_counts"], "stats": served(st), "requests": s["requests"],
               "arrivals": s["arrivals"], "departures": s["departures"], "queries": s["queries"]}
              for s, st in zip(streams, stats)]
    lat = sorted(raw["latency_ms"])
    result = {"attempted": attempted, "failed": failed, "consistent": consistent, "counts": counts}
    window = sum(p["window_s"] for p in timed)
    tick = os.sysconf("SC_CLK_TCK")
    result["e2e"] = {
        "throughput_per_s": sum(p["requests"] for p in timed) / window,
        "p50_ms": statistics.median(lat),
        "setup_s": statistics.median(raw["setup_probes_s"] + [p["setup_s"] for p in timed]),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in timed) / 1024,
    }
    result["extra"] = [
        ("req_per_s", result["e2e"]["throughput_per_s"], "1/s"),
        ("p99_ms", p99(lat), "ms"),
        ("latency_samples", len(lat), "count"),
        ("streams", len(timed), "count"),
        ("daemon_cpu_ms_per_req", sum(p["cpu_ticks"] for p in timed) / tick * 1e3
         / sum(p["attempted"] for p in timed), "ms"),
    ]
    if "traced" in raw:
        result["layers"] = gateway_layers(args.workload, raw, streams[0], stats[-1])
    return result


def sum_check(parts, whole, unit="s"):
    return ("reported layers sum to the whole", "%.4f %s of %.4f %s" % (parts, unit, whole, unit),
            abs(parts - whole) <= PARTS_TOLERANCE * whole)


def gateway_layers(workload, raw, stream, stats):
    t = raw["traced"]
    roots, abandoned = read_trace(raw["trace_file"])
    n_units, requests = stream["units"], stream["requests"]
    svc = [r for r in roots if r.name in ("svc.request", "svc.batch")]
    if len(svc) < n_units:
        raise ValueError("trace has %d request spans for %d stream units" % (len(svc), n_units))
    spans = svc[:n_units]
    self_s, self_alloc = attribute(spans)
    daemon_s = sum(r.wall for r in spans)
    whole = t["unit_total_s"]
    overhead = whole - daemon_s
    per_req = lambda x: x * 1e3 / requests
    metrics = json.loads(t["extra"][1])["metrics"]
    layers = {
        "server.overhead_ms": per_req(overhead),
        "protocol.parse_us": raw["parse_us"],
        "admission.self_ms": per_req(self_s.get("admission", 0.0)),
        "admission.alloc_kw": self_alloc.get("admission", 0) / 1e3 / requests,
        "admission.served_full": stats["served_full"],
        "admission.served_incremental": stats["served_incremental"],
        "admission.served_cached": stats["served_cached"],
        "admission.served_shed": stats["served_shed"],
        "admission.admit_frac": stats["admits"] / max(1, stats["admits"] + stats["rejects"] + stats["sheds"]),
        "admission.degrades": stats["degrades"],
        "steady_state.self_ms": per_req(self_s.get("steady_state", 0.0)),
        "jacobian.self_ms": per_req(self_s.get("jacobian", 0.0)),
        "jacobian.alloc_kw": self_alloc.get("jacobian", 0) / 1e3 / requests,
        "sparsity.self_ms": per_req(self_s.get("sparsity", 0.0)),
        "eigen.self_ms": per_req(self_s.get("eigen", 0.0)),
        "jacobian.self_s": self_s.get("jacobian", 0.0),
        "eigen.self_s": self_s.get("eigen", 0.0),
        "steady_state.self_s": self_s.get("steady_state", 0.0),
    }
    layers.update(counters_from(metrics))
    untraced = stream["pass"]["unit_total_s"]
    # The server overhead is the client time outside the daemon's request
    # spans, so the sum checks that no span inside them falls in a layer
    # the benchmark does not report (the result cache, say).
    parts = sum(layers[k] for k in ("server.overhead_ms", "admission.self_ms", "steady_state.self_ms",
                                    "jacobian.self_ms", "sparsity.self_ms", "eigen.self_ms")) * requests / 1e3
    layers["other.self_s"] = whole - parts
    layers["trace.overhead_frac"] = (whole - untraced) / untraced
    layers["layers.sum_error"] = abs(parts - whole) / whole
    checks = [sum_check(parts, whole), ("spans never ended", str(abandoned), abandoned == 0)]
    if workload == "gateway-calm":
        share = (self_s.get("jacobian", 0.0) + self_s.get("eigen", 0.0)) / daemon_s
        checks.append(("jacobian+eigen share of daemon time >= 0.75", "%.3f" % share, share >= 0.75))
    else:
        served = sum(stats[k] for k in ("served_full", "served_incremental", "served_cached", "served_shed"))
        share = stats["served_full"] / max(1, served)
        checks.append(("full-tier share of requests < 0.10", "%.3f" % share, share < 0.10))
    return layers, checks


def exp_list_s():
    t0 = time.perf_counter()
    subprocess.run([FFC, "exp", "list"], stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def repro(args, run_dir):
    # Process start-up, timed before and after run_all, so that the median
    # samples the host at two moments of the run.
    setup = [exp_list_s() for _ in range(SETUP_PROBES // 2)]
    # The run_one renders of these sources, kept across runs (see README).
    renders = os.path.join(RUN_DIR, "renders-%s.txt" % source_digest())
    raw = run_runner(["repro", args.trace, run_dir, renders])
    setup += [exp_list_s() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    exps = raw["experiments"]
    result = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "consistent": len(exps) == len(EXPERIMENTS) and raw.get("traced_identical", True) is True,
        "counts": {
            "digests": {e["id"]: e["digest"] for e in exps},
            "controller.steps": raw["controller_steps"],
        },
    }
    result["e2e"] = {
        "throughput_per_s": len(exps) / raw["wall_s"],
        "p50_ms": raw["wall_s"] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["rss_kb"] / 1024,
    }
    result["extra"] = [("wall_s", raw["wall_s"], "s"), ("cpu_s", raw["cpu_s"], "s"),
                       ("experiments", len(exps), "count"),
                       ("reference_renders", raw["renders"], "")]
    if args.trace:
        times = sorted(e["s"] for e in exps)
        roots, abandoned = read_trace(raw["trace_file"])
        self_s, _ = attribute(roots)
        layers = {"experiments.%s_s" % e["id"]: e["s"] for e in exps}
        layers.update(counters_from(raw["trace_metrics"]))
        layers.update({
            "pool.efficiency": raw["cpu_s"] / (JOBS * raw["wall_s"]),
            "pool.critical_path_s": times[-1],
            "jacobian.self_s": self_s.get("jacobian", 0.0),
            "eigen.self_s": self_s.get("eigen", 0.0),
            "steady_state.self_s": self_s.get("steady_state", 0.0),
            "desim.self_s": self_s.get("desim", 0.0),
            "trace.overhead_frac": (raw["traced_wall_s"] - raw["warm_wall_s"]) / raw["warm_wall_s"],
        })
        # Self times are domain-seconds, so the whole is the pinned pool's
        # capacity over the traced run_all.  Most experiment code runs
        # outside every span, so the reported layers explain only part of
        # it; the rest is other.self_s, and the 5% check is not gated here.
        whole = JOBS * raw["traced_wall_s"]
        parts = sum(layers[k] for k in ("jacobian.self_s", "eigen.self_s", "steady_state.self_s", "desim.self_s"))
        layers["other.self_s"] = whole - parts
        layers["layers.sum_error"] = abs(parts - whole) / whole
        name, value, _ = sum_check(parts, whole, "domain-s")
        checks = [("spans never ended", str(abandoned), abandoned == 0),
                  (name + " (not gated on repro-all, see README)", value, None)]
        result["layers"] = (layers, checks)
    return result


def desim(args, run_dir):
    raw = run_runner(["desim", args.seed, args.seconds, args.trace, run_dir])
    passes = raw["passes"]
    fingerprint = lambda p: {k: p[k] for k in ("events", "deliveries", "drops", "components", "delay_digest")}
    ref = raw["reference"]
    shard_invariant = all(fingerprint(p) == ref for p in passes)
    result = {
        "attempted": len(passes),
        "failed": 0 if shard_invariant else len(passes),
        "consistent": all(fingerprint(p) == fingerprint(passes[0]) for p in passes),
        "counts": fingerprint(passes[0]),
    }
    result["e2e"] = {
        "throughput_per_s": statistics.median(p["events"] / p["wall_s"] for p in passes),
        "p50_ms": statistics.median(p["wall_s"] for p in passes) * 1e3,
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": raw["rss_kb"] / 1024,
    }
    result["extra"] = [("events_per_s", result["e2e"]["throughput_per_s"], "1/s"),
                       ("netsim_wall_s", result["e2e"]["p50_ms"] / 1e3, "s"),
                       ("netsim_cpu_s", statistics.median(p["cpu_s"] for p in passes), "s"),
                       ("passes", len(passes), "count")]
    if args.trace:
        t = raw["traced"]
        roots, abandoned = read_trace(raw["trace_file"])
        top = {r.name: r for r in roots}
        netsim = top["bench.netsim"]
        shards = [s for s in walk([netsim]) if s.name == "desim.shard"]
        longest = max(s.wall for s in shards)
        loop = sum(s.wall for s in shards)
        whole = t["setup_s"] + t["wall_s"]
        untraced = passes[-1]["setup_s"] + passes[-1]["wall_s"]
        layers = counters_from(raw["trace_metrics"])
        layers.update({
            "desim.loop_s": longest,
            "desim.ns_per_event": loop * 1e9 / t["events"],
            "desim.shard_imbalance": longest / (loop / len(shards)),
            "desim.setup_merge_s": netsim.wall - longest,
            "desim.alloc_kw": sum(s.alloc for s in shards) / 1e3,
            "desim.events": counter(raw["trace_metrics"], "desim.events"),
            "desim.injections": counter(raw["trace_metrics"], "desim.injections"),
            "desim.deliveries": counter(raw["trace_metrics"], "desim.deliveries"),
            "desim.drops": counter(raw["trace_metrics"], "desim.drops"),
            "desim.components": t["components"],
            "topology.build_s": top["bench.topology"].wall,
            "pool.efficiency": passes[-1]["cpu_s"] / (JOBS * passes[-1]["wall_s"]),
            "trace.overhead_frac": (whole - untraced) / untraced,
        })
        # The set-up and merge time is the Netsim.run wall outside its longest
        # shard, so the sum checks the benchmark's clock against the spans'.
        parts = layers["topology.build_s"] + layers["desim.loop_s"] + layers["desim.setup_merge_s"]
        layers["other.self_s"] = whole - parts
        layers["layers.sum_error"] = abs(parts - whole) / whole
        checks = [
            sum_check(parts, whole),
            ("spans never ended", str(abandoned), abandoned == 0),
            ("traced counters match the result", str(layers["desim.events"]), layers["desim.events"] == t["events"]),
        ]
        result["layers"] = (layers, checks)
    return result


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def check_counts(workload, seed, sources, counts):
    """Two runs of one seed on the same sources must agree on every work count.

    Gateway counts are a list with one entry per stream; a traced run
    drives only the first stream, so lists are compared on their common
    prefix and the longest one is kept."""
    path = os.path.join(RUN_DIR, "counts", "%s-%s-seed%d.json" % (workload, sources, seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    new = counts if isinstance(counts, list) else [counts]
    old = []
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
    n = min(len(old), len(new))
    if old[:n] != new[:n]:
        return False
    if len(new) > len(old):
        with open(path, "w") as f:
            json.dump(new, f, sort_keys=True)
    return True


def run_all_workloads(args):
    bad = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, sys.argv[0], "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(p.stdout)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                bad.append("%s --trace %d" % (workload, trace))
    print("all workloads: " + ("ok" if not bad else "FAILED: " + ", ".join(bad)))
    sys.exit(1 if bad else 0)


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all: every workload untraced and then traced")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    self_test()
    if args.self_test:
        print("self-test ok")
        return
    if args.workload is None:
        ap.error("--workload is required")
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("not the root of an ffc source tree (missing %s)" % ", ".join(missing))
    if args.workload == "all":
        run_all_workloads(args)
        return
    build()
    run_dir = os.path.join(RUN_DIR, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    env = environment()
    total0, steal0 = cpu_times()
    runner = {"repro-all": repro, "desim-1e5": desim}.get(args.workload, gateway)
    result = runner(args, run_dir)
    total1, steal1 = cpu_times()
    env["steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)
    shutil.rmtree(run_dir, ignore_errors=True)

    same_counts = check_counts(args.workload, args.seed, env["sources"], result["counts"])
    correct = result["failed"] == 0 and result["consistent"] and same_counts
    print("workload %s  seed %d  seconds %d  trace %d" % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    print("work " + json.dumps(result["counts"], sort_keys=True))
    print("check outputs: attempted=%d failed=%d fail_frac=%.6g passes-agree=%s seed-counts-agree=%s"
          % (result["attempted"], result["failed"], result["failed"] / result["attempted"],
             result["consistent"], same_counts))
    if args.trace:
        layers, checks = result["layers"]
        for name, value, ok in checks:
            correct = correct and ok is not False
            print("check %s: %s%s" % (name, value, "" if ok is None else (" ok" if ok else " FAILED")))
        print("work counts (exact; printed, not per-layer metrics):")
        for name, unit in WORK_COUNTS.items():
            print("  %-28s %14s %s" % (name, fmt(layers.get(name, 0)), unit))
        metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        for name, value, unit in result["extra"]:
            print("  %-28s %14s %s" % (name, fmt(value), unit))
        metrics = {k: {"value": result["e2e"][k], "unit": u} for k, u in END_TO_END.items()}
    for name, m in metrics.items():
        print("  %-28s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    with open(os.path.join(RUN_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                            "trace": args.trace, "time": time.time(), "env": env, "correct": correct,
                            "metrics": {k: m["value"] for k, m in metrics.items()}}) + "\n")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
