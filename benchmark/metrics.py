"""Reductions from deepgate_bench's raw samples to the benchmark's metrics.

deepgate_bench prints per-request and per-operation samples; everything that
decides a number (the percentile rule, open-loop latency from due time, the
rate ladder, trace self times) lives here so benchmark/tests can check it
without a build.
"""

import math
import statistics

MIN_BEYOND = 10  # a tail percentile needs this many samples beyond it

# The tail each workload reports. ingest_netlists reports the highest
# percentile its samples support. On a shared host the highest tails of the
# other two moved by more than the metric's bound between runs of the same
# code, because every slow stretch of the host lands in them (README.md,
# "Noise"): serve_subcircuits reports the p75 of its 1,000 low-rate
# requests, and incremental_edits the p75 of its edits. eval_designs' 14 or
# 15 passes support no tail, so it reports its median.
TAIL_PERCENTILE = {"serve_subcircuits": 75, "eval_designs": None,
                   "incremental_edits": 75, "ingest_netlists": 90}

# The rate ladder's judgement of one step (calibration: README.md).
LATENCY_LIMIT_MS = 50.0
LADDER_MIN_COMPLETED_SHARE = 0.98
LADDER_MAX_LATENESS_MS = 1.0

# The traced ingest stages' p50s must sum to within this share of the p50 of
# the untraced prepare + embeddings.
INGEST_CLOSURE_TOLERANCE = 0.05


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def min_samples(q):
    """Smallest sample count whose q-th percentile has MIN_BEYOND samples beyond it."""
    n = 1
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, q):
    """Nearest-rank q-th percentile. For q > 50 the sample must hold at least
    MIN_BEYOND values beyond the percentile, so p99 needs 1,000 samples and
    p90 needs 100; smaller samples raise TooFewSamples."""
    values = sorted(samples)
    if not values:
        raise TooFewSamples("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    if q > 50 and len(values) - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples leaves {len(values) - rank} beyond it; "
            f"needs {MIN_BEYOND} ({min_samples(q)} samples)")
    return values[rank - 1]


def open_loop_latencies(due, submit, served):
    """Latency of each open-loop request measured from when it was due:
    (submit - due) + the server's own latency. A stalled generator submits
    late, and that wait is charged to every request it delayed. A failed
    request (served < 0) gets infinite latency, so it misses every limit."""
    return [(s - d) + l if l >= 0 else math.inf for d, s, l in zip(due, submit, served)]


def lateness(due, submit):
    """How late the generator submitted each request, in seconds."""
    return [s - d for d, s in zip(due, submit)]


def ladder_step(phase, limit_ms, min_completed_share, max_lateness_ms):
    """Judge one fixed-rate ladder step. It holds when the p99 latency from
    due time is within the limit, when at least `min_completed_share` of its
    requests completed within the step's own schedule (a growing backlog
    finishes after it), and when the generator's p99 lateness stays within
    `max_lateness_ms` (a late generator offered less load than the rate)."""
    due, submit, served = phase["due_s"], phase["submit_s"], phase["latency_s"]
    latencies = open_loop_latencies(due, submit, served)
    window = phase["window_s"]
    completed = sum(1 for s, l in zip(submit, served) if l >= 0 and s + l <= window)
    result = {
        "rate": phase["rate"],
        "p99_ms": percentile(latencies, 99) * 1e3,
        "completed_share": completed / len(due),
        "lateness_p99_ms": percentile(lateness(due, submit), 99) * 1e3,
    }
    result["ok"] = (result["p99_ms"] <= limit_ms
                    and result["completed_share"] >= min_completed_share
                    and result["lateness_p99_ms"] <= max_lateness_ms)
    return result


def max_rate(steps, limit_ms, min_completed_share, max_lateness_ms):
    """Highest ladder rate whose step holds; 0 when none does. A lower step
    that fails does not cap it: a generator stall fails a step without
    saying anything about the server."""
    held = [phase["rate"] for phase in steps
            if ladder_step(phase, limit_ms, min_completed_share, max_lateness_ms)["ok"]]
    return max(held, default=0.0)


def self_times(events):
    """Self time of every span: its duration minus the part of it that its
    direct child spans cover. `events` are (name, tid, start, dur, ...)
    tuples. A span's parent is the innermost span of the same thread that
    contains it. Spans that merely overlap are not nested: a serve lane
    records a request's admission span, which starts while the lane still
    runs an earlier batch's forward and ends after it. Returns a list of
    (name, start, dur, self) in start order."""
    out = []
    by_tid = {}
    for e in events:
        by_tid.setdefault(e[1], []).append(e)
    for spans in by_tid.values():
        spans.sort(key=lambda e: (e[2], -e[3]))
        running = []  # spans not yet ended, in start order: [name, start, end, covered, cursor]

        def close(frame):
            out.append((frame[0], frame[1], frame[2] - frame[1], frame[2] - frame[1] - frame[3]))

        for name, _, start, dur, *_ in spans:
            end = start + dur
            for frame in running:
                if frame[2] <= start:
                    close(frame)
            running = [f for f in running if f[2] > start]
            parents = [f for f in running if f[2] >= end]
            if parents:
                parent = parents[-1]  # the latest-starting container is the innermost
                lo = max(start, parent[4])  # children may overlap; count each instant once
                if end > lo:
                    parent[3] += end - lo
                    parent[4] = end
            running.append([name, start, end, 0, start])
        for frame in running:
            close(frame)
    out.sort(key=lambda s: s[1])
    return out


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(first quartile, median, third quartile), as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else (0.0 if q1 == q3 else math.inf)


# -- End-to-end metrics ---------------------------------------------------------------


def _throughput(closed):
    """Closed-loop completions per second, up to the last counted completion."""
    return closed["completed"] / closed["completed_s"]


def tail(samples, q):
    """Reported tail of a workload: its percentile q, taken in each run of
    consecutive samples long enough to support it, and the median of those.
    One burst of host noise then sets at most one window's value. With q None
    (too few samples for any percentile above the median to have MIN_BEYOND
    samples beyond it) the median is reported."""
    if q is None:
        return percentile(samples, 50), "p50, no tail"
    k = max(1, len(samples) // min_samples(q))
    size = len(samples) // k
    windows = [samples[i * size:(i + 1) * size if i + 1 < k else len(samples)] for i in range(k)]
    label = f"p{q:g}" if k == 1 else f"p{q:g}, median of {k} windows"
    return median([percentile(w, q) for w in windows]), label


def end_to_end(raw):
    """The end-to-end metrics of one untraced run: {name: (value, n, note)}.
    Every workload reports the same five names, each in its own terms."""
    workload = raw["workload"]
    q = TAIL_PERCENTILE[workload]
    phases = raw["phases"]
    m = {}
    if workload == "serve_subcircuits":
        closed, low = phases["closed"], phases["low"]
        low_lat = open_loop_latencies(low["due_s"], low["submit_s"], low["latency_s"])
        m["ops_per_s"] = (_throughput(closed), int(closed["completed"]),
                          "closed loop, 32 outstanding")
        m["latency_p50_ms"] = (percentile(low_lat, 50) * 1e3, len(low_lat),
                               f"open loop at {low['rate']:g} req/s, from due time")
        value, label = tail(low_lat, q)
        m["latency_tail_ms"] = (value * 1e3, len(low_lat),
                                f"{label}, open loop at {low['rate']:g} req/s, from due time")
    elif workload == "eval_designs":
        passes = phases["passes"]["pass_s"]
        m["ops_per_s"] = (len(passes) / sum(passes), len(passes), "Eq. (8) passes")
        m["latency_p50_ms"] = (percentile(passes, 50) * 1e3, len(passes), "one Eq. (8) pass")
        value, label = tail(passes, q)
        m["latency_tail_ms"] = (value * 1e3, len(passes), f"{label} pass")
    elif workload == "incremental_edits":
        edits = phases["edits"]
        lat = edits["latency_s"]
        m["ops_per_s"] = (len(lat) / edits["busy_s"], len(lat), "applied edits")
        m["latency_p50_ms"] = (percentile(lat, 50) * 1e3, len(lat), "edit + query")
        value, label = tail(lat, q)
        m["latency_tail_ms"] = (value * 1e3, len(lat), f"{label}, edit + query")
    elif workload == "ingest_netlists":
        ingest = phases["ingest"]
        lat = ingest["latency_s"]
        m["ops_per_s"] = (len(lat) / ingest["busy_s"], len(lat), "netlists")
        m["latency_p50_ms"] = (percentile(lat, 50) * 1e3, len(lat), "prepare + embeddings")
        value, label = tail(lat, q)
        m["latency_tail_ms"] = (value * 1e3, len(lat), f"{label}, prepare + embeddings")
    else:
        raise ValueError(f"unknown workload {workload}")
    m["setup_s"] = (median(raw["setup_s"]), len(raw["setup_s"]), "median of set-ups")
    m["peak_rss_mb"] = (raw["peak_rss_mb"], 1, "getrusage ru_maxrss")
    return m


def serve_detail(raw):
    """The open-loop numbers the end-to-end metrics leave out: the low
    rate's p90 and p99 and the high rate's p50, p90 and p99, {name:
    (milliseconds, n)}. They are printed, not bounded."""
    phases = raw["phases"]
    low, high = phases["low"], phases["high"]
    low_lat = open_loop_latencies(low["due_s"], low["submit_s"], low["latency_s"])
    high_lat = open_loop_latencies(high["due_s"], high["submit_s"], high["latency_s"])
    return {"lat_p90_ms.low": (tail(low_lat, 90)[0] * 1e3, len(low_lat)),
            "lat_p99_ms.low": (percentile(low_lat, 99) * 1e3, len(low_lat)),
            "lat_p50_ms.high": (percentile(high_lat, 50) * 1e3, len(high_lat)),
            "lat_p90_ms.high": (tail(high_lat, 90)[0] * 1e3, len(high_lat)),
            "lat_p99_ms.high": (percentile(high_lat, 99) * 1e3, len(high_lat))}


# -- Per-layer metrics (traced run) ----------------------------------------------------


def _share(part, whole):
    return part / whole if whole else 0.0


def _sys_share(counters):
    return _share(counters["cpu_sys_s"], counters["cpu_user_s"] + counters["cpu_sys_s"])


def _pool_utilization(counters):
    return _share(counters["pool_busy_s"], counters["pool_lanes"] * counters["wall_s"])


def per_layer(raw, events):
    """Per-layer metrics of one traced run: {name: (value, n)}. Layers the
    workload does not enter read 0. Also returns whether the per-layer
    numbers account for the end-to-end ones, as a list of (ok, message).

    Only ingest has such a check. Serve's queue wait + service = latency and
    incremental's edit + query = edit latency hold by construction: each
    pair comes from the same timestamps as its whole."""
    workload = raw["workload"]
    phases = raw["phases"]
    m = {}
    attribution = []
    spans = self_times(events)

    def spans_named(name):
        return [s for s in spans if s[0] == name]

    if workload == "serve_subcircuits":
        high, low = phases["high"], phases["low"]
        traced = [phases["closed_traced"], low, high]
        m["serve.queue_wait_ms.p50"] = (percentile(high["queue_s"], 50) * 1e3, len(high["queue_s"]))
        m["serve.queue_wait_ms.p99"] = (percentile(high["queue_s"], 99) * 1e3, len(high["queue_s"]))
        m["serve.service_ms.p50"] = (percentile(low["service_s"], 50) * 1e3, len(low["service_s"]))
        closed = phases["closed_traced"]["stats"]
        m["serve.batch_graphs.mean"] = (_share(closed["served"], closed["batches"]), int(closed["batches"]))
        m["serve.batch_nodes.mean"] = (_share(closed["nodes_served"], closed["batches"]), int(closed["batches"]))
        windows = low["stats"]["windows"]
        for reason in ("deadline", "budget", "max_graphs"):
            m[f"serve.close.{reason}_share"] = (_share(low["stats"][f"close_{reason}"], windows), int(windows))
        m["serve.lane_busy_share"] = (high["lane_busy_share"], int(high["requests"]))
        m["serve.rejected_overload"] = (sum(p["stats"]["rejected_overload"] for p in traced),
                                        sum(int(p["requests"]) for p in traced))
        late = lateness(high["due_s"], high["submit_s"])
        m["serve.gen_lateness_ms.p99"] = (percentile(late, 99) * 1e3, len(late))
        m["serve.max_rate_rps"] = (max_rate(phases["ladder"], LATENCY_LIMIT_MS,
                                            LADDER_MIN_COMPLETED_SHARE, LADDER_MAX_LATENESS_MS),
                                   len(phases["ladder"]))
        merges = [s[3] for s in spans_named("serve.merge")]
        forwards = [s[3] for s in spans_named("serve.forward")]
        m["gnn.merge_ms.per_batch"] = (_share(sum(merges), len(forwards)) * 1e-6, len(forwards))
        m["gnn.forward_ms.per_batch"] = (_share(sum(forwards), len(forwards)) * 1e-6, len(forwards))
        m["gnn.merge_share"] = (_share(sum(merges), sum(merges) + sum(forwards)), len(forwards))
        hits = sum(p["stats"]["merge_cache_hits"] for p in traced)
        lookups = hits + sum(p["stats"]["merge_cache_misses"] for p in traced)
        m["gnn.merge_cache.hit_rate"] = (_share(hits, lookups), int(lookups))
        flops = raw["graph_flops_est"]
        work = sum(flops[int(g)] for p in traced for g in p["graph"])
        m["nn.forward_gflops_est"] = (_share(work, sum(forwards) * 1e-9) * 1e-9, len(forwards))
        m["nn.arena.heap_allocs_per_op"] = (_share(high["counters"]["arena_heap_allocs"], high["requests"]),
                                            int(high["requests"]))
        m["util.pool.utilization"] = (_pool_utilization(high["counters"]), 1)
        m["util.pool.sys_cpu_share"] = (_sys_share(high["counters"]), 1)
        m["obs.trace_overhead_share"] = (
            1.0 - _share(_throughput(phases["closed_traced"]), _throughput(phases["closed"])), 2)
    elif workload == "eval_designs":
        passes = phases["passes"]
        designs = raw["designs"]
        forward = sum(d["forward_s"] for d in designs)
        steps = sum(d["level_steps"] for d in designs)
        m["gnn.level_step_us"] = (_share(forward, steps) * 1e6, len(designs))
        m["nn.forward_gflops_est"] = (_share(sum(d["flops_est"] for d in designs), forward) * 1e-9,
                                      len(designs))
        m["util.pool.utilization"] = (_pool_utilization(passes["counters"]), len(passes["pass_s"]))
        m["util.pool.straggler_share"] = (_share(max(d["forward_s"] for d in designs),
                                                 median(passes["pass_s"])), len(passes["pass_s"]))
        m["util.pool.sys_cpu_share"] = (_sys_share(passes["counters"]), 1)
        m["nn.arena.heap_allocs_per_op"] = (_share(passes["counters"]["arena_heap_allocs"],
                                                   len(passes["pass_s"])), len(passes["pass_s"]))
    elif workload == "incremental_edits":
        e = phases["edits"]
        n = len(e["latency_s"])
        m["gnn.level_step_us"] = (_share(e["forward_s"], e["level_steps"]) * 1e6, 1)
        m["nn.forward_gflops_est"] = (_share(e["flops_est"], e["forward_s"]) * 1e-9, 1)
        m["gnn.delta_edit_ms.p50"] = (percentile(e["edit_s"], 50) * 1e3, n)
        m["gnn.incremental_query_ms.p50"] = (percentile(e["query_s"], 50) * 1e3, n)
        m["gnn.incremental_query_ms.p90"] = (percentile(e["query_s"], 90) * 1e3, n)
        m["gnn.incremental_requery_ms.p50"] = (percentile(e["requery_s"], 50) * 1e3, len(e["requery_s"]))
        m["gnn.incremental.dirty_frac.mean"] = (statistics.fmean(e["dirty_frac"]), n)
        m["gnn.incremental.partial_share"] = (_share(e["partial"], n), n)
        m["gnn.incremental.memo_hit_share"] = (_share(e["memo_hits"], e["queries"]), int(e["queries"]))
        m["synth.edit_reject_share"] = (_share(e["rejected"], n + e["rejected"]), n + int(e["rejected"]))
        m["nn.arena.heap_allocs_per_op"] = (_share(e["counters"]["arena_heap_allocs"], n), n)
        m["util.pool.utilization"] = (_pool_utilization(e["counters"]), 1)
        m["util.pool.sys_cpu_share"] = (_sys_share(e["counters"]), 1)
    elif workload == "ingest_netlists":
        ingest = phases["ingest"]
        n = len(ingest["latency_s"])
        stage_sum = 0.0
        for stage in ("netlist.to_aig", "synth.optimize", "aig.to_gate_graph",
                      "sim.probabilities", "gnn.from_gate_graph", "gnn.single_forward"):
            self_ns = [s[3] for s in spans_named(stage)]
            p50 = percentile(self_ns, 50) * 1e-6
            m[f"{stage}_ms"] = (p50, len(self_ns))
            stage_sum += p50
        forwards = [s[3] * 1e-9 for s in spans_named("gnn.single_forward")]
        m["nn.forward_gflops_est"] = (_share(sum(ingest["flops_est"]), sum(forwards)) * 1e-9, n)
        m["nn.arena.heap_allocs_per_op"] = (_share(ingest["counters"]["arena_heap_allocs"], n), n)
        m["util.pool.utilization"] = (_pool_utilization(ingest["counters"]), 1)
        m["util.pool.sys_cpu_share"] = (_sys_share(ingest["counters"]), 1)
        whole = percentile(ingest["latency_s"], 50) * 1e3
        gap = abs(stage_sum - whole) / whole
        attribution.append((gap <= INGEST_CLOSURE_TOLERANCE,
                            f"ingest: stage p50s sum to {stage_sum:.2f} ms vs ingest p50 "
                            f"{whole:.2f} ms ({gap:.1%}, limit {INGEST_CLOSURE_TOLERANCE:.0%})"))
    else:
        raise ValueError(f"unknown workload {workload}")
    if "matmul_gflops" in raw:
        m["nn.matmul_gflops.thin"] = (raw["matmul_gflops"]["thin"], 1)
        m["nn.matmul_gflops.wide"] = (raw["matmul_gflops"]["wide"], 1)
    return m, attribution
