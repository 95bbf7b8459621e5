#!/usr/bin/env python3
"""DeepGate end-to-end benchmark runner (see benchmark/README.md).

One run of one workload, the form BENCHMARK.json names:

    python3 benchmark/run.py --workload serve_subcircuits --seed 1 --seconds 20 --trace 0

prints every metric as `name value unit (n=...)` and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.

A suite of runs, every workload in its own process per run:

    python3 benchmark/run.py --runs 5 --out results.json      # untraced
    python3 benchmark/run.py --traced                          # once each, traced

writes one results JSON (benchmark/compare.py reads two of them).

The runner builds benchmark/ (CMake, Release) into .bench_build/, pins the
environment (ENV below) and removes every other DEEPGATE_* variable, runs
every workload process with address-space randomization off, and exits
non-zero on any correctness failure (and a --traced suite also when a
workload's attribution does not close).
"""

import argparse
import ctypes
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout clean of __pycache__
import metrics  # noqa: E402  (benchmark/metrics.py)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 160  # one workload process; a whole run must end within 180 s

# The environment of every workload process. glibc's default dynamic mmap
# and trim thresholds hand a freed set-up's pages back to the OS, and
# repeated set-ups in one process then alternate between two speeds about
# 40% apart; fixed thresholds keep them steady.
ENV = {
    "DEEPGATE_THREADS": "2",
    "DEEPGATE_SERVE_LANES": "2",
    "DEEPGATE_METRICS": "on",
    "DEEPGATE_TRACE": "off",
    "DEEPGATE_SIMD": "native",
    "DEEPGATE_PRECISION": "fp32",
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824"
                      ":glibc.malloc.top_pad=67108864",
}
# A traced run's ring holds every event its traced phases record.
TRACED_ENV = {"DEEPGATE_TRACE_BUF": "1048576"}

# Address-space layout randomization gives every process its own heap and
# mmap addresses, and with them its own cache-set conflicts: the repeated
# set-ups of one process settle near one speed and those of the next process
# near another (README.md, "Noise"). Workload processes run with a fixed
# layout (Linux personality(2)); where that is refused they run randomized.
ADDR_NO_RANDOMIZE = 0x0040000
_LIBC = ctypes.CDLL(None, use_errno=True) if sys.platform.startswith("linux") else None


def fixed_layout():
    """preexec_fn of a workload process: keep its persona, add ADDR_NO_RANDOMIZE."""
    if _LIBC is not None:
        persona = _LIBC.personality(0xFFFFFFFF)  # 0xffffffff queries without changing
        if persona != -1:
            _LIBC.personality(persona | ADDR_NO_RANDOMIZE)


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure once, then build the driver; an up-to-date build is a no-op."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT}: the benchmark builds the repository it sits in")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "deepgate_bench",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD_DIR / "deepgate_bench"


def bench_env(traced):
    env = {k: v for k, v in os.environ.items() if not k.startswith("DEEPGATE_")}
    env.update(ENV)
    if traced:
        env.update(TRACED_ENV)
    return env


def run_workload(binary, workload, seed, seconds, traced):
    """One workload in its own process; returns (raw, trace events)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    trace_dir = OUT_DIR / "trace" / f"{workload}-seed{seed}"
    if traced:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, env=bench_env(traced), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: deepgate_bench did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload}: deepgate_bench exited with {proc.returncode}")
    raw_text = proc.stdout.strip().splitlines()[-1]
    raw = json.loads(raw_text)
    raw_path = OUT_DIR / "raw" / f"{workload}-seed{seed}{'-traced' if traced else ''}.json"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    raw_path.write_text(raw_text + "\n")
    events = []
    if traced and (trace_dir / "trace_events.json").is_file():
        events = load_json(trace_dir / "trace_events.json")["events"]
    return raw, events


def measure(binary, spec, workload, seed, seconds, traced):
    """Run once and reduce. Returns the result line, the lines to print
    (`name value unit (n=...)` first), whether the traced run's attribution
    closed, and the raw output."""
    raw, events = run_workload(binary, workload, seed, seconds, traced)
    errors = list(raw["checks"]["errors"])
    failed = int(raw["failed"])
    lines = []
    values = {}
    closed = True
    if traced:
        layer, attribution = metrics.per_layer(raw, events)
        for m in spec["per_layer"]:
            value, n = layer.get(m["name"], (0.0, 0))
            values[m["name"]] = value
            if n:  # a layer this workload never enters reads 0; not worth a line
                lines.append(f"{m['name']} {value:.6g} {m['unit']} (n={n})")
        # Attribution is a property of the measurement, not of the program's
        # outputs: a gap is reported (and fails a --traced suite) but does not
        # mark the run incorrect.
        for ok, message in attribution:
            lines.append(f"attribution {'closes' if ok else 'DOES NOT CLOSE'}: {message}")
            closed = closed and ok
    else:
        e2e = metrics.end_to_end(raw)
        for m in spec["end_to_end"]:
            value, n, note = e2e[m["name"]]
            values[m["name"]] = value
            lines.append(f"{m['name']} {value:.6g} {m['unit']} (n={n})  [{note}]")
        if workload == "serve_subcircuits":
            for name, (value, n) in metrics.serve_detail(raw).items():
                lines.append(f"{name} {value:.6g} ms (n={n})")
    attempted = max(int(raw["attempted"]), 1)
    lines.append(f"fail_share {failed / attempted:.6g} share (n={attempted})")
    lines += [f"ERROR {message}" for message in errors]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    result = {
        "correct": raw["checks"]["failed"] == 0 and failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    return result, lines, closed, raw


def print_lines(workload, seed, lines):
    for line in lines:
        print(f"{workload} seed={seed} {line}")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def summarize(spec, values_by_name):
    summary = {}
    for m in spec["end_to_end"]:
        values = values_by_name.get(m["name"], [])
        if not values:
            continue
        q1, mid, q3 = metrics.quartiles(values)
        summary[m["name"]] = {"median": mid, "q1": q1, "q3": q3, "spread": metrics.spread(values),
                              "unit": m["unit"], "better": m["better"], "n": len(values)}
    return summary


def run_suite(args, binary, spec):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = 1 if args.traced else args.runs
    results = {"commit": git_commit(), "seconds": args.seconds, "traced": args.traced,
               "seeds": [args.seed_base + r for r in range(runs)], "workloads": {}}
    all_ok = True
    for r in range(runs):
        seed = args.seed_base + r
        for workload in workloads:
            started = time.monotonic()
            result, lines, closed, raw = measure(binary, spec, workload, seed, args.seconds,
                                                 args.traced)
            print_lines(workload, seed, lines)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"wall={time.monotonic() - started:.1f}s", flush=True)
            all_ok = all_ok and result["correct"] and closed
            results["machine"] = dict(raw["machine"], python=sys.version.split()[0])
            entry = results["workloads"].setdefault(workload, {"runs": []})
            entry["runs"].append({"seed": seed, "correct": result["correct"],
                                  "attempted": result["attempted"], "failed": result["failed"],
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
    for workload, entry in results["workloads"].items() if runs > 1 else ():
        by_name = {}
        for run in entry["runs"]:
            for name, value in run["metrics"].items():
                by_name.setdefault(name, []).append(value)
        entry["summary"] = summarize(spec, by_name)
        for name, s in entry["summary"].items():
            print(f"{workload} summary {name} median {s['median']:.6g} {s['unit']} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.1%} (n={s['n']})")
    out = pathlib.Path(args.out) if args.out else OUT_DIR / ("traced.json" if args.traced else "results.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"results: {out}")
    return 0 if all_ok else 1


def main():
    spec = load_json(ROOT / "BENCHMARK.json")
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run this workload once (the BENCHMARK.json form)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=5, help="suite: runs per workload")
    ap.add_argument("--seed-base", type=int, default=1, help="suite: seed of the first run")
    ap.add_argument("--workloads", help="suite: comma-separated subset")
    ap.add_argument("--traced", action="store_true", help="suite: each workload once, traced")
    ap.add_argument("--out", help="suite: results JSON path (default .bench_out/)")
    args = ap.parse_args()

    names = {w["name"] for w in spec["workloads"]}
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {sorted(names)}")
    binary = build()
    if args.workload is None:
        return run_suite(args, binary, spec)
    result, lines, _, _ = measure(binary, spec, args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print_lines(args.workload, args.seed, lines)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
