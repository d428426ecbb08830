#!/usr/bin/env python3
"""NEPTUNE performance benchmark.

Builds the benchmark (perfbench/CMakeLists.txt, which pulls in the NEPTUNE
tree one directory up) and runs one workload:

    python3 perfbench/run.py --workload relay_max --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Every run also writes
its full result (all metrics, errors, stall dumps, environment
fingerprint) under <build dir>/results/.

Other modes:

    python3 perfbench/run.py --all [--seconds S] [--repeat N]   # every workload, one ledger
    python3 perfbench/run.py --compare old.json new.json          # deltas between results
    python3 perfbench/run.py --selftest                           # the benchmark's own tests

perfbench/README.md describes the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["relay_max", "iot_mix_tcp", "sensor_ckpt_tcp"]
RUN_TIMEOUT_S = 80  # one binary invocation; a run is at most two of them


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configure (once) and build the benchmark binaries; returns the build dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log(f"NEPTUNE sources not found next to {HERE}; cannot build")
        sys.exit(2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("cmake configure failed")
                sys.exit(2)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed")
            sys.exit(2)
    return out


def host_ticks():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:11]]
    return sum(fields), fields[7]


def cmake_cache(out, key):
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not be a git repo)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(out, steal_pct):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    try:
        ver = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
        compiler = ver.splitlines()[0] if ver else compiler
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True).stdout.strip() or "not a git checkout"
    except OSError:
        commit = "not a git checkout"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "source_sha256": source_digest(),
        "steal_pct_during_run": round(steal_pct, 3),
    }


def invoke(binary, workload, seed, seconds, trace, path):
    """Run one benchmark binary; returns its result document or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", path]
    if os.path.exists(path):
        os.remove(path)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{workload}: killed after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode != 0 or not os.path.isfile(path):
        log(f"{workload}: benchmark exited with {proc.returncode}")
        return None
    with open(path) as f:
        return json.load(f)


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def run(out, workload, seed, seconds, trace):
    """One benchmark run; returns (result line, full result document)."""
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{int(trace)}")
    total0, steal0 = host_ticks()
    base = invoke(os.path.join(out, "perfbench"), workload, seed, seconds, False, stem + ".untraced.json")
    if base is None:
        return None, None
    doc = base
    if trace:
        doc = invoke(os.path.join(out, "perfbench_traced"), workload, seed, seconds, True,
                     stem + ".traced.json")
        if doc is None:
            return None, None
        plain = base["end_to_end"]["cpu_ns_per_pkt"]["value"]
        traced = doc["end_to_end"]["cpu_ns_per_pkt"]["value"]
        overhead = 100.0 * (traced / plain - 1.0) if plain > 0 else 0.0
        doc["per_layer"]["bench.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
        doc["untraced"] = {"end_to_end": base["end_to_end"], "errors": base["errors"]}
    total1, steal1 = host_ticks()
    steal = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    doc["fingerprint"] = fingerprint(out, steal)
    kind = "per_layer" if trace else "end_to_end"
    names = metric_names(kind)
    missing = [n for n in names if n not in doc[kind]]
    if missing:
        log(f"{workload}: result lacks metrics {missing}")
        return None, None
    correct = bool(doc["correct"]) and (not trace or bool(base["correct"]))
    line = {
        "correct": correct,
        "attempted": max(1, int(doc["attempted"]) + (int(base["attempted"]) if trace else 0)),
        "failed": int(doc["failed"]) + (int(base["failed"]) if trace else 0),
        "metrics": {n: doc[kind][n] for n in names},
    }
    with open(stem + ".json", "w") as f:
        json.dump(doc, f, indent=2)
    for err in doc.get("errors", []) + (base.get("errors", []) if trace else []):
        log(f"{workload}: {err}")
    log(f"wrote {stem}.json")
    return line, doc


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def run_all(args):
    """Every workload, untraced (--repeat times) then traced once, into one ledger."""
    out = build(["perfbench", "perfbench_traced"])
    ledger = {"seconds": args.seconds, "repeat": args.repeat, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        runs = []
        for i in range(args.repeat):
            line, doc = run(out, w, args.seed + i, args.seconds, False)
            if line is None or not line["correct"]:
                ok = False
            if doc is not None:
                runs.append(doc)
        traced_line, traced = run(out, w, args.seed, args.seconds, True)
        if traced_line is None or not traced_line["correct"]:
            ok = False
        summary = {}
        for name in metric_names("end_to_end"):
            vals = [r["end_to_end"][name]["value"] for r in runs]
            if vals:
                summary[name] = {"median": statistics.median(vals), "iqr_share": quartile_spread(vals),
                                 "values": vals, "unit": runs[0]["end_to_end"][name]["unit"]}
        ledger["workloads"][w] = {
            "end_to_end": {k: {"value": v["median"], "unit": v["unit"]} for k, v in summary.items()},
            "spread": summary,
            "per_layer": traced["per_layer"] if traced else {},
            "correct": [bool(r["correct"]) for r in runs] + [bool(traced and traced["correct"])],
            "fingerprint": traced["fingerprint"] if traced else None,
        }
        print(f"{w}:")
        for name, s in summary.items():
            print(f"  {name:<18} {s['median']:>14.4f} {s['unit']:<6} iqr {100 * s['iqr_share']:.1f}%")
    path = os.path.join(out, "results", f"ledger-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump(ledger, f, indent=2)
    print(f"ledger: {path}")
    return 0 if ok else 1


def load_rows(path):
    """workload -> {metric -> (value, unit)} from a ledger or a single result file."""
    with open(path) as f:
        doc = json.load(f)
    if "workloads" in doc:
        items = doc["workloads"].items()
    else:
        items = [(doc["workload"], doc)]
    rows = {}
    for w, d in items:
        row = {}
        for kind in ("end_to_end", "per_layer"):
            for name, m in d.get(kind, {}).items():
                row[name] = (m["value"], m["unit"])
        rows[w] = row
    return rows


def compare(old_path, new_path):
    old, new = load_rows(old_path), load_rows(new_path)
    for w in sorted(set(old) & set(new)):
        print(f"{w}:")
        print(f"  {'metric':<40} {'old (base)':>14} {'new':>14} {'delta':>9}")
        for name in sorted(set(old[w]) & set(new[w])):
            (a, unit), (b, _) = old[w][name], new[w][name]
            delta = f"{100.0 * (b - a) / a:+.1f}%" if a else "n/a"
            print(f"  {name:<40} {a:>14.4f} {b:>14.4f} {delta:>9}  {unit}")
    for w in sorted(set(old) ^ set(new)):
        print(f"{w}: only in {'old' if w in old else 'new'}")
    return 0


def selftest():
    out = build(["perfbench_selftest"])
    return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest()
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload is required")
    out = build(["perfbench", "perfbench_traced"])
    line, _ = run(out, args.workload, args.seed, args.seconds, bool(args.trace))
    if line is None:
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
