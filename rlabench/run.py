#!/usr/bin/env python3
"""The repo benchmark: build the library and the rlabench driver from
source, run one workload, check its results and print every metric.

    python3 rlabench/run.py --workload square_std --seed 1 --seconds 30 --trace 0
    python3 rlabench/run.py --selftest

Run it from the repository root. The build goes to .bench_build/. Each run
prints one line per metric (name, value, unit), a host fingerprint, and as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The full sheet, with the fingerprint
and the notes, is also written to .bench_build/results/.
rlabench/METRICS.md defines every metric.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rlabench")
RUN_TIMEOUT_S = 170
# Runnable and self-tested, but not in BENCHMARK.json: its latencies spread
# beyond the largest allowed bound on a shared host (see METRICS.md).
EXTRA_WORKLOADS = ["served_mixed"]


def fail(msg, code=1):
    print(f"rlabench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally. Serialized by a lock file
    so concurrent runs in one checkout do not race on the build tree."""
    for need in ("CMakeLists.txt", os.path.join("src", "core", "gemm.hpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"library sources not found ({need} is missing under {ROOT})", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "rlabench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def fingerprint(sheet):
    """CPU model, nproc, caches, governor, PMU availability."""
    model, flags = platform.processor() or "unknown", set()
    for line in (read("/proc/cpuinfo") or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            model = value.strip()
        elif key.strip() == "flags":
            flags = set(value.split())
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind, size = (read(os.path.join(base, entry, f)) for f in ("level", "type", "size"))
        if level and size:
            caches.append(f"L{level}{'' if kind == 'Unified' else kind[0].lower()} {size}")
    governor = read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") or "unreadable"
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "threads_used": sheet.get("threads"),
        "caches": ", ".join(caches) or "unreadable",
        "governor": governor,
        "pmu": sheet.get("pmu", "unknown"),
        "isa": " ".join(f for f in ("avx2", "fma", "avx512f") if f in flags) or "baseline",
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(workload, seed, seconds, trace, small=False, env=None, spans=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if small:
        cmd.append("--small")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    return json.loads(lines[-1])


def check_metrics(sheet, wanted):
    """Every wanted metric is present, finite, and carries its unit."""
    have = {m["name"]: m for m in sheet["metrics"]}
    problems = []
    for spec in wanted:
        m = have.get(spec["name"])
        if m is None:
            problems.append(f"missing metric {spec['name']}")
        elif m["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {m['unit']!r}, expected {spec['unit']!r}")
        elif not math.isfinite(m["value"]):
            problems.append(f"{spec['name']}: value {m['value']} is not finite")
    return problems


def print_sheet(sheet, host):
    print(f"# workload {sheet['workload']} seed {sheet['seed']} trace {int(sheet['trace'])}")
    print("# host: " + "; ".join(f"{k}={v}" for k, v in host.items()))
    for note in sheet["notes"]:
        print(f"# {note}")
    for m in sheet["metrics"]:
        note = f"  ({m['note']})" if m["note"] else ""
        print(f"{m['name']} = {m['value']:.6g} {m['unit']}{note}")
    print(f"# attempted {sheet['attempted']} failed {sheet['failed']} "
          f"oracle {'ok' if sheet['oracle_ok'] else 'FAILED'}")


def run_once(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}", 2)
    build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    sheet = run_driver(args.workload, args.seed, args.seconds, args.trace,
                       spans=stem + ".spans.jsonl" if args.trace else None)
    host = fingerprint(sheet)
    print_sheet(sheet, host)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(sheet, wanted)
    if problems:
        fail("; ".join(problems))
    with open(stem + ".json", "w") as f:
        json.dump({"host": host, "sheet": sheet}, f, indent=1)
    have = {m["name"]: m for m in sheet["metrics"]}
    print(json.dumps({
        "correct": sheet["failed"] == 0 and sheet["oracle_ok"],
        "attempted": sheet["attempted"],
        "failed": sheet["failed"],
        "metrics": {w["name"]: {"value": have[w["name"]]["value"], "unit": w["unit"]}
                    for w in wanted},
    }))


def selftest():
    """A reduced-size pass of every workload with every metric checked, and
    one run under an injected kernel fault that the checks must catch."""
    spec = load_spec()
    build()
    wanted = spec["end_to_end"] + spec["per_layer"]
    bad = 0
    for name in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        sheet = run_driver(name, 1, 1, True, small=True)
        problems = check_metrics(sheet, wanted)
        if sheet["failed"] or not sheet["oracle_ok"]:
            problems.append(f"{sheet['failed']} of {sheet['attempted']} operations failed")
        print(f"selftest {name}: {'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
        bad += bool(problems)
    env = dict(os.environ, RLA_FAULT="kernel.corrupt:nth=1")
    sheet = run_driver(spec["workloads"][0]["name"], 1, 1, False, small=True, env=env)
    frac = {m["name"]: m["value"] for m in sheet["metrics"]}.get("fail_frac", 0.0)
    caught = frac > 0 and sheet["failed"] > 0
    print(f"selftest fault injection (RLA_FAULT=kernel.corrupt:nth=1): fail_frac = {frac:.4g} "
          f"-> {'ok, the correctness gate caught it' if caught else 'FAIL: corruption went unnoticed'}")
    bad += not caught
    print(json.dumps({"selftest": "pass" if bad == 0 else "fail", "failures": bad}))
    return 0 if bad == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        sys.exit(selftest())
    if not args.workload:
        ap.error("--workload is required")
    if not 0 < args.seconds <= 600:
        ap.error("--seconds must be in (0, 600]")
    run_once(args)


if __name__ == "__main__":
    main()
