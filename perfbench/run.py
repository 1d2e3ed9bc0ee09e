#!/usr/bin/env python3
"""Repository benchmark: builds bsb-perfbench from ../src, runs one workload
and prints its metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload paper_figs --seed 1 --seconds 25 --trace 0

Run it from the repository root. --trace 0 prints the end-to-end metrics;
--trace 1 prints the per-layer metrics (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("paper_figs", "verify_sweep", "threads_bcast", "threads_ibcast")
CLASSES = ("long", "medium")  # request class 0 and 1 of every workload
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

# Span name -> per-layer metric holding its mean self time per call.
SPAN_METRICS = {
    "netsim.replay": "netsim.replay_s",
    "trace.record": "trace.record_s",
    "trace.replicate": "trace.replicate_s",
    "trace.match": "trace.match_s",
    "trace.coverage": "trace.coverage_s",
    "verify.hb": "verify.hb_s",
    "verify.rotation": "verify.rotation_s",
    "verify.bounds": "verify.bounds_s",
    "verify.case": "verify.case_self_s",
    "coll.compile_plan": "coll.compile_plan_s",
    "mpisim.bcast": "mpisim.bcast_rank_s",
    "mpisim.ibcast_start": "mpisim.ibcast_start_s",
    "mpisim.wait": "mpisim.wait_s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build bsb-perfbench; returns the binary's path."""
    src = os.path.abspath("perfbench")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={src}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured from another checkout
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", src, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "bsb-perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "bsb-perfbench")


def parse_records(text):
    rec = {"setup": [], "req": [], "count": {}, "value": {}, "check": [],
           "point": [], "span": []}
    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        kind = f[0]
        if kind == "setup":
            rec["setup"].append(float(f[1]))
        elif kind == "req":
            rec["req"].append({"cls": int(f[1]), "latency_ns": int(f[2]),
                               "work": float(f[3]), "ok": f[4] == "1",
                               "traced": f[5] == "1", "skew_ns": int(f[6])})
        elif kind == "count":
            rec["count"][f[1]] = int(f[2])
        elif kind == "value":
            rec["value"][f[1]] = float(f[2])
        elif kind == "check":
            rec["check"].append((f[1] == "1", " ".join(f[2:])))
        elif kind == "point":
            rec["point"].append((int(f[2]), int(f[3]), float(f[4]), float(f[5])))
        elif kind == "span":
            rec["span"].append((int(f[1]), int(f[2]), f[3], int(f[4]), int(f[5])))
    return rec


def class_latencies_us(reqs, cls):
    return [r["latency_ns"] / 1e3 for r in reqs if r["cls"] == cls]


def end_to_end(rec, summary):
    reqs = rec["req"]
    m = {
        "setup_s": (statistics.median(rec["setup"]), "s"),
        "peak_rss_mb": (rec["value"]["peak_rss_kb"] / 1024.0, "MB"),
        "work_per_s": (sum(r["work"] for r in reqs) * 1e9 /
                       sum(r["latency_ns"] for r in reqs), "work/s"),
        "sim_tuned_gain": (stats.sim_tuned_gain(rec["point"]), "ratio"),
    }
    for cls, name in enumerate(CLASSES):
        lat = class_latencies_us(reqs, cls)
        m[f"{name}_p50_us"] = (statistics.median(lat), "us")
        q, v = stats.reportable_percentile(lat, 0.90)
        m[f"{name}_p90_us"] = (v, "us")
        summary.append(f"{name}: n={len(lat)} p90 taken at q={q:.3f}")
    return m


def per_layer(rec, summary):
    reqs = rec["req"]
    by_name = stats.self_time_by_name(rec["span"])
    m = {metric: (by_name[name][1] / by_name[name][0] / 1e9
                  if name in by_name else 0.0, "s")
         for name, metric in SPAN_METRICS.items()}
    replay_s = by_name.get("netsim.replay", (0, 0))[1] / 1e9
    replayed = sum(r["work"] for r in reqs if r["traced"]) if replay_s else 0
    c = rec["count"]
    lookups = c.get("cache_hits", 0) + c.get("cache_misses", 0)
    traced = [r for r in reqs if r["traced"]]
    skews = [r["skew_ns"] / 1e9 for r in traced]
    ratios = []
    for cls in range(len(CLASSES)):
        on = [r["latency_ns"] for r in reqs if r["cls"] == cls and r["traced"]]
        off = [r["latency_ns"] for r in reqs if r["cls"] == cls and not r["traced"]]
        ratios.append(statistics.median(on) / statistics.median(off))
    m.update({
        "netsim.msgs_per_s": (replayed / replay_s if replay_s else 0.0, "msg/s"),
        "netsim.recomputes_per_msg": (c["sim_recomputes"] / c["sim_msgs"], "count"),
        "coll.cache_hit_ratio": (c["cache_hits"] / lookups if lookups else 0.0,
                                 "ratio"),
        "mpisim.msgs_per_bcast": (c["mpisim_msgs"] / c["mpisim_bcasts"]
                                  if c.get("mpisim_bcasts") else 0.0, "count"),
        "mpisim.barrier_skew_s": (sum(skews) / len(skews) if skews else 0.0,
                                  "s"),
        "bench.trace_overhead_ratio": (stats.geometric_mean(ratios), "ratio"),
    })
    summary.append(f"spans={len(rec['span'])} traced requests={len(traced)}")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not os.path.isdir("src") or not os.path.isfile("perfbench/CMakeLists.txt"):
        log("run.py: run from the repository root (src/ and perfbench/ needed)")
        return 2
    try:
        binary = build()
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"run.py: {e}")
        return 2
    if proc.returncode != 0:
        log(f"run.py: bsb-perfbench exited with {proc.returncode}")
        return 2
    rec = parse_records(proc.stdout)
    attempted = len(rec["req"])
    failed = sum(1 for r in rec["req"] if not r["ok"])
    bad_checks = [what for ok, what in rec["check"] if not ok]
    for what in bad_checks:
        log(f"run.py: check failed: {what}")
    summary = [f"{args.workload} seed={args.seed} trace={args.trace}"]
    try:
        summary.append(f"failed share={stats.failed_share(attempted, failed):.4f}")
        metrics = per_layer(rec, summary) if args.trace else end_to_end(rec, summary)
    except ValueError as e:  # too few requests for the statistics
        log(f"run.py: {e}")
        return 2
    print("; ".join(summary))
    print(json.dumps({
        "correct": failed == 0 and not bad_checks and bool(rec["check"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
