#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe from the checkout's sources with dune,
runs it from the checkout root, prints its report, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  The metrics
are BENCHMARK.json's end_to_end list with --trace 0 and its per_layer
list with --trace 1.  See perfbench/NOTES.md.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
STATE = ".perfbench"
RUN_TIMEOUT_S = 170

# The end-to-end figures the report names, whether or not BENCHMARK.json
# gates them; each is defined on some workloads only.
REPORTED = ["host_ops_per_s", "setup_s", "peak_rss_mb", "sim_p50_us", "sim_p99_us",
            "sim_read_p50_us", "sim_write_p50_us", "sim_ops_per_s",
            "sim_goodput_per_s", "sim_max_rate_per_s", "fail_ratio"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    """dune from PATH, else from an opam switch; returns (dune, bin dir to add to PATH)."""
    found = shutil.which("dune")
    if found:
        return found, None
    prefixes = [os.environ.get("OPAM_SWITCH_PREFIX")]
    prefixes += sorted(glob.glob(os.path.expanduser(os.path.join("~", ".opam", "*"))))
    for prefix in filter(None, prefixes):
        candidate = os.path.join(prefix, "bin", "dune")
        if os.path.isfile(candidate):
            return candidate, os.path.dirname(candidate)
    return None, None


def build(env):
    dune, bindir = find_dune()
    if dune is None:
        fail("dune not found")
    if bindir:
        env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(ROOT, STATE, "cache")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")


def fmt6(v):
    return "%.6g" % v


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))
            and os.path.isfile(spec_path)):
        fail("not a checkout of the repository (no dune-project, lib/ or BENCHMARK.json)")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    env = dict(os.environ)
    build(env)
    # Let malloc keep freed memory: every repetition opens a fresh 64 MiB
    # instance, and faulting fresh pages costs whatever the host's memory
    # state says, not what the program does (NOTES.md, host-time estimate).
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=4294967296"
    cmd = [os.path.join(ROOT, EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH "):
            result = json.loads(line[len("PERFBENCH "):])
        else:
            print(line)
    if result is None:
        fail("the run produced no result (exit code %d)" % proc.returncode)

    figures = {f["name"]: f for f in result["figures"]}
    errors = list(result["errors"])

    if args.trace == 0:
        print("%s seed %d, end-to-end figures:" % (args.workload, args.seed))
        for name in REPORTED:
            f = figures.get(name)
            if f is None:
                print("  %-34s %16s" % (name, "n/a"))
            else:
                print("  %-34s %16s %-10s %s" % (name, fmt6(f["value"]), f["unit"],
                                                 "n=%d" % f["samples"] if f["samples"] else ""))

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = {}
    unmeasured = []
    print("%s seed %d, %s metrics:" % (args.workload, args.seed,
                                       "gated end-to-end" if args.trace == 0 else "per-layer"))
    for m in wanted:
        f = figures.get(m["name"])
        if f is None and args.trace == 0:
            errors.append("end-to-end metric %s missing" % m["name"])
            continue
        if f is None:
            # A layer this workload does not run, or cannot be seen
            # from outside the library's public interface.  The result
            # line must still carry the metric as a number; the
            # "unmeasured" line below names every such placeholder.
            value, note = 0, "n/a on this workload"
            unmeasured.append(m["name"])
        else:
            value = f["value"]
            note = "n=%d" % f["samples"] if f["samples"] else ""
            if f["unit"] != m["unit"]:
                errors.append("%s: unit %s, BENCHMARK.json says %s" % (m["name"], f["unit"], m["unit"]))
            if value is None:
                errors.append("%s is not a finite number" % m["name"])
                continue
        print("  %-34s %16s %-10s %s" % (m["name"], fmt6(value), m["unit"], note))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for e in errors:
        print("ERROR " + e)
    if unmeasured:
        print(json.dumps({"unmeasured": unmeasured}))
    correct = bool(result["correct"]) and not errors and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
