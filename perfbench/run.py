#!/usr/bin/env python3
"""Repository benchmark: builds specbench in Release and runs one workload.

    python3 perfbench/run.py --workload chain_tcp --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is built from ../src and
perfbench/ into $CARGO_TARGET_DIR (default .bench_build); the first run
builds, later runs reuse the build. Each run measures both flavors,
SpecRPC (SpecEngine) and TradRPC (rpc::Node), on the named workload:

  chain_tcp   4-hop dependent chains over loopback TcpTransport
  chain_miss  4-hop chains over SimNetwork, every prediction wrong
  rc_geo      Replicated Commit over 3 simulated datacenters, Retwis mix

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics, measured by wrapping each layer's public
interface, and writes span files to <build>/work/. Both print every metric
with unit and sample count (plus workload-specific ones not in
BENCHMARK.json), the provenance of the run, and as the last line a JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when an output was wrong, the build failed, or the build is not a
Release build without sanitizers.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: framework sources (src/) not found next to perfbench/")
        return None
    cache = os.path.join(build_dir, "CMakeCache.txt")
    release = False
    if os.path.isfile(cache):
        with open(cache) as f:
            release = "CMAKE_BUILD_TYPE:STRING=Release\n" in f.read()
    steps = []
    if not release:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "specbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "specbench")


def provenance():
    """Git sha when available, and a content hash of the program sources."""
    sha = None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha or "unavailable",
            "source_sha256": digest.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    workloads = [w["name"] for w in contract["workloads"]]
    if args.workload not in workloads:
        log("run.py: unknown workload %r (have %s)" % (args.workload, workloads))
        return 2
    listed = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    t0 = time.monotonic()
    binary = build(build_dir)
    if binary is None:
        return 2
    log("run.py: build ready in %.1f s" % (time.monotonic() - t0))
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: specbench exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    if done.returncode != 0:
        log("run.py: specbench exited with %d" % done.returncode)
        return 3
    lines = [l for l in done.stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        log("run.py: specbench printed no RESULT line")
        return 3
    result = json.loads(lines[-1][len("RESULT "):])
    result["provenance"].update(provenance())

    print("# provenance")
    for key, value in result["provenance"].items():
        print("#   %-26s %s" % (key, value))
    print("# %-44s %16s %-6s %s" % ("metric", "value", "unit", "samples"))
    for name, m in result["metrics"].items():
        extra = "" if m["contract"] else "   (workload-specific, not in BENCHMARK.json)"
        print("  %-44s %16.6g %-6s n=%d%s" % (name, m["value"], m["unit"],
                                             m["samples"], extra))
    print("# attempted %d, failed %d, aborted %d, correct %s" % (
        result["attempted"], result["failed"], result["aborted"],
        result["correct"]))
    for problem in result["problems"]:
        print("# WRONG OUTPUT: " + problem)

    reported = {n: m for n, m in result["metrics"].items() if m["contract"]}
    if set(reported) != set(units):
        log("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(units) - set(reported)),
               sorted(set(reported) - set(units))))
        return 4
    for name, unit in units.items():
        if reported[name]["unit"] != unit:
            log("run.py: %s reported in %s, BENCHMARK.json says %s"
                % (name, reported[name]["unit"], unit))
            return 4

    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    out_path = os.path.join(results_dir, "%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump(result, f, indent=1)

    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: {"value": reported[n]["value"], "unit": units[n]}
                    for n in units},
    }), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
