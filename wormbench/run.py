#!/usr/bin/env python3
"""Builds and runs the wormnet benchmark for one workload.

    python3 wormbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from the root of a source tree.  The first call configures and builds
wormbench/ (which compiles the library from src/) into .bench_build/; later
calls only re-check the build.  The workload itself runs in the wormbench
binary; this script adds provenance, keeps the full record under
.bench_build/results/ (and the span trace of a --trace 1 run under
.bench_build/traces/), and prints the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every output check passed, 1 when a check failed,
2 when the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("sim-low", "sim-sat", "verify-certify", "sweep-reconfig")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"wormbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full source tree")
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "wormbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail(f"build step {cmd[:2]} failed: {exc}")
            if done.returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                fail(f"build failed (log: {log_path})")
    return BUILD_DIR / "wormbench"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    provenance = {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "started_unix": time.time(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    trace_path = BUILD_DIR / "traces" / f"{tag}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        trace_path.parent.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        fail(f"benchmark run failed: {exc}")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with status {done.returncode}")
    record = json.loads(lines[-1])
    provenance["build_type"] = record["build"]["type"]
    provenance["compiler"] = record["build"]["compiler"]
    provenance["workload"] = args.workload
    provenance["seed"] = args.seed
    provenance["size"] = args.size
    provenance["params"] = record["params"]
    record["provenance"] = provenance

    (BUILD_DIR / "results").mkdir(exist_ok=True)
    (BUILD_DIR / "results" / f"{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if args.trace == "1" and trace_path.is_file():
        spans = json.loads(trace_path.read_text())
        spans["provenance"] = provenance
        trace_path.write_text(json.dumps(spans) + "\n")

    for check in record["checks"]:
        if not check["ok"]:
            print(f"wormbench: check {check['name']} failed: "
                  f"{check.get('detail', '')}", file=sys.stderr)
    print(json.dumps({"provenance": provenance, "checks": record["checks"],
                      "batches": record["batches"],
                      "traced_batches": record["traced_batches"]}))
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
