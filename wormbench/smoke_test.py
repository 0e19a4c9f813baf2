#!/usr/bin/env python3
"""Smoke test of the wormnet benchmark.

    python3 wormbench/smoke_test.py

Runs every workload in BENCHMARK.json at tiny size, untraced and traced,
and checks that each run passes its output checks and prints exactly the
metrics BENCHMARK.json lists (end_to_end untraced, per_layer traced), each
with its unit.  Then checks that run.py refuses to run, without printing a
result, in a tree that holds only BENCHMARK.json and the benchmark.
Exits 0 when everything holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "wormbench/run.py"]


def result_line(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_run(spec, workload, trace, errors):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    where = f"{workload} trace={trace}"
    before = len(errors)
    if done.returncode != 0:
        errors.append(f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}")
        return
    result = result_line(done.stdout)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        errors.append(f"{where}: output checks failed")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted = {result['attempted']}")
    if result["failed"] != 0:
        errors.append(f"{where}: failed = {result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(units):
        errors.append(f"{where}: missing {sorted(set(units) - set(got))}, "
                      f"unexpected {sorted(set(got) - set(units))}")
    for name, value in got.items():
        if name in units and value.get("unit") != units[name]:
            errors.append(f"{where}: {name} unit {value.get('unit')} != "
                          f"{units[name]}")
        if not isinstance(value.get("value"), (int, float)):
            errors.append(f"{where}: {name} has no numeric value")
        elif not trace and value["value"] <= 0:
            errors.append(f"{where}: end-to-end {name} = {value['value']}")
    if len(errors) == before:
        print(f"ok   {where}", flush=True)


def check_bare_tree(errors):
    """run.py must fail without a result when the library sources are absent."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "wormbench", bare / "wormbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(RUN + ["--workload", "sim-sat", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        errors.append("bare tree: run.py did not fail cleanly")
    else:
        print("ok   bare tree refused", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace, errors)
    check_bare_tree(errors)
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
