#!/usr/bin/env python3
"""Self-test of the hsmc benchmark.

    python3 bench/selftest.py

1. Runs every workload once at the reduced size (``--size small``), with
   ``--trace 0`` and ``--trace 1``, and checks that the last stdout line is a
   correct result whose metrics are exactly those of BENCHMARK.json, each with
   its unit, and that ``failed_ops`` is printed.
2. Sets one purity row of a fresh lubkin ``samples.csv`` to 1.5 and checks
   that the check rejects it, so that ``failed_ops`` becomes non-zero.
3. Copies only BENCHMARK.json and the benchmark directory into an empty
   directory and checks that the runner exits non-zero there without a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(args: list[str], cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_metrics() -> list[str]:
    errors = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--size", "small"])
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                errors.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                errors.append(f"{where}: metrics {sorted(set(printed) ^ set(expected))} "
                              f"or their units differ from BENCHMARK.json")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{where}: not a correct run: {lines[-1][:300]}")
            if not any(line.split()[:3:2] == ["failed_ops", "ratio"] for line in lines):
                errors.append(f"{where}: no failed_ops line")
            print(f"ran {where}: {len(printed)} metrics, {result['attempted']} invocations")
    return errors


def check_corruption() -> list[str]:
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        lubkin = [inv for inv in workloads.build("configs", 5, work, small=True)
                  if inv.label == "lubkin"]
        env = dict(os.environ, PYTHONPATH=str(run.SRC))
        invoke = run.child_invoker(5, work, env)

        def corrupting(inv, out):
            result = invoke(inv, out)
            path = out / "samples.csv"
            lines = path.read_text().splitlines()
            index = next(i for i, line in enumerate(lines) if line.startswith("7,"))
            lines[index] = "7,1.5," + lines[index].split(",")[2]
            path.write_text("\n".join(lines) + "\n")
            return result

        _, _, clean, _ = run.run_workload(lubkin, 5, work, invoke)
        _, _, corrupt, _ = run.run_workload(lubkin, 5, work, corrupting)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_ops = sum(1 for p in corrupt if p) / len(corrupt)
    print(f"corruption: clean run problems {clean}, corrupted run failed_ops {failed_ops}, "
          f"problems {corrupt}")
    errors = [] if failed_ops > 0 else ["a purity row of 1.5 left failed_ops at 0"]
    return errors + ([f"the clean run failed: {clean}"] if any(clean) else [])


def check_bare_directory() -> list[str]:
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _bench(["--workload", "configs", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {done.returncode}, stderr {done.stderr.strip()[:200]!r}")
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-300:]!r}"]
    return []


def main() -> int:
    errors = check_metrics() + check_corruption() + check_bare_directory()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
