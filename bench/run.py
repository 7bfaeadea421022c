#!/usr/bin/env python3
"""Benchmark of the ``hsmc`` command line.

    python3 bench/run.py --workload configs --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload (see workloads.py) again and again for
``--seconds``, each ``hsmc`` invocation a child process started only after the
previous one has exited, and reports end-to-end medians over the runs:
``wall_s`` (the run's summed child wall times), ``setup_s`` (children that only
import ``hsmc.cli`` and build the run's configs) and ``peak_rss_mb`` (the
largest child ``ru_maxrss`` of a run).

``--trace 1`` runs the workload in this process through ``hsmc.cli.main``,
alternating plain runs with runs traced by tracing.py, and reports per-layer
metrics plus the tracing overhead.

Every invocation's artifacts are checked after it exits, outside the timed
region.  Readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` (invocations that exited non-zero
or failed a check) and ``metrics``.  Exits 2 without a result when the hsmc
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

NPROC = len(os.sched_getaffinity(0))
# BLAS reads these when numpy loads, in this process and in every child, so
# they are capped at nproc before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_value), NPROC) if _value.isdigit() and int(_value) > 0
                           else NPROC)

import tracing  # noqa: E402  (imports numpy, so after the thread cap)
import workloads  # noqa: E402

MIN_RUNS = 3          # workload runs per --trace 0 run, however short --seconds is
MIN_SETUPS = 5        # setup probes per --trace 0 run
CHILD_TIMEOUT_S = 150.0

SETUP_PROBE = """\
import sys
from hsmc.cli import build_experiment, load_config
command, config, seed, n = sys.argv[1:]
build_experiment(load_config(config), command=command, seed=int(seed),
                 n=int(n) if n else None, quiet=True)
"""


def run_child(argv: list[str], log: Path, env: dict) -> tuple[float, float, int]:
    """Run a child to exit: (wall seconds from start to exit, ru_maxrss in MB, exit code)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=subprocess.STDOUT)
        # The child stays unreaped until wait4 returns, so its pid cannot be reused.
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_workload(invocations, seed: int, work: Path, invoke) -> tuple[float, float, list, int]:
    """One workload run: (summed wall s, peak RSS MB, problems per invocation, bytes written).

    ``invoke(invocation, out_dir)`` returns (wall s, RSS MB, exit code, log text).
    """
    wall = rss = 0.0
    problems, written = [], 0
    for inv in invocations:
        out = work / inv.label
        shutil.rmtree(out, ignore_errors=True)
        seconds, mb, code, log = invoke(inv, out)
        wall += seconds
        rss = max(rss, mb)
        if code != 0:
            found = [f"{inv.label}: exit {code}: {log.strip()[-300:]}"]
        else:
            try:
                found = [f"{inv.label}: {p}" for p in inv.check(out)]
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                found = [f"{inv.label}: check could not read the artifacts: {exc!r}"]
            written += _dir_bytes(out)
        problems.append(found)
        shutil.rmtree(out, ignore_errors=True)
    return wall, rss, problems, written


def child_invoker(seed: int, work: Path, env: dict):
    def invoke(inv, out):
        log = work / f"{inv.label}.log"
        wall, mb, code = run_child([sys.executable, "-m", "hsmc.cli", *inv.argv(seed, out)],
                                   log, env)
        return wall, mb, code, log.read_text(errors="replace")
    return invoke


def in_process_invoker(seed: int, tracer: tracing.Tracer | None = None):
    from hsmc.cli import main as hsmc_main

    def invoke(inv, out):
        if tracer is not None:
            tracer.run_id = inv.label
        start = time.perf_counter()
        try:
            code = hsmc_main(inv.argv(seed, out))
        except (Exception, SystemExit) as exc:  # a failed invocation, counted below
            code = repr(exc)
        return time.perf_counter() - start, 0.0, code, ""
    return invoke


def setup_probe(invocations, seed: int, work: Path, env: dict) -> tuple[float, list]:
    """Summed wall time of children that only import hsmc.cli and build each config."""
    total, problems = 0.0, []
    for inv in invocations:
        argv = [sys.executable, "-c", SETUP_PROBE, inv.command, str(inv.config), str(seed),
                "" if inv.n is None else str(inv.n)]
        wall, _, code = run_child(argv, work / "setup.log", env)
        total += wall
        if code != 0:
            problems.append(f"{inv.label}: setup probe exit {code}")
    return total, problems


def repeat(step, seconds: float, minimum: int) -> None:
    """Call ``step`` at least ``minimum`` times, then while one more call is
    expected (from the median call so far) to end within ``seconds`` of the start."""
    end = time.perf_counter() + seconds
    costs = []
    while True:
        start = time.perf_counter()
        step()
        costs.append(time.perf_counter() - start)
        if len(costs) >= minimum and time.perf_counter() + statistics.median(costs) > end:
            return


def timed_run(invocations, seed: int, seconds: float, work: Path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    invoke = child_invoker(seed, work, env)
    walls, rss, setups, outcomes, extra = [], [], [], [], []

    def probe():
        setup, found = setup_probe(invocations, seed, work, env)
        setups.append(setup)
        extra.extend(found)

    def step():
        wall, mb, problems, _ = run_workload(invocations, seed, work, invoke)
        walls.append(wall)
        rss.append(mb)
        outcomes.extend(problems)
        probe()

    setup_probe(invocations, seed, work, env)  # warm-up: byte-compiles hsmc, fills caches
    repeat(step, seconds, MIN_RUNS)
    while len(setups) < MIN_SETUPS:
        probe()
    metrics = {
        "wall_s": (statistics.median(walls), "s", _spread(walls, "runs")),
        "setup_s": (statistics.median(setups), "s", _spread(setups, "probes")),
        "peak_rss_mb": (statistics.median(rss), "MB", _spread(rss, "runs")),
    }
    return metrics, outcomes, extra


def traced_run(invocations, seed: int, seconds: float, work: Path, spans_path: Path):
    """Alternate plain and traced in-process runs; per-layer metrics from the traced ones."""
    tracer = tracing.Tracer()
    plain, traced, per_call, per_run, counts, outcomes = [], [], [], [], [], []

    def step():
        wall, _, problems, _ = run_workload(invocations, seed, work, in_process_invoker(seed))
        plain.append(wall)
        outcomes.extend(problems)
        tracer.install()
        try:
            wall, _, problems, written = run_workload(invocations, seed, work,
                                                      in_process_invoker(seed, tracer))
        finally:
            tracer.uninstall()
        traced.append(wall)
        outcomes.extend(problems)
        calls, totals, count = tracing.summarize(tracer.spans, written)
        per_call.append(calls)
        per_run.append(totals)
        counts.append(count)

    repeat(step, seconds, 1)
    tracer.write(spans_path)
    values, notes = tracing.layer_metrics(per_call, per_run)
    extra = [] if all(c == counts[0] for c in counts) else \
        [f"counts differ between traced runs: {counts}"]
    for name, value in counts[0].items():
        values[name], notes[name] = value, f"count from {len(counts)} traced runs"
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    notes["trace.overhead_s"] = (f"traced median {statistics.median(traced):.4f} s of "
                                 f"{len(traced)} minus plain median "
                                 f"{statistics.median(plain):.4f} s of {len(plain)}")
    metrics = {name: (values[name], tracing.UNITS[name], notes[name]) for name in tracing.UNITS}
    return metrics, outcomes, extra


def _spread(values: list[float], what: str) -> str:
    return f"median of {len(values)} {what}, min {min(values):.4f}, max {max(values):.4f}"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "load": "one client, one hsmc process at a time",
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="hsmc seed of every invocation; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process run with per-layer spans instead of end-to-end")
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced workload sizes for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "hsmc" / "cli.py", workloads.CONFIGS) if not p.exists()]
    if missing:
        print(f"bench: {', '.join(map(str, missing))} missing; run from a full hsmc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks and the traced run import hsmc from source
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        invocations = workloads.build(args.workload, args.seed, work, args.size == "small")
        env = environment(args)
        if args.trace:
            metrics, outcomes, extra = traced_run(invocations, args.seed, args.seconds, work,
                                                  WORK / f"spans-{args.workload}.csv")
        else:
            metrics, outcomes, extra = timed_run(invocations, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for problems in outcomes if problems)
    print("env " + json.dumps(env))
    for problem in [p for problems in outcomes for p in problems] + extra:
        print(f"check failed: {problem}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit:5s} {note}")
    print(f"{'failed_ops':36s} {failed / attempted:14.6f} {'ratio':5s} "
          f"{failed} of {attempted} invocations")
    idle = [name for name, (value, _, _) in metrics.items() if value == 0]
    print("dropped metrics: none" + (f"; these read 0 because this workload never makes "
                                     f"their calls: {', '.join(idle)}" if idle else ""))
    print(json.dumps({
        "correct": failed == 0 and not extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
