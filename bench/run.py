"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and README.md) in a worker process
and prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``op_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, taken
from a separately traced worker.

Set-up time is measured as the wall time from starting a worker process to
its ``READY`` line, on the measuring worker and on ``SETUP_PROBES`` extra
workers that stop after set-up; the median is reported.  The exit code is
non-zero when an output check fails or the worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("audit_scan", "exact_chain", "gmc_estimate", "fusion_ladder")
SETUP_PROBES = 2
# workers still running this long after the run's --seconds have passed are
# stopped and the run fails
GRACE_S = 140.0


class WorkerError(RuntimeError):
    pass


def start_worker(args, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    return proc, t0


def finish(proc, deadline: float) -> str:
    """Wait for the worker to exit; stop it if it overruns. Returns its
    remaining standard output."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker overran its time limit and was stopped")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def run_worker(args, deadline: float, extra=()) -> tuple:
    """Start a worker, time it to READY, and collect its output lines."""
    proc, t0 = start_worker(args, extra)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            finish(proc, deadline)
            raise WorkerError("worker ended before it was ready")
        rest = finish(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return setup, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    deadline = time.monotonic() + args.seconds + GRACE_S
    try:
        setups = []
        extra = []
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            extra = ["--trace-out",
                     str(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")]
        # set-up probes before and after the measuring worker, so that one
        # slow spell of the machine does not cover every sample
        probes_before = 0 if args.trace else SETUP_PROBES // 2
        probes_after = 0 if args.trace else SETUP_PROBES - probes_before
        for _ in range(probes_before):
            setups.append(run_worker(args, deadline, ["--setup-only"])[0])
        setup, out = run_worker(args, deadline, extra)
        setups.append(setup)
        for _ in range(probes_after):
            setups.append(run_worker(args, deadline, ["--setup-only"])[0])
        res = json.loads(out.strip().splitlines()[-1])
    except (WorkerError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    for problem in res["problems"]:
        print(f"CHECK FAILED [{args.workload}] {problem}", file=sys.stderr)
    correct = not res["problems"] and res["op_s"] is not None
    if args.trace:
        metrics = res.get("per_layer", {})
    else:
        metrics = {
            "op_s": {"value": res["op_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
