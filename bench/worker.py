"""One benchmark process: set up a workload, run timed rounds of operations,
check every output, and print the figures as one JSON line.

Run by ``run.py``, which times this process from its start to the
``READY`` line it prints after set-up.  With ``--setup-only`` it exits right
after that line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Put the checkout's ``src`` first on the path and import the package
    from there, never from anywhere else."""
    if not (SRC / "w3toda" / "__init__.py").is_file():
        raise SystemExit(f"w3toda sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import w3toda

    if Path(w3toda.__file__).resolve().parent != (SRC / "w3toda").resolve():
        raise SystemExit(f"w3toda imported from {w3toda.__file__}, not {SRC}")


def measure(workload, base_seed: int, seconds: float, tracer=None,
            on_ready=None) -> dict:
    """Set up ``workload``, then run whole rounds until ``seconds`` have
    passed (at least one round).  Returns the op times, per-layer summaries
    when traced, attempted/failed counts and the check problems."""
    import workloads

    workload.setup(base_seed)
    if tracer is not None:
        tracer.install(extra_modules=(workloads,))
    if on_ready is not None:
        on_ready()
    times, summaries, problems = [], [], []
    attempted = failed = 0
    index = 0
    start = time.perf_counter()
    try:
        while True:
            outputs = []
            for _ in range(workload.round_size):
                seed = workloads.op_seed(base_seed, index)
                index += 1
                attempted += 1
                try:
                    if tracer is None:
                        t0 = time.perf_counter()
                        out = workload.op(seed)
                        times.append(time.perf_counter() - t0)
                    else:
                        out, summary = tracer.run_op(workload.op, seed)
                        summaries.append(summary)
                        times.append(summary["trace.op_s"])
                except Exception as exc:
                    # no operation of a workload is expected to raise, so
                    # one that does fails the run as well as being counted
                    failed += 1
                    traceback.print_exc()
                    problems.append(f"op seed {seed} raised {exc!r}")
                    continue
                problems += [f"op seed {seed}: {p}"
                             for p in workload.check(seed, out)]
                outputs.append(out)
            problems += workload.check_round(outputs)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"times": times, "summaries": summaries, "attempted": attempted,
            "failed": failed, "problems": problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    def ready():
        print("READY", flush=True)

    if args.setup_only:
        workload.setup(args.seed)
        ready()
        return 0
    res = measure(workload, args.seed, args.seconds, tracer, ready)
    out = {"attempted": res["attempted"], "failed": res["failed"],
           "problems": res["problems"],
           "op_s": statistics.median(res["times"]) if res["times"] else None,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        from tracing import median_metrics

        if res["summaries"]:
            out["per_layer"] = median_metrics(res["summaries"])
        if args.trace_out:
            tracer.write(args.trace_out, res["summaries"])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
