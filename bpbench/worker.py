"""One benchmark process: set up the seeded inputs, then run timed rounds.

Started by run.py with the BLAS thread count pinned. Prints one JSON line:
the monotonic-clock time at which set-up ended and, unless --setup-only,
the run's samples and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import bpgates

    if os.path.dirname(os.path.dirname(os.path.abspath(bpgates.__file__))) != SRC:
        print(f"error: imported bpgates from {bpgates.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from clock import calibrate
    from inputs import make_inputs
    from tracing import Tracer
    from workloads import Runner, per_layer

    inp = make_inputs(args.seed, args.work_dir)
    tracer = Tracer() if args.trace else None
    runner = Runner(args.workload, inp, tracer)
    ready = time.monotonic()
    ready_ref = calibrate()
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_ref": ready_ref}))
        return 0

    if tracer:
        tracer.install()
    runner.run(args.seconds)
    if tracer:
        tracer.uninstall()
    runner.check_repeatable()
    result = {
        "ready": ready,
        "ready_ref": ready_ref,
        "rounds": len(runner.rounds),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "end_to_end": runner.end_to_end(),
    }
    if tracer:
        result["per_layer"] = per_layer(tracer, len(runner.rounds))
        if args.trace_file:
            tracer.dump(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
