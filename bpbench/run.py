"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bpbench/run.py --workload check --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Each workload runs in its own worker process with OpenBLAS and
OpenMP pinned to one thread. With --trace 0 the last line of standard
output carries every end-to-end metric of BENCHMARK.json; with --trace 1 a
separate traced run carries every per-layer metric, and its spans are
written to .bpbench/trace-<workload>-seed<seed>.json. A human-readable
summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Pinned before numpy loads, here and in every worker: numpy's OpenBLAS is
# threaded and the host has two cores.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                  PYTHONDONTWRITEBYTECODE="1")

from clock import REF_NOMINAL_S, calibrate  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bpbench")
# Set-up runs per timed run, besides the one the timed worker makes itself.
EXTRA_SETUPS = 2
WORKER_TIMEOUT_S = 170


def spawn(argv: list[str]) -> tuple[dict, float]:
    """Run one worker; returns its JSON result and its set-up time in
    reference-speed seconds, counted from just before the process starts.
    Both ends read the system-wide monotonic clock."""
    ref = calibrate()
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER, *argv], capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ref = 0.5 * (ref + result["ready_ref"])
    return result, (result["ready"] - t0) * REF_NOMINAL_S / ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "bpgates", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"error: {ROOT} holds no bpgates source tree (src/bpgates) or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fp:
        spec = json.load(fp)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", work]
    setups = []
    try:
        if not args.trace:
            for _ in range(EXTRA_SETUPS):
                setups.append(spawn(base + ["--setup-only"])[1])
                shutil.rmtree(work, ignore_errors=True)
        trace_file = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        result, setup = spawn(base + ["--trace-file", trace_file] if args.trace else base)
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = dict(result["end_to_end"], setup_s=statistics.median(setups),
                    peak_rss_mb=result["peak_rss_mb"])
    if args.trace:
        measured.update(result["per_layer"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    errors = list(result["errors"])
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={result['rounds']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    for name, value in sorted(measured.items()):
        print(f"  {name:40s} {value:.6g}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
