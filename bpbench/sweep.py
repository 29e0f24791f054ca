"""One-off layer sweep for reference figures; not part of the gated runs.

    OPENBLAS_NUM_THREADS=1 python3 bpbench/sweep.py [--seed 1]

Times check_permutation, zx_decompose and check_normalizer on one random
BP gate at each n in {3, 5, 7, 8, 10}, and check_zx up to n = 7 (its
O(parts^2 * 8^n) block products take about 50 s at n = 8 and hours at
n = 10). Prints one JSON line per (layer, n).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from bpgates import check_normalizer, check_permutation, check_zx, zx_decompose  # noqa: E402
from inputs import perm_matrix, random_perm_gate  # noqa: E402

SIZES = (3, 5, 7, 8, 10)
CHECK_ZX_MAX_N = 7


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    for n in SIZES:
        G = perm_matrix(random_perm_gate(n, rng))
        layers = [check_permutation, zx_decompose, check_normalizer]
        if n <= CHECK_ZX_MAX_N:
            layers.append(check_zx)
        for fn in layers:
            t0 = time.perf_counter()
            fn(G)
            print(json.dumps({"layer": fn.__name__, "n": n, "seconds": time.perf_counter() - t0}), flush=True)


if __name__ == "__main__":
    main()
