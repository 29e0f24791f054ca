"""Spans around the program's layers, kept in memory for one run.

`Tracer.install` replaces each named function at every module attribute of
the `bpgates` package that refers to it, so a call through
`bpgates.verify.zx_decompose` is recorded like one through
`bpgates.zx.zx_decompose`. The gf2 helpers are not wrapped: their time stays
in the spans of the css functions that call them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# Functions recorded as spans, by defining module.
LAYERS = {
    "io": ("read_matrix", "read_perm", "read_code", "write_circuit", "write_perm"),
    "linalg": ("require_unitary", "pauli_z_string", "walsh_hadamard", "phase_optimized_error"),
    "zx": ("zx_decompose", "block_matrix"),
    "verify": ("check_permutation", "check_zx", "check_normalizer", "to_unitary"),
    "synth": ("approximate_phase", "diagonal_to_circuit", "permutation_to_circuit", "simulate_restricted"),
    "css": ("build_css", "lift_logical", "restrict_physical", "check_equicoherent"),
    "cli": ("main",),
}


def _work_counts(name: str, args: tuple, result) -> dict[str, float]:
    """Work done by one call, counted at the layer boundary."""
    if name == "zx.zx_decompose" and result is not None:
        return {"zx.coeffs": len(result.coeffs)}
    if name == "synth.diagonal_to_circuit" and result is not None:
        return {
            "synth.diag_gates": len(result.gates),
            "synth.diag_factors": sum(g.kind == "RZ" for g in result.gates),
        }
    if name == "synth.permutation_to_circuit" and result is not None:
        return {"synth.perm_gates": len(result.gates)}
    if name == "synth.simulate_restricted":  # counted also when it refuses
        return {"synth.certify_states": 1 << args[0].n_total}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.state_mb = 0.0  # largest dense basis-state store of one build_css
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> None:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close()
                for key, value in _work_counts(name, args, result).items():
                    self.counts[key] += value
                if name == "css.build_css" and result is not None:
                    mb = sum(v.nbytes for v in result.basis_states.values()) / 1e6
                    self.state_mb = max(self.state_mb, mb)

        return wrapper

    def install(self) -> None:
        mods = [m for k, m in sys.modules.items() if k == "bpgates" or k.startswith("bpgates.")]
        for short, names in LAYERS.items():
            module = sys.modules[f"bpgates.{short}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls). Self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += end - start - child[i]
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fp)
