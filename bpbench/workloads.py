"""Operations and rounds of the two workloads.

Each operation is a `bpgates` CLI command run in-process through
`bpgates.cli.main(argv)` on the generated files, followed by the checks in
`checkers`. Every run reports every end-to-end metric, so every round runs
every operation class; a workload sets how many inputs of each class a round
takes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np

import checkers as ck
from bpgates import cli
from inputs import CODES, SYNTH_EPS, Inputs, PermGate, matrix_text, perm_matrix
from clock import Stopwatch
from tracing import LAYERS

# Inputs of each class that one round takes, per workload: a prefix of
# each pool made by inputs.make_inputs. Every run reports every end-to-end
# metric, and one timed operation varies by about 10% on the reference host,
# so every round runs every class, with two samples of the 3 s BP check, and
# three rounds fit in a run. The workloads share that base round and each
# adds about 2 s on its own task.
_BASE = {"bp": 2, "reject": 2, "phase3": 1, "phase4": 1, "phase5": 1, "perm6": 6, "perm7": 1,
         "q15": 4, "steane": 2, "q422": 1}
ROUNDS = {
    "check": dict(_BASE, reject=3, steane=3),
    "synth": dict(_BASE, phase3=2, phase4=2, phase5=2, q15=8),
}

TIMED = ("check_bp_s", "check_reject_s", "synth_s", "synth_perm_s", "css_lift_s", "css_verify_s")
COUNTS = ("gates", "ccnot", "rz_reps", "ancillas")
# The message of the one expected failure: certification of a 7-qubit target
# densifies 7 data + 4 ancilla qubits.
DENSE_CAP_ERROR = "11 qubits exceeds dense cap 10"


class Runner:
    """Runs rounds of one workload and keeps their samples."""

    def __init__(self, workload: str, inp: Inputs, tracer=None):
        self.mix = ROUNDS[workload]
        self.inp = inp
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds: list[dict[str, list[tuple[float, float]]]] = []
        self.round_counts: list[dict[str, int]] = []
        self._samples: dict[str, list[tuple[float, float]]] = {}
        self._counts: dict[str, int] = {}

    # -------------------------------------------------------- one CLI call

    def call(self, argv: list[str], label: str) -> tuple[int, str, str, Stopwatch]:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"op.{label}") if self.tracer else contextlib.nullcontext()
        self.attempted += 1
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), Stopwatch() as sw:
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue(), sw

    def sample(self, key: str, *watches: Stopwatch) -> None:
        self._samples[key].append((sum(w.seconds for w in watches), sum(w.raw for w in watches)))

    def expect(self, rc: int, want: int, err: str, what: str) -> None:
        ck.require(rc == want, f"{what}: exit {rc}, want {want}: {err.strip()}")

    # -------------------------------------------------------- operations

    def op_check(self, path: str, is_bp: bool, gate) -> None:
        rc, out, err, dt = self.call(["check", "--matrix", path, "--json"], "check")
        self.expect(rc, 0 if is_bp else 1, err, f"check {os.path.basename(path)}")
        ck.check_verdict(json.loads(out), is_bp, gate and gate.perm, gate and gate.phases)
        self.sample("check_bp_s" if is_bp else "check_reject_s", dt)

    def op_synth(self, cls: str, path: str, gate) -> None:
        circ = path + ".circ"
        argv = ["synth", "--target", path, "--eps", repr(SYNTH_EPS), "--json", "--output", circ]
        rc, out, err, dt = self.call(argv, "synth")
        if cls == "perm7" and rc == 2 and DENSE_CAP_ERROR in err:
            self.failed += 1
            return
        self.expect(rc, 0, err, f"synth {os.path.basename(path)}")
        with open(circ, encoding="utf-8") as fp:
            counts = ck.check_synth(fp.read(), json.loads(out), gate.perm, gate.phases, SYNTH_EPS)
        if gate.n <= 6:
            for k, v in counts.items():
                self._counts[k] += v
        if cls == "phase5":
            self.sample("synth_s", dt)
        elif cls == "perm6":
            self.sample("synth_perm_s", dt)

    def css_supports(self, name: str) -> dict[int, frozenset[int]]:
        c1, c2 = self.inp.codes[name]
        rc, out, err, _ = self.call(["css-build", "--c1", c1, "--c2", c2, "--json"], "css-build")
        self.expect(rc, 0, err, f"css-build {name}")
        return ck.check_css_build(json.loads(out), *CODES[name])

    def op_css_code(self, name: str, lifts: int, verify: bool) -> None:
        """css-build and css-check, then per logical gate css-lift and, when
        `verify`, check on the lifted dense matrix and css-restrict."""
        c1, c2 = self.inp.codes[name]
        supports = self.css_supports(name)
        rc, out, err, _ = self.call(["css-check", "--c1", c1, "--c2", c2], "css-check")
        self.expect(rc, 0, err, f"css-check {name}")
        ck.require(out.split() == ["EQUICOHERENT", "yes", f"l={1 << len(CODES[name][0])}"],
                   f"css-check {name}: {out.strip()}")
        for path, g in self.inp.lifts[name][:lifts]:
            lifted = path + ".lifted"
            rc, _, err, dt = self.call(["css-lift", "--c1", c1, "--c2", c2, "--gate", path,
                                        "--output", lifted], "css-lift")
            self.expect(rc, 0, err, f"css-lift {name}")
            with open(lifted, encoding="utf-8") as fp:
                n, perm, phases = ck.parse_perm(fp.read())
            ck.check_lift(perm, phases, supports, CODES[name][1], g.perm, g.phases)
            if name == "q15":
                self.sample("css_lift_s", dt)
            if not verify:
                continue
            dense = lifted + ".mat"
            with open(dense, "w", encoding="utf-8") as fp:
                fp.write(matrix_text(perm_matrix(PermGate(n, tuple(perm), tuple(phases)))))
            rc, out, err, t_check = self.call(["check", "--matrix", dense, "--json"], "check")
            self.expect(rc, 0, err, f"check lifted {name}")
            ck.check_verdict(json.loads(out), True, perm, phases)
            back = lifted + ".back"
            rc, _, err, t_restrict = self.call(["css-restrict", "--c1", c1, "--c2", c2, "--gate", lifted,
                                                "--output", back], "css-restrict")
            self.expect(rc, 0, err, f"css-restrict {name}")
            with open(back, encoding="utf-8") as fp:
                _, bperm, bphases = ck.parse_perm(fp.read())
            ck.require_same_gate(bperm, bphases, g.perm, g.phases, f"restricted {name} gate")
            if name == "steane":
                self.sample("css_verify_s", t_check, t_restrict)

    # -------------------------------------------------------- rounds

    def run_round(self) -> None:
        self._samples = {k: [] for k in TIMED}
        self._counts = {k: 0 for k in COUNTS}
        mix, inp = self.mix, self.inp
        try:
            for path, is_bp, g in inp.check["bp"][: mix["bp"]] + inp.check["reject"][: mix["reject"]]:
                self.op_check(path, is_bp, g)
            for cls in ("phase3", "phase4", "phase5", "perm6", "perm7"):
                for path, g in inp.synth[cls][: mix[cls]]:
                    self.op_synth(cls, path, g)
            self.op_css_code("q15", mix["q15"], verify=False)
            self.op_css_code("steane", mix["steane"], verify=True)
            self.op_css_code("q422", mix["q422"], verify=True)
        except (ck.CheckError, ValueError, KeyError, OSError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
        # A Haar-random gate costs about 2.5 near-BP ones, so a reject
        # sample is the mean over one round's reject gates.
        rejects = self._samples["check_reject_s"]
        if rejects:
            self._samples["check_reject_s"] = [tuple(np.mean(rejects, axis=0))]
        self.rounds.append(self._samples)
        self.round_counts.append(self._counts)

    def run(self, seconds: float) -> None:
        """Whole rounds until the next one would end after `seconds`."""
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            self.run_round()
            now = time.perf_counter()
            if self.errors or now + (now - r0) > start + seconds:
                return

    # -------------------------------------------------------- results

    def end_to_end(self) -> dict[str, float]:
        """Each timing is the median of its reference-speed samples over
        the run, with the median of the raw wall times under `raw.<name>`;
        counts are one round's totals."""
        out = {}
        for key in TIMED:
            samples = [x for r in self.rounds for x in r[key]]
            if samples:
                out[key], out[f"raw.{key}"] = (float(v) for v in np.median(samples, axis=0))
        if self.round_counts:
            out.update(self.round_counts[0])
        return out

    def check_repeatable(self) -> None:
        if any(c != self.round_counts[0] for c in self.round_counts):
            self.errors.append(f"gate counts differ between rounds: {self.round_counts}")


def per_layer(tracer, rounds: int) -> dict[str, float]:
    """Per-round self time and calls of each wrapped layer, per-round work
    counts, and the largest dense basis-state store of one build_css."""
    times = tracer.self_times()
    out = {key: value / rounds for key, value in tracer.counts.items()}
    for short, names in LAYERS.items():
        for fname in names:
            total, calls = times.get(f"{short}.{fname}", (0.0, 0))
            out[f"{short}.{fname}.self_s"] = total / rounds
            out[f"{short}.{fname}.calls"] = calls / rounds
    out["css.build_css.state_mb"] = tracer.state_mb
    return out
