"""Output checks written apart from the program under test.

A circuit-file parser and basis-state simulator, a permutation-file parser,
the phase-optimized error from per-state phase differences, and a coset
checker for CSS codes and lifted gates. Each check raises CheckError with
the first discrepancy it finds.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

TWO_PI = 2.0 * math.pi
PHASE_TOL = 1e-9


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def circle_dist(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def content_lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]


# ------------------------------------------------------------ permutation files

def parse_perm(text: str) -> tuple[int, list[int], list[float]]:
    """`s-bits -> t-bits phase=<radians>` lines -> (n, perm, phases)."""
    rows = {}
    for line in content_lines(text):
        s, arrow, t, ph = line.split()
        require(arrow == "->" and ph.startswith("phase="), f"bad perm line {line!r}")
        rows[int(s, 2)] = (int(t, 2), float(ph[len("phase="):]), len(s))
    n = next(iter(rows.values()))[2]
    require(sorted(rows) == list(range(1 << n)), "perm file does not list every source once")
    return n, [rows[s][0] for s in range(1 << n)], [rows[s][1] for s in range(1 << n)]


def require_same_gate(perm, phases, want_perm, want_phases, what: str) -> None:
    require(list(perm) == list(want_perm), f"{what}: permutation differs")
    worst = max((circle_dist(a, b) for a, b in zip(phases, want_phases)), default=0.0)
    require(worst <= PHASE_TOL, f"{what}: phases differ by {worst:.3g} rad")


# ------------------------------------------------------------ circuits

def parse_circuit(text: str) -> dict:
    head, gates = {}, []
    for line in content_lines(text):
        kind, *args = line.split()
        if kind in ("qubits", "ancillas", "theta", "globalphase"):
            head[kind] = float(args[0]) if kind in ("theta", "globalphase") else int(args[0])
        elif kind == "RZ":
            gates.append(("RZ", (int(args[0]),), int(args[1])))
        else:
            require(kind in ("X", "CNOT", "CCNOT") and len(args) == {"X": 1, "CNOT": 2, "CCNOT": 3}[kind],
                    f"bad gate line {line!r}")
            gates.append((kind, tuple(int(a) for a in args), 1))
    return {**head, "gates": gates}


def circuit_counts(c: dict) -> dict[str, int]:
    counts = {k: 0 for k in ("X", "RZ", "CNOT", "CCNOT")}
    for kind, _, _ in c["gates"]:
        counts[kind] += 1
    return counts


def run_basis(c: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push every |s>|0...0> through the circuit at once; returns the data
    out, ancillas out and phase per input s. Qubit 0 is the most significant
    bit; ancillas follow the data qubits."""
    n, a = c["qubits"], c["ancillas"]
    s = np.arange(1 << n)
    bits = np.zeros((n + a, s.size), dtype=np.int64)
    for q in range(n):
        bits[q] = (s >> (n - 1 - q)) & 1
    phase = np.zeros(s.size)
    for kind, q, reps in c["gates"]:
        if kind == "RZ":  # diag(e^{-i k theta/2}, e^{+i k theta/2})
            phase += reps * c["theta"] / 2.0 * (2 * bits[q[0]] - 1)
        else:
            bits[q[-1]] ^= bits[list(q[:-1])].all(axis=0) if len(q) > 1 else 1
    value = (1 << np.arange(n + a - 1, -1, -1)) @ bits
    return value >> a, value & ((1 << a) - 1), phase


def phase_optimized_error(deltas: list[float]) -> float:
    """min over phi of max_s |1 - e^{i(delta_s + phi)}|.

    The best phi centres the shortest arc holding every delta; the error is
    the chord to that arc's ends, 2 sin(arc/4)."""
    angles = sorted(d % TWO_PI for d in deltas)
    gaps = [b - a for a, b in zip(angles, angles[1:])] + [angles[0] + TWO_PI - angles[-1]]
    arc = TWO_PI - max(gaps)
    return 2.0 * math.sin(arc / 4.0)


def check_synth(circuit_text: str, report: dict, perm, phases, eps: float) -> dict:
    """Check a synthesized circuit against its target; returns its counts."""
    c = parse_circuit(circuit_text)
    n = c["qubits"]
    require(1 << n == len(perm), "circuit acts on the wrong number of qubits")
    out, anc, phase = run_basis(c)
    for t in range(1 << n):
        require(anc[t] == 0, f"input {t:0{n}b} leaves ancillas at {anc[t]:0{c['ancillas']}b}")
        require(out[t] == perm[t], f"input {t:0{n}b} maps to {out[t]:0{n}b}, want {perm[t]:0{n}b}")
    deltas = [phase[t] + c["globalphase"] - phases[t] for t in range(1 << n)]
    err = phase_optimized_error(deltas)
    require(err <= eps, f"error {err:.6g} exceeds eps {eps}")
    require(abs(err - report["achieved_error"]) <= 1e-9,
            f"reported error {report['achieved_error']:.6g} differs from {err:.6g}")
    counts = circuit_counts(c)
    require(report["gate_counts"] == counts, f"reported counts {report['gate_counts']} != file {counts}")
    require(report["ancillas"] == c["ancillas"], "reported ancillas differ from the file")
    return {
        "gates": len(c["gates"]),
        "ccnot": counts["CCNOT"],
        "rz_reps": sum(reps for kind, _, reps in c["gates"] if kind == "RZ"),
        "ancillas": c["ancillas"],
    }


# ------------------------------------------------------------ check verdicts

def check_verdict(report: dict, is_bp: bool, perm=None, phases=None) -> None:
    require(report["bp"] is is_bp, f"verdict bp={report['bp']}, construction says {is_bp}")
    require(all(v is is_bp for v in report["checks"].values()), f"verifiers disagree: {report['checks']}")
    if is_bp:
        canon = report["canonical"]
        n = len(next(iter(canon["perm"])))
        got = [int(canon["perm"][f"{s:0{n}b}"], 2) for s in range(1 << n)]
        require_same_gate(got, canon["phases"], perm, phases, "canonical form")


# ------------------------------------------------------------ CSS codes

def span(rows: list[list[int]]) -> list[int]:
    """Every codeword of the row span, as big-endian integers."""
    ints = [int("".join(map(str, r)), 2) for r in rows]
    words = []
    for coeffs in product((0, 1), repeat=len(ints)):
        w = 0
        for c, r in zip(coeffs, ints):
            if c:
                w ^= r
        words.append(w)
    return words


def c1_cosets(c1_rows, c2_rows) -> set[frozenset[int]]:
    """The C1-cosets inside C2, computed by brute-force enumeration."""
    c1, c2 = span(c1_rows), span(c2_rows)
    require(set(c1) <= set(c2), "C1 is not inside C2")
    return {frozenset(w ^ y for y in c1) for w in c2}


def check_css_build(report: dict, c1_rows, c2_rows) -> dict[int, frozenset[int]]:
    """Check `css-build --json`; returns logical index -> support."""
    n, k1, k2 = len(c1_rows[0]), len(c1_rows), len(c2_rows)
    require((report["n"], report["k"], report["l"]) == (n, k2 - k1, 1 << k1),
            f"n, k, l = {report['n']}, {report['k']}, {report['l']}")
    supports = {int(x, 2): frozenset(int(t, 2) for t in ts) for x, ts in report["supports"].items()}
    require(sorted(supports) == list(range(1 << (k2 - k1))), "supports not keyed by every logical index")
    require(set(supports.values()) == c1_cosets(c1_rows, c2_rows), "supports are not the C1-cosets in C2")
    B = [int(r, 2) for r in report["transversal"]]
    for x, sup in supports.items():
        rep = 0
        for i, row in enumerate(B):
            if x >> (len(B) - 1 - i) & 1:
                rep ^= row
        require(rep in sup, f"x*B is outside the support of logical {x}")
    return supports


def check_lift(perm, phases, supports: dict[int, frozenset[int]], c2_rows, g_perm, g_phases) -> None:
    """A lifted gate maps the support of each logical |x> onto that of
    |g(x)> with g's phase for x, and fixes every state outside C2."""
    for x, sup in supports.items():
        image = {perm[t] for t in sup}
        require(image == supports[g_perm[x]], f"support of logical {x} is not mapped onto a coset")
        worst = max(circle_dist(phases[t], g_phases[x]) for t in sup)
        require(worst <= PHASE_TOL, f"phase on the support of logical {x} is not constant")
    inside = set(span(c2_rows))
    for t in range(len(perm)):
        if t not in inside:
            require(perm[t] == t and circle_dist(phases[t], 0.0) <= PHASE_TOL,
                    f"state {t} outside C2 is moved")
