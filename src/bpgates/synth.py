"""Compiling bias-preserving gates into {X, Rz(θ), CNOT, CCNOT}.

The target in canonical form factors as G = D·P: a permutation P realized
exactly from {X, CNOT, CCNOT} as transpositions, each one multi-controlled X
conjugated by CNOTs, and a diagonal D approximated one-level factor at a
time by repeating the fixed rotation Rz(θ), the factors' basis states
selected by one unary-iteration walk over a shared AND tree of ancillas.
All approximation error lives in the diagonal stage.

The one-level factors act on distinct basis states, so their errors do not
add: each factor gets the full budget eps, every residual k·θ − φ lies in
(−eps, eps), and the phase-optimized error is the chord to the shortest arc
holding the residuals, at most 2·sin(eps/2) < eps. The smallest k for each
factor is found exactly, by a continued-fraction search on θ/(2π) with no
loop over k.

Sequence semantics: target ≈ e^{i·global_phase} · simulate(sequence), with
ancillas supplied and returned in |0⟩.
`simulate` and `simulate_restricted` push basis indices through the gates
and return a PermutationWithPhases; certification compares its per-state
phases with the target's and builds no dense matrix. The simulator is
bit-sliced: each qubit of all inputs is one Python integer, so a
permutation gate is one integer operation however many inputs there are.
"""

from __future__ import annotations

import functools
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .linalg import GOLDEN_THETA, require_monomial_cap, shortest_arc_chord
from .stages import Stage
from .verify import TWO_PI, PermutationWithPhases

ARITY = {"X": 1, "RZ": 1, "CNOT": 2, "CCNOT": 3}  # qubits each gate kind acts on
GATE_KINDS = tuple(ARITY)

# Phases closer to 0 (mod 2pi) than this are treated as trivial diagonal
# factors and emit no gates.
PHASE_TRIVIAL = 1e-12

# Widest register whose basis indices fit the simulator's int64 arrays.
INDEX_QUBITS = 63

# Unpacked bytes of RZ snapshots the simulator holds at a time: its memory
# stays O(this + qubits·inputs), not O(#RZ·inputs).
_UNPACK_BYTES = 1 << 20

log = logging.getLogger(__name__)


class PhaseApproximationError(RuntimeError):
    """No repetition count k reaches a phase within budget: θ/(2π) is
    rational at double precision and its multiples miss the window, or the
    smallest k exceeds the cap. Also raised by a report whose certified error
    exceeds its budget."""


class AncillaNotRestoredError(RuntimeError):
    """A sequence left some ancilla out of |0⟩ on an input that supplied
    ancillas in |0⟩."""


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str  # one of GATE_KINDS
    qubits: tuple[int, ...]
    reps: int = 1  # repetition count, RZ only

    def __post_init__(self):
        arity = ARITY.get(self.kind)
        if arity is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s)")
        if len(set(self.qubits)) != arity:
            raise ValueError(f"{self.kind} qubit indices must be distinct")
        if self.reps != 1 and self.kind != "RZ":
            raise ValueError("repetition count is only meaningful for RZ")
        if self.reps < 0:
            raise ValueError("repetition count must be nonnegative")


@dataclass
class GateSequence:
    n_data: int
    n_anc: int = 0
    gates: list[Gate] = field(default_factory=list)
    theta: float = GOLDEN_THETA
    global_phase: float = 0.0

    @property
    def n_total(self) -> int:
        return self.n_data + self.n_anc

    def validate(self) -> None:
        used = {q for g in self.gates for q in g.qubits}
        if used and (min(used) < 0 or max(used) >= self.n_total):
            bad = next(
                g for g in self.gates if any(q < 0 or q >= self.n_total for q in g.qubits)
            )
            raise ValueError(f"gate {bad} addresses qubit outside register")

    def gate_counts(self) -> dict[str, int]:
        counts = {k: 0 for k in GATE_KINDS}
        for g in self.gates:
            counts[g.kind] += 1
        return counts


@dataclass(frozen=True)
class SynthesisReport:
    sequence: GateSequence
    target_eps: float
    achieved_error: float
    gate_counts: dict[str, int]
    # gate counts of the "permutation" and "diagonal" stages
    stage_gate_counts: dict[str, dict[str, int]]
    # largest |k·θ − φ| over the diagonal factors (wrapped to [0, π]), read
    # off the certificate's per-state phases; each is below target_eps
    max_phase_residual: float
    # repetition count k of each diagonal factor's Rz(θ)^k, in emission order
    factor_reps: tuple[int, ...]

    def __post_init__(self):
        if self.achieved_error > self.target_eps:
            raise PhaseApproximationError(
                f"achieved error {self.achieved_error} exceeds budget {self.target_eps}"
            )


def _monomial(seq: GateSequence, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Push the basis indices `inputs` through the sequence: inputs[j] ends at
    basis index target[j] with phase phase[j]. Every primitive is a
    signed-phase permutation, so this is exact.

    Bit-sliced: planes[q] is one Python integer whose bit j is qubit q of
    input j, so each X, CNOT or CCNOT is one integer operation on all inputs
    at once. An RZ yields its angle and planes[q], a snapshot since integers
    are immutable, and the phases are summed from the snapshots in gate
    order, as a per-gate loop would sum them, about _UNPACK_BYTES unpacked
    bytes of snapshots at a time."""
    seq.validate()
    m = seq.n_total
    if m > INDEX_QUBITS:
        raise ValueError(f"{m} qubits exceeds the {INDEX_QUBITS}-qubit basis-index width")
    inputs = np.asarray(inputs, dtype=np.int64)
    size = inputs.size
    nbytes = (size + 7) // 8
    # big-endian: qubit q is integer bit position m-1-q
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    bits = ((inputs >> shifts[:, None]) & 1).astype(np.uint8)
    planes = [
        int.from_bytes(row.tobytes(), "little")
        for row in np.packbits(bits, axis=1, bitorder="little")
    ]
    ones = (1 << size) - 1

    def unpack(values: list[int] | tuple[int, ...]) -> np.ndarray:
        packed = b"".join(v.to_bytes(nbytes, "little") for v in values)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(len(values), nbytes)
        return np.unpackbits(rows, axis=1, count=size, bitorder="little")

    def walk():  # the gates, run as the RZ snapshots are drawn
        for g in seq.gates:
            q = g.qubits
            kind = g.kind
            if kind == "CCNOT":
                planes[q[2]] ^= planes[q[0]] & planes[q[1]]
            elif kind == "CNOT":
                planes[q[1]] ^= planes[q[0]]
            elif kind == "X":
                planes[q[0]] ^= ones
            else:  # RZ: diag(e^{-i k θ/2}, e^{+i k θ/2}) on the qubit
                # reduced mod 2π first: summing large angles would lose precision
                yield 0.5 * g.reps * seq.theta % TWO_PI, planes[q[0]]

    phase = np.zeros(size)
    snapshots = walk()
    while chunk := list(islice(snapshots, max(1, _UNPACK_BYTES // max(size, 1)))):
        angles, taken = zip(*chunk)
        for angle, row in zip(angles, unpack(taken)):
            phase += angle * (2.0 * row - 1.0)
    target = np.zeros(size, dtype=np.int64)  # planes hold the outputs: the walk has run
    for shift, row in zip(shifts.tolist(), unpack(planes)):
        target |= row.astype(np.int64) << shift
    return target, phase


def simulate(seq: GateSequence) -> PermutationWithPhases:
    """The sequence on all n_data + n_anc qubits (global_phase not applied)."""
    require_monomial_cap(seq.n_total)
    target, phase = _monomial(seq, np.arange(1 << seq.n_total))
    return PermutationWithPhases(seq.n_total, target, phase)


def simulate_restricted(seq: GateSequence) -> PermutationWithPhases:
    """The sequence on the data qubits, with ancillas in and out at |0⟩
    (global_phase not applied), from the 2^n_data inputs |data⟩⊗|0...0⟩ alone.
    Raises AncillaNotRestoredError if any of them leaves an ancilla excited."""
    require_monomial_cap(seq.n_data)
    target, phase = _monomial(seq, np.arange(1 << seq.n_data) << seq.n_anc)
    left = target & ((1 << seq.n_anc) - 1)
    bad = np.flatnonzero(left)
    if bad.size:
        d = int(bad[0])
        raise AncillaNotRestoredError(
            f"input {d:0{seq.n_data}b} leaves ancillas at {int(left[d]):0{seq.n_anc}b}"
        )
    return PermutationWithPhases(seq.n_data, target >> seq.n_anc, phase)


def factor_dp(p: PermutationWithPhases) -> tuple[np.ndarray, np.ndarray]:
    """G = D·P with P the bare permutation and D the diagonal of phases
    re-indexed to target positions: D[σ(s)] = e^{iφ_s}."""
    d = np.zeros(1 << p.n)
    d[p.perm] = p.phases
    return d, p.perm


def _mcx_ladder(n: int, flip_qubit: int, anc_start: int, gate) -> tuple[list[Gate], int]:
    """X on flip_qubit controlled on every other qubit being 1, built from the
    generating set by `gate`. Past two controls, a Toffoli ladder ANDs them
    pairwise into c − 2 clean ancillas from anc_start and undoes it. Returns
    (gates, ancillas used)."""
    controls = [q for q in range(n) if q != flip_qubit]
    c = len(controls)
    if c <= 2:
        return [gate(("X", "CNOT", "CCNOT")[c], (*controls, flip_qubit))], 0
    anc = range(anc_start, anc_start + c - 2)
    compute = [gate("CCNOT", (controls[0], controls[1], anc[0]))]
    compute += [gate("CCNOT", (controls[i], anc[i - 2], anc[i - 1])) for i in range(2, c - 1)]
    body = [gate("CCNOT", (controls[-1], anc[-1], flip_qubit))]
    return compute + body + compute[::-1], c - 2


class _SharedGates:
    """The gates of the transpositions on n qubits, each distinct one built
    once (Gate is frozen, so circuits share them), and the ladder of each
    flip qubit."""

    def __init__(self, n: int, anc_start: int):
        self.gate = gate = functools.cache(Gate)  # no cycle through self: freed on return
        self.mcx = functools.cache(lambda p: _mcx_ladder(n, p, anc_start, gate))


def _transposition(
    n: int, a: int, b: int, anc_start: int, shared: _SharedGates | None = None
) -> tuple[list[Gate], int]:
    """Exact swap of basis states |a⟩ ↔ |b⟩, conjugated by CNOTs.

    With p a qubit where a and b differ, CNOTs from p onto the other d − 1
    differing qubits map a and b to images that differ in p alone; the map
    is linear and invertible, so it moves no other pair onto them. One X on
    p controlled on the other n − 1 qubits of a's image swaps the images,
    its zero-valued controls conjugated with X, and the CNOTs are undone
    (Shende, Prasad, Markov, Hayes, IEEE TCAD 22(6), 2003)."""
    if shared is None:
        shared = _SharedGates(n, anc_start)
    gate = shared.gate
    diff = a ^ b
    p = n - diff.bit_length()  # the most significant differing qubit
    bit_p = a >> (n - 1 - p) & 1
    fan = [gate("CNOT", (p, q)) for q in range(p + 1, n) if diff >> (n - 1 - q) & 1]
    # a's image: each fanned-out qubit of a flips when a holds 1 on p
    image = a ^ (diff ^ 1 << (n - 1 - p)) * bit_p
    conj = [gate("X", (q,)) for q in range(n) if q != p and not image >> (n - 1 - q) & 1]
    mcx, n_anc = shared.mcx(p)
    return fan + conj + mcx + conj[::-1] + fan[::-1], n_anc


def permutation_to_circuit(perm: tuple[int, ...] | list[int] | np.ndarray, n: int) -> GateSequence:
    """Exact realization of a basis permutation over {X, CNOT, CCNOT}.

    Cycles are split into transpositions sharing the cycle's first element;
    each transposition is one multi-controlled X conjugated by CNOTs."""
    dim = 1 << n
    perm = np.asarray(perm).tolist()
    if sorted(perm) != list(range(dim)):
        raise ValueError("not a bijection on basis indices")
    # cycle decomposition; (c0 c1 ... c_{m-1}) = (c0 c_{m-1})···(c0 c1),
    # with (c0 c1) applied first in circuit time
    transpositions: list[tuple[int, int]] = []
    seen = [False] * dim
    for start in range(dim):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        t = perm[start]
        while t != start:
            cycle.append(t)
            seen[t] = True
            t = perm[t]
        for t in cycle[1:]:
            transpositions.append((cycle[0], t))
    gates: list[Gate] = []
    n_anc = 0
    shared = _SharedGates(n, anc_start=n)
    for a, b in transpositions:
        g, used = _transposition(n, a, b, anc_start=n, shared=shared)
        n_anc = max(n_anc, used)
        gates.extend(g)
    return GateSequence(n_data=n, n_anc=n_anc, gates=gates, global_phase=0.0)


def circular_distance(a: float, b: float) -> float:
    """Distance between angles on the circle, in [0, π]."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _check_eps_theta(eps: float, theta: float) -> None:
    """Refuse an eps or theta the certificate cannot vouch for. k·θ is reduced
    modulo the double TWO_PI, 2.4e-16 off 2π, which shifts the true phase by
    about (k·θ/2π)·2.4e-16 unseen: |θ| < 2π keeps that below k·2.4e-16."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not abs(theta) < TWO_PI:  # also refuses nan and inf
        raise ValueError(f"theta must lie in (-2*pi, 2*pi), got {theta}")


def _first_hit(a: int, m: int, lo: int, hi: int) -> int | None:
    """Smallest x ≥ 0 with lo ≤ a·x mod m ≤ hi, for 0 < lo ≤ hi < m; None
    if there is none.

    If no multiple of a lies in [lo, hi], the first hit a·x = m·y + r has the
    smallest wrap count y, and y is the first hit of m·y mod a in
    [(−hi) mod a, (−lo) mod a]: the same problem on (m mod a, a), again with
    0 < lo ≤ hi. The levels are the steps of Euclid's algorithm on a/m, i.e.
    its continued fraction; they end at a hit, or at a = 0 when every
    multiple of a/m misses the range."""
    a %= m
    levels = []
    while a:
        x = -(-lo // a)
        if a * x <= hi:
            for a, m, lo in reversed(levels):  # x is the wrap count one level up
                x = -(-(lo + m * x) // a)
            return x
        levels.append((a, m, lo))
        a, m, lo, hi = m % a, a, (-hi) % a, (-lo) % a
    return None


def approximate_phase(
    phi: float, eps: float, theta: float = GOLDEN_THETA, cap: int = 10**7
) -> int:
    """Smallest k ≥ 0 with k·θ within eps of φ on the circle (distance < eps).

    Exact, with no loop over k: θ, 2π, φ and eps are doubles, so dyadic
    rationals. Over their common denominator, k·θ mod 2π is a·k mod m in
    integers and the open window around φ is an integer range; if the range
    holds 0, k = 0, and otherwise `_first_hit` solves it in O(log m) steps.

    Raises PhaseApproximationError for either of two causes: no k exists
    (θ/(2π) is rational at double precision, e.g. θ = 0 or 2π/8, and no
    multiple lands in the window), or the smallest k exceeds cap."""
    _check_eps_theta(eps, theta)
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    ratios = [x.as_integer_ratio() for x in (theta, TWO_PI, phi, eps)]
    den = max(d for _, d in ratios)  # every denominator is a power of two
    a, m, p, e = (num * (den // d) for num, d in ratios)
    p %= m
    # residues r with circular distance |r − p| < e
    lo, hi = p - e + 1, p + e - 1
    if lo <= 0 or hi >= m:
        return 0
    k = _first_hit(a, m, lo, hi)
    if k is None:
        raise PhaseApproximationError(
            f"no multiple of theta={theta!r} comes within {eps} of {phi}: "
            "theta/(2*pi) is rational at double precision"
        )
    if k > cap:
        raise PhaseApproximationError(
            f"the smallest k with k*theta within {eps} of {phi} exceeds the cap {cap}"
        )
    return k


def _unary_iteration(n: int, indices: list[int], reps: list[int]) -> list[Gate]:
    """RZ^{reps[i]} on a flag qubit that is 1 on basis state indices[i] alone,
    for sorted distinct indices, in one depth-first walk over a shared AND
    tree (unary iteration: Babbush et al., PRX 8, 041015, 2018, §III.A).

    Flag a_j holds "qubits 0..j match the current prefix". a_0 is qubit 0
    itself, flipped by one X pair around its 0-subtree; a_j for j ≥ 1 is
    ancilla n + j − 1, clean outside its subtree. Entering the 0-branch of
    qubit j sets a_j = a_{j−1}·¬q_j by a CNOT and a CCNOT, a CNOT switches it
    to a_{j−1}·q_j for the 1-branch, and a CCNOT clears it; a 1-branch
    alone is entered by the CCNOT. The walk takes the 0-branch first, so the
    rotations follow `indices`, and skips a subtree holding no index, found
    by bisection."""
    flag = [0, *range(n, 2 * n - 1)]
    gates: list[Gate] = []

    def walk(lo: int, hi: int, j: int) -> None:
        # indices[lo:hi], nonempty, are the indices under the prefix a_j holds
        if j == n - 1:
            gates.append(Gate("RZ", (flag[j],), reps=reps[lo]))
            return
        c, shift = j + 1, n - 2 - j
        mid = bisect_left(indices, (indices[lo] >> shift | 1) << shift, lo, hi)
        switch = Gate("CNOT", (flag[j], flag[c]))
        toggle = Gate("CCNOT", (flag[j], c, flag[c]))
        if lo < mid:
            gates.extend((switch, toggle))
            walk(lo, mid, c)
            gates.append(switch)
        else:
            gates.append(toggle)
        if mid < hi:
            walk(mid, hi, c)
        gates.append(toggle)

    half = bisect_left(indices, 1 << (n - 1))
    if half:
        flip = Gate("X", (0,))
        gates.append(flip)
        walk(0, half, 0)
        gates.append(flip)
    if half < len(indices):
        walk(half, len(indices), 0)
    return gates


def diagonal_to_circuit(
    phases: np.ndarray | list[float],
    eps: float,
    theta: float = GOLDEN_THETA,
) -> GateSequence:
    """Approximate diag(e^{iφ_0}, ..., e^{iφ_{2^n-1}}) over the gate set.

    Each nontrivial one-level factor gets the full eps: it leaves residual
    δ_j = k_j·θ − φ_j on basis state j alone, with |δ_j| < eps, and trivial
    factors leave 0. Distinct factors touch distinct states, so the worst
    case over states is the maximum, not the sum: every residual sits on an
    arc shorter than 2·eps, and the phase-optimized error is below
    2·sin(eps/2) < eps."""
    phases = [float(p) % TWO_PI for p in phases]
    dim = len(phases)
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise ValueError("phase list length must be a power of two")
    nontrivial = [j for j in range(dim) if circular_distance(phases[j], 0.0) > PHASE_TRIVIAL]
    seq = GateSequence(n_data=n, n_anc=0, gates=[], theta=theta, global_phase=0.0)
    if n == 0:  # a global phase, exact
        seq.global_phase = phases[0]
        return seq
    if not nontrivial:
        return seq
    reps = [approximate_phase(phases[j], eps, theta) for j in nontrivial]
    seq.gates = _unary_iteration(n, nontrivial, reps)
    seq.n_anc = n - 1
    # RZ^k gives its state e^{+ikθ/2} and every other e^{−ikθ/2}; the global
    # phase e^{+ikθ/2} makes these e^{ikθ} and 1
    for k in reps:
        seq.global_phase = (seq.global_phase + 0.5 * k * theta) % TWO_PI
    return seq


def synthesize(
    p: PermutationWithPhases,
    eps: float,
    theta: float = GOLDEN_THETA,
) -> SynthesisReport:
    """Compile a bias-preserving gate with certified error below eps.

    The permutation stage is exact; the diagonal stage carries the whole
    budget. achieved_error is the phase-optimized worst-case error between
    the target U and the simulated data-qubit restriction V: both permute by
    σ, so the eigenvalues of U†V are e^{i(ψ_s − φ_s)}. Any other permutation
    is a synthesis bug and raises RuntimeError."""
    _check_eps_theta(eps, theta)
    d_phases, perm = factor_dp(p)
    with Stage(log, "permutation"):
        perm_seq = permutation_to_circuit(perm, p.n)
    with Stage(log, "diagonal"):
        diag_seq = diagonal_to_circuit(d_phases, eps, theta)
    seq = GateSequence(
        n_data=p.n,
        n_anc=max(perm_seq.n_anc, diag_seq.n_anc),
        gates=perm_seq.gates + diag_seq.gates,  # G = D·P: P acts first
        theta=theta,
        global_phase=diag_seq.global_phase,
    )
    with Stage(log, "certify"):
        achieved = simulate_restricted(seq)
        if not np.array_equal(achieved.perm, p.perm):
            raise RuntimeError("synthesized permutation differs from the target's")
        deltas = achieved.phases - p.phases
        residuals = np.abs((deltas + seq.global_phase + np.pi) % TWO_PI - np.pi)
    stages = {"permutation": perm_seq.gate_counts(), "diagonal": diag_seq.gate_counts()}
    return SynthesisReport(
        sequence=seq,
        target_eps=eps,
        achieved_error=shortest_arc_chord(deltas),
        gate_counts={k: sum(c[k] for c in stages.values()) for k in GATE_KINDS},
        stage_gate_counts=stages,
        max_phase_residual=float(residuals.max()),
        factor_reps=tuple(g.reps for g in diag_seq.gates if g.kind == "RZ"),
    )
