"""Compiling bias-preserving gates into {X, Rz(θ), CNOT, CCNOT}.

The target in canonical form factors as G = D·P: a permutation P realized
exactly from {X, CNOT, CCNOT} as transpositions, each one multi-controlled X
conjugated by CNOTs and Xs, and a diagonal D approximated one-level factor
at a time by repeating the fixed rotation Rz(θ), the factors' basis states
selected by one unary-iteration walk over a shared AND tree of ancillas.
All approximation error lives in the diagonal stage. Where one
transposition's conjugation meets the next one's, the two are merged into
one frame change as they are emitted, exactly, by two commutation facts: an
X on a qubit other than a CNOT's control commutes with it, and the compute
gates of a multi-controlled X's Toffoli ladder, which write only ancillas,
commute with a frame change that writes none of the qubits they read. Both
stages build each distinct gate once, through one cache per synthesis.

The one-level factors act on distinct basis states, so their errors do not
add: each factor gets the full budget eps, and the phase-optimized error
counts only the shortest arc holding the residuals, so the global phase is
free. All factors share one integer shift j of it: every residual
(k − j)·θ − φ lies in (−eps, eps), and the error is at most
2·sin(eps/2) < eps. Each factor's count k may be negative, realized as
X·Rz(θ)^{|k|}·X = Rz(θ)^k on its flag qubit, and is the k of smallest |k|
for its window at j. At j = 0 that k is found exactly, by one descent of the
window around φ and its mirror down the continued fraction of θ/(2π), with
no loop over k; from it the window's other members follow by Slater's
three-gap rule, and one sweep over them all picks the j of least Σ|k|. A
factor becomes gates only when its k ≠ 0: a phase within eps of 0 costs
none, and a diagonal with no other factor is the bare sequence.

Sequence semantics: target ≈ e^{i·global_phase} · simulate(sequence), with
ancillas supplied and returned in |0⟩.
`simulate` and `simulate_restricted` push basis indices through the gates
and return a PermutationWithPhases; certification compares its per-state
phases with the target's and builds no dense matrix. A state's phase is its
signed sum of RZ counts, an integer, times θ/2, reduced exactly modulo
TWO_PI and rounded once. The simulator is
bit-sliced: each qubit of all inputs is one Python integer, so a
permutation gate is one integer operation however many inputs there are.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

import numpy as np

from .linalg import (GOLDEN_THETA, INDEX_QUBITS, bits_index, index_bits, index_to_bits,
                     require_monomial_cap, shortest_arc_chord)
from .stages import Stage
from .verify import TWO_PI, PermutationWithPhases

ARITY = {"X": 1, "RZ": 1, "CNOT": 2, "CCNOT": 3}  # qubits each gate kind acts on
GATE_KINDS = tuple(ARITY)

# Widest target synthesize accepts. Its certificate pushes all 2^n inputs
# through a circuit of O(n·2^n) gates, O(n·4^n) in all: random 16-qubit
# targets took 14.9 s and 18-qubit ones 340 s.
SYNTH_QUBIT_CAP = 16

# Largest |k| approximate_phase returns for a factor Rz(θ)^k: the
# certificate's model error, about (|k·θ|/2π)·2.4e-16, stays under 2.5e-9.
PHASE_REPS_CAP = 10**7

# Unpacked bytes of RZ snapshots the simulator holds at a time: its memory
# stays O(this + qubits·inputs), not O(#RZ·inputs).
_UNPACK_BYTES = 1 << 20

# Largest sum of the RZ repetition counts of a sequence the simulator takes:
# each input's signed sum of them is then exact in int64.
RZ_REPS_CAP = (1 << 63) - 1

log = logging.getLogger(__name__)


class PhaseApproximationError(RuntimeError):
    """No repetition count k reaches a phase within budget: θ/(2π) is
    rational at double precision and its multiples miss the window, or the
    smallest |k| exceeds the cap. Also raised by a report whose certified error
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


@dataclass
class DiagonalSequence(GateSequence):
    """The diagonal stage's circuit, the signed repetition count k of each
    factor it emits, those with k ≠ 0, in emission order, and the shift j
    they share: factor s leaves phase (k − j)·θ on its state."""
    factor_reps: tuple[int, ...] = ()
    phase_shift: int = 0


@dataclass(frozen=True)
class SynthesisReport:
    sequence: GateSequence
    target_eps: float
    achieved_error: float
    gate_counts: dict[str, int]
    # gate counts of the "permutation" and "diagonal" stages
    stage_gate_counts: dict[str, dict[str, int]]
    # largest |(k − j)·θ − φ| over the diagonal factors (wrapped to [0, π]),
    # read off the certificate's per-state phases; each is below target_eps
    max_phase_residual: float
    # signed repetition count k of each diagonal factor's Rz(θ)^k, in
    # emission order: RZ^{|k|}, under X on its flag where k < 0
    factor_reps: tuple[int, ...]
    # the shift j all diagonal factors share, and Σ|k|, the Rz(θ) repetitions
    phase_shift: int
    rz_reps: int
    # wall seconds of the "permutation", "diagonal" and "certify" stages
    stage_seconds: dict[str, float]

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
    at once. An RZ^k yields k and planes[q], a snapshot since integers are
    immutable, and each input's signed count Σ ±k, + where its qubit is 1,
    is summed in int64 from the snapshots, about _UNPACK_BYTES unpacked
    bytes of them at a time; RZ_REPS_CAP keeps the sums exact. Each input's
    phase is then its count times θ/2, reduced exactly by `_half_angle`, so
    it is rounded once."""
    seq.validate()
    m = seq.n_total
    if m > INDEX_QUBITS:
        raise ValueError(f"{m} qubits exceeds the {INDEX_QUBITS}-qubit basis-index width")
    size = np.size(inputs)
    nbytes = (size + 7) // 8
    planes = [int.from_bytes(row.tobytes(), "little")
              for row in np.packbits(index_bits(inputs, m).T, axis=1, bitorder="little")]
    ones = (1 << size) - 1

    def unpack(values: list[int] | tuple[int, ...]) -> np.ndarray:
        packed = b"".join(v.to_bytes(nbytes, "little") for v in values)
        rows = np.frombuffer(packed, dtype=np.uint8).reshape(len(values), nbytes)
        return np.unpackbits(rows, axis=1, count=size, bitorder="little")

    total = 0  # Σ k over every RZ^k

    def walk():  # the gates, run as the RZ snapshots are drawn
        nonlocal total
        for g in seq.gates:
            q = g.qubits
            kind = g.kind
            if kind == "CCNOT":
                planes[q[2]] ^= planes[q[0]] & planes[q[1]]
            elif kind == "CNOT":
                planes[q[1]] ^= planes[q[0]]
            elif kind == "X":
                planes[q[0]] ^= ones
            else:  # RZ^k: diag(e^{-i k θ/2}, e^{+i k θ/2}) on the qubit
                total += g.reps
                if total > RZ_REPS_CAP:
                    raise ValueError(f"RZ counts sum past the cap {RZ_REPS_CAP}")
                yield g.reps, planes[q[0]]

    up = np.zeros(size, dtype=np.int64)  # Σ k over the RZ^k met with the qubit at 1
    snapshots = walk()
    while chunk := list(islice(snapshots, max(1, _UNPACK_BYTES // max(size, 1)))):
        reps, taken = zip(*chunk)
        for k, row in zip(reps, unpack(taken)):
            up += np.multiply(row, k, dtype=np.int64)
    count = up - (total - up)  # cannot overflow
    distinct = np.unique(count)  # one exact angle each
    phase = np.array([_half_angle(c, seq.theta) for c in distinct.tolist()], dtype=float)
    phase = phase[np.searchsorted(distinct, count)]
    # planes hold the outputs: the walk has run
    return bits_index(unpack(planes).T), phase


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
    if left.any():
        d = int(np.flatnonzero(left)[0])
        raise AncillaNotRestoredError(f"input {index_to_bits(d, seq.n_data)} leaves ancillas at "
                                      f"{index_to_bits(int(left[d]), seq.n_anc)}")
    return PermutationWithPhases(seq.n_data, target >> seq.n_anc, phase)


def factor_dp(p: PermutationWithPhases) -> tuple[np.ndarray, np.ndarray]:
    """G = D·P with P the bare permutation and D the diagonal of phases
    re-indexed to target positions: D[σ(s)] = e^{iφ_s}."""
    d = np.zeros(1 << p.n)
    d[p.perm] = p.phases
    return d, p.perm


def _mcx_ladder(n: int, flip_qubit: int, gate) -> tuple[tuple[Gate, ...], Gate, int]:
    """X on flip_qubit controlled on every other qubit being 1, built from the
    generating set by `gate`, as compute + (body,) + compute[::-1]. Past two
    controls, a Toffoli ladder ANDs them pairwise into c − 2 clean ancillas
    from qubit n, and the compute gates write only those ancillas; with at
    most two, compute is empty. Returns (compute, body, ancillas used)."""
    controls = [q for q in range(n) if q != flip_qubit]
    c = len(controls)
    if c <= 2:
        return (), gate(("X", "CNOT", "CCNOT")[c], (*controls, flip_qubit)), 0
    anc = range(n, n + c - 2)
    compute = (gate("CCNOT", (controls[0], controls[1], anc[0])),
               *(gate("CCNOT", (controls[i], anc[i - 2], anc[i - 1])) for i in range(2, c - 1)))
    return compute, gate("CCNOT", (controls[-1], anc[-1], flip_qubit)), c - 2


class _Table(dict):
    """A dict that fills each missing key with make(key) on first lookup."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _transpositions(perm: list[int]):
    """The transpositions whose product is perm, in circuit order: each cycle
    (c0 c1 ... c_{m-1}) = (c0 c_{m-1})···(c0 c1), with (c0 c1) first."""
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        seen[start] = True
        t = perm[start]
        while t != start:
            yield start, t
            seen[t] = True
            t = perm[t]


def _frame(n: int, a: int, b: int) -> tuple[int, int, int]:
    """The frame (p, D, Z) that swaps |a⟩ ↔ |b⟩ by one multi-controlled X.

    p is the most significant qubit where a and b differ. CNOTs from p onto
    the other differing qubits, the fan mask D, map a and b to images that
    differ in p alone; the map is linear and invertible, so it moves no other
    pair onto them. X gates on the qubits but p where a's image holds 0, the
    X mask Z, turn the images into the two states with every qubit but p at
    1, which one X on p controlled on the other n − 1 qubits swaps (Shende,
    Prasad, Markov, Hayes, IEEE TCAD 22(6), 2003). D and Z are masks on basis
    index bits: qubit q is bit n − 1 − q."""
    diff = a ^ b
    top = 1 << (diff.bit_length() - 1)
    fan = diff ^ top
    image = a ^ fan if a & top else a
    return n - diff.bit_length(), fan, ((1 << n) - 1 ^ image) & ~top


def permutation_to_circuit(perm: tuple[int, ...] | list[int] | np.ndarray, n: int,
                           gate=None) -> GateSequence:
    """Exact realization of a basis permutation over {X, CNOT, CCNOT}.

    Cycles are split into transpositions sharing the cycle's first element.
    Each transposition is a block fan·conj·MCX·conj·fan in its frame (p, D, Z)
    of `_frame`: fan is CNOT(p, q) for q in D, conj is X on Z, and MCX is
    p's ladder of `_mcx_ladder`. Where one block's tail conj·fan meets the
    next block's head fan′·conj′, the two are merged into one frame change
    as the blocks are emitted, by two commutation facts:

    - an X on a qubit other than a CNOT's control commutes with it, so with
      equal pivots every gate of the junction commutes (each CNOT has control
      p, and no X sits on p), and the junction is CNOT(p, D ⊕ D′), X(Z ⊕ Z′);
      with different pivots, the X on Z ∧ Z′, which sits on neither pivot,
      passes both fans and cancels;
    - a ladder's compute gates write only ancillas and read data qubits, so
      they commute with a junction that writes none of the qubits they read;
      then the last uncompute gates of one ladder cancel the first compute
      gates of the next, from the outside in, while the two are equal.

    The circuit equals the blocks' product on every input, ancillas included,
    and holds no more gates of any kind. Each distinct gate is built once by
    `gate`, a Gate factory (by default a fresh cache: Gate is frozen), and
    so is each pivot's ladder."""
    dim = 1 << n
    perm = np.asarray(perm).tolist()
    if sorted(perm) != list(range(dim)):
        raise ValueError("not a bijection on basis indices")
    gate = gate or functools.cache(Gate)

    def fan_gates(key: tuple[int, int]) -> tuple[Gate, ...]:
        p, mask = key
        return tuple(gate("CNOT", (p, q)) for q in range(p + 1, n) if mask >> (n - 1 - q) & 1)

    def cancels(key: tuple[int, int, int]) -> int:
        """How many uncompute gates of ladder p cancel as many compute gates
        of ladder p2 across a junction writing the qubits of `written`."""
        p, p2, written = key
        k = 0
        for g, h in zip(ladder[p][0], ladder[p2][0]):
            if g is not h or any(q < n and written >> (n - 1 - q) & 1 for q in g.qubits[:2]):
                break
            k += 1
        return k

    # each X mask, fan, pivot's ladder and ladder cancellation, made once
    xs = _Table(lambda mask: tuple(gate("X", (q,)) for q in range(n) if mask >> (n - 1 - q) & 1))
    fan = _Table(fan_gates)
    ladder = _Table(lambda p: _mcx_ladder(n, p, gate))
    cancelled = _Table(cancels)

    def emit_ladder(p: int, first: int, last: int) -> None:
        # the ladder less its first `first` compute and last `last` uncompute gates
        compute, body, _ = ladder[p]
        gates.extend(compute[first:])
        gates.append(body)
        gates.extend(reversed(compute[last:]))

    gates: list[Gate] = []
    pending = None  # (p, D, Z, compute gates cancelled) of the block whose ladder is next
    for a, b in _transpositions(perm):
        p, d, z = _frame(n, a, b)
        if pending is None:
            gates += fan[p, d] + xs[z]
            pending = p, d, z, 0
            continue
        p0, d0, z0, first = pending
        if p0 == p:
            junction = fan[p, d0 ^ d] + xs[z0 ^ z]
            written = d0 ^ d | z0 ^ z
        else:
            common = z0 & z
            junction = xs[z0 ^ common] + fan[p0, d0] + fan[p, d] + xs[z ^ common]
            written = d0 | d | (z0 | z) ^ common
        last = cancelled[p0, p, written]
        emit_ladder(p0, first, last)
        gates += junction
        pending = p, d, z, last
    if pending is None:
        return GateSequence(n_data=n)
    p, d, z, first = pending
    emit_ladder(p, first, 0)
    gates += xs[z] + fan[p, d]
    return GateSequence(n_data=n, n_anc=ladder[p][2], gates=gates, global_phase=0.0)


def check_theta(theta: float) -> None:
    """Refuse a theta the certificate cannot vouch for. k·θ is reduced modulo
    the double TWO_PI, 2.4e-16 off 2π, which shifts the true phase by about
    (k·θ/2π)·2.4e-16 unseen: |θ| < 2π keeps that below k·2.4e-16."""
    if not abs(theta) < TWO_PI:  # also refuses nan and inf
        raise ValueError(f"theta must lie in (-2*pi, 2*pi), got {theta}")


def _check_eps_theta(eps: float, theta: float) -> None:
    """Refuse an eps or theta the certificate cannot vouch for."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    check_theta(theta)


def _dyadic(*values: float) -> tuple[int, list[int]]:
    """(den, numerators) of doubles over their common denominator den: each
    double is a dyadic rational, so den is the largest denominator."""
    ratios = [x.as_integer_ratio() for x in values]
    den = max(d for _, d in ratios)
    return den, [num * (den // d) for num, d in ratios]


@functools.lru_cache(maxsize=64)
def _half_turn(theta: float) -> tuple[int, int, int]:
    """(a, 2m, 2·den) with θ = a/den and TWO_PI = m/den, so that
    c·θ/2 mod TWO_PI = (c·a mod 2m)/(2·den) for every integer c."""
    den, (a, m) = _dyadic(theta, TWO_PI)
    return a, 2 * m, 2 * den


def _half_angle(count: int, theta: float) -> float:
    """count·θ/2 modulo TWO_PI, exact until it is rounded once: the
    reduction runs in integers, by `_half_turn`, and the division of two
    Python integers rounds correctly."""
    a, m2, den2 = _half_turn(theta)
    return count * a % m2 / den2


class _Chain(NamedTuple):
    """Multiples of a modulo m, in integers: the remainders of Euclid's
    algorithm on a/m, a_0 = a mod m, a_1 = m mod a_0, a_{i+1} = a_{i−1} mod
    a_i, down to the last a_i > 0, which is g = gcd(a, m); and the inverse
    of a_0/g modulo m/g, which turns a residue back into a count."""
    remainders: tuple[int, ...]
    modulus: int
    inverse: int

    @classmethod
    def of(cls, a: int, m: int) -> _Chain:
        remainders = []
        a, b = a % m, m
        while a:
            remainders.append(a)
            a, b = b % a, a
        if not remainders:  # m divides a
            return cls((), m, 0)
        g = remainders[-1]
        return cls(tuple(remainders), m, pow(remainders[0] // g, -1, m // g))

    def scaled(self, shift: int) -> _Chain:
        """The chain of (a·2^shift)/(m·2^shift): each Euclid step is
        homogeneous, so every remainder scales, and the inverse stays."""
        return _Chain(tuple(a << shift for a in self.remainders), self.modulus << shift, self.inverse)

    def count(self, residue: int) -> int:
        """The smallest x ≥ 0 with a·x ≡ residue (mod m), for a residue that
        some multiple of a reaches."""
        g = self.remainders[-1]
        return residue // g * self.inverse % (self.modulus // g)


@functools.lru_cache(maxsize=64)
def _euclid_chain(theta: float, eps: float) -> tuple[int, int, _Chain]:
    """(den, e, chain) of θ and eps: θ, 2π and eps are doubles, so dyadic
    rationals, and over their common denominator den, eps = e/den and chain
    is that of θ·den modulo 2π·den, the continued fraction of θ/2π. Cached,
    so that the factors of one diagonal, which share θ and eps, share one
    chain."""
    den, (a, m, e) = _dyadic(theta, TWO_PI, eps)
    return den, e, _Chain.of(a, m)


def _signed_count(chain: _Chain, w: int, lo_pos: int, lo_neg: int) -> int | None:
    """The k of smallest |k|, ties to k ≥ 0, with a·k mod m in the window
    W = [lo_pos, lo_pos + w], for a/m the chain's: k = x ≥ 0 with a·x mod m
    in W, or k = −x with a·x mod m in the mirror −W = [lo_neg, lo_neg + w].
    Neither window holds 0: 0 < lo and lo + w < m. None if no multiple lands
    in either.

    Level i asks for the first multiple of a_i modulo m_i in a window, with
    m_0 = m and m_i = a_{i−1}. With r = (−lo) mod a_i, lo + r is the first
    multiple of a_i at or above lo, so the window is hit at level i, with
    wrap count 0, if r ≤ w. If it misses, the first hit a_i·x = m_i·y + t,
    t in the window, has the smallest wrap count y, and y is the first hit
    of m_i·y mod a_i, i.e. of a_{i+1}·y mod m_{i+1}, in [r − w, r]: the same
    problem one level down, again with 0 < lo, and y ≥ 1. The hit's offset
    t' = t − lo in its window is w − t' one level up, so its residue at
    level 0 is known, and `_Chain.count` turns it into its count.

    The two windows descend in lockstep, and the first to hit wins. Say one
    hits at level i with counts x_j at each level j ≤ i, and the other, with
    low ends lo'_j, misses there: it hits below, with a wrap count of at
    least 1 at level i + 1, so its count x'_i has a_i·x'_i ≥ lo'_i + m_i
    > m_i > lo_i + w ≥ a_i·x_i. If x'_{j+1} > x_{j+1} one level down, then
    x'_j ≤ x_j would put a_j·x'_j − m_j·x'_{j+1}, its point at level j,
    at or below a_j·x_j − m_j·x_{j+1} − m_j ≤ lo_j + w − m_j < 0, outside
    its window; so x'_j > x_j at every level up to level 0. A tie is
    possible only between two hits at the same level."""
    u_pos, u_neg = -lo_pos, -lo_neg  # each window's low end, negated
    for level, a in enumerate(chain.remainders):
        r_pos, r_neg = u_pos % a, u_neg % a
        if r_pos <= w or r_neg <= w:
            break
        u_pos, u_neg = w - r_pos, w - r_neg
    else:
        return None
    # (|k|, k < 0): the tuples order by |k|, then k ≥ 0 first
    x, neg = min((chain.count(lo + (w - r if level & 1 else r)), neg)
                 for neg, lo, r in ((0, lo_pos, r_pos), (1, lo_neg, r_neg)) if r <= w)
    return -x if neg else x


def _window(phi: float, den: int, e: int, chain: _Chain) -> tuple[_Chain, int, int, int]:
    """(chain, lo, w, shift) of φ, for (den, e, chain) of θ and eps from
    `_euclid_chain`: over den, times 2^shift for a φ with a finer
    denominator, k·θ lies within eps of φ on the circle exactly when
    a·k − lo mod m lies in [0, w], for a/m the returned chain's. A finer φ
    scales the chain by 2^shift, since every Euclid step is homogeneous."""
    p, d = phi.as_integer_ratio()
    shift = 0
    if d > den:  # a finer phase: the chain scales by a power of two
        shift = d.bit_length() - den.bit_length()
        e, chain = e << shift, chain.scaled(shift)
    else:
        p *= den // d
    # residues r with circular distance |r − p| < e
    return chain, p % chain.modulus - e + 1, 2 * e - 2, shift


def approximate_phase(phi: float, eps: float, theta: float = GOLDEN_THETA) -> int:
    """The k of smallest |k| with k·θ within eps of φ on the circle
    (distance < eps), k ≥ 0 on a tie. A negative k is realized as
    X·Rz(θ)^{|k|}·X = Rz(−θ)^{|k|}.

    Exact, with no loop over k: θ, 2π, φ and eps are doubles, so dyadic
    rationals. Over their common denominator, k·θ mod 2π is a·k mod m in
    integers and the open window around φ is an integer range W (`_window`);
    if W holds 0, k = 0. Otherwise `_signed_count` descends W (k ≥ 0) and
    its mirror −W (k < 0) together down the Euclid chain of θ/2π, the
    continued fraction, in O(log m) steps.

    Raises PhaseApproximationError for either of two causes: no k exists
    (θ/(2π) is rational at double precision, e.g. θ = 0 or 2π/8, and no
    multiple lands in the window), or the smallest |k| exceeds PHASE_REPS_CAP."""
    _check_eps_theta(eps, theta)
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    chain, lo, w, _ = _window(phi, *_euclid_chain(theta, eps))
    m = chain.modulus
    if lo <= 0 or lo + w >= m:
        return 0
    k = _signed_count(chain, w, lo, m - lo - w)
    if k is None:
        raise PhaseApproximationError(
            f"no multiple of theta={theta!r} comes within {eps} of {phi}: "
            "theta/(2*pi) is rational at double precision"
        )
    if abs(k) > PHASE_REPS_CAP:
        raise PhaseApproximationError(
            f"the smallest |k| with k*theta within {eps} of {phi} exceeds the cap {PHASE_REPS_CAP}"
        )
    return k


class _Gaps(NamedTuple):
    """The three gaps of a window of w + 1 residues (Slater, Proc. Cambridge
    Phil. Soc. 63, 1967): the members of a window, the counts k with a·k − lo
    mod m in [0, w], follow one another by one of three steps. θ first
    returns into (0, w] after `up` steps, raising a member's offset a·k − lo
    by `rise`, and into [−w, 0) after `down` steps, lowering it by `fall`.
    From a member at offset t the next one is up on if t + rise ≤ w, else
    down on if t ≥ fall, else up + down on, at t + rise − fall; rise + fall
    > w, so at most one of the first two holds. Valid while up + down is at
    most the period of a modulo m, so that no shorter step keeps the
    offset."""
    up: int
    rise: int
    down: int
    fall: int

    @classmethod
    def of(cls, chain: _Chain, w: int) -> _Gaps | None:
        """The gaps of the chain's a/m for a window of w + 1 residues; None
        if either return is missing within a period, as for θ/2π rational
        with a coarse period, or w = 0."""
        m = chain.modulus
        if not 0 < w < m:
            return None
        up = _signed_count(chain, w - 1, 1, 1)  # the first x > 0 with a·x mod m in [1, w]
        down = _signed_count(chain, w - 1, m - w, m - w)  # ... in [m − w, m − 1]
        if up is None or down is None or up + down > m // chain.remainders[-1]:
            return None
        a = chain.remainders[0]
        return cls(up, a * up % m, down, -a * down % m)

    def walk(self, k: int, t: int, w: int, reach: int) -> list[int]:
        """The members from the last below −reach to the first above reach,
        ascending, walked out both ways from member k at offset t. A step
        back mirrors a step on: up back lowers the offset by rise, down back
        raises it by fall."""
        up, rise, down, fall = self
        below = []
        x, s = k, t
        while x >= -reach:
            if s >= rise:
                x, s = x - up, s - rise
            elif s + fall <= w:
                x, s = x - down, s + fall
            else:
                x, s = x - up - down, s + fall - rise
            below.append(x)
        members = below[::-1]
        members.append(k)
        x, s = k, t
        while x <= reach:
            if s + rise <= w:
                x, s = x + up, s + rise
            elif s >= fall:
                x, s = x + down, s - fall
            else:
                x, s = x + up + down, s + rise - fall
            members.append(x)
        return members


@functools.lru_cache(maxsize=64)
def _gaps(theta: float, eps: float, shift: int) -> _Gaps | None:
    """The gaps of θ for the windows of eps, scaled by 2^shift. Cached, as
    `_euclid_chain` is."""
    _, e, chain = _euclid_chain(theta, eps)
    return _Gaps.of(chain.scaled(shift) if shift else chain, (2 * e << shift) - 2)


def _phase_shift(values: list[float], counts: list[int], weights: list[int],
                 eps: float, theta: float) -> tuple[int, list[int]]:
    """The shared shift j of the distinct phases `values`, their counts
    `counts` at j = 0 from `approximate_phase` and their multiplicities
    `weights`, and each value's count k at j: the k of smallest |k|, k ≥ 0
    on a tie, with (k − j)·θ within eps of φ.

    With S_φ the members of φ's window, k = (the member of S_φ nearest −j)
    + j, so Σ weight·|k| is C(x) = Σ weight·dist(x, S_φ) at x = −j. Each S_φ
    is walked out from its count at j = 0 by `_Gaps.walk` past ±R, R = up +
    down of θ's gaps: no gap exceeds R, so no |k| exceeds R / 2, and the
    search runs only while R / 2 ≤ PHASE_REPS_CAP. C is piecewise linear,
    its slope rising by 2·weight at each member and falling as much at each
    midpoint between members, so one sort and cumsum over them evaluates it
    at every member, integer midpoint, 0 and ±R with |x| ≤ R. C is concave
    between members, so its least values over the integers of that range,
    and the one of them nearest 0, lie among these. A value with k = 0 at
    j = 0 must keep k = 0, which leaves as candidates only the members all
    such values share. The least C wins, then the smaller |j|, then j ≥ 0;
    x = 0 is a candidate, so the total is never above the one at j = 0."""
    base = _gaps(theta, eps, 0)
    if base is None or (reach := base.up + base.down) // 2 > PHASE_REPS_CAP:
        return 0, counts
    members = []
    shared = _euclid_chain(theta, eps)
    for phi, k in zip(values, counts):
        chain, lo, w, shift = _window(phi, *shared)
        gaps = _gaps(theta, eps, shift) if shift else base
        if gaps is None:
            return 0, counts
        members.append(gaps.walk(k, (chain.remainders[0] * k - lo) % chain.modulus, w, reach))
    zero = [set(s) for s, k in zip(members, counts) if k == 0]
    if zero:  # the only candidates: the members all such values share
        extra = [x for x in set.intersection(*zero) if -reach <= x <= reach]
        if len(extra) == 1:  # x = 0 alone
            return 0, counts
    else:
        extra = [0, -reach, reach]
    lengths = [len(s) for s in members]
    size = sum(lengths)
    flat = np.fromiter(itertools.chain.from_iterable(members), np.int64, size)
    # doubled positions, so that midpoints are integers, of the members, of
    # the midpoints between each and the next and of the extra candidates,
    # each with the change of the slope of 2C there: +2·weight at a member,
    # −2·weight at a midpoint, none between two values or at a candidate
    pos = np.concatenate((2 * flat, flat[:-1] + flat[1:], np.array(extra, dtype=np.int64) * 2))
    step = np.zeros(pos.size, dtype=np.int64)
    step[:size] = np.repeat(np.array(weights, dtype=np.int64) * 2, lengths)
    step[size:2 * size - 1] = -step[:size - 1]
    step[[size - 1 + n for n in itertools.accumulate(lengths[:-1])]] = 0
    order = pos.argsort()
    pos, step = pos[order], step[order]
    # pos[0] lies left of every member, where 2C has slope −Σ weight
    total = sum(weights)
    twice = np.empty_like(pos)
    twice[0] = sum(wt * 2 * s[0] for wt, s in zip(weights, members)) - total * int(pos[0])
    ((step[:-1].cumsum() - total) * (pos[1:] - pos[:-1])).cumsum(out=twice[1:])
    twice[1:] += twice[0]
    if zero:
        flagged = order >= pos.size - len(extra)
    else:  # every integer point in range is a shift to weigh
        flagged = (pos & 1 == 0) & (np.abs(pos) <= 2 * reach)
    x, cost = pos[flagged] // 2, twice[flagged]
    best = min(x[cost == cost.min()].tolist(), key=lambda v: (abs(v), v > 0))
    if best == 0:
        return 0, counts
    shifted = []
    for s in members:  # the member nearest x = best, the upper one on a tie, less x
        i = bisect_left(s, best)  # s[i − 1] < best ≤ s[i], both walked
        shifted.append(s[i] - best if s[i] - best <= best - s[i - 1] else s[i - 1] - best)
    return -best, shifted


def _unary_iteration(n: int, indices: list[int], reps: tuple[int, ...], gate) -> list[Gate]:
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
    by bisection. Gates are built by `gate`.

    A negative count k is RZ^{|k|} while the leaf flag a_{n−1} is inverted,
    X·RZ^{|k|}·X: one X on it where the sign changes from the leaf before
    (the walk starts with k ≥ 0), and one closing X if the last k < 0. This
    is exact: the leaf flag is only ever the target of the walk's CNOTs and
    CCNOTs, and an X on a target commutes with them. At n = 1 the flag is
    qubit 0, and an X that meets the flip pair's cancels it."""
    flag = [0, *range(n, 2 * n - 1)]
    switch = [gate("CNOT", (flag[j], flag[j + 1])) for j in range(n - 1)]
    toggle = [gate("CCNOT", (flag[j], j + 1, flag[j + 1])) for j in range(n - 1)]
    invert = gate("X", (flag[-1],))
    gates: list[Gate] = []
    inverted = False

    def flip_leaf() -> None:
        nonlocal inverted
        inverted = not inverted
        if gates and gates[-1] == invert:  # X·X = 1
            gates.pop()
        else:
            gates.append(invert)

    def walk(lo: int, hi: int, j: int) -> None:
        # indices[lo:hi], nonempty, are the indices under the prefix a_j holds
        if j == n - 1:
            k = reps[lo]
            if (k < 0) != inverted:
                flip_leaf()
            gates.append(gate("RZ", (flag[j],), abs(k)))
            return
        low = n - 2 - j  # the index bits below qubit j + 1
        mid = bisect_left(indices, (indices[lo] >> low | 1) << low, lo, hi)
        if lo < mid:
            gates.extend((switch[j], toggle[j]))
            walk(lo, mid, j + 1)
            gates.append(switch[j])
        else:
            gates.append(toggle[j])
        if mid < hi:
            walk(mid, hi, j + 1)
        gates.append(toggle[j])

    half = bisect_left(indices, 1 << (n - 1))
    if half:
        flip = gate("X", (0,))
        gates.append(flip)
        walk(0, half, 0)
        gates.append(flip)
    if half < len(indices):
        walk(half, len(indices), 0)
    if inverted:
        flip_leaf()
    return gates


def diagonal_to_circuit(
    phases: np.ndarray | list[float],
    eps: float,
    theta: float = GOLDEN_THETA,
    gate=None,
) -> DiagonalSequence:
    """Approximate diag(e^{iφ_0}, ..., e^{iφ_{2^n-1}}) over the gate set.

    Each one-level factor is Rz(θ)^k on a flag qubit set on its state alone,
    realized for k < 0 under X on the flag, and a factor becomes gates only
    when its k ≠ 0. All factors share one shift j of the global phase: each
    k is the one of smallest |k|, k ≥ 0 on a tie, with (k − j)·θ within eps
    of its φ, and `_phase_shift` chooses j to make Σ|k| least while every
    state whose k is 0 at j = 0 keeps k = 0; a diagonal with no factor at
    j = 0 makes no search. Each factor gets the full eps: it leaves residual
    δ_s = (k_s − j)·θ − φ_s on basis state s alone, with |δ_s| < eps, k_s = 0
    included. Distinct factors touch distinct states, so the worst case
    over states is the maximum, not the sum: every residual sits on an arc
    shorter than 2·eps, and the phase-optimized error is below
    2·sin(eps/2) < eps. `approximate_phase` runs once per distinct phase
    other than 0. eps and theta are checked as synthesize checks them, also
    when no factor needs a rotation. Each distinct gate is built once by
    `gate`, a Gate factory (by default a fresh cache)."""
    _check_eps_theta(eps, theta)
    try:
        phases = np.asarray(phases, dtype=float)
    except ValueError:
        if any(np.ndim(phi) for phi in phases):  # a ragged list
            raise ValueError("phase list length must be a power of two") from None
        raise
    dim = phases.size
    if phases.ndim != 1 or dim == 0 or dim & (dim - 1):
        raise ValueError("phase list length must be a power of two")
    with np.errstate(invalid="ignore"):  # inf becomes nan
        phases = np.mod(phases, TWO_PI)
    if np.isnan(phases).any():
        raise ValueError("phase must be finite, got nan")
    n = dim.bit_length() - 1
    seq = DiagonalSequence(n_data=n, n_anc=0, gates=[], theta=theta, global_phase=0.0)
    if n == 0:  # a global phase, exact
        seq.global_phase = float(phases[0])
        return seq
    phis = phases.tolist()
    weights = Counter(phis)  # each distinct phase, by multiplicity
    values = list(weights)
    counts = [approximate_phase(phi, eps, theta) if phi else 0 for phi in values]
    unshifted = sum(abs(k) * wt for k, wt in zip(counts, weights.values()))
    if unshifted:
        seq.phase_shift, counts = _phase_shift(values, counts, list(weights.values()), eps, theta)
    count = dict(zip(values, counts))
    indices = [s for s, phi in enumerate(phis) if count[phi]]
    reps = seq.factor_reps = tuple(count[phis[s]] for s in indices)
    log.debug("diagonal: %d Rz repetitions at shift 0, %d at shift %d",
              unshifted, sum(map(abs, reps)), seq.phase_shift)
    # RZ^k, k ≥ 0, gives its state e^{+ikθ/2} and every other e^{−ikθ/2},
    # as X·RZ^{|k|}·X does for k < 0; the global phase e^{+i(Σk − 2j)θ/2}
    # makes these e^{i(k − j)θ} and e^{−ijθ}. Summed over the factors in
    # integers, it is reduced exactly and rounded once, as the
    # certificate's phases are.
    seq.global_phase = _half_angle(sum(reps) - 2 * seq.phase_shift, theta)
    if reps:
        seq.gates = _unary_iteration(n, indices, reps, gate or functools.cache(Gate))
        seq.n_anc = n - 1
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
    is a synthesis bug and raises RuntimeError. Targets above
    SYNTH_QUBIT_CAP qubits are refused before any circuit is built.

    The certificate's error has two parts. Rounding: each state's phase ψ_s
    is its integer RZ count times θ/2, reduced modulo TWO_PI exactly and
    rounded once, so achieved_error is within about 1e-15 of its exact value
    for the doubles θ, TWO_PI and φ_s. Model: a full turn is the double
    TWO_PI, 2.4e-16 short of 2π, so the true phase of a factor Rz(θ)^k is
    off by about (|k·θ|/2π)·2.4e-16 more, under 2.5e-9 at |k| = 10^7.

    The diagonal stage gives factor s the k of smallest |k| with
    (k − j)·θ within eps of φ_s, for one shift j shared by every factor and
    chosen to make Σ|k|, reported as rz_reps, least (`diagonal_to_circuit`);
    the global phase carries −j·θ."""
    if p.n > SYNTH_QUBIT_CAP:
        raise ValueError(f"{p.n} qubits exceeds synthesis cap {SYNTH_QUBIT_CAP}")
    _check_eps_theta(eps, theta)
    d_phases, perm = factor_dp(p)
    gate = functools.cache(Gate)  # one object per distinct gate of both stages
    with Stage(log, "permutation") as perm_stage:
        perm_seq = permutation_to_circuit(perm, p.n, gate)
    with Stage(log, "diagonal") as diag_stage:
        diag_seq = diagonal_to_circuit(d_phases, eps, theta, gate)
    seq = GateSequence(
        n_data=p.n,
        n_anc=max(perm_seq.n_anc, diag_seq.n_anc),
        gates=perm_seq.gates + diag_seq.gates,  # G = D·P: P acts first
        theta=theta,
        global_phase=diag_seq.global_phase,
    )
    with Stage(log, "certify") as certify_stage:
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
        factor_reps=diag_seq.factor_reps,
        phase_shift=diag_seq.phase_shift,
        rz_reps=sum(map(abs, diag_seq.factor_reps)),
        stage_seconds={stage.name: stage.seconds for stage in (perm_stage, diag_stage, certify_stage)},
    )
