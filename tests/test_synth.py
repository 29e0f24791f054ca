import itertools
import logging
import math
import re
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpgates import (
    Gate,
    GateSequence,
    PermutationWithPhases,
    approximate_phase,
    check_normalizer,
    check_permutation,
    check_zx,
    diagonal_to_circuit,
    factor_dp,
    permutation_to_circuit,
    phase_optimized_error,
    random_bp,
    simulate,
    simulate_restricted,
    synthesize,
    to_unitary,
)
from bpgates import synth
from bpgates.linalg import GOLDEN_THETA, X, shortest_arc_chord
from bpgates.synth import PhaseApproximationError

TWO_PI = 2 * np.pi


def circular_distance(a, b):
    """Distance between angles on the circle, in [0, π]."""
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def perm_matrix(perm):
    dim = len(perm)
    M = np.zeros((dim, dim))
    for s, t in enumerate(perm):
        M[t, s] = 1.0
    return M


# ------------------------------------------------------------- simulation

def test_simulate_empty_is_identity():
    assert np.array_equal(to_unitary(simulate(GateSequence(n_data=2))), np.eye(4))


def test_simulate_x():
    seq = GateSequence(n_data=1, gates=[Gate("X", (0,))])
    assert np.array_equal(to_unitary(simulate(seq)), X.real)


def test_simulate_swap_identity():
    seq = GateSequence(
        n_data=2,
        gates=[Gate("CNOT", (0, 1)), Gate("CNOT", (1, 0)), Gate("CNOT", (0, 1))],
    )
    swap = perm_matrix((0, 2, 1, 3))
    assert np.array_equal(to_unitary(simulate(seq)).real, swap)


def test_simulate_rz():
    seq = GateSequence(n_data=1, gates=[Gate("RZ", (0,), reps=3)], theta=0.5)
    expected = np.diag([np.exp(-0.75j), np.exp(0.75j)])
    assert np.max(np.abs(to_unitary(simulate(seq)) - expected)) < 1e-12


def test_simulate_ccnot_big_endian():
    seq = GateSequence(n_data=3, gates=[Gate("CCNOT", (0, 1, 2))])
    M = to_unitary(simulate(seq)).real
    assert M[0b111, 0b110] == 1.0 and M[0b110, 0b111] == 1.0
    assert all(M[s, s] == 1.0 for s in range(6))


def test_ancilla_restoration_error():
    # CNOT from data into ancilla, never uncomputed
    seq = GateSequence(n_data=1, n_anc=1, gates=[Gate("CNOT", (0, 1))])
    from bpgates.synth import AncillaNotRestoredError

    with pytest.raises(AncillaNotRestoredError):
        simulate_restricted(seq)


def exact_half_angle(count: int, theta: float) -> float:
    """count·θ/2 modulo TWO_PI in exact rationals, rounded once to a double."""
    return float(count * Fraction(theta) / 2 % Fraction(TWO_PI))


def monomial_counts(seq, inputs):
    """(target, count) of each input by the per-gate numpy simulator the
    bit-sliced one replaced: four array operations per gate on the basis
    indices themselves, count being the input's signed sum of RZ counts."""
    seq.validate()
    m = seq.n_total
    target = np.array(inputs, dtype=np.int64)
    counts = np.zeros(target.size, dtype=np.int64)
    for g in seq.gates:
        bits = tuple(m - 1 - q for q in g.qubits)
        if g.kind == "X":
            target ^= 1 << bits[0]
        elif g.kind == "CNOT":
            target ^= ((target >> bits[0]) & 1) << bits[1]
        elif g.kind == "CCNOT":
            target ^= ((target >> bits[0]) & (target >> bits[1]) & 1) << bits[2]
        else:
            counts += g.reps * (2 * ((target >> bits[0]) & 1) - 1)
    return target, counts


def monomial_reference(seq, inputs):
    """(target, phase) of each input: its count times θ/2, reduced in exact
    rationals and rounded once."""
    target, counts = monomial_counts(seq, inputs)
    return target, np.array([exact_half_angle(c, seq.theta) for c in counts.tolist()], dtype=float)


def random_sequence(n_data, n_anc, length, rng):
    """Random gates of all four kinds; RZ repetition counts up to 10^12."""
    m = n_data + n_anc
    arity = {"X": 1, "RZ": 1, "CNOT": 2, "CCNOT": 3}
    kinds = [k for k in ("X", "RZ", "CNOT", "CCNOT") if arity[k] <= m]
    gates = []
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        qubits = tuple(int(q) for q in rng.choice(m, size=arity[kind], replace=False))
        reps = int(10 ** rng.uniform(0, 12)) if kind == "RZ" else 1
        gates.append(Gate(kind, qubits, reps=reps))
    return GateSequence(n_data=n_data, n_anc=n_anc, gates=gates, theta=float(rng.uniform(0, 7)))


def assert_same_push(seq, inputs):
    target, phase = synth._monomial(seq, inputs)
    ref_target, ref_phase = monomial_reference(seq, inputs)
    assert target.dtype == ref_target.dtype and np.array_equal(target, ref_target)
    assert np.array_equal(phase.view(np.int64), ref_phase.view(np.int64))  # bitwise


def test_bit_sliced_push_matches_reference(rng):
    for n_data, n_anc in ((1, 0), (3, 0), (2, 2), (5, 3), (4, 7)):
        m = n_data + n_anc
        for length in (0, 1, 50, 400):
            seq = random_sequence(n_data, n_anc, length, rng)
            assert_same_push(seq, np.arange(1 << m))  # simulate's inputs
            assert_same_push(seq, np.arange(1 << n_data) << n_anc)  # ancilla-clean
            assert_same_push(seq, rng.choice(1 << m, size=min(13, 1 << m), replace=False))
            assert_same_push(seq, np.array([], dtype=np.int64))


def test_bit_sliced_push_matches_reference_on_synthesized(rng):
    # RZ snapshots taken between permutation gates, on the ancilla-clean inputs
    for n in (2, 4, 5):
        seq = synthesize(random_bp(n, rng), eps=1e-3).sequence
        assert_same_push(seq, np.arange(1 << seq.n_data) << seq.n_anc)


def test_push_in_chunks_sums_phases_alike(rng, monkeypatch):
    # snapshots unpacked a few at a time, or one at a time, give the bits of
    # the default chunk, which holds all of these: the exact angle
    seqs = [synthesize(random_bp(n, rng), eps=1e-3).sequence for n in (3, 6)]
    seqs.append(random_sequence(4, 3, 400, rng))
    whole = [monomial_reference(seq, np.arange(1 << seq.n_total)) for seq in seqs]
    for unpack_bytes in (1, 1000, synth._UNPACK_BYTES):
        monkeypatch.setattr(synth, "_UNPACK_BYTES", unpack_bytes)
        for seq, (target, phase) in zip(seqs, whole):
            got_target, got_phase = synth._monomial(seq, np.arange(1 << seq.n_total))
            assert np.array_equal(got_target, target)
            assert got_phase.tobytes() == phase.tobytes()


def test_push_memory_is_bounded_by_the_chunk():
    # the RZ snapshots were once unpacked at once, a (#RZ x 2^n) uint8 array:
    # a 20.9 MB peak at n = 12, and 4.3 GB by the same count at n = 16
    import tracemalloc

    seq = synthesize(random_bp(12, np.random.default_rng(12)), eps=1e-3).sequence
    assert seq.gate_counts()["RZ"] > 4000
    tracemalloc.start()
    try:
        simulate_restricted(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * synth._UNPACK_BYTES


def test_simulators_refuse_rz_counts_past_int64():
    # each input's signed sum of RZ counts is an int64: past 2^63 − 1 in all
    # it would wrap without a word
    half = 1 << 62
    seq = GateSequence(n_data=1, gates=[Gate("RZ", (0,), half), Gate("RZ", (0,), half - 1)])
    assert simulate(seq).phases.size == 2
    seq.gates.append(Gate("RZ", (0,), 1))
    for sim in (simulate, simulate_restricted):
        with pytest.raises(ValueError, match=re.escape(f"RZ counts sum past the cap {(1 << 63) - 1}")):
            sim(seq)


def test_sequence_refuses_qubit_outside_register():
    # a Python list index of -1 would wrap to the last qubit plane; the
    # message names the first bad gate, not the later X on qubit 4
    for qubits in ((-1,), (3,), (0, -1), (0, 1, 3)):
        bad = Gate({1: "X", 2: "CNOT", 3: "CCNOT"}[len(qubits)], qubits)
        seq = GateSequence(n_data=2, n_anc=1, gates=[Gate("X", (0,)), bad, Gate("X", (4,))])
        for sim in (simulate, simulate_restricted):
            with pytest.raises(ValueError, match=re.escape(f"gate {bad} addresses")):
                sim(seq)


def test_simulators_refuse_pushed_width_past_monomial_cap(monkeypatch):
    # the refusal comes before the 2^n inputs are made; the restriction is
    # sized by its data qubits alone
    def push(*args):
        raise AssertionError("pushed a register wider than the monomial cap")

    monkeypatch.setattr(synth, "_monomial", push)
    wide = GateSequence(n_data=25, gates=[Gate("X", (0,))])
    for sim in (simulate, simulate_restricted):
        with pytest.raises(ValueError, match="25 qubits exceeds monomial cap 24"):
            sim(wide)
    with pytest.raises(ValueError, match="26 qubits exceeds monomial cap 24"):
        simulate(GateSequence(n_data=2, n_anc=24, gates=[Gate("X", (0,))]))
    monkeypatch.undo()
    narrow = GateSequence(n_data=2, n_anc=24, gates=[Gate("X", (0,))])
    assert simulate_restricted(narrow).perm.tolist() == [2, 3, 0, 1]


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (0, 0))
    with pytest.raises(ValueError):
        Gate("X", (0, 1))
    with pytest.raises(ValueError):
        Gate("Y", (0,))
    with pytest.raises(ValueError):
        Gate("X", (0,), reps=2)


# --------------------------------------------------------------- factor_dp

def test_factor_dp_x():
    d, p = factor_dp(PermutationWithPhases(1, (1, 0), (0.0, 0.0)))
    assert np.allclose(d, 0.0)
    assert np.array_equal(p, (1, 0))


def test_factor_dp_z():
    d, p = factor_dp(PermutationWithPhases(1, (0, 1), (0.0, np.pi)))
    assert np.array_equal(p, (0, 1))
    assert np.allclose(d, [0.0, np.pi])


def test_factor_dp_reindexes_to_target():
    g = PermutationWithPhases(1, (1, 0), (np.pi / 3, np.pi / 5))
    d, p = factor_dp(g)
    assert np.allclose(d, [np.pi / 5, np.pi / 3])
    D = np.diag(np.exp(1j * d))
    assert np.max(np.abs(D @ perm_matrix(p) - to_unitary(g))) < 1e-12


def test_factor_dp_random(rng):
    for n in (1, 2, 3):
        g = random_bp(n, rng)
        d, p = factor_dp(g)
        D = np.diag(np.exp(1j * d))
        assert np.max(np.abs(D @ perm_matrix(p) - to_unitary(g))) < 1e-12


# ------------------------------------------------- permutation_to_circuit

def test_identity_permutation_empty_circuit():
    seq = permutation_to_circuit((0, 1, 2, 3), 2)
    assert seq.gates == []


def test_transposition_is_single_cnot():
    seq = permutation_to_circuit((0, 1, 3, 2), 2)
    assert seq.gates == [Gate("CNOT", (0, 1))]


def test_transposition_is_single_ccnot():
    perm = list(range(8))
    perm[0b110], perm[0b111] = 0b111, 0b110
    seq = permutation_to_circuit(tuple(perm), 3)
    assert seq.gates == [Gate("CCNOT", (0, 1, 2))]


def transposition_block_reference(n, a, b, gate, mcx):
    """The swap |a⟩ ↔ |b⟩ as one block fan + conj + ladder + conj⁻¹ + fan⁻¹,
    emitted whole, with no junction merged: the reference the merged stage
    is checked against. Returns (gates, ancillas used)."""
    diff = a ^ b
    p = n - diff.bit_length()  # the most significant differing qubit
    bit_p = a >> (n - 1 - p) & 1
    fan = [gate("CNOT", (p, q)) for q in range(p + 1, n) if diff >> (n - 1 - q) & 1]
    # a's image: each fanned-out qubit of a flips when a holds 1 on p
    image = a ^ (diff ^ 1 << (n - 1 - p)) * bit_p
    conj = [gate("X", (q,)) for q in range(n) if q != p and not image >> (n - 1 - q) & 1]
    ladder, n_anc = mcx(p)
    return fan + conj + ladder + conj[::-1] + fan[::-1], n_anc


def permutation_reference(perm, n, gate=None):
    """permutation_to_circuit with every transposition block emitted whole."""
    gate = gate or Gate

    def mcx(p):
        compute, body, used = synth._mcx_ladder(n, p, gate)
        return [*compute, body, *compute[::-1]], used

    gates, n_anc = [], 0
    for a, b in synth._transpositions(np.asarray(perm).tolist()):
        block, used = transposition_block_reference(n, a, b, gate, mcx)
        gates += block
        n_anc = max(n_anc, used)
    return GateSequence(n_data=n, n_anc=n_anc, gates=gates)


def test_transposition_is_one_mcx_conjugated_by_cnots():
    # one X with n − 1 controls (a CCNOT, or a 3-CCNOT ladder on one ancilla)
    # between d − 1 CNOTs and their inverses, from the pivot qubit alone
    for n in (3, 4):
        for a, b in itertools.permutations(range(1 << n), 2):
            d = bin(a ^ b).count("1")
            swap = list(range(1 << n))
            swap[a], swap[b] = b, a
            seq = permutation_reference(swap, n)
            counts = seq.gate_counts()
            assert (counts["CCNOT"], seq.n_anc) == {3: (1, 0), 4: (3, 1)}[n]
            assert counts["CNOT"] == 2 * (d - 1) and counts["RZ"] == 0
            assert len({g.qubits[0] for g in seq.gates if g.kind == "CNOT"}) <= 1
            achieved = simulate_restricted(seq)
            assert achieved.perm.tolist() == swap and not achieved.phases.any()
            # one transposition has no junction: the stage emits the block's
            # gates, its tail's commuting gates in another order
            merged = permutation_to_circuit(swap, n)
            assert Counter(merged.gates) == Counter(seq.gates) and merged.n_anc == seq.n_anc
            assert simulate_restricted(merged) == achieved


def test_permutation_circuit_shares_equal_gates(rng):
    # Gate is frozen: each distinct gate of one circuit is built once, and
    # synthesize builds the gates of both stages through one cache
    seq = permutation_to_circuit(rng.permutation(64), 6)
    assert len({id(g) for g in seq.gates}) == len(set(seq.gates)) < len(seq.gates)
    report = synthesize(random_bp(6, rng), eps=1e-3)
    gates = report.sequence.gates
    assert report.gate_counts["RZ"] == 64 > len({g for g in gates if g.kind == "RZ"})
    assert len({id(g) for g in gates}) == len(set(gates)) < len(gates)


def test_all_two_qubit_permutations_exact():
    for perm in itertools.permutations(range(4)):
        seq = permutation_to_circuit(perm, 2)
        assert np.array_equal(to_unitary(simulate_restricted(seq)).real, perm_matrix(perm))


def test_all_three_qubit_permutations_exact():
    for perm in itertools.permutations(range(8)):
        achieved = simulate_restricted(permutation_to_circuit(perm, 3))
        assert achieved.perm.tolist() == list(perm) and not achieved.phases.any()


@pytest.mark.parametrize("n", range(2, 9))
def test_merged_junctions_match_the_blocks(n):
    # merging each junction is exact and never adds a gate of any kind; up
    # to 6 qubits the merged circuit equals the blocks' product on every
    # input, ancillas included
    rng = np.random.default_rng(100 + n)
    for _ in range(40 if n <= 6 else 4):
        perm = rng.permutation(1 << n)
        merged, blocks = permutation_to_circuit(perm, n), permutation_reference(perm, n)
        assert merged.n_anc == blocks.n_anc
        achieved = simulate_restricted(merged)
        assert np.array_equal(achieved.perm, perm) and not achieved.phases.any()
        counts, reference = merged.gate_counts(), blocks.gate_counts()
        assert all(counts[kind] <= reference[kind] for kind in counts)
        if n <= 6:
            assert simulate(merged) == simulate(blocks)


def test_merged_permutation_stage_certifies_as_the_blocks_do(monkeypatch):
    # targets like the benchmark's: random phases at n = 3..5, random and
    # increment permutations without phases at n = 6, 7; the permutation
    # stage is exact, so the certificate cannot tell the two stages apart
    rng = np.random.default_rng(7)
    targets = [random_bp(n, rng) for n in (3, 3, 4, 4, 5, 5)]
    targets += [PermutationWithPhases(6, rng.permutation(64), np.zeros(64)) for _ in range(2)]
    targets.append(PermutationWithPhases(7, (np.arange(128) + 1) % 128, np.zeros(128)))
    merged = [synthesize(g, eps=1e-3) for g in targets]
    monkeypatch.setattr(synth, "permutation_to_circuit", permutation_reference)
    for g, report in zip(targets, merged):
        blocks = synthesize(g, eps=1e-3)
        assert report.achieved_error == blocks.achieved_error
        assert report.max_phase_residual == blocks.max_phase_residual
        assert report.factor_reps == blocks.factor_reps
        assert report.sequence.n_anc == blocks.sequence.n_anc
        assert report.gate_counts["CCNOT"] <= blocks.gate_counts["CCNOT"]
        assert sum(report.gate_counts.values()) < sum(blocks.gate_counts.values())


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        permutation_to_circuit((0, 0, 1, 2), 2)


# -------------------------------------------------------- phase approximation

def test_approximate_phase_trivial():
    assert approximate_phase(0.0, 1e-6) == 0
    assert approximate_phase(GOLDEN_THETA % TWO_PI, 1e-9) == 1


def test_approximate_phase_matches_scan_oracle():
    # independent brute-force scan over k = 0, 1, −1, 2, −2, ..., frozen
    # before trusting the implementation: π is its own mirror, so k and −k
    # both land, and the tie goes to k ≥ 0
    theta = TWO_PI * (np.sqrt(2) - 1)
    k_oracle = None
    for k in itertools.chain([0], *zip(range(1, 10**6), range(-1, -10**6, -1))):
        if circular_distance(k * theta % TWO_PI, np.pi) < 1e-2:
            k_oracle = k
            break
    assert k_oracle == 204  # frozen oracle value
    assert approximate_phase(np.pi, 1e-2, theta) == 204


def exact_ints(theta, phi, eps):
    """(a, m, p, e): θ, 2π, φ and eps as integers over their common
    denominator."""
    fr = [Fraction(x) for x in (theta, TWO_PI, phi, eps)]
    den = math.lcm(*(f.denominator for f in fr))
    return tuple(int(f * den) for f in fr)


def scan_oracle(phi, eps, theta, limit):
    """The k of smallest |k| <= limit, k ≥ 0 on a tie, with k*theta within
    eps of phi, by a scan over k = 0, 1, −1, 2, −2, ... in exact integers
    over the common denominator; None if there is none."""
    a, m, p, e = exact_ints(theta, phi, eps)

    def lands(r):
        d = (r - p) % m
        return min(d, m - d) < e

    if lands(0):
        return 0
    for x in range(1, limit + 1):
        if lands(a * x % m):
            return x
        if lands(-a * x % m):
            return -x
    return None


def test_approximate_phase_matches_exact_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    limit = 200_000
    monkeypatch.setattr(synth, "PHASE_REPS_CAP", limit)
    thetas = [GOLDEN_THETA, TWO_PI * (np.sqrt(2) - 1)] + list(rng.uniform(0.0, TWO_PI, 4))
    for theta in thetas:
        theta = float(theta)
        for _ in range(6):
            phi = float(rng.uniform(0.0, TWO_PI))
            eps = float(10 ** rng.uniform(-4, -1))
            k = scan_oracle(phi, eps, theta, limit)
            if k is None:
                with pytest.raises(PhaseApproximationError, match="cap"):
                    approximate_phase(phi, eps, theta)
            else:
                assert approximate_phase(phi, eps, theta) == k
    # windows at the ends of [0, 2π): one holding 0 (it wraps), one just short
    for phi, eps in ((TWO_PI - 5e-4, 1e-3), (TWO_PI - 2e-3, 1e-3), (3e-3, 2e-3)):
        k = approximate_phase(phi, eps)
        assert k == scan_oracle(phi, eps, GOLDEN_THETA, limit)
        assert (k == 0) == (phi > TWO_PI - eps)


SCAN_THETAS = [GOLDEN_THETA, 1.0, TWO_PI * (1 / 3 + 1e-7), math.sqrt(2), TWO_PI * (1 / 4 + 1e-9)]


@pytest.mark.parametrize("theta", SCAN_THETAS, ids=["golden", "one", "third", "sqrt2", "quarter"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 2.0**-7, 2.0**-10])
def test_approximate_phase_matches_signed_scan(theta, eps, monkeypatch):
    # random phases, phases a multiple of θ of either sign away, landing
    # near their window's ends, and phases with a finer denominator than
    # θ, 2π and eps share: at eps 1e-2 and 1e-3 such a phase lies within
    # eps of 0, while at a dyadic eps phases like 1.1 are finer and
    # nontrivial, so the search scales its chain to them
    rng = np.random.default_rng(round(-math.log2(eps)))
    limit = 20_000
    monkeypatch.setattr(synth, "PHASE_REPS_CAP", limit)
    phis = [1e-10, TWO_PI - 1e-10, -1e-10, 1e-300, 1.1, 0.1, 3.3]
    phis += [float(x) for x in rng.uniform(0.0, TWO_PI, 6)]
    for k in rng.integers(-limit, limit, 8):
        offset = float(rng.choice([-0.999, -0.5, 0.0, 0.5, 0.999])) * eps
        phis.append(float(k * theta + offset) % TWO_PI)
    for phi in phis:
        k = scan_oracle(phi, eps, theta, limit)
        if k is None:
            with pytest.raises(PhaseApproximationError, match="cap"):
                approximate_phase(phi, eps, theta)
        else:
            assert approximate_phase(phi, eps, theta) == k, phi


def euclid_levels(a, m):
    """The levels (a_i, m_i) of Euclid's algorithm on a/m, m_i = a_{i−1}."""
    remainders = synth._Chain.of(a, m).remainders
    return list(zip(remainders, (m, *remainders)))


def first_hit_reference(levels, lo, w):
    """One window [lo, lo + w] descended alone, each hit found by a ceiling
    and back-substituted: (count at level 0, level of the hit, low end at
    each level above it); None if no multiple lands in it."""
    los = []
    for a, _ in levels:
        x = -(-lo // a)
        if a * x <= lo + w:
            return back_substitute(levels, los, x), len(los), los
        los.append(lo)
        lo = (-(lo + w)) % a
    return None


def back_substitute(levels, los, x):
    """The count at level 0 of a window whose count at level len(los) is x."""
    for up, (a, m) in zip(reversed(los), reversed(levels[:len(los)])):
        x = -(-(up + m * x) // a)
    return x


def random_windows(rng, count):
    """(a, m, lo, w): small and double-sized problems with 0 < lo, lo + w < m."""
    for i in range(count):
        m = int(rng.integers(3, 400)) if i % 2 else (1 << 62) + int(rng.integers(0, 1 << 40))
        a = int(rng.integers(1, m - 1)) if m < 1 << 62 else int(rng.integers(1, 1 << 62))
        w = int(rng.integers(0, max(1, m // 3))) if m < 1 << 62 else int(rng.integers(0, 1 << 50))
        lo = int(rng.integers(1, m - w))
        yield a, m, lo, w


def test_back_substituting_one_wrap_bounds_every_deeper_hit():
    # a window that misses at level i hits below with a wrap count of at
    # least 1 at level i + 1, so back-substituting 1 from there is never
    # above its count; and the first of W and −W to hit has the smaller
    # count, which lets the signed search stop at the first hit
    rng = np.random.default_rng(27)
    checked = first_wins = 0
    for a, m, lo, w in random_windows(rng, 4000):
        levels = euclid_levels(a, m)
        found = {}
        for neg, low in ((0, lo), (1, m - lo - w)):
            hit = first_hit_reference(levels, low, w)
            if hit is None:
                continue
            x, level, los = hit
            found[neg] = x, level
            for i in range(level):
                assert back_substitute(levels, los[:i + 1], 1) <= x
                checked += 1
        if len(found) == 2 and found[0][1] != found[1][1]:
            first = min(found, key=lambda neg: found[neg][1])
            assert found[first][0] < found[1 - first][0]
            first_wins += 1
        expected = None
        if found:
            x, neg = min((x, neg) for neg, (x, _) in found.items())
            expected = -x if neg else x
        assert synth._signed_count(synth._Chain.of(a, m), w, lo, m - lo - w) == expected
    assert checked > 1000 and first_wins > 1000


def test_approximate_phase_large_eps_is_zero():
    for eps in (np.pi, 4.0, 1e3):
        for phi in (0.1, 3.0, 6.2):
            assert approximate_phase(phi, eps) == 0


def test_approximate_phase_cap(monkeypatch):
    # theta = 2pi/8 exactly rational, and theta = 0: pi/3 is unreachable
    for theta in (TWO_PI / 8, 0.0):
        start = time.perf_counter()
        with pytest.raises(PhaseApproximationError, match="rational"):
            approximate_phase(np.pi / 3, 1e-6, theta)
        assert time.perf_counter() - start < 1.0
    # the cap bounds |k|, for k of either sign
    for phi in (np.pi, 1.0, 5.0):
        k = approximate_phase(phi, 1e-3)
        monkeypatch.setattr(synth, "PHASE_REPS_CAP", abs(k))
        assert approximate_phase(phi, 1e-3) == k
        monkeypatch.setattr(synth, "PHASE_REPS_CAP", abs(k) - 1)
        with pytest.raises(PhaseApproximationError, match=re.escape(f"|k|") + ".* cap " + f"{abs(k) - 1}$"):
            approximate_phase(phi, 1e-3)
        monkeypatch.undo()
    assert {np.sign(approximate_phase(phi, 1e-3)) for phi in (1.0, 5.0)} == {1, -1}
    for phi, eps, theta in (
        (0.3, 0.0, GOLDEN_THETA),
        (0.3, -1e-3, GOLDEN_THETA),
        (0.3, float("nan"), GOLDEN_THETA),
        (0.3, float("inf"), GOLDEN_THETA),
        (0.3, 1e-3, float("nan")),
        (0.3, 1e-3, float("inf")),
        (float("nan"), 1e-3, GOLDEN_THETA),
    ):
        with pytest.raises(ValueError):
            approximate_phase(phi, eps, theta)


@pytest.mark.parametrize("theta", [TWO_PI, -7.0, 1e300])
def test_theta_outside_one_turn_is_refused(theta):
    # k·θ reduced mod the double 2π drifts from the true phase by about
    # (k·θ/2π)·2.4e-16: at θ = 1e12 the certified error read 1e-3 while the
    # true one was 1e-2, and at θ = 1e300 the certificate itself failed
    g = PermutationWithPhases(1, (0, 1), (0.0, np.pi / 3))
    with pytest.raises(ValueError, match=re.escape(f"theta must lie in (-2*pi, 2*pi), got {theta}")):
        approximate_phase(np.pi / 3, 1e-3, theta)
    with pytest.raises(ValueError, match="theta must lie in"):
        synthesize(g, eps=1e-3, theta=theta)
    # the largest double below 2π is still taken
    assert approximate_phase(0.0, 1e-3, np.nextafter(TWO_PI, 0.0)) == 0


@given(st.floats(min_value=0.0, max_value=2 * np.pi - 1e-9))
@settings(max_examples=30, deadline=None)
def test_approximate_phase_property(phi):
    # k lands within eps, and no count of smaller |k|, nor −k for k > 0,
    # does: checked in exact integers
    k = approximate_phase(phi, 1e-3)
    a, m, p, e = exact_ints(GOLDEN_THETA, phi, 1e-3)

    def lands(j):
        d = (a * j - p) % m
        return min(d, m - d) < e

    assert lands(k)
    assert not any(lands(j) or lands(-j) for j in range(abs(k)))
    assert k <= 0 or not lands(-k)


# ---------------------------------------------------- diagonal_to_circuit

def test_diagonal_all_zero_phases():
    seq = diagonal_to_circuit([0.0, 0.0], eps=1e-3)
    assert seq.gates == []


@pytest.mark.parametrize("phases", [[0.0, 0.0], [0.0] * 8, [TWO_PI, -1e-13], [0.7]],
                         ids=["zero", "three-qubit-zero", "trivial", "one-entry"])
@pytest.mark.parametrize("eps, theta", [(-1.0, GOLDEN_THETA), (float("nan"), GOLDEN_THETA), (1e-3, 100.0)],
                         ids=["eps-negative", "eps-nan", "theta-huge"])
def test_diagonal_refuses_eps_and_theta_as_synthesize_does(phases, eps, theta):
    # with no factor to approximate, these were once taken and a circuit returned
    g = PermutationWithPhases(1, (0, 1), (0.0, np.pi / 3))
    with pytest.raises(ValueError) as expected:
        synthesize(g, eps=eps, theta=theta)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        diagonal_to_circuit(phases, eps, theta)


def test_diagonal_single_qubit_index1():
    seq = diagonal_to_circuit([0.0, GOLDEN_THETA], eps=1e-6)
    assert seq.gates == [Gate("RZ", (0,), reps=1)]
    assert abs(seq.global_phase - GOLDEN_THETA / 2) < 1e-12
    approx = np.exp(1j * seq.global_phase) * to_unitary(simulate_restricted(seq))
    target = np.diag([1.0, np.exp(1j * GOLDEN_THETA)])
    assert np.max(np.abs(approx - target)) < 1e-12


def test_diagonal_single_qubit_index0():
    seq = diagonal_to_circuit([GOLDEN_THETA, 0.0], eps=1e-6)
    assert seq.gates == [Gate("X", (0,)), Gate("RZ", (0,), reps=1), Gate("X", (0,))]
    approx = np.exp(1j * seq.global_phase) * to_unitary(simulate_restricted(seq))
    target = np.diag([np.exp(1j * GOLDEN_THETA), 1.0])
    assert np.max(np.abs(approx - target)) < 1e-12


def test_diagonal_single_qubit_negative_factor():
    # k = −1 on state 0: the polarity X pair merges with the walk's flip pair
    seq = diagonal_to_circuit([TWO_PI - GOLDEN_THETA, 0.0], eps=1e-6)
    assert seq.gates == [Gate("RZ", (0,), reps=1)]
    assert seq.factor_reps == (-1,)
    assert abs(seq.global_phase - (TWO_PI - GOLDEN_THETA / 2)) < 1e-12
    approx = np.exp(1j * seq.global_phase) * to_unitary(simulate_restricted(seq))
    target = np.diag([np.exp(-1j * GOLDEN_THETA), 1.0])
    assert np.max(np.abs(approx - target)) < 1e-12
    # on state 1 it is X·RZ·X
    seq = diagonal_to_circuit([0.0, TWO_PI - GOLDEN_THETA], eps=1e-6)
    assert seq.gates == [Gate("X", (0,)), Gate("RZ", (0,), reps=1), Gate("X", (0,))]
    assert seq.factor_reps == (-1,)


def assert_diagonal_certified(phases, seq, eps):
    achieved = simulate_restricted(seq)  # raises if an ancilla is left set
    assert np.array_equal(achieved.perm, np.arange(len(phases)))
    deltas = achieved.phases + seq.global_phase - np.asarray(phases)
    assert shortest_arc_chord(deltas) <= eps


@pytest.mark.parametrize("phases", [[], [[0.0, 0.5], [0.5, 0.0]], [0.0] * 3], ids=["empty", "two-d", "three"])
def test_diagonal_refuses_a_length_not_a_power_of_two(phases):
    # the empty list once raised "negative shift count", a 2-D list a TypeError
    with pytest.raises(ValueError, match="^phase list length must be a power of two$"):
        diagonal_to_circuit(phases, 1e-3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_diagonal_refuses_a_phase_that_is_not_finite(bad):
    # such a phase was once read as a phase of 0 and dropped
    with pytest.raises(ValueError, match="^phase must be finite, got nan$"):
        diagonal_to_circuit([bad, 0.5], 1e-3)


def test_diagonal_factor_is_a_gate_only_when_its_k_is_nonzero():
    # 1e-6 lies within eps of 0, so its k is 0: it once cost a second leaf
    # of the walk and a no-op RZ^0
    phases = [0.0, 1e-6, 0.5, 0.0]
    seq = diagonal_to_circuit(phases, 1e-3)
    assert seq.factor_reps == (814,)
    assert [g.reps for g in seq.gates if g.kind == "RZ"] == [814]
    assert_diagonal_certified(phases, seq, 1e-3)
    # no phase needs a rotation: the bare sequence, though none is exactly 0
    for phases in ([1e-9] * 8, [1e-12, TWO_PI - 1e-9]):
        seq = diagonal_to_circuit(phases, 1e-3)
        assert seq.gates == [] and seq.n_anc == 0 and seq.factor_reps == ()
        assert seq.global_phase == 0.0
        assert_diagonal_certified(phases, seq, 1e-3)


def polarity_x_count(n, indices, reps):
    """X gates of the walk at n ≥ 2: the flip pair around qubit 0's
    0-subtree, one X per sign change from the leaf before (the walk starts
    with k ≥ 0), and one closing X if the last k < 0."""
    negative = [False] + [k < 0 for k in reps]
    changes = sum(a != b for a, b in zip(negative, negative[1:]))
    return 2 * (min(indices) < 1 << (n - 1)) + changes + negative[-1]


def test_diagonal_unary_iteration_counts(rng):
    # all 2^n factors nontrivial: two CCNOTs per node of the AND tree below
    # qubit 0, one X pair around qubit 0's 0-subtree and one X per sign
    # change of k, a flag ancilla per level
    eps = 1e-3
    for n in range(2, 7):
        phases = rng.uniform(0.1, TWO_PI - 0.1, 1 << n)
        seq = diagonal_to_circuit(phases, eps)
        counts = seq.gate_counts()
        assert counts["CCNOT"] == 2 ** (n + 1) - 4
        assert counts["X"] == polarity_x_count(n, range(1 << n), seq.factor_reps)
        assert counts["RZ"] == 1 << n
        assert [g.reps for g in seq.gates if g.kind == "RZ"] == [abs(k) for k in seq.factor_reps]
        assert seq.n_anc == n - 1
        assert_diagonal_certified(phases, seq, eps)
        # the switch and toggle of each level, the flip X and the leaf
        # flag's X are built once and shared
        level = [g for g in seq.gates if g.kind != "RZ"]
        assert len({id(g) for g in level}) == len(set(level)) <= 2 * (n - 1) + 2


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("signs", ["+", "-", "+-", "-+"], ids=["plus", "minus", "alternating", "alternating-minus"])
def test_diagonal_signed_factors_certify(n, signs):
    # phases ±jθ force k_j = ±j: every sign pattern certifies with its
    # ancillas restored, and the X count is the flip pair, one per sign
    # change and the closing X
    eps = 1e-6
    sign = [1 if signs[j % len(signs)] == "+" else -1 for j in range(1 << n)]
    phases = [sign[j] * j * GOLDEN_THETA % TWO_PI for j in range(1 << n)]
    seq = diagonal_to_circuit(phases, eps)
    assert seq.factor_reps == tuple(sign[j] * j for j in range(1, 1 << n))
    assert seq.gate_counts()["X"] == polarity_x_count(n, range(1, 1 << n), seq.factor_reps)
    assert_diagonal_certified(phases, seq, eps)


def test_diagonal_single_index_at_every_position():
    eps = 1e-3
    for j in range(8):
        phases = np.zeros(8)
        phases[j] = 2.0
        seq = diagonal_to_circuit(phases, eps)
        assert seq.gate_counts()["RZ"] == 1 and seq.n_anc == 2
        assert_diagonal_certified(phases, seq, eps)


def test_diagonal_two_qubits(rng):
    phases = rng.uniform(0, TWO_PI, 4)
    seq = diagonal_to_circuit(phases, eps=1e-3)
    approx = np.exp(1j * seq.global_phase) * to_unitary(simulate_restricted(seq))
    target = np.diag(np.exp(1j * phases))
    assert np.max(np.abs(np.linalg.svd(approx - target, compute_uv=False))) < 1e-3


# --------------------------------------------------------------- synthesize

def test_synthesize_cnot_exact():
    report = synthesize(PermutationWithPhases(2, (0, 1, 3, 2), (0.0,) * 4), eps=1e-3)
    assert report.achieved_error == 0.0
    assert report.gate_counts == {"X": 0, "RZ": 0, "CNOT": 1, "CCNOT": 0}


def test_synthesize_refuses_targets_above_the_cap_before_building(monkeypatch):
    n = synth.SYNTH_QUBIT_CAP + 1
    monkeypatch.setattr(synth, "permutation_to_circuit", None)  # never reached
    target = PermutationWithPhases(n, np.arange(1 << n), np.zeros(1 << n))
    with pytest.raises(ValueError, match=f"^{n} qubits exceeds synthesis cap {n - 1}$"):
        synthesize(target, eps=1e-3)


def test_synthesize_zero_qubit_target_is_a_global_phase():
    # once `1 << (n - 1)` in the diagonal stage: "negative shift count"
    for phi in (0.0, 1.0, 0.47345596139997853, np.pi, np.nextafter(2 * np.pi, 0)):
        report = synthesize(PermutationWithPhases(0, (0,), (phi,)), eps=1e-3)
        assert report.sequence.gates == [] and report.sequence.n_anc == 0
        assert report.sequence.global_phase == phi
        assert report.achieved_error == 0.0 and report.max_phase_residual == 0.0
        assert report.factor_reps == ()


def test_equal_residuals_give_zero_error_not_rounding():
    # the gap across 2π was once formed as (a + 2π) − a, so equal angles
    # gave an error of ±4.4e-16, negative for some a
    for a in (0.47345596139997853, 1.1499660883984457, 2.9400614345516773):
        assert shortest_arc_chord([a]) == shortest_arc_chord([a, a, a]) == 0.0
        report = synthesize(PermutationWithPhases(1, (1, 0), (a, a)), eps=1e-3)
        assert report.achieved_error >= 0.0


def test_synthesize_z():
    g = PermutationWithPhases(1, (0, 1), (0.0, np.pi))
    report = synthesize(g, eps=1e-2)
    assert report.achieved_error <= 1e-2
    approx = np.exp(1j * report.sequence.global_phase) * to_unitary(
        simulate_restricted(report.sequence)
    )
    assert phase_optimized_error(np.diag([1, -1]).astype(complex), approx) <= 1e-2


def test_synthesize_random_targets(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            g = random_bp(n, rng)
            report = synthesize(g, eps=1e-2)
            assert report.achieved_error <= 1e-2
            M = to_unitary(simulate_restricted(report.sequence))
            assert phase_optimized_error(to_unitary(g), M) <= 1e-2


def test_certificate_matches_dense_reference(rng):
    # the monomial certificate against the dense eigenvalue route, and the
    # ancilla-clean pushes against the same columns of the full simulation
    for n in (1, 2, 3, 4):
        for _ in range(3):
            g = random_bp(n, rng)
            report = synthesize(g, eps=1e-2)
            seq = report.sequence
            restricted = simulate_restricted(seq)
            dense = phase_optimized_error(to_unitary(g), to_unitary(restricted))
            assert abs(report.achieved_error - dense) <= 1e-12
            full = simulate(seq)
            for d in range(1 << n):
                assert full.perm[d << seq.n_anc] == restricted.perm[d] << seq.n_anc
                assert circular_distance(full.phases[d << seq.n_anc], restricted.phases[d]) <= 1e-12


def test_synthesize_random_targets_certified_to_eight_qubits():
    for n in range(1, 9):
        g = random_bp(n, np.random.default_rng(n))
        report = synthesize(g, eps=1e-3)
        assert report.achieved_error <= 1e-3
        assert report.sequence.n_anc == max(0, n - 1)
        achieved = simulate_restricted(report.sequence)
        assert np.array_equal(achieved.perm, g.perm)
        deltas = achieved.phases + report.sequence.global_phase - g.phases
        assert abs(shortest_arc_chord(deltas) - report.achieved_error) <= 1e-12


def test_synthesize_seven_qubit_increment():
    # 7 data + 4 ancilla qubits: beyond the dense cap, certified on the monomial
    g = PermutationWithPhases(7, tuple((s + 1) % 128 for s in range(128)), (0.0,) * 128)
    report = synthesize(g, eps=1e-3)
    assert report.achieved_error == 0.0
    assert report.sequence.n_total > 10
    restricted = simulate_restricted(report.sequence)  # raises if an ancilla is left
    assert np.array_equal(restricted.perm, g.perm)
    assert all(p == 0.0 for p in restricted.phases)
    # one 128-cycle: its junctions merge to 1,143 → 359 CCNOTs and 1,524 → 24 Xs
    assert report.gate_counts["CCNOT"] <= 400 and report.gate_counts["X"] <= 40


def test_synthesize_six_qubit_random_phases():
    g = random_bp(6, np.random.default_rng(6))
    report = synthesize(g, eps=1e-2)
    assert report.sequence.n_total > 10
    assert report.achieved_error <= 1e-2
    achieved = simulate_restricted(report.sequence)
    assert np.array_equal(achieved.perm, g.perm)
    gamma = report.sequence.global_phase
    worst = max(circular_distance(a + gamma, b) for a, b in zip(achieved.phases, g.phases))
    assert worst <= 1e-2


def test_synthesize_phases_within_eps_of_zero_is_the_permutation_stage_alone():
    # every phase 1e-9 is k = 0: each once cost a leaf of the diagonal walk
    # and an RZ^0, 34 gates on two ancillas
    perm = (3, 0, 6, 1, 7, 2, 5, 4)
    report = synthesize(PermutationWithPhases(3, perm, (1e-9,) * 8), eps=1e-3)
    bare = permutation_to_circuit(perm, 3)
    assert report.sequence.gates == bare.gates
    assert report.sequence.n_anc == bare.n_anc == 0
    assert report.stage_gate_counts["diagonal"] == dict.fromkeys(synth.GATE_KINDS, 0)
    assert report.factor_reps == ()
    assert report.achieved_error == 0.0


def test_every_diagonal_factor_has_a_nonzero_k(rng):
    # one RZ per reported factor, and no k is 0, on targets whose phases mix
    # exact zeros, phases within eps of 0 on either side and random ones
    near = [0.0, 1e-300, 1e-12, 1e-9, 1e-6, 9e-4, TWO_PI - 1e-9, TWO_PI - 9e-4]
    for n in range(1, 6):
        for _ in range(4):
            g = random_bp(n, rng)
            mixed = np.where(rng.random(1 << n) < 0.5, rng.choice(near, 1 << n), g.phases)
            report = synthesize(PermutationWithPhases(n, g.perm, mixed), eps=1e-3)
            assert report.stage_gate_counts["diagonal"]["RZ"] == len(report.factor_reps)
            assert 0 not in report.factor_reps
            assert all(gate.reps for gate in report.sequence.gates if gate.kind == "RZ")


def test_synthesize_raises_on_wrong_permutation(monkeypatch):
    # a permutation stage that drops its gates is a synthesis bug, not an input error
    monkeypatch.setattr(synth, "permutation_to_circuit", lambda perm, n, gate: GateSequence(n_data=n))
    with pytest.raises(RuntimeError, match="permutation differs"):
        synthesize(PermutationWithPhases(2, (0, 1, 3, 2), (0.0,) * 4), eps=1e-2)


def test_every_primitive_is_bias_preserving():
    gates = [
        GateSequence(n_data=1, gates=[Gate("X", (0,))]),
        GateSequence(n_data=1, gates=[Gate("RZ", (0,), reps=1)]),
        GateSequence(n_data=2, gates=[Gate("CNOT", (0, 1))]),
        GateSequence(n_data=3, gates=[Gate("CCNOT", (0, 1, 2))]),
    ]
    for seq in gates:
        U = to_unitary(simulate(seq))
        assert check_permutation(U).is_bp
        assert check_zx(U)
        assert check_normalizer(U)


def test_error_is_max_of_factor_residuals(rng):
    # each factor gets the full eps, so the certified error is the chord to
    # the shortest arc holding the per-factor residuals, not a sum; a factor
    # with k = 0 emits no gate and leaves its residual −φ
    eps = 1e-2
    negative = 0
    for n in (1, 2, 3):
        for _ in range(4):
            g = random_bp(n, rng)
            report = synthesize(g, eps=eps)
            d_phases, _ = factor_dp(g)
            residuals = []
            for p in d_phases:
                k = approximate_phase(p, eps)  # signed: X·RZ^{|k|}·X for k < 0
                negative += k < 0
                r = (k * GOLDEN_THETA - p + np.pi) % TWO_PI - np.pi
                assert abs(r) < eps
                residuals.append(r)
            assert abs(report.achieved_error - shortest_arc_chord(residuals)) <= 1e-12
            assert report.achieved_error <= 2 * np.sin(eps / 2)
            assert abs(report.max_phase_residual - max(map(abs, residuals))) <= 1e-12
    assert negative


def exact_error(report, g) -> float:
    """report's certified error recomputed in exact rationals over the
    doubles θ, TWO_PI and the target's phases: each state's residual is its
    integer RZ count times θ/2 less its target phase, modulo TWO_PI, and
    the chord 2·sin(arc/4) to the shortest arc holding them all is the one
    step taken in floating point."""
    seq = report.sequence
    _, counts = monomial_counts(seq, np.arange(1 << seq.n_data) << seq.n_anc)
    turn, half = Fraction(TWO_PI), Fraction(seq.theta) / 2
    residues = sorted((c * half - Fraction(phi)) % turn
                      for c, phi in zip(counts.tolist(), g.phases.tolist()))
    span = residues[-1] - residues[0]
    gap = max((b - a for a, b in zip(residues, residues[1:])), default=0)
    arc = span if gap <= turn - span else turn - gap
    return 2 * math.sin(float(arc) / 4)


def test_certificate_equals_exact_recomputation():
    # each state's phase was once a float sum of its RZ angles, each one
    # rounded, which drifted by up to 2e-10: the certificate of seed 1004 at
    # n = 12 read 1.0000235e-6 for an exact 9.99836e-7
    cases = [(n, n, eps) for n in (3, 5, 8) for eps in (1e-3, 1e-6)] + [(12, 1004, 1e-6)]
    for n, seed, eps in cases:
        g = random_bp(n, np.random.default_rng(seed))
        report = synthesize(g, eps)
        assert abs(report.achieved_error - exact_error(report, g)) <= 1e-12


def test_synthesize_five_qubits_tight_eps():
    # at eps = 1e-6 a per-factor share of eps/32 put the smallest k past the cap
    g = random_bp(5, np.random.default_rng(5))
    report = synthesize(g, eps=1e-6)
    assert report.achieved_error <= 1e-6
    assert report.max_phase_residual < 1e-6
    assert np.array_equal(simulate_restricted(report.sequence).perm, g.perm)


def test_report_stage_counts_and_logs(rng, caplog):
    g = random_bp(3, rng)
    with caplog.at_level(logging.DEBUG, logger="bpgates.synth"):
        report = synthesize(g, eps=1e-2)
    stages = report.stage_gate_counts
    assert set(stages) == {"permutation", "diagonal"}
    for kind, count in report.gate_counts.items():
        assert stages["permutation"][kind] + stages["diagonal"][kind] == count
    assert stages["permutation"]["RZ"] == 0
    # a factor becomes a gate exactly when its k ≠ 0
    assert stages["diagonal"]["RZ"] == sum(approximate_phase(p, 1e-2) != 0 for p in factor_dp(g)[0])
    messages = [r.getMessage() for r in caplog.records if r.name == "bpgates.synth"]
    for stage in ("permutation", "diagonal", "certify"):
        assert f"{stage}: start" in messages
        assert any(m.startswith(f"{stage}: end in ") for m in messages)


def test_report_factor_reps_in_emission_order(rng):
    eps = 1e-2
    signs = set()
    for n in (1, 2, 3):
        g = random_bp(n, rng)
        report = synthesize(g, eps=eps)
        expected = tuple(k for p in factor_dp(g)[0] if (k := approximate_phase(p, eps)))
        assert report.factor_reps == expected
        # each factor is RZ^{|k|}, under an X pair on its flag where k < 0
        rz = [gate.reps for gate in report.sequence.gates if gate.kind == "RZ"]
        assert [abs(k) for k in report.factor_reps] == rz
        signs |= {np.sign(k) for k in expected}
    assert signs == {1, -1}


def test_monotonicity_per_factor_refinement():
    # the k search only refines: a tighter budget never worsens the distance,
    # and never takes fewer repetitions, whichever sign each k has
    signs = set()
    for phi in np.linspace(0.1, 6.0, 12):
        k_coarse, k_fine = approximate_phase(phi, 1e-2), approximate_phase(phi, 1e-4)
        d_coarse = circular_distance(k_coarse * GOLDEN_THETA % TWO_PI, phi)
        d_fine = circular_distance(k_fine * GOLDEN_THETA % TWO_PI, phi)
        assert d_fine <= d_coarse
        assert abs(k_fine) >= abs(k_coarse)
        signs |= {np.sign(k_coarse), np.sign(k_fine)}
    assert signs == {1, -1}


def test_closure_roundtrip(rng):
    for n in (1, 2):
        g = random_bp(n, rng)
        report = synthesize(g, eps=1e-2)
        M = np.exp(1j * report.sequence.global_phase) * to_unitary(
            simulate_restricted(report.sequence)
        )
        v = check_permutation(M)  # exact monomial, passes at default tol
        assert v.is_bp
        assert np.array_equal(v.canonical.perm, g.perm)
        for s in range(1 << n):
            assert circular_distance(v.canonical.phases[s], g.phases[s]) <= 1e-2


def test_ancilla_restoration_on_synthesis(rng):
    g = random_bp(3, rng)
    report = synthesize(g, eps=1e-2)
    # simulate_restricted raises if any ancilla is left excited
    simulate_restricted(report.sequence)
    assert report.sequence.n_anc >= 1  # n=3 diagonal stage needs ancillas
