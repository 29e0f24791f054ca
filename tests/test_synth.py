import itertools
import logging
import math
import re
import time
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
from bpgates.synth import PhaseApproximationError, circular_distance

TWO_PI = 2 * np.pi


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


def monomial_reference(seq, inputs):
    """The per-gate numpy simulator the bit-sliced one replaced: four array
    operations per gate on the basis indices themselves."""
    seq.validate()
    m = seq.n_total
    target = np.array(inputs, dtype=np.int64)
    phase = np.zeros(target.size)
    for g in seq.gates:
        bits = tuple(m - 1 - q for q in g.qubits)
        if g.kind == "X":
            target ^= 1 << bits[0]
        elif g.kind == "CNOT":
            target ^= ((target >> bits[0]) & 1) << bits[1]
        elif g.kind == "CCNOT":
            target ^= ((target >> bits[0]) & (target >> bits[1]) & 1) << bits[2]
        else:
            bit = (target >> bits[0]) & 1
            phase += (0.5 * g.reps * seq.theta % TWO_PI) * (2 * bit - 1)
    return target, phase


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
    # the default chunk, which holds all of these
    seqs = [synthesize(random_bp(n, rng), eps=1e-3).sequence for n in (3, 6)]
    seqs.append(random_sequence(4, 3, 400, rng))
    whole = [synth._monomial(seq, np.arange(1 << seq.n_total)) for seq in seqs]
    for unpack_bytes in (1, 1000):
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


def test_transposition_is_one_mcx_conjugated_by_cnots():
    # one X with n − 1 controls (a CCNOT, or a 3-CCNOT ladder on one ancilla)
    # between d − 1 CNOTs and their inverses, from the pivot qubit alone
    for n in (3, 4):
        for a, b in itertools.permutations(range(1 << n), 2):
            d = bin(a ^ b).count("1")
            gates, n_anc = synth._transposition(n, a, b, anc_start=n)
            seq = GateSequence(n_data=n, n_anc=n_anc, gates=gates)
            counts = seq.gate_counts()
            assert (counts["CCNOT"], n_anc) == {3: (1, 0), 4: (3, 1)}[n]
            assert counts["CNOT"] == 2 * (d - 1) and counts["RZ"] == 0
            assert len({g.qubits[0] for g in gates if g.kind == "CNOT"}) <= 1
            swap = list(range(1 << n))
            swap[a], swap[b] = b, a
            achieved = simulate_restricted(seq)
            assert achieved.perm.tolist() == swap and not achieved.phases.any()


def test_permutation_circuit_shares_equal_gates(rng):
    # Gate is frozen: each distinct gate of one circuit is built once
    seq = permutation_to_circuit(rng.permutation(64), 6)
    assert len({id(g) for g in seq.gates}) == len(set(seq.gates)) < len(seq.gates)


def test_all_two_qubit_permutations_exact():
    for perm in itertools.permutations(range(4)):
        seq = permutation_to_circuit(perm, 2)
        assert np.array_equal(to_unitary(simulate_restricted(seq)).real, perm_matrix(perm))


def test_random_three_qubit_permutations_exact(rng):
    for _ in range(200):
        perm = tuple(int(x) for x in rng.permutation(8))
        seq = permutation_to_circuit(perm, 3)
        M = to_unitary(simulate_restricted(seq))
        assert np.array_equal(M.real, perm_matrix(perm))
        assert np.array_equal(M.imag, np.zeros((8, 8)))


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        permutation_to_circuit((0, 0, 1, 2), 2)


# -------------------------------------------------------- phase approximation

def test_approximate_phase_trivial():
    assert approximate_phase(0.0, 1e-6) == 0
    assert approximate_phase(GOLDEN_THETA % TWO_PI, 1e-9) == 1


def test_approximate_phase_matches_scan_oracle():
    # independent brute-force scan, frozen before trusting the implementation
    theta = TWO_PI * (np.sqrt(2) - 1)
    k_oracle = None
    for k in range(10**6):
        if circular_distance(k * theta % TWO_PI, np.pi) < 1e-2:
            k_oracle = k
            break
    assert k_oracle == 204  # frozen oracle value
    assert approximate_phase(np.pi, 1e-2, theta) == 204


def scan_oracle(phi, eps, theta, limit):
    """Smallest k <= limit with k*theta within eps of phi, by a scan in exact
    integers over the common denominator; None if there is none."""
    fr = [Fraction(x) for x in (theta, TWO_PI, phi, eps)]
    den = math.lcm(*(f.denominator for f in fr))
    a, m, p, e = (int(f * den) for f in fr)
    r = 0
    for k in range(limit + 1):
        d = (r - p) % m
        if min(d, m - d) < e:
            return k
        r = (r + a) % m
    return None


def test_approximate_phase_matches_exact_oracle():
    rng = np.random.default_rng(11)
    limit = 200_000
    thetas = [GOLDEN_THETA, TWO_PI * (np.sqrt(2) - 1)] + list(rng.uniform(0.0, TWO_PI, 4))
    for theta in thetas:
        theta = float(theta)
        for _ in range(6):
            phi = float(rng.uniform(0.0, TWO_PI))
            eps = float(10 ** rng.uniform(-4, -1))
            k = scan_oracle(phi, eps, theta, limit)
            if k is None:
                with pytest.raises(PhaseApproximationError, match="cap"):
                    approximate_phase(phi, eps, theta, cap=limit)
            else:
                assert approximate_phase(phi, eps, theta, cap=limit) == k
    # windows at the ends of [0, 2π): one holding 0 (it wraps), one just short
    for phi, eps in ((TWO_PI - 5e-4, 1e-3), (TWO_PI - 2e-3, 1e-3), (3e-3, 2e-3)):
        k = approximate_phase(phi, eps)
        assert k == scan_oracle(phi, eps, GOLDEN_THETA, limit)
        assert (k == 0) == (phi > TWO_PI - eps)


def test_approximate_phase_large_eps_is_zero():
    for eps in (np.pi, 4.0, 1e3):
        for phi in (0.1, 3.0, 6.2):
            assert approximate_phase(phi, eps) == 0


def test_approximate_phase_cap():
    # theta = 2pi/8 exactly rational, and theta = 0: pi/3 is unreachable
    for theta in (TWO_PI / 8, 0.0):
        start = time.perf_counter()
        with pytest.raises(PhaseApproximationError, match="rational"):
            approximate_phase(np.pi / 3, 1e-6, theta)
        assert time.perf_counter() - start < 1.0
    k = approximate_phase(np.pi, 1e-3)
    assert approximate_phase(np.pi, 1e-3, cap=k) == k
    with pytest.raises(PhaseApproximationError, match=f"cap {k - 1}"):
        approximate_phase(np.pi, 1e-3, cap=k - 1)
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
    k = approximate_phase(phi, 1e-3)
    assert circular_distance(k * GOLDEN_THETA % TWO_PI, phi) < 1e-3


# ---------------------------------------------------- diagonal_to_circuit

def test_diagonal_all_zero_phases():
    seq = diagonal_to_circuit([0.0, 0.0], eps=1e-3)
    assert seq.gates == []


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


def assert_diagonal_certified(phases, seq, eps):
    achieved = simulate_restricted(seq)  # raises if an ancilla is left set
    assert np.array_equal(achieved.perm, np.arange(len(phases)))
    deltas = achieved.phases + seq.global_phase - np.asarray(phases)
    assert shortest_arc_chord(deltas) <= eps


def test_diagonal_unary_iteration_counts(rng):
    # all 2^n factors nontrivial: two CCNOTs per node of the AND tree below
    # qubit 0, one X pair around qubit 0's 0-subtree, a flag ancilla per level
    eps = 1e-3
    for n in range(2, 7):
        phases = rng.uniform(0.1, TWO_PI - 0.1, 1 << n)
        seq = diagonal_to_circuit(phases, eps)
        counts = seq.gate_counts()
        assert counts["CCNOT"] == 2 ** (n + 1) - 4
        assert counts["X"] <= 2 and counts["RZ"] == 1 << n
        assert seq.n_anc == n - 1
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


def test_synthesize_raises_on_wrong_permutation(monkeypatch):
    # a permutation stage that drops its gates is a synthesis bug, not an input error
    monkeypatch.setattr(synth, "permutation_to_circuit", lambda perm, n: GateSequence(n_data=n))
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
    # each nontrivial factor gets the full eps, so the certified error is the
    # chord to the shortest arc holding the per-factor residuals, not a sum
    eps = 1e-2
    for n in (1, 2, 3):
        for _ in range(4):
            g = random_bp(n, rng)
            report = synthesize(g, eps=eps)
            d_phases, _ = factor_dp(g)
            residuals = []
            for p in d_phases:
                if circular_distance(p, 0.0) > synth.PHASE_TRIVIAL:
                    k = approximate_phase(p, eps)
                    r = (k * GOLDEN_THETA - p + np.pi) % TWO_PI - np.pi
                    assert abs(r) < eps
                    residuals.append(r)
                else:
                    residuals.append(0.0)
            assert abs(report.achieved_error - shortest_arc_chord(residuals)) <= 1e-12
            assert report.achieved_error <= 2 * np.sin(eps / 2)
            assert abs(report.max_phase_residual - max(map(abs, residuals))) <= 1e-12


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
    assert stages["diagonal"]["RZ"] == sum(
        circular_distance(p, 0.0) > synth.PHASE_TRIVIAL for p in factor_dp(g)[0]
    )
    messages = [r.getMessage() for r in caplog.records if r.name == "bpgates.synth"]
    for stage in ("permutation", "diagonal", "certify"):
        assert f"{stage}: start" in messages
        assert any(m.startswith(f"{stage}: end in ") for m in messages)


def test_report_factor_reps_in_emission_order(rng):
    eps = 1e-2
    for n in (1, 2, 3):
        g = random_bp(n, rng)
        report = synthesize(g, eps=eps)
        expected = tuple(
            approximate_phase(p, eps)
            for p in factor_dp(g)[0]
            if circular_distance(p, 0.0) > synth.PHASE_TRIVIAL
        )
        assert report.factor_reps == expected
        rz = [gate.reps for gate in report.sequence.gates if gate.kind == "RZ"]
        assert list(report.factor_reps) == rz


def test_monotonicity_per_factor_refinement():
    # the k search only refines: a tighter budget never worsens the distance
    for phi in np.linspace(0.1, 6.0, 12):
        d_coarse = circular_distance(
            approximate_phase(phi, 1e-2) * GOLDEN_THETA % TWO_PI, phi
        )
        d_fine = circular_distance(
            approximate_phase(phi, 1e-4) * GOLDEN_THETA % TWO_PI, phi
        )
        assert d_fine <= d_coarse


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
