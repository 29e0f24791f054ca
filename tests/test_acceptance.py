"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import time

import numpy as np
import pytest

from bpgates import (
    BinaryCode,
    PermutationWithPhases,
    build_css,
    check_equicoherent,
    check_normalizer,
    check_permutation,
    check_zx,
    hadamard_bound,
    io,
    lift_logical,
    permutation_to_circuit,
    random_bp,
    restrict_physical,
    simulate_restricted,
    synthesize,
    to_unitary,
    worst_case_error,
    zx_decompose,
)
from bpgates.linalg import H
from conftest import basis_state, coherence_rank, encode, random_state, random_unitary

TOL = 1e-9
SEED = 424242


def _report(criterion: int, label: str):
    print(f"ACCEPTANCE {criterion:02d} {label}: PASS")


def _h_n(n):
    M = H
    for _ in range(n - 1):
        M = np.kron(M, H)
    return M


def test_criterion_1_characterization_equivalence():
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    for n in (1, 2, 3):
        for _ in range(100):
            G = to_unitary(random_bp(n, rng))
            assert check_permutation(G, TOL).is_bp
            assert check_zx(G, TOL)
            assert check_normalizer(G, TOL)
        for _ in range(100):
            G = random_unitary(n, rng)
            verdicts = (
                check_permutation(G, TOL).is_bp,
                check_zx(G, TOL),
                check_normalizer(G, TOL),
            )
            assert verdicts[0] == verdicts[1] == verdicts[2]
    assert time.monotonic() - start < 30.0
    _report(1, "characterization equivalence")


def test_criterion_2_group_structure():
    rng = np.random.default_rng(SEED + 1)
    for n in (1, 2, 3):
        for _ in range(100):
            g1, g2 = random_bp(n, rng), random_bp(n, rng)
            U1, U2 = to_unitary(g1), to_unitary(g2)
            for G in (U1 @ U2, U1.conj().T):
                assert check_permutation(G, TOL).is_bp
                assert check_zx(G, TOL)
                assert check_normalizer(G, TOL)
            assert np.max(np.abs(to_unitary(g1.compose(g2)) - U1 @ U2)) <= 1e-8
    _report(2, "group structure (closure, composition)")


def test_criterion_3_hadamard_bound():
    rng = np.random.default_rng(SEED + 2)
    assert abs(hadamard_bound(1) - 0.765367) < 1e-6
    for n in (1, 2, 3):
        Hn = _h_n(n)
        bound = hadamard_bound(n)
        for _ in range(1000):
            V = to_unitary(random_bp(n, rng))
            assert worst_case_error(Hn, V) >= bound - 1e-8
    _report(3, "Hadamard separation bound")


def test_criterion_4_coherence_rank_preservation():
    rng = np.random.default_rng(SEED + 3)
    for n in (1, 2, 3):
        gates = [to_unitary(random_bp(n, rng)) for _ in range(100)]
        states = [random_state(n, rng) for _ in range(100)]
        for G in gates:
            for psi in states:
                assert coherence_rank(G @ psi, TOL) == coherence_rank(psi, TOL)
    # a non-BP gate strictly changes the rank of some basis state
    assert coherence_rank(H @ basis_state("0")) == 2
    _report(4, "coherence-rank preservation")


def test_criterion_5_synthesis():
    rng = np.random.default_rng(SEED + 4)
    start = time.monotonic()
    for n in (1, 2, 3):
        for _ in range(50):
            g = random_bp(n, rng)
            report = synthesize(g, eps=1e-2)
            assert report.achieved_error <= 1e-2
            # ancilla restoration: simulate_restricted raises on violation
            simulate_restricted(report.sequence)
        # permutation stage exact: all phases trivial multiples of theta (k=0)
        perm_only = PermutationWithPhases(
            n, tuple(int(x) for x in rng.permutation(1 << n)), (0.0,) * (1 << n)
        )
        report = synthesize(perm_only, eps=1e-2)
        assert report.achieved_error == 0.0
        assert report.gate_counts["RZ"] == 0
    assert time.monotonic() - start < 120.0
    _report(5, "discrete synthesis within eps")


def test_criterion_6_exhaustive_permutation_exactness():
    for perm in itertools.permutations(range(4)):
        seq = permutation_to_circuit(perm, 2)
        M = to_unitary(simulate_restricted(seq))
        expected = np.zeros((4, 4))
        for s, t in enumerate(perm):
            expected[t, s] = 1.0
        assert np.array_equal(M.real, expected)
        assert np.array_equal(M.imag, np.zeros((4, 4)))
    _report(6, "all 24 two-qubit permutations exact")


@pytest.fixture(scope="module")
def codes():
    c422 = build_css(
        BinaryCode.from_rows([[1, 1, 1, 1]]),
        BinaryCode.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]),
    )
    steane = build_css(
        BinaryCode.from_rows(
            [[0, 1, 1, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [1, 1, 0, 1, 0, 0, 1]]
        ),
        BinaryCode.from_rows(
            [
                [1, 0, 0, 0, 0, 1, 1],
                [0, 1, 0, 0, 1, 0, 1],
                [0, 0, 1, 0, 1, 1, 0],
                [0, 0, 0, 1, 1, 1, 1],
            ]
        ),
    )
    return c422, steane


def test_criterion_7_css_lifting(codes):
    rng = np.random.default_rng(SEED + 5)
    start = time.monotonic()
    for e in codes:
        for _ in range(50):
            g = random_bp(e.k, rng)
            lifted = lift_logical(e, g)
            Ghat = to_unitary(lifted)
            G = to_unitary(g)
            for s in range(1 << e.k):
                psi = np.zeros(1 << e.k, dtype=complex)
                psi[s] = 1.0
                assert (
                    np.linalg.norm(Ghat @ encode(e, psi) - encode(e, G @ psi)) <= 1e-8
                )
            assert check_permutation(Ghat, TOL).is_bp
            assert check_zx(Ghat, TOL)
            assert check_normalizer(Ghat, TOL)
            back = restrict_physical(e, check_permutation(Ghat, TOL).canonical, TOL)
            assert np.array_equal(back.perm, g.perm)
            assert np.allclose(
                np.exp(1j * np.array(back.phases)),
                np.exp(1j * np.array(g.phases)),
                atol=1e-9,
            )
    assert time.monotonic() - start < 60.0
    _report(7, "CSS logical-physical lifting")


def test_criterion_8_equicoherence(codes):
    rng = np.random.default_rng(SEED + 6)
    c422, steane = codes
    for e, expected_l in ((c422, 2), (steane, 8)):
        ok, l, violation = check_equicoherent(e, TOL)
        assert ok and l == expected_l and violation is None
        for _ in range(100):
            psi = random_state(e.k, rng)
            # χ(encode(ψ)) = l·χ(ψ): each logical term adds one disjoint coset of size l
            assert coherence_rank(encode(e, psi), TOL) == e.l * coherence_rank(psi, TOL)
    _report(8, "equicoherence and coherence scaling")


def test_criterion_9_non_equicoherent_obstruction():
    # an orthonormal, non-equicoherent encoding of one logical qubit in two
    s0 = basis_state("00")
    s1 = np.array([0, 1, 1, 1], dtype=complex) / np.sqrt(3)
    assert abs(np.vdot(s0, s1)) <= TOL
    # logical X maps |0> -> |1>: obstructed by the rank pair (1, 3)
    assert (coherence_rank(s0, TOL), coherence_rank(s1, TOL)) == (1, 3)
    T0 = frozenset(np.where(np.abs(s0) > TOL)[0])
    T1 = frozenset(np.where(np.abs(s1) > TOL)[0])
    # exhaustive search over all phase-free 2-qubit physical permutations
    for perm in itertools.permutations(range(4)):
        assert {perm[i] for i in T0} != T1
    _report(9, "non-equicoherent obstruction")


def test_criterion_10_file_format_roundtrips(tmp_path):
    import io as stdio

    rng = np.random.default_rng(SEED + 7)

    def dumps(writer, obj):
        buf = stdio.StringIO()
        writer(obj, buf)
        return buf.getvalue()

    # matrix
    U = random_unitary(3, rng)
    assert np.max(np.abs(io.read_matrix(dumps(io.write_matrix, U)) - U)) <= 1e-12
    # zx decomposition
    d = zx_decompose(random_unitary(2, rng))
    back = io.read_zx(dumps(io.write_zx, d))
    assert set(back.coeffs) == set(d.coeffs)
    assert all(abs(back.coeffs[k] - d.coeffs[k]) <= 1e-12 for k in d.coeffs)
    # circuit
    seq = synthesize(random_bp(2, rng), eps=1e-2).sequence
    seq2 = io.read_circuit(dumps(io.write_circuit, seq))
    assert seq2.gates == seq.gates
    assert abs(seq2.theta - seq.theta) <= 1e-12
    assert abs(seq2.global_phase - seq.global_phase) <= 1e-12
    # classical code
    code = BinaryCode.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    code2 = io.read_code(dumps(io.write_code, code))
    assert np.array_equal(code2.generator, code.generator)
    # permutation-with-phases
    p = random_bp(3, rng)
    p2 = io.read_perm(dumps(io.write_perm, p))
    assert np.array_equal(p2.perm, p.perm)
    assert max(abs(a - b) for a, b in zip(p2.phases, p.phases)) <= 1e-12
    _report(10, "file-format round trips")
