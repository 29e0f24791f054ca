import dataclasses
import logging
import re
from itertools import combinations

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
    lift_logical,
    random_bp,
    restrict_physical,
    to_unitary,
)
from bpgates.css import (
    CodeConstructionError,
    CosetStates,
    NotLogicalOperatorError,
)
from bpgates import gf2
from bpgates.linalg import index_to_bits
from bpgates.verify import TWO_PI
from conftest import (basis_state, coherence_rank, encode, random_state, repetition_pair,
                      wide_pair)


def rank13_states() -> tuple[np.ndarray, np.ndarray]:
    """Non-equicoherent counterexample: an orthonormal pair of ranks 1 and 3."""
    s0 = basis_state("00")
    s1 = np.array([0, 1, 1, 1], dtype=complex) / np.sqrt(3)
    return s0, s1


def decode(e, psi_l: np.ndarray) -> np.ndarray:
    """The logical amplitudes of a codespace state: its inner products with
    the basis images e.basis_states, built one lookup each."""
    return np.array([np.vdot(e.basis_states[x], psi_l) for x in range(1 << e.k)])


def with_table(e, n: int, table):
    """e with its coset table replaced by a hand-made one of 2^k rows of l
    entries in range(2^n), rows that may overlap."""
    table = np.asarray(table, dtype=np.int64)
    return dataclasses.replace(e, n=n, k=len(table).bit_length() - 1, cosets=table)


# ----------------------------------------------------------------- codes

def test_binary_code_rejects_dependent_rows():
    with pytest.raises(CodeConstructionError):
        BinaryCode.from_rows([[1, 1, 0], [1, 1, 0]])
    with pytest.raises(CodeConstructionError):
        BinaryCode.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])


def loop_codewords(G) -> list[int]:
    """Word m is the XOR of the rows picked by the bits of m, row 0 by the
    most significant one."""
    k = len(G)
    ref = []
    for m in range(1 << k):
        w = 0
        for i, row in enumerate(G):
            if (m >> (k - 1 - i)) & 1:
                w ^= int("".join(str(int(b)) for b in row), 2)
        ref.append(w)
    return ref


def test_codewords_match_loop_reference(steane, hamming15):
    # word order matters: lift_logical aligns cosets by the position of each C1 word
    for code in (steane.c1, steane.c2, hamming15.c1, hamming15.c2):
        assert code.words() == loop_codewords(code.generator)


def test_codewords_refuse_words_wider_than_int64():
    assert gf2.codewords(np.ones((1, 63), dtype=np.uint8)).tolist() == [0, (1 << 63) - 1]
    with pytest.raises(ValueError, match="length 64 do not fit in 63-bit integers"):
        gf2.codewords(np.ones((1, 64), dtype=np.uint8))


def rref_by_column(A) -> tuple[np.ndarray, list[int]]:
    """Reference RREF over GF(2), (R, pivot columns), zero rows dropped: one
    numpy pass per column, as gf2.rref once reduced uint8 rows."""
    R = gf2.as_gf2(A).copy()
    m, n = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r >= m:
            break
        rows = np.where(R[r:, c] == 1)[0]
        if rows.size == 0:
            continue
        p = r + int(rows[0])
        if p != r:
            R[[r, p]] = R[[p, r]]
        ones = np.where(R[:, c] == 1)[0]
        ones = ones[ones != r]
        if ones.size:
            R[ones] ^= R[r]
        pivots.append(c)
        r += 1
    return R[: len(pivots)], pivots


def reduce_against(v, R: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Reference coset representative of v modulo rowspace(R), R in RREF."""
    w = (np.asarray(v, dtype=np.uint8) & 1).copy()
    for row, c in zip(R, pivots):
        if w[c]:
            w ^= row
    return w


def random_gf2_matrix(rng, m: int, n: int) -> np.ndarray:
    """An m x n binary matrix with, by chance, zero rows and rows that are
    sums of earlier ones."""
    A = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
    for i in range(m):
        if rng.random() < 0.2:
            A[i] = 0
        elif i and rng.random() < 0.3:
            A[i] = rng.integers(0, 2, size=i, dtype=np.uint8) @ A[:i] % 2
    return A


def test_rref_matches_column_reference():
    rng = np.random.default_rng(4711)
    shapes = [(0, 3), (3, 0), (1, 1), (12, 70), (70, 12), (12, 64), (12, 63)]
    shapes += [(int(rng.integers(1, 13)), int(rng.integers(1, 71))) for _ in range(300)]
    for m, n in shapes:
        A = random_gf2_matrix(rng, m, n)
        R, pivots = gf2.rref(A)
        want, want_pivots = rref_by_column(A)
        assert R.dtype == np.uint8 and R.shape == want.shape
        assert np.array_equal(R, want) and pivots == want_pivots
        assert np.array_equal(gf2.unpack(gf2.pack(A), n), A)


def test_residue_matches_array_reduction():
    rng = np.random.default_rng(4712)
    for _ in range(200):
        m, n = int(rng.integers(1, 13)), int(rng.integers(1, 71))
        R, pivots = rref_by_column(random_gf2_matrix(rng, m, n))
        basis = gf2.pack(R)
        for v in rng.integers(0, 2, size=(5, n), dtype=np.uint8):
            want = reduce_against(v, R, pivots)
            assert gf2.unpack([gf2.residue(gf2.pack([v])[0], basis)], n)[0].tolist() == want.tolist()
        for v in rng.integers(0, 2, size=(3, len(R)), dtype=np.uint8) @ R % 2:  # in the row space
            assert gf2.residue(gf2.pack([v])[0], basis) == 0


def extension_loop_reference(c1: BinaryCode, c2: BinaryCode) -> tuple[np.ndarray, list[list[int]]]:
    """(transversal, coset table) as build_css once made them: C1's basis is
    extended by each row of C2 outside the span so far, one rref per row, the
    new rows reduced against C1; row x of the table is x·B ⊕ (each C1 word).
    Every reduction is by the column reference."""
    R1, piv1 = rref_by_column(c1.generator)
    new_rows = []
    stack = c1.generator.copy()
    for row in c2.generator:
        R, piv = rref_by_column(stack)
        if reduce_against(row, R, piv).any():
            new_rows.append(reduce_against(row, R1, piv1))
            stack = np.vstack([stack, row])
    B, _ = rref_by_column(np.array(new_rows, dtype=np.uint8))
    c1_words = loop_codewords(c1.generator)
    return B, [[b ^ w for w in c1_words] for b in loop_codewords(B)]


def random_code_pair(rng) -> tuple[BinaryCode, BinaryCode]:
    """C1 ⊂ C2 of length n <= 12, C1 spanned by random sums of C2's rows."""
    n = int(rng.integers(2, 13))
    k2 = int(rng.integers(2, n + 1))
    while True:
        try:
            c2 = BinaryCode.from_rows(rng.integers(0, 2, size=(k2, n)))
            mix = rng.integers(0, 2, size=(int(rng.integers(1, k2)), k2))
            return BinaryCode.from_rows(mix @ c2.generator % 2), c2
        except CodeConstructionError:  # dependent rows: draw again
            continue


def test_build_css_matches_extension_loop_reference(steane, hamming15):
    rng = np.random.default_rng(909)
    pairs = [(steane.c1, steane.c2), (hamming15.c1, hamming15.c2)]
    pairs += [random_code_pair(rng) for _ in range(150)]
    for c1, c2 in pairs:
        e = build_css(c1, c2)
        B, table = extension_loop_reference(c1, c2)
        assert np.array_equal(e.transversal, B)
        assert e.cosets.tolist() == table
        assert (e.n, e.k, e.l) == (c2.n, c2.k - c1.k, 1 << c1.k)
        assert e.basis_support == {x: frozenset(row) for x, row in enumerate(table)}
    for c1, c2 in pairs[:2]:  # generators held in RREF, as the reduction needs
        for code in (c1, c2):
            assert np.array_equal(code.generator, rref_by_column(code.generator)[0])


def test_coset_table_is_read_only(code_422):
    assert code_422.cosets.shape == (4, 2) and code_422.cosets.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        code_422.cosets[0, 0] = 5


def test_coset_states_refuse_logical_indices_outside_the_table(code_422):
    states = code_422.basis_states
    for x in (-1, 1 << code_422.k):
        with pytest.raises(KeyError):
            states[x]
        assert x not in states
    assert list(states) == [0, 1, 2, 3] and len(states) == 4
    assert np.count_nonzero(states[3]) == 2


def test_coset_table_past_monomial_cap_is_refused_before_allocating(monkeypatch):
    # |C2| = 2^25: the table alone would hold 2^25 int64 words, past the cap
    # that bounds every 2^n-entry array
    def no_enumeration(G):
        raise AssertionError("codewords enumerated past the cap")

    monkeypatch.setattr(gf2, "codewords", no_enumeration)
    with pytest.raises(ValueError, match=r"C2 has 2\^25 words; the coset table cap is 2\^24"):
        build_css(*repetition_pair(26))


def test_build_css_422(code_422):
    assert (code_422.n, code_422.k, code_422.l) == (4, 2, 2)
    # 4 disjoint cosets of size 2, frozen from the coset enumeration oracle
    assert code_422.basis_support[0] == frozenset({0b0000, 0b1111})
    assert len(set().union(*code_422.basis_support.values())) == 8


def test_build_css_steane(steane):
    assert (steane.n, steane.k, steane.l) == (7, 1, 8)
    assert len(steane.basis_support[0]) == 8
    assert len(steane.basis_support[0] | steane.basis_support[1]) == 16


def test_build_css_rejects_non_subset():
    c1 = BinaryCode.from_rows([[1, 0, 0, 0]])
    c2 = BinaryCode.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    with pytest.raises(CodeConstructionError):
        build_css(c1, c2)


def test_build_css_rejects_degenerate():
    c = BinaryCode.from_rows([[1, 1]])
    with pytest.raises(CodeConstructionError):
        build_css(c, c)


def test_build_css_rejects_length_mismatch():
    with pytest.raises(CodeConstructionError):
        build_css(BinaryCode.from_rows([[1, 1]]), BinaryCode.from_rows([[1, 1, 0]]))


# -------------------------------------------------------------- encoding

def test_encode_422_logical_00(code_422):
    psi = encode(code_422, basis_state("00"))
    expected = np.zeros(16, dtype=complex)
    expected[0b0000] = expected[0b1111] = 1 / np.sqrt(2)
    assert np.max(np.abs(psi - expected)) < 1e-12
    assert np.array_equal(code_422.basis_states[0], psi)


def test_encode_support_matches_T(code_422, steane):
    # the basis states built on lookup are the encoded basis states
    for e in (code_422, steane):
        for x in range(1 << e.k):
            psi = np.zeros(1 << e.k, dtype=complex)
            psi[x] = 1.0
            state = e.basis_states[x]
            assert np.array_equal(state, encode(e, psi))
            assert set(np.flatnonzero(np.abs(state) > 1e-12).tolist()) == set(e.basis_support[x])


def test_encode_steane_plus_state(steane):
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    psi = encode(steane, plus)
    support = set(np.where(np.abs(psi) > 1e-12)[0])
    c2_words = set(steane.c2.words())
    assert support == c2_words
    assert len(support) == 16
    assert np.allclose(psi[sorted(support)], 1 / 4)


def test_decode_roundtrip(code_422, steane, rng):
    # the basis states are orthonormal: their inner products recover ψ
    for e in (code_422, steane):
        for _ in range(10):
            psi = random_state(e.k, rng)
            back = decode(e, encode(e, psi))
            assert np.max(np.abs(back - psi)) < 1e-10


def test_decode_rank_l_state_is_basis(steane):
    # a codespace state of rank exactly l decodes to a phased basis state
    psi = np.exp(0.4j) * steane.basis_states[1]
    assert coherence_rank(psi) == steane.l
    out = decode(steane, psi)
    assert coherence_rank(out) == 1
    assert abs(out[1] - np.exp(0.4j)) < 1e-12


# --------------------------------------------------------- equicoherence

def test_css_codes_equicoherent(code_422, steane):
    ok, l, violation = check_equicoherent(code_422)
    assert ok and l == 2 and violation is None
    ok, l, violation = check_equicoherent(steane)
    assert ok and l == 8 and violation is None


def test_equicoherent_state_lookups(steane, hamming15, monkeypatch):
    # an encoding is decided from its coset table, building no state
    lookups = []
    build = CosetStates.__getitem__

    def counted(self, x):
        lookups.append(x)
        return build(self, x)

    monkeypatch.setattr(CosetStates, "__getitem__", counted)
    for e in (steane, hamming15):
        assert check_equicoherent(e) == (True, e.l, None)
    assert lookups == []


def test_equicoherent_overlap_violation(code_422):
    # rows 00 and 01 share |0000>, rows 10 and 11 share |0101>
    e = with_table(code_422, 4, [[0b0000, 0b1111], [0b0011, 0b0000], [0b0101, 0b0110], [0b1001, 0b0101]])
    ok, l, violation = check_equicoherent(e)
    assert not ok and l is None
    assert violation == "condition 2: supports of (00, 01) overlap at 0000"


def check_equicoherent_pairwise(e, tol=1e-9):
    """The check check_equicoherent replaced: the support of every basis
    state, built by lookup, against every other, in combinations order."""
    supports = {
        x: frozenset(np.flatnonzero(np.abs(v) > tol).tolist())
        for x, v in e.basis_states.items()
    }
    for x, y in combinations(sorted(supports), 2):
        bx, by = index_to_bits(x, e.k), index_to_bits(y, e.k)
        if len(supports[x]) != len(supports[y]):
            return False, None, (
                f"condition 1: ranks differ for ({bx}, {by}): "
                f"{len(supports[x])} vs {len(supports[y])}"
            )
        if supports[x] & supports[y]:
            overlap = index_to_bits(min(supports[x] & supports[y]), e.n)
            return False, None, f"condition 2: supports of ({bx}, {by}) overlap at {overlap}"
    return True, len(supports[0]), None


def test_equicoherent_matches_pairwise_reference(code_422, steane, hamming15):
    # hand-made coset tables, each row without repeats, whose rows often
    # share entries, so that overlaps fall on every kind of first pair
    rng = np.random.default_rng(7)
    encodings = [code_422, steane, hamming15]
    for _ in range(300):
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        l = int(rng.choice([1, 2, 4]))
        pool = rng.choice(1 << n, size=min(1 << n, int(rng.integers(l, 4 * l << k))), replace=False)
        table = [rng.choice(pool, size=l, replace=False) for _ in range(1 << k)]
        encodings.append(with_table(code_422, n, table))
    # amplitudes 1/√8 at or below tol: every rank is 0, as for the reference
    assert check_equicoherent(steane, 0.5) == check_equicoherent_pairwise(steane, 0.5) == (True, 0, None)
    verdicts = set()
    for e in encodings:
        got = check_equicoherent(e)
        assert got == check_equicoherent_pairwise(e)
        verdicts.add(got[2][:11] if got[2] else "ok")
    assert verdicts == {"ok", "condition 2"}


def test_coset_partition(code_422, steane):
    for e in (code_422, steane):
        union = set()
        total = 0
        for sup in e.basis_support.values():
            assert len(sup) == e.l
            total += len(sup)
            union |= sup
        assert len(union) == total == (1 << e.k) * e.l


def scales(e, psi) -> bool:
    """χ(encode(ψ)) = l·χ(ψ): each logical term contributes one disjoint
    coset of size l."""
    return coherence_rank(encode(e, psi)) == e.l * coherence_rank(psi)


def test_coherence_scaling(code_422, steane, rng):
    for e in (code_422, steane):
        for x in range(1 << e.k):
            psi = np.zeros(1 << e.k, dtype=complex)
            psi[x] = 1.0
            assert coherence_rank(encode(e, psi)) == e.l
            assert scales(e, psi)
        assert scales(e, np.zeros(1 << e.k))
        for _ in range(20):
            assert scales(e, random_state(e.k, rng))


def test_coherence_scaling_steane_three_terms(steane):
    # 1-qubit code: use the 4,2,2 example from the scaling rule on a 2-qubit
    # state requires k >= 2; for Steane use a 2-term state instead
    psi = np.array([1, 1], dtype=complex) / np.sqrt(2)
    assert coherence_rank(encode(steane, psi)) == 16 == steane.l * 2


def test_coherence_scaling_pair_property(code_422, rng):
    for _ in range(20):
        a, b = random_state(2, rng), random_state(2, rng)
        same_logical = coherence_rank(a) == coherence_rank(b)
        same_encoded = coherence_rank(encode(code_422, a)) == coherence_rank(
            encode(code_422, b)
        )
        assert same_logical == same_encoded


# ------------------------------------------------------------- lifting

def test_lift_identity(code_422):
    g = PermutationWithPhases(2, (0, 1, 2, 3), (0.0,) * 4)
    lifted = lift_logical(code_422, g)
    assert np.array_equal(lifted.perm, np.arange(16))
    assert all(p == 0.0 for p in lifted.phases)


def test_lift_logical_x_422(code_422):
    # logical X on logical qubit 0: |s0 s1> -> |(1-s0) s1>
    g = PermutationWithPhases(2, (2, 3, 0, 1), (0.0,) * 4)
    lifted = lift_logical(code_422, g)
    G = to_unitary(g)
    Ghat = to_unitary(lifted)
    for s in range(4):
        psi = np.zeros(4, dtype=complex)
        psi[s] = 1.0
        assert (
            np.linalg.norm(Ghat @ encode(code_422, psi) - encode(code_422, G @ psi))
            < 1e-12
        )
    # cosets of logical 00<->10 and 01<->11 swapped by the transversal offset
    for s, t in ((0, 2), (1, 3)):
        assert {lifted.perm[i] for i in code_422.basis_support[s]} == set(
            code_422.basis_support[t]
        )


def test_lift_logical_phase_steane(steane):
    phi = 0.9
    g = PermutationWithPhases(1, (0, 1), (0.0, phi))
    lifted = lift_logical(steane, g)
    assert np.array_equal(lifted.perm, np.arange(128))
    for t in range(128):
        expected = phi if t in steane.basis_support[1] else 0.0
        assert abs(lifted.phases[t] - expected) < 1e-12
    # dense verification of the commutation square at dim 128
    Ghat = to_unitary(lifted)
    for s in (0, 1):
        psi = np.zeros(2, dtype=complex)
        psi[s] = 1.0
        assert (
            np.linalg.norm(
                Ghat @ encode(steane, psi) - encode(steane, to_unitary(g) @ psi)
            )
            < 1e-12
        )


def test_commutation_square_random(code_422, steane, rng):
    for e in (code_422, steane):
        for _ in range(50):
            g = random_bp(e.k, rng)
            Ghat = to_unitary(lift_logical(e, g))
            G = to_unitary(g)
            for s in range(1 << e.k):
                psi = np.zeros(1 << e.k, dtype=complex)
                psi[s] = 1.0
                assert (
                    np.linalg.norm(Ghat @ encode(e, psi) - encode(e, G @ psi)) < 1e-8
                )


def test_lifted_gates_are_bp(code_422, steane, rng):
    for e in (code_422, steane):
        for _ in range(5):
            Ghat = to_unitary(lift_logical(e, random_bp(e.k, rng)))
            assert check_permutation(Ghat).is_bp
            assert check_zx(Ghat)
            assert check_normalizer(Ghat)


def test_restriction_roundtrip(code_422, steane, rng):
    for e in (code_422, steane):
        for _ in range(20):
            g = random_bp(e.k, rng)
            Ghat = to_unitary(lift_logical(e, g))
            back = restrict_physical(e, check_permutation(Ghat).canonical)
            assert np.array_equal(back.perm, g.perm)
            assert np.allclose(
                np.exp(1j * np.array(back.phases)), np.exp(1j * np.array(g.phases))
            )


def test_lift_logical_matches_loop_reference(code_422, steane, hamming15, rng):
    for e in (code_422, steane, hamming15):
        g = random_bp(e.k, rng)
        rows = [int("".join(str(int(b)) for b in row), 2) for row in e.transversal]

        def rep(x):
            r = 0
            for i, row in enumerate(rows):
                if (x >> (e.k - 1 - i)) & 1:
                    r ^= row
            return r

        perm = list(range(1 << e.n))
        phases = [0.0] * (1 << e.n)
        for x in range(1 << e.k):
            for y in e.c1.words():
                perm[rep(x) ^ y] = rep(g.perm[x]) ^ y
                phases[rep(x) ^ y] = g.phases[x]
        lifted = lift_logical(e, g)
        assert lifted.perm.tolist() == perm
        assert lifted.phases.tolist() == phases


def test_repetition_20_lift_restrict_roundtrip():
    # k = 18: a 2^18 x 2 coset table, read by lift and restriction alike
    e = build_css(*repetition_pair(20))
    assert (e.n, e.k, e.l) == (20, 18, 2)
    rng = np.random.default_rng(18)
    g = PermutationWithPhases(18, rng.permutation(1 << 18), rng.uniform(0.0, TWO_PI, 1 << 18))
    lifted = lift_logical(e, g)
    assert np.array_equal(lifted.perm[e.cosets], e.cosets[g.perm])
    back = restrict_physical(e, lifted)
    assert np.array_equal(back.perm, g.perm)
    assert np.array_equal(back.phases, g.phases)


def test_hamming15_lift_restrict_roundtrip(hamming15, rng):
    # n = 15 is beyond the dense cap: lift and restriction stay monomial
    assert (hamming15.n, hamming15.k, hamming15.l) == (15, 7, 16)
    for _ in range(3):
        g = random_bp(7, rng)
        back = restrict_physical(hamming15, lift_logical(hamming15, g))
        assert np.array_equal(back.perm, g.perm)
        assert np.allclose(
            np.exp(1j * np.array(back.phases)), np.exp(1j * np.array(g.phases))
        )


def test_golay_lift_restrict_roundtrip(golay):
    # [[23,1,7]]: the lifted gate holds 2^23 states; lift and restriction run
    # on its arrays, with no per-state Python loop
    assert (golay.n, golay.k, golay.l) == (23, 1, 2048)
    g = PermutationWithPhases(1, (1, 0), (0.3, 5.9))
    lifted = lift_logical(golay, g)
    assert lifted.n == 23 and not lifted.perm.flags.writeable
    for x in (0, 1):
        support = sorted(golay.basis_support[x])
        image = lifted.perm[support]
        assert set(image.tolist()) == golay.basis_support[1 - x]
        assert np.all(lifted.phases[support] == g.phases[x])
    moved = np.flatnonzero((lifted.perm != np.arange(1 << 23)) | (lifted.phases != 0.0))
    assert moved.size == 2 * golay.l  # every state outside the codespace is fixed
    back = restrict_physical(golay, lifted)
    assert np.array_equal(back.perm, g.perm)
    assert np.array_equal(back.phases, g.phases)


def test_width_past_monomial_cap_is_refused_before_allocating():
    # n = 40: building the encoding is small, but lifting allocated 8 TiB and
    # an equicoherence check 16 TiB before any refusal; the check now sorts
    # the coset table alone and answers
    e = build_css(*wide_pair())
    assert (e.n, e.k, e.l) == (40, 1, 2)
    refusal = "40 qubits exceeds monomial cap 24"
    with pytest.raises(ValueError, match=refusal):
        lift_logical(e, PermutationWithPhases(1, (1, 0), (0.0, 0.5)))
    with pytest.raises(ValueError, match=refusal):
        e.basis_states[0]
    assert check_equicoherent(e) == (True, 2, None)


def test_restrict_monomial_rejects_non_logical(steane, rng):
    zero = (0.0,) * 128
    # X on the last qubit moves every codeword out of C2
    outside = PermutationWithPhases(7, tuple(s ^ 1 for s in range(128)), zero)
    # one state of the logical |1> coset picks up a phase of its own
    phases = list(zero)
    phases[min(steane.basis_support[1])] = 0.5
    uneven = PermutationWithPhases(7, tuple(range(128)), tuple(phases))
    # one state of each coset swapped: each coset lands on both
    a, b = min(steane.basis_support[0]), min(steane.basis_support[1])
    perm = list(range(128))
    perm[a], perm[b] = b, a
    split = PermutationWithPhases(7, tuple(perm), zero)
    for gate, why in (
        (outside, "leaves the codespace"),
        (uneven, "constant phase"),
        (split, "not one coset"),
    ):
        with pytest.raises(NotLogicalOperatorError, match=why):
            restrict_physical(steane, gate)
    with pytest.raises(ValueError, match="code has n=7"):
        restrict_physical(steane, random_bp(3, rng))


def test_restrict_x7_steane(steane):
    X7 = to_unitary(
        PermutationWithPhases(7, tuple(s ^ 0b1111111 for s in range(128)), (0.0,) * 128)
    )
    logical = restrict_physical(steane, check_permutation(X7).canonical)
    assert np.array_equal(logical.perm, (1, 0))
    assert np.allclose(logical.phases, 0.0)


def test_restrict_rejects_non_logical(code_422):
    # X on physical qubit 0 alone maps |0000> to |1000>, outside the codespace
    flip = PermutationWithPhases(4, tuple(s ^ 0b1000 for s in range(16)), (0.0,) * 16)
    with pytest.raises(NotLogicalOperatorError):
        restrict_physical(code_422, check_permutation(to_unitary(flip)).canonical)


def test_css_stages_log_start_and_end(code_422, rng, caplog):
    c1, c2 = code_422.c1, code_422.c2
    with caplog.at_level(logging.DEBUG, logger="bpgates.css"):
        e = build_css(c1, c2)
        lifted = lift_logical(e, random_bp(e.k, rng))
        restrict_physical(e, lifted)
        with pytest.raises(NotLogicalOperatorError):
            restrict_physical(e, random_bp(e.n, np.random.default_rng(3)))
    messages = [r.getMessage() for r in caplog.records if r.name == "bpgates.css"]
    expected = []
    for stage in ("build_css", "lift_logical", "restrict_physical"):
        expected += [f"{stage}: start", rf"{stage}: end in \d+\.\d{{6}} s"]
    expected += [
        "restrict_physical: start",
        r"restrict_physical: raised NotLogicalOperatorError after \d+\.\d{6} s",
    ]
    assert len(messages) == len(expected)
    for message, pattern in zip(messages, expected):
        assert re.fullmatch(pattern, message)


def test_codespace_restriction_unique(code_422, rng):
    # a different valid coset alignment agrees with the canonical lift on
    # every encoded state
    g = random_bp(2, rng)
    canonical = lift_logical(code_422, g)
    perm = list(canonical.perm)
    phases = list(canonical.phases)
    # rewire one matched coset pair with the alternative bijection
    src = sorted(code_422.basis_support[0])
    dst = [canonical.perm[i] for i in src]
    perm[src[0]], perm[src[1]] = dst[1], dst[0]
    alt = PermutationWithPhases(4, tuple(perm), tuple(phases))
    A, B = to_unitary(canonical), to_unitary(alt)
    for _ in range(10):
        psi = encode(code_422, random_state(2, rng))
        assert np.linalg.norm(A @ psi - B @ psi) < 1e-10


# ---------------------------------------------------------- obstruction

def test_obstruction_rank13():
    # logical X maps |0> -> |1>: no BP gate lifts it, by the rank pair (1, 3)
    s0, s1 = rank13_states()
    assert abs(np.vdot(s0, s1)) < 1e-12
    assert (coherence_rank(s0), coherence_rank(s1)) == (1, 3)


def test_no_obstruction_for_css(code_422, steane):
    # every basis image of a CSS code has coherence rank l
    for e in (code_422, steane):
        assert [coherence_rank(e.basis_states[x]) for x in range(1 << e.k)] == [e.l] * (1 << e.k)


def test_exhaustive_no_bp_lift_for_rank13():
    # no 2-qubit basis permutation maps the encoded |0> support onto the
    # encoded |1> support: the supports have different sizes
    T0, T1 = (frozenset(np.where(np.abs(s) > 1e-12)[0]) for s in rank13_states())
    from itertools import permutations

    for perm in permutations(range(4)):
        assert {perm[i] for i in T0} != T1
