import numpy as np
import pytest

from bpgates import (
    PermutationWithPhases,
    check_normalizer,
    check_permutation,
    check_zx,
    hadamard_bound,
    pauli_z_string,
    random_bp,
    to_unitary,
    worst_case_error,
)
from bpgates.linalg import H, I2, index_to_bits
from conftest import (
    basis_state,
    check_zx_by_parts,
    coherence_rank,
    normalizer_reference,
    parity,
    random_near_bp,
    random_state,
    random_unitary,
    rz,
)

TWO_PI = 2.0 * np.pi

CNOT = to_unitary(PermutationWithPhases(2, (0, 1, 3, 2), (0.0,) * 4))


def test_check_permutation_cnot():
    v = check_permutation(CNOT)
    assert v.is_bp
    assert np.array_equal(v.canonical.perm, (0, 1, 3, 2))
    assert all(p == 0.0 for p in v.canonical.phases)


def test_check_permutation_hadamard():
    v = check_permutation(H)
    assert not v.is_bp
    assert "column 0" in v.witness and "0.707107" in v.witness


def test_check_permutation_rz():
    theta = 0.7
    v = check_permutation(rz(theta))
    assert v.is_bp
    assert np.array_equal(v.canonical.perm, (0, 1))
    assert abs(v.canonical.phases[0] - (-theta / 2) % (2 * np.pi)) < 1e-12
    assert abs(v.canonical.phases[1] - theta / 2) < 1e-12


def test_check_zx_examples():
    CCNOT = to_unitary(
        PermutationWithPhases(3, (0, 1, 2, 3, 4, 5, 7, 6), (0.0,) * 8)
    )
    assert check_zx(CCNOT)
    assert not check_zx(H)
    diag = np.diag(np.exp(1j * np.linspace(0, 1, 4)))
    assert check_zx(diag)


def test_check_normalizer_examples():
    assert check_normalizer(CNOT)
    assert not check_normalizer(H)  # H Z H^dag = X
    assert check_normalizer(pauli_z_string("101"))


def test_normalizer_exhaustive_agrees(rng):
    for n in (1, 2, 3):
        for G in (to_unitary(random_bp(n, rng)), random_unitary(n, rng)):
            assert check_normalizer(G) == normalizer_reference(G)


def test_normalizer_agrees_with_exhaustive_and_column_test():
    # one conjugation by diag(0, ..., 2^n - 1) against every Z string
    rng = np.random.default_rng(20261018)
    for i in range(300):
        n = 2 + i % 5
        bp = i % 2 == 0
        G = to_unitary(random_bp(n, rng)) if bp else random_near_bp(n, rng)
        assert check_permutation(G).is_bp == bp
        assert check_normalizer(G) == bp
        assert normalizer_reference(G) == bp


def test_three_way_agreement(rng):
    for n, rounds in ((1, 25), (2, 25), (3, 25), (4, 8), (5, 4)):
        for _ in range(rounds):
            bp_gate = to_unitary(random_bp(n, rng))
            haar = random_unitary(n, rng)
            near = random_near_bp(n, rng)
            for G, want in ((bp_gate, True), (haar, False), (near, False)):
                assert check_permutation(G).is_bp == want
                assert check_zx(G) == want
                assert check_normalizer(G) == want


def _dense_zx_reference(G, tol=1e-9):
    """check_zx by its definition: α_{u,v} = Tr((Z_u X_v)† G) / 2^n, dense
    blocks A_v = Σ_u α_{u,v} Z_u X_v over every term, and dense products.
    Each entry of A_v A_w† is one product of an entry of A_v and one of A_w
    in the same column; it exceeds tol times its larger factor iff both
    factors exceed tol, which the product of the masks |A| > tol shows."""
    dim = G.shape[0]
    sign = np.array([[(-1.0) ** parity(u & s) for s in range(dim)] for u in range(dim)])
    blocks = []
    for v in range(dim):
        ZX = [np.zeros((dim, dim)) for _ in range(dim)]
        for u in range(dim):
            for s in range(dim):
                ZX[u][s, s ^ v] = sign[u, s]
        A = np.zeros((dim, dim), dtype=complex)
        for u in range(dim):
            A += np.trace(ZX[u].T @ G) / dim * ZX[u]
        if np.any(A):
            blocks.append(A)
    for i, A in enumerate(blocks):
        for B in blocks[i + 1 :]:
            if np.any((np.abs(A) > tol).astype(float) @ (np.abs(B) > tol).T):
                return False
    total = sum(A @ A.conj().T for A in blocks)
    return bool(np.max(np.abs(total - np.eye(dim))) <= tol)


def test_check_zx_matches_dense_reference(rng):
    for n in (1, 2, 3, 4):
        for _ in range(3):
            for G in (to_unitary(random_bp(n, rng)), random_unitary(n, rng), random_near_bp(n, rng)):
                assert check_zx(G) == _dense_zx_reference(G)


def test_check_zx_matches_part_loop(rng):
    # the per-column pass against the loop over X-parts it replaced, at the
    # default tolerance and at two coarse ones
    for n in range(1, 8):
        for _ in range(20):
            for G in (to_unitary(random_bp(n, rng)), random_unitary(n, rng), random_near_bp(n, rng)):
                for tol in (1e-9, 1e-3, 0.1):
                    assert check_zx(G, tol) == check_zx_by_parts(G, tol)


def test_check_zx_tests_the_two_largest_entries_of_a_column():
    # G = Σ_v c_v X_v, unitary because its eigenvalues Σ_v (-1)^{k·v} c_v are
    # the phases e^{iθ_k}: every block A_v is c_v X_v, so each column holds
    # c_0..c_3, of magnitudes about 0.39, 0.61, 0.44 and 0.53. Every product
    # c_v·conj(c_w) is at most tol times its larger factor iff tol is at
    # least the second largest magnitude, |c_3| ≈ 0.53
    s = np.arange(4)
    signs = (-1.0) ** np.array([[parity(k & v) for k in s] for v in s])
    c = signs @ np.exp(1j * np.array([0.0, 2.2, 3.6, 2.0])) / 4
    G = c[s ^ s[:, None]]
    second = abs(c[3])
    assert np.sort(np.abs(c))[-2] == second == max(
        abs(c[v] * c[w].conj()) / max(abs(c[v]), abs(c[w])) for v in s for w in s if v < w
    )
    for tol, want in ((second * (1 - 1e-9), False), (second * (1 + 1e-9), True)):
        assert check_zx(G, tol) == check_zx_by_parts(G, tol) == _dense_zx_reference(G, tol) == want


def test_exact_bp_gates_pass_every_verifier_at_a_coarse_tol():
    # check_zx drops no coefficient, so sums of a few unit phases over 2^n
    # no longer fall under tol and leave Σ_v A_v A_v† short of I
    rng = np.random.default_rng(20261019)
    for n in range(1, 8):
        for _ in range(3):
            G = to_unitary(random_bp(n, rng))
            for tol in (1e-3, 1e-2):
                assert check_permutation(G, tol).is_bp
                assert check_zx(G, tol)
                assert check_normalizer(G, tol)


def test_check_zx_refuses_a_givens_gate_as_the_column_test_does():
    # an off entry of 0.25 sits far above tol = 0.1 on the scale of one
    # amplitude; spread over 2^n coefficients, each fell under it, and the
    # thresholded check_zx accepted the gate
    rng = np.random.default_rng(25)
    for n in (3, 4, 5):
        a, b = rng.choice(1 << n, size=2, replace=False)
        c, s = np.sqrt(1.0 - 0.25**2), 0.25
        G = np.eye(1 << n, dtype=complex)
        G[a, a], G[a, b], G[b, a], G[b, b] = c, -s, s, c
        assert not check_permutation(G, 0.1).is_bp
        assert not check_zx(G, 0.1)
        assert not check_zx_by_parts(G, 0.1)


def test_check_zx_refuses_haar_gates_at_a_coarse_tol():
    # the largest entries of a 7-qubit Haar column are about 0.2: their
    # products, 0.03-0.05, fall under tol = 0.1, but the entries do not
    rng = np.random.default_rng(7)
    for _ in range(3):
        G = random_unitary(7, rng)
        assert not check_permutation(G, 0.1).is_bp
        assert not check_zx(G, 0.1)
        assert not check_zx_by_parts(G, 0.1)
        assert not check_normalizer(G, 0.1)


def test_group_closure(rng):
    for n in (1, 2, 3):
        for _ in range(10):
            g1, g2 = random_bp(n, rng), random_bp(n, rng)
            prod = to_unitary(g1) @ to_unitary(g2)
            adj = to_unitary(g1).conj().T
            for G in (prod, adj):
                assert check_permutation(G).is_bp
                assert check_zx(G)
                assert check_normalizer(G)
            # canonical composition matches the matrix product
            composed = g1.compose(g2)
            assert np.max(np.abs(to_unitary(composed) - prod)) < 1e-8
            assert np.max(np.abs(to_unitary(g1.adjoint()) - adj)) < 1e-8


def test_coherence_rank_examples():
    assert coherence_rank(basis_state("010")) == 1
    plus = np.array([1, 1]) / np.sqrt(2)
    assert coherence_rank(plus) == 2
    psi = np.zeros(8, dtype=complex)
    for s in (0b000, 0b011, 0b101, 0b110):
        psi[s] = 0.5
    assert coherence_rank(psi) == 4
    assert coherence_rank(np.zeros(8)) == 0


def test_rank_preservation(rng):
    for n in (1, 2, 3):
        G = to_unitary(random_bp(n, rng))
        for x in range(1 << n):
            psi = np.zeros(1 << n, dtype=complex)
            psi[x] = 1.0
            assert coherence_rank(G @ psi) == 1
        for _ in range(20):
            psi = random_state(n, rng)
            assert coherence_rank(G @ psi) == coherence_rank(psi)


def test_non_bp_changes_rank():
    assert coherence_rank(H @ basis_state("0")) == 2 != coherence_rank(basis_state("0"))


def test_hadamard_bound_values():
    assert abs(hadamard_bound(1) - np.sqrt(2 - np.sqrt(2))) < 1e-12
    assert abs(hadamard_bound(1) - 0.765367) < 1e-6
    assert abs(hadamard_bound(2) - 1.0) < 1e-12
    assert hadamard_bound(40) < np.sqrt(2) < hadamard_bound(40) + 1e-5
    with pytest.raises(ValueError):
        hadamard_bound(0)


def test_hadamard_separation(rng):
    for n in (1, 2, 3):
        Hn = H
        for _ in range(n - 1):
            Hn = np.kron(Hn, H)
        for _ in range(50):
            V = to_unitary(random_bp(n, rng))
            assert worst_case_error(Hn, V) >= hadamard_bound(n) - 1e-8


def test_to_unitary_trivial():
    assert np.allclose(to_unitary(PermutationWithPhases(1, (0, 1), (0, 0))), I2)
    assert np.allclose(
        to_unitary(PermutationWithPhases(1, (1, 0), (0, 0))), [[0, 1], [1, 0]]
    )
    assert np.allclose(
        to_unitary(PermutationWithPhases(1, (0, 1), (0, np.pi))), np.diag([1, -1])
    )


def test_to_unitary_matches_entrywise_reference(rng):
    for n in (1, 2, 3, 4):
        p = random_bp(n, rng)
        ref = np.zeros((1 << n, 1 << n), dtype=complex)
        for s in range(1 << n):
            ref[p.perm[s], s] = np.exp(1j * p.phases[s])
        assert np.array_equal(to_unitary(p), ref)


def test_to_unitary_refuses_above_dense_cap():
    p = PermutationWithPhases(11, tuple(range(1 << 11)), (0.0,) * (1 << 11))
    with pytest.raises(ValueError, match="11 qubits exceeds dense cap 10"):
        to_unitary(p)


def test_canonical_roundtrip(rng):
    for n in (1, 2, 3):
        p = random_bp(n, rng)
        G = to_unitary(p)
        v = check_permutation(G)
        assert v.is_bp
        assert np.array_equal(v.canonical.perm, p.perm)
        assert np.allclose(
            np.exp(1j * np.array(v.canonical.phases)),
            np.exp(1j * np.array(p.phases)),
        )
        assert np.max(np.abs(to_unitary(v.canonical) - G)) < 1e-9


def test_permutation_with_phases_validation():
    with pytest.raises(ValueError):
        PermutationWithPhases(1, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        PermutationWithPhases(1, (0,), (0,))
    # 1.5 is refused, not truncated to 1 by the int64 cast
    for perm in ((1, 1), (0, 2), (-1, 0), (0, 1.5), (0.5, 1), (0, np.nan), (0, np.inf),
                 (0, 2**70), ("0", "1"), (0, None)):
        with pytest.raises(ValueError, match="perm is not a bijection on basis indices"):
            PermutationWithPhases(1, perm, (0.0, 0.0))
    for phases in ((0.0, np.inf), (-np.inf, 0.0), (np.nan, 0.0)):
        with pytest.raises(ValueError, match="phases must be finite"):
            PermutationWithPhases(1, (0, 1), phases)


def check_permutation_reference(G, tol=1e-9):
    """The per-column loop check_permutation replaced: (verdict, witness,
    perm, phases), the phases normalized by float % 2π before the gate's own
    normalization, as that loop did."""
    n = G.shape[0].bit_length() - 1
    dim = 1 << n
    perm, phases = [-1] * dim, [0.0] * dim
    for s in range(dim):
        col = G[:, s]
        mags = np.abs(col)
        unit = np.where(np.abs(mags - 1.0) <= tol)[0]
        band = np.where((mags > tol) & (np.abs(mags - 1.0) > tol))[0]
        if band.size or unit.size != 1:
            entries = ", ".join(
                f"|{index_to_bits(int(t), n)}⟩: {mags[t]:.6f}" for t in np.where(mags > tol)[0]
            )
            return False, f"column {index_to_bits(s, n)} has entries {entries}", None, None
        t = int(unit[0])
        perm[s] = t
        phases[s] = float(np.angle(col[t])) % TWO_PI
    if sorted(perm) != list(range(dim)):
        return False, "unit entries do not form a bijection", None, None
    return True, None, perm, [x % TWO_PI for x in phases]


def test_check_permutation_matches_column_loop(rng):
    # the first bad column and its witness text, and the canonical form bit
    # for bit; phases of -1e-17 rad (e^{2πi} in floating point) included
    tiny = to_unitary(PermutationWithPhases(2, (2, 0, 3, 1), (0.0,) * 4)).astype(complex)
    tiny[2, 0] = complex(1.0, -1e-17)
    cases = [tiny, H, CNOT, np.kron(H, I2)]
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            cases += [to_unitary(random_bp(n, rng)), random_near_bp(n, rng), random_unitary(n, rng)]
    for G in cases:
        is_bp, witness, perm, phases = check_permutation_reference(G)
        v = check_permutation(G)
        assert (v.is_bp, v.witness) == (is_bp, witness)
        if is_bp:
            assert v.canonical.perm.tolist() == perm
            assert v.canonical.phases.view(np.int64).tolist() == np.array(phases).view(np.int64).tolist()


def test_permutation_with_phases_arrays_are_read_only_copies():
    perm, phases = np.array([1, 0, 3, 2]), np.array([0.5, 0.0, 7.0, -1.0])
    p = PermutationWithPhases(2, perm, phases)
    assert p.perm.dtype == np.int64 and p.phases.dtype == np.float64
    for array in (p.perm, p.phases):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert phases.tolist() == [0.5, 0.0, 7.0, -1.0]  # reduced on a copy
    perm[0], phases[0] = 0, 1.0  # the inputs stay writeable and unshared
    assert p.perm.tolist() == [1, 0, 3, 2] and p.phases[0] == 0.5
    # any integer-valued sequence is accepted
    for seq in ((1.0, 0.0), np.array([1, 0], dtype=np.uint8), [True, False]):
        assert PermutationWithPhases(1, seq, (0, 0)).perm.tolist() == [1, 0]


def test_permutation_with_phases_keeps_read_only_inputs():
    # a read-only int64 perm and float64 phases in [0, 2π) are kept, not
    # copied: the constructor allocates less than one of their arrays
    import tracemalloc

    rng = np.random.default_rng(16)
    perm, phases = rng.permutation(1 << 16), rng.uniform(0.0, TWO_PI, 1 << 16)
    for array in (perm, phases):
        array.setflags(write=False)
    tracemalloc.start()
    try:
        p = PermutationWithPhases(16, perm, phases)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.perm is perm and p.phases is phases
    assert peak < perm.nbytes
    # a read-only input that needs reducing is reduced on a copy
    unreduced = phases.copy()
    unreduced[0] = -1.0
    unreduced.setflags(write=False)
    q = PermutationWithPhases(16, perm, unreduced)
    assert q.perm is perm and q.phases is not unreduced and unreduced[0] == -1.0
    assert q.phases[0] == -1.0 % TWO_PI and np.array_equal(q.phases[1:], phases[1:])


def test_phase_normalization_matches_python_modulo():
    # only entries outside [0, 2π) and −0.0 are reduced; the result must be
    # the double reduction over the whole array, bit for bit: one reduction
    # rounds −1e-20, −1e-17 and −5e-324 to 2π, the second takes them to 0.0
    edge = [-0.0, 0.0, -1e-20, 1e-20, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0.0),
            np.pi, -np.pi, 1e300, -1e300, 5e-324, -5e-324, 7.0, -7.0, 2.0**60,
            -1e-17, 1e6]
    edge += [0.5] * (32 - len(edge))
    p = PermutationWithPhases(5, range(32), edge)
    for want in (np.array([(x % TWO_PI) % TWO_PI for x in edge]),
                 np.mod(np.mod(edge, TWO_PI), TWO_PI)):
        assert p.phases.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert p.phases[[2, 12, 16]].tolist() == [0.0, 0.0, 0.0]
    assert np.all((p.phases >= 0.0) & (p.phases < TWO_PI))


def compose_reference(a, b):
    """The per-state loop `compose` replaced, on Python ints and floats."""
    ap, aph, bp, bph = a.perm.tolist(), a.phases.tolist(), b.perm.tolist(), b.phases.tolist()
    return ([ap[bp[s]] for s in range(1 << a.n)],
            [((bph[s] + aph[bp[s]]) % TWO_PI) % TWO_PI for s in range(1 << a.n)])


def adjoint_reference(a):
    """The per-state loop `adjoint` replaced, on Python ints and floats."""
    perm, phases = a.perm.tolist(), a.phases.tolist()
    inv, out = [0] * (1 << a.n), [0.0] * (1 << a.n)
    for s in range(1 << a.n):
        inv[perm[s]] = s
        out[perm[s]] = ((-phases[s]) % TWO_PI) % TWO_PI
    return inv, out


def test_compose_and_adjoint_match_state_loops(rng):
    def bits(values):
        return np.array(values, dtype=np.float64).view(np.int64).tolist()

    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            a, b = random_bp(n, rng), random_bp(n, rng)
            # tiny phases, whose negation rounds to 2π, and exact 0 and π
            phases = a.phases.copy()
            phases[: min(4, 1 << n)] = [1e-20, 0.0, np.pi, 5e-324][: min(4, 1 << n)]
            a = PermutationWithPhases(n, a.perm, phases)
            perm, want = compose_reference(a, b)
            got = a.compose(b)
            assert got.perm.tolist() == perm and bits(got.phases) == bits(want)
            inv, want = adjoint_reference(a)
            got = a.adjoint()
            assert got.perm.tolist() == inv and bits(got.phases) == bits(want)


def test_permutation_with_phases_equality():
    a = PermutationWithPhases(2, (1, 0, 3, 2), (0.5, 0.0, 0.0, 0.0))
    same = PermutationWithPhases(2, np.array([1, 0, 3, 2]), [0.5, 0.0, 0.0, 0.0])
    assert a == same and not a != same and a is not same
    assert a != PermutationWithPhases(2, (0, 1, 3, 2), (0.5, 0.0, 0.0, 0.0))
    assert a != PermutationWithPhases(2, (1, 0, 3, 2), (0.25, 0.0, 0.0, 0.0))
    assert a != PermutationWithPhases(1, (1, 0), (0.5, 0.0))
    assert a != (a.perm, a.phases)
