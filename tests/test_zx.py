import numpy as np

from bpgates import (
    PermutationWithPhases,
    block,
    block_matrix,
    is_z_type,
    pauli_z_string,
    random_bp,
    to_unitary,
    zx_decompose,
)
from bpgates.linalg import H, X, Z, walsh_hadamard
from bpgates.zx import shifted_diagonals
from conftest import parity, random_unitary, rz, x_string, zx_sum

CNOT = to_unitary(PermutationWithPhases(2, (0, 1, 3, 2), (0.0,) * 4))
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def test_decompose_x():
    d = zx_decompose(X)
    assert d.coeffs == {(0, 1): 1.0 + 0j}


def test_decompose_hadamard():
    d = zx_decompose(H)
    assert set(d.coeffs) == {(0, 1), (1, 0)}
    assert abs(d.coeffs[(0, 1)] - 1 / np.sqrt(2)) < 1e-12
    assert abs(d.coeffs[(1, 0)] - 1 / np.sqrt(2)) < 1e-12


def test_decompose_cnot():
    # frozen from the trace inner-product oracle: 4 coefficients of +-1/2
    d = zx_decompose(CNOT)
    expected = {
        (0b00, 0b00): 0.5,
        (0b00, 0b01): 0.5,
        (0b10, 0b00): 0.5,
        (0b10, 0b01): -0.5,
    }
    assert set(d.coeffs) == set(expected)
    for uv, val in expected.items():
        assert abs(d.coeffs[uv] - val) < 1e-12


def test_decompose_matches_trace_oracle(rng):
    # independent oracle: alpha_{u,v} = Tr((Z_u X_v)^dag G) / 2^n
    for n in (1, 2):
        G = random_unitary(n, rng)
        d = zx_decompose(G, tol=1e-13)
        for u in range(1 << n):
            for v in range(1 << n):
                P = pauli_z_string(format(u, f"0{n}b")) @ x_string(format(v, f"0{n}b"))
                alpha = np.trace(P.conj().T @ G) / (1 << n)
                assert abs(d.coeffs.get((u, v), 0.0) - alpha) < 1e-10


def test_roundtrip_random(rng):
    for n in (1, 2, 3):
        for _ in range(100):
            G = random_unitary(n, rng)
            assert np.max(np.abs(zx_sum(n, zx_decompose(G).coeffs.items()) - G)) < 1e-9


def test_parseval(rng):
    for n in (1, 2, 3):
        G = random_unitary(n, rng)
        total = sum(abs(a) ** 2 for a in zx_decompose(G, tol=1e-13).coeffs.values())
        assert abs(total - 1.0) < 1e-8


def test_blocks_of_x():
    d = zx_decompose(X)
    assert np.allclose(block_matrix(block(d, 1)), X)
    assert np.allclose(block_matrix(block(d, 0)), np.zeros((2, 2)))


def test_block_of_hadamard():
    d = zx_decompose(H)
    assert np.allclose(block_matrix(block(d, 0)), Z / np.sqrt(2))


def _basis_form(d, v):
    """(S_v, β) of block A_v by its definition from row v of the
    coefficients, β_{s,v} = Σ_u (-1)^{u·s} α_{u,v}: the s with β_{s,v} above
    1e-9 and β_{·,v} there; an absent X-part has the empty form."""
    row = walsh_hadamard(d.array()[v])
    support = set(np.flatnonzero(np.abs(row) > 1e-9).tolist())
    return support, {s: complex(row[s]) for s in support}


def test_block_basis_form_x():
    d = zx_decompose(X)
    support, diag = _basis_form(d, 1)
    assert support == {0, 1}
    assert all(abs(diag[s] - 1.0) < 1e-12 for s in (0, 1))


def test_block_basis_form_zero_block():
    support, diag = _basis_form(zx_decompose(X), 0)
    assert support == set()
    assert diag == {}


def test_block_basis_form_cnot():
    support, diag = _basis_form(zx_decompose(CNOT), 0b01)
    assert support == {0b10, 0b11}
    assert all(abs(diag[s] - 1.0) < 1e-12 for s in support)


def test_block_basis_form_consistency(rng):
    # A_v rebuilt from (S_v, beta, sigma_v) with sigma_v(s) = s xor v; with
    # every coefficient kept, β_{s,v} is the shifted diagonal G[s, s⊕v]
    # that verify.check_zx gathers in place of the transforms
    for n in (1, 2, 3):
        G = random_unitary(n, rng)
        d = zx_decompose(G, tol=0.0)
        assert not d.array().flags.writeable
        gathered = shifted_diagonals(G)
        for v in range(1 << n):
            assert np.max(np.abs(walsh_hadamard(d.array()[v]) - gathered[:, v])) < 1e-12
            support, diag = _basis_form(d, v)
            M = np.zeros((1 << n, 1 << n), dtype=complex)
            for s in support:
                M[s, s ^ v] = diag[s]
            assert np.max(np.abs(M - block_matrix(block(d, v)))) < 1e-9
            assert len({s ^ v for s in support}) == len(support)


def test_is_z_type():
    assert is_z_type(rz(0.7))
    assert not is_z_type(X)
    assert is_z_type(CZ)


def test_is_z_type_agrees_with_diagonality(rng):
    # two independent code paths: ZX coefficients vs direct off-diagonal scan
    cases = [rz(1.1), CZ, CNOT, H, random_unitary(2, rng), np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))]
    for G in cases:
        off = G - np.diag(np.diagonal(G))
        assert is_z_type(G) == (np.max(np.abs(off)) <= 1e-9)


def test_conjugation_identity(rng):
    # G Z_x G^dag == Z_x * sum_{v,w} (-1)^{x.v} A_v A_w^dag
    for n in (1, 2):
        G = random_unitary(n, rng)
        d = zx_decompose(G)
        parts = np.flatnonzero(np.any(d.array(), axis=1))
        mats = {v: block_matrix(block(d, v)) for v in parts.tolist()}
        for x in range(1 << n):
            Zx = pauli_z_string(format(x, f"0{n}b"))
            rhs = np.zeros((1 << n, 1 << n), dtype=complex)
            for v, Av in mats.items():
                for w, Aw in mats.items():
                    rhs += (-1.0) ** parity(x & v) * (Av @ Aw.conj().T)
            lhs = G @ Zx @ G.conj().T
            assert np.max(np.abs(lhs - Zx @ rhs)) < 1e-8


def test_block_matrix_and_reconstruct_match_loop_reference(rng):
    # the blocks, and their sum, against the per-entry loop they replaced
    for n in (1, 2, 3, 4):
        for G in (random_unitary(n, rng), to_unitary(random_bp(n, rng))):
            d = zx_decompose(G)
            total = np.zeros((1 << n, 1 << n), dtype=complex)
            for v in range(1 << n):
                b = block(d, v)
                # the scan over every (u, v) key that block replaced
                assert b.coeffs == {u: a for (u, w), a in d.coeffs.items() if w == v}
                assert b == block(zx_decompose(G), v)  # equal rows, not the same array
                ref = zx_sum(n, (((u, v), a) for u, a in b.coeffs.items()))
                assert np.max(np.abs(block_matrix(b) - ref)) < 1e-12
                total += block_matrix(b)
            assert np.max(np.abs(total - zx_sum(n, d.coeffs.items()))) < 1e-12
