import numpy as np
import pytest

from bpgates import (
    PermutationWithPhases,
    block,
    block_basis_form,
    block_matrix,
    block_product_adjoint,
    is_z_type,
    pauli_x_string,
    pauli_z_string,
    random_bp,
    reconstruct,
    to_unitary,
    zx_decompose,
)
from bpgates.linalg import H, X, Z, parity, rz
from conftest import random_unitary

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
                P = pauli_z_string(format(u, f"0{n}b")) @ pauli_x_string(
                    format(v, f"0{n}b")
                )
                alpha = np.trace(P.conj().T @ G) / (1 << n)
                assert abs(d.coeffs.get((u, v), 0.0) - alpha) < 1e-10


def test_roundtrip_random(rng):
    for n in (1, 2, 3):
        for _ in range(100):
            G = random_unitary(n, rng)
            assert np.max(np.abs(reconstruct(zx_decompose(G)) - G)) < 1e-9


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


def test_block_basis_form_x():
    d = zx_decompose(X)
    support, diag = block_basis_form(block(d, 1))
    assert support == {0, 1}
    assert all(abs(diag[s] - 1.0) < 1e-12 for s in (0, 1))


def test_block_basis_form_zero_block():
    support, diag = block_basis_form(block(zx_decompose(X), 0))
    assert support == set()
    assert diag == {}


def test_block_basis_form_cnot():
    support, diag = block_basis_form(block(zx_decompose(CNOT), "01"))
    assert support == {0b10, 0b11}
    assert all(abs(diag[s] - 1.0) < 1e-12 for s in support)


def test_block_basis_form_consistency(rng):
    # A_v rebuilt from (S_v, beta, sigma_v) with sigma_v(s) = s xor v
    for n in (1, 2, 3):
        G = random_unitary(n, rng)
        d = zx_decompose(G)
        for v in d.x_parts():
            b = block(d, v)
            support, diag = block_basis_form(b)
            M = np.zeros((1 << n, 1 << n), dtype=complex)
            for s in support:
                M[s, s ^ v] = diag[s]
            assert np.max(np.abs(M - block_matrix(b))) < 1e-9
            assert len({s ^ v for s in support}) == len(support)


def test_block_product_adjoint():
    dX = zx_decompose(X)
    assert np.allclose(block_product_adjoint(block(dX, 1), block(dX, 1)), np.eye(2))
    dC = zx_decompose(CNOT)
    assert np.max(np.abs(block_product_adjoint(block(dC, 0), block(dC, 1)))) < 1e-12
    dH = zx_decompose(H)
    assert np.allclose(
        block_product_adjoint(block(dH, 0), block(dH, 1)), Z @ X / 2
    )


def test_block_product_dim_mismatch():
    with pytest.raises(ValueError):
        block_product_adjoint(block(zx_decompose(X), 1), block(zx_decompose(CNOT), 1))


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
        mats = {v: block_matrix(block(d, v)) for v in d.x_parts()}
        for x in range(1 << n):
            Zx = pauli_z_string(format(x, f"0{n}b"))
            rhs = np.zeros((1 << n, 1 << n), dtype=complex)
            for v, Av in mats.items():
                for w, Aw in mats.items():
                    rhs += (-1.0) ** parity(x & v) * (Av @ Aw.conj().T)
            lhs = G @ Zx @ G.conj().T
            assert np.max(np.abs(lhs - Zx @ rhs)) < 1e-8


def _loop_block_matrix(n, items):
    # the per-entry loop block_matrix and reconstruct were first written as
    M = np.zeros((1 << n, 1 << n), dtype=complex)
    for (u, v), alpha in items:
        for s in range(1 << n):
            M[s, s ^ v] += alpha * (-1.0) ** parity(u & s)
    return M


def test_block_matrix_and_reconstruct_match_loop_reference(rng):
    for n in (1, 2, 3, 4):
        for G in (random_unitary(n, rng), to_unitary(random_bp(n, rng))):
            d = zx_decompose(G)
            assert np.max(np.abs(reconstruct(d) - _loop_block_matrix(n, d.coeffs.items()))) < 1e-12
            for v in range(1 << n):
                b = block(d, v)
                # the scan over every (u, v) key that block replaced
                assert b.coeffs == {u: a for (u, w), a in d.coeffs.items() if w == v}
                assert b == block(zx_decompose(G), v)  # equal rows, not the same array
                ref = _loop_block_matrix(n, (((u, v), a) for u, a in b.coeffs.items()))
                assert np.max(np.abs(block_matrix(b) - ref)) < 1e-12
                for w in (0, v, (1 << n) - 1):
                    other = block(d, w)
                    ref_w = _loop_block_matrix(n, (((u, w), a) for u, a in other.coeffs.items()))
                    prod = block_product_adjoint(b, other)
                    assert np.max(np.abs(prod - ref @ ref_w.conj().T)) < 1e-12
