import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpgates import linalg
from bpgates.linalg import (
    H,
    I2,
    X,
    Z,
    INDEX_QUBITS,
    as_index,
    bits_index,
    index_bits,
    index_labels,
    index_to_bits,
    pauli_z_string,
    phase_optimized_error,
    worst_case_error,
)
from conftest import parity

bitstrings = st.text(alphabet="01", min_size=1, max_size=6)


# The qubit order, qubit 0 on the high bits, is that of np.kron(A, B) with A
# on qubit 0: each library object is checked against the Kronecker product.

def test_tensor_identity():
    assert np.array_equal(pauli_z_string("00"), np.kron(I2, I2))
    assert np.array_equal(np.kron(I2, I2), np.eye(4))


def test_tensor_zz_sign_pattern():
    assert np.array_equal(pauli_z_string("11"), np.kron(Z, Z))
    assert np.array_equal(pauli_z_string("10"), np.kron(Z, I2))  # Z on qubit 0
    assert np.allclose(np.kron(Z, Z), np.diag([1, -1, -1, 1]))


def test_tensor_xx_flips_both_qubits():
    from bpgates import Gate, GateSequence, simulate, to_unitary

    flip0 = to_unitary(simulate(GateSequence(n_data=2, gates=[Gate("X", (0,))])))
    assert np.array_equal(flip0, np.kron(X, I2))  # |00> -> |10>, index 2
    both = GateSequence(n_data=2, gates=[Gate("X", (0,)), Gate("X", (1,))])
    psi = np.zeros(4)
    psi[0] = 1.0  # |00>
    assert np.array_equal(to_unitary(simulate(both)), np.kron(X, X))
    assert np.allclose(np.kron(X, X) @ psi, [0, 0, 0, 1])  # |11>


def test_tensor_associative_and_dims():
    # Z_c is ⊗_i Z^{c_i}, grouped either way
    left = np.kron(np.kron(Z, I2), Z)
    right = np.kron(Z, np.kron(I2, Z))
    assert np.array_equal(pauli_z_string("101"), left)
    assert np.array_equal(left, right)
    assert left.shape == (8, 8)


def test_pauli_z_string_trivial_cases():
    assert np.array_equal(pauli_z_string("00"), np.eye(4))
    assert np.allclose(pauli_z_string("1"), np.diag([1, -1]))


def test_pauli_z_string_101():
    # entry at |s> is (-1)^(s0 xor s2)
    diag = pauli_z_string("101").diagonal().real
    for s in range(8):
        s0, s2 = (s >> 2) & 1, s & 1
        assert diag[s] == (-1.0) ** (s0 ^ s2)


def test_pauli_strings_match_entrywise_reference():
    # the per-entry loop pauli_z_string was first written as
    for n in range(1, 5):
        for c in range(1 << n):
            Zc = np.diag([(-1.0) ** parity(c & s) for s in range(1 << n)])
            assert np.array_equal(pauli_z_string(format(c, f"0{n}b")), Zc)


@given(bitstrings, bitstrings)
@settings(max_examples=50, deadline=None)
def test_pauli_string_group_law(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    c = format(int(a, 2) ^ int(b, 2), f"0{n}b")
    assert np.array_equal(
        pauli_z_string(a) @ pauli_z_string(b), pauli_z_string(c)
    )


def test_as_index_roundtrip():
    assert as_index("101") == (5, 3)
    assert as_index([1, 0, 1]) == (5, 3)
    assert index_to_bits(5, 3) == "101"
    assert index_to_bits(0, 0) == ""
    with pytest.raises(ValueError):
        as_index("10x")


@st.composite
def widths_and_indices(draw):
    n = draw(st.integers(0, INDEX_QUBITS))
    top = (1 << n) - 1
    edges = st.sampled_from([0, top, top >> 1, (top + 1) >> 1])
    return n, draw(st.lists(st.integers(0, top) | edges, max_size=20))


@given(widths_and_indices())
@settings(max_examples=300, deadline=None)
def test_index_codec_roundtrip(case):
    n, indices = case
    bits = index_bits(np.array(indices, dtype=np.int64), n)
    assert bits.shape == (len(indices), n) and bits.dtype == np.uint8
    assert bits.tolist() == [[int(b) for b in index_to_bits(x, n)] for x in indices]
    assert bits_index(bits).tolist() == indices
    assert index_labels(indices, n) == [index_to_bits(x, n) for x in indices]


def test_index_codec_at_the_width_and_in_shape():
    top = (1 << INDEX_QUBITS) - 1  # 2^63 − 1, the largest int64
    assert INDEX_QUBITS == 63
    assert index_bits(top, INDEX_QUBITS).tolist() == [[1] * 63]
    assert bits_index(np.ones((1, 63), dtype=np.uint8)).tolist() == [top]
    assert index_labels([top], 63) == ["1" * 63]
    # nested lists in the shape of the indices; a scalar gives one label
    assert index_labels(np.array([[0, 5], [6, 7]]), 3) == [["000", "101"], ["110", "111"]]
    assert index_labels(5, 3) == "101" and index_labels([0, 0], 0) == ["", ""]
    assert bits_index(np.zeros((2, 0), dtype=np.uint8)).tolist() == [0, 0]


def test_worst_case_error_examples():
    U = np.array([[np.exp(0.3j), 0], [0, np.exp(-0.2j)]])
    assert worst_case_error(U, U) == 0.0
    assert abs(worst_case_error(I2, X) - 2.0) < 1e-12
    assert abs(worst_case_error(H, I2) - 2.0) < 1e-12


def test_worst_case_error_dimension_mismatch():
    with pytest.raises(ValueError):
        worst_case_error(I2, np.eye(4))


def test_worst_case_error_metric_axioms():
    rng = np.random.default_rng(11)
    from conftest import random_unitary

    for _ in range(20):
        U, V, W = (random_unitary(2, rng) for _ in range(3))
        assert abs(worst_case_error(U, V) - worst_case_error(V, U)) < 1e-8
        assert worst_case_error(U, U) < 1e-12
        assert (
            worst_case_error(U, W)
            <= worst_case_error(U, V) + worst_case_error(V, W) + 1e-8
        )
        # left-invariance
        assert (
            abs(worst_case_error(W @ U, W @ V) - worst_case_error(U, V)) < 1e-8
        )


def test_phase_optimized_error():
    # global phase difference only: optimized error must vanish
    U = np.diag([1.0, 1.0]).astype(complex)
    V = np.exp(0.7j) * U
    assert worst_case_error(U, V) > 0.5
    assert phase_optimized_error(U, V) < 1e-12
    # brute-force grid oracle on random pairs
    rng = np.random.default_rng(3)
    from conftest import random_unitary

    for _ in range(10):
        A, B = random_unitary(2, rng), random_unitary(2, rng)
        grid = min(
            worst_case_error(A, np.exp(1j * phi) * B)
            for phi in np.linspace(0, 2 * np.pi, 2000)
        )
        assert phase_optimized_error(A, B) <= grid + 1e-5
        assert phase_optimized_error(A, B) >= grid - 1e-2


def test_num_qubits_validation():
    with pytest.raises(ValueError):
        linalg.num_qubits(3)
    with pytest.raises(ValueError):
        linalg.num_qubits(1 << (linalg.DENSE_QUBIT_CAP + 1))
    assert linalg.num_qubits(8) == 3


def test_walsh_hadamard_columns_matches_definition():
    # the Sylvester matrix ⊗^n [[1, 1], [1, -1]] has entry (-1)^{u·s} at (u, s)
    rng = np.random.default_rng(11)
    signs = np.ones((1, 1))
    for n in range(11):
        if n:
            signs = np.kron([[1.0, 1.0], [1.0, -1.0]], signs)
        dim = 1 << n
        for k in (1, 3):
            a = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
            out = linalg.walsh_hadamard_columns(a.copy())
            assert np.max(np.abs(out - signs @ a)) < 1e-10


def test_walsh_hadamard_columns_is_in_place_and_validates():
    a = np.arange(8, dtype=complex).reshape(4, 2)
    assert linalg.walsh_hadamard_columns(a) is a
    assert np.array_equal(a[:, 0], [12, -4, -8, 0])
    assert np.array_equal(a[:, 1], [16, -4, -8, 0])
    read_only = np.zeros((4, 2), dtype=complex)
    read_only.flags.writeable = False
    for bad in (
        np.zeros((3, 2), dtype=complex),  # column length not a power of two
        np.zeros((2, 4), dtype=complex).T,  # not C-contiguous
        read_only,
        np.zeros(4, dtype=complex),  # not two-dimensional
    ):
        with pytest.raises(ValueError):
            linalg.walsh_hadamard_columns(bad)


def test_walsh_hadamard_matches_definition():
    rng = np.random.default_rng(5)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    out = linalg.walsh_hadamard(v)
    for u in range(8):
        direct = sum((-1.0) ** parity(u & s) * v[s] for s in range(8))
        assert abs(out[u] - direct) < 1e-10
