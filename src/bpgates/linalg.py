"""Dense linear algebra on n-qubit registers.

Global convention: big-endian qubit ordering. Qubit 0 is the leftmost bit
of a basis label and the most significant bit of its integer index, so
|s⟩ sits at index int(s, 2) and tensor(A, B) puts A on the high bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-9

# Dense 2^n x 2^n storage is the intended regime; larger gates must use the
# permutation-with-phases form instead.
DENSE_QUBIT_CAP = 10

# Widest 2^n-entry array past the dense edge: 16·2^n bytes, 256 MB at 24.
MONOMIAL_QUBIT_CAP = 24

# Default synthesis rotation angle: 2*pi*(sqrt(5)-1)/2. Its continued
# fraction is all 1s, which keeps phase-approximation repetition counts small.
GOLDEN_THETA = np.pi * (np.sqrt(5.0) - 1.0)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


def as_index(bits: str | Sequence[int]) -> tuple[int, int]:
    """Normalize a bit string ('101' or [1,0,1]) to (integer index, length)."""
    if isinstance(bits, str):
        if not bits or any(ch not in "01" for ch in bits):
            raise ValueError(f"invalid bit string {bits!r}")
        return int(bits, 2), len(bits)
    seq = list(bits)
    if not seq or any(b not in (0, 1) for b in seq):
        raise ValueError(f"invalid bit sequence {bits!r}")
    value = 0
    for b in seq:
        value = (value << 1) | b
    return value, len(seq)


def index_to_bits(index: int, n: int) -> str:
    """Big-endian bit-string label of a basis index; empty for 0 qubits."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} qubits")
    return format(index, f"0{n}b") if n else ""


def require_dense_cap(n: int) -> None:
    """Refuse a dense n-qubit object above DENSE_QUBIT_CAP qubits."""
    if n > DENSE_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds dense cap {DENSE_QUBIT_CAP}")


def require_monomial_cap(n: int) -> None:
    """Refuse a 2^n-entry array above MONOMIAL_QUBIT_CAP qubits."""
    if n > MONOMIAL_QUBIT_CAP:
        raise ValueError(f"{n} qubits exceeds monomial cap {MONOMIAL_QUBIT_CAP}")


def num_qubits(dim: int) -> int:
    """Qubit count for a dimension that must be an exact power of two."""
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    require_dense_cap(n)
    return n


def matrix_qubits(U: np.ndarray) -> int:
    U = np.asarray(U)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    return num_qubits(U.shape[0])


def require_unitary(U: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """U as a complex array, refused unless max |U U† − I| ≤ tol (NaN is
    refused): the one unitarity check, made where a dense gate is read."""
    U = np.asarray(U, dtype=complex)
    matrix_qubits(U)
    if not np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))) <= tol:
        raise ValueError("matrix is not unitary within tolerance")
    return U


def tensor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product; A acts on the more significant qubits."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


def z_signs(c: int, n: int) -> np.ndarray:
    """The diagonal of Z_c as a float vector: (-1)^{c·s} at basis index s."""
    bits = np.arange(1 << n, dtype=np.int64) & c
    for shift in (32, 16, 8, 4, 2, 1):
        bits ^= bits >> shift
    return 1.0 - 2.0 * (bits & 1)


def pauli_z_string(c: str | Sequence[int]) -> np.ndarray:
    """Z_c = ⊗_i Z^{c_i}: diagonal with entry (-1)^{c·s} at basis index s."""
    cval, n = as_index(c)
    return np.diag(z_signs(cval, n)).astype(complex)


def worst_case_error(U: np.ndarray, V: np.ndarray) -> float:
    """max_ψ ‖(U−V)|ψ⟩‖, the largest singular value of U − V."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape:
        raise ValueError(f"dimension mismatch: {U.shape} vs {V.shape}")
    return float(np.linalg.svd(U - V, compute_uv=False)[0])


def phase_optimized_error(U: np.ndarray, V: np.ndarray) -> float:
    """min_φ worst_case_error(U, e^{iφ} V) for unitary U, V.

    Since U − e^{iφ}V = U(I − e^{iφ}U†V) and W = U†V is unitary, the singular
    values are |1 − e^{iφ}λ_j| = 2|sin((φ + arg λ_j)/2)| over the eigenvalues
    λ_j of W. Minimizing the max chord distance over the circle reduces to
    finding the largest angular gap between the eigenvalue phases.
    """
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape:
        raise ValueError(f"dimension mismatch: {U.shape} vs {V.shape}")
    return shortest_arc_chord(np.angle(np.linalg.eigvals(U.conj().T @ V)))


def shortest_arc_chord(angles) -> float:
    """min_φ max_j |1 − e^{i(φ + a_j)}| over the angles a_j.

    The best φ centres the shortest arc of the circle holding every a_j, that
    is the circle minus its largest angular gap; the error is the chord
    2 sin(arc/4) to that arc's ends. When the gap across 2π is the largest,
    the arc is the span of the sorted angles, taken by one subtraction:
    equal angles give exactly 0, never a rounding error of either sign.
    """
    angles = np.sort(np.mod(angles, 2.0 * np.pi))
    span = float(angles[-1] - angles[0])
    gap = float(np.max(np.diff(angles), initial=0.0))
    arc = span if gap <= 2.0 * np.pi - span else 2.0 * np.pi - gap
    return float(2.0 * np.sin(arc / 4.0))


def walsh_hadamard_rows(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of every row of a (k, 2^n)
    array, in place: a[r, u] ← Σ_s (-1)^{u·s} a[r, s]. Returns a.

    Fast transform of Fino and Algazi: n butterfly stages, each one pass over
    the array plus a half-size temporary, O(k·n·2^n) in all. The array must be
    C-contiguous so that every stage works on a view of it.
    """
    if a.ndim != 2 or not a.flags.c_contiguous or not a.flags.writeable:
        raise ValueError("expected a writeable C-contiguous (k, 2^n) array")
    k, dim = a.shape
    if dim <= 0 or dim & (dim - 1):
        raise ValueError(f"row length {dim} is not a power of two")
    h = 1
    while h < dim:
        pairs = a.reshape(k, dim // (2 * h), 2, h)
        lo, hi = pairs[:, :, 0, :], pairs[:, :, 1, :]
        old_lo = lo.copy()
        lo += hi
        np.subtract(old_lo, hi, out=hi)
        h *= 2
    return a


def walsh_hadamard(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform: out[u] = Σ_s (-1)^{u·s} vec[s]."""
    out = np.array(vec, dtype=complex).reshape(1, -1)
    return walsh_hadamard_rows(out)[0]
