"""Small GF(2) row-reduction toolkit for classical code handling.

Rows are reduced as packed Python integers, column 0 the most significant
bit, so a row of any length is one integer and one XOR.
"""

from __future__ import annotations

import numpy as np

from .linalg import INDEX_QUBITS, bits_index


def as_gf2(rows) -> np.ndarray:
    A = np.asarray(rows, dtype=np.uint8) & 1
    if A.ndim != 2:
        raise ValueError("expected a 2-D binary matrix")
    return A


def pack(A) -> list[int]:
    """The rows of a binary matrix as integers, column 0 the most significant bit."""
    A = as_gf2(A)
    n, digits = A.shape[1], (A + ord("0")).tobytes()
    return [int(b"0" + digits[i * n:(i + 1) * n], 2) for i in range(len(A))]


def unpack(rows: list[int], n: int) -> np.ndarray:
    """Inverse of pack: a len(rows) x n uint8 matrix."""
    nbytes = (n + 7) // 8
    data = b"".join((row << (8 * nbytes - n)).to_bytes(nbytes, "big") for row in rows)
    octets = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), nbytes)
    return np.unpackbits(octets, axis=1, count=n)


def residue(v: int, basis: list[int]) -> int:
    """Canonical coset representative of row v modulo the span of basis, rows
    in RREF: v ^ b is below v exactly when v has b's pivot, its leading bit."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def echelon(rows: list[int]) -> list[int]:
    """The RREF of packed rows, zero rows dropped, pivot columns ascending.
    Each row is reduced modulo the rows kept so far and, if it is not zero,
    cleared from them at its pivot; the RREF of a row space is unique."""
    basis: list[int] = []
    for v in rows:
        v = residue(v, basis)
        if v:
            basis = [min(b, b ^ v) for b in basis] + [v]
    return sorted(basis, reverse=True)


def rref(A) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form over GF(2); returns (R, pivot columns).
    Zero rows are dropped. A row's pivot is its leading bit."""
    A = as_gf2(A)
    n = A.shape[1]
    R = echelon(pack(A))
    return unpack(R, n), [n - row.bit_length() for row in R]


def codewords(G: np.ndarray) -> np.ndarray:
    """All 2^k codewords of the row space of a k x n generator matrix, as
    big-endian integers: word m is the XOR of the rows picked by the bits of
    m, row 0 by the most significant one. Words longer than INDEX_QUBITS bits
    do not fit in int64 and are refused."""
    G = as_gf2(G)
    k, n = G.shape
    if n > INDEX_QUBITS:
        raise ValueError(f"codewords of length {n} do not fit in {INDEX_QUBITS}-bit integers")
    words = np.zeros(1, dtype=np.int64)
    for row in bits_index(G)[::-1]:  # the last row is picked by the lowest bit
        words = np.concatenate([words, words ^ row])
    return words
