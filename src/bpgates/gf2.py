"""Small GF(2) row-reduction toolkit for classical code handling."""

from __future__ import annotations

import numpy as np

from .linalg import INDEX_QUBITS, bits_index


def as_gf2(rows) -> np.ndarray:
    A = np.asarray(rows, dtype=np.uint8) & 1
    if A.ndim != 2:
        raise ValueError("expected a 2-D binary matrix")
    return A


def rref(A: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form over GF(2); returns (R, pivot columns).
    Zero rows are dropped."""
    R = as_gf2(A).copy()
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


def reduce_against(v: np.ndarray, R: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Canonical coset representative of v modulo rowspace(R), R in RREF."""
    w = (np.asarray(v, dtype=np.uint8) & 1).copy()
    for row, c in zip(R, pivots):
        if w[c]:
            w ^= row
    return w


def in_rowspace(v: np.ndarray, R: np.ndarray, pivots: list[int]) -> bool:
    return not reduce_against(v, R, pivots).any()


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
