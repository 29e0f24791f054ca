"""Deciding Z-bias preservation by three independent characterizations.

A gate preserves Z bias iff it is a permutation of computational basis
states with per-state phases. The three routes:
  * check_permutation — column structure of the dense matrix,
  * check_zx          — orthogonality/completeness of the ZX blocks,
  * check_normalizer  — the conjugated Z group stays diagonal.
Each takes a unitary G unchecked (linalg.require_unitary checks a dense gate
once, where it is read); they agree on every unitary, as the tests enforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    index_to_bits,
    matrix_qubits,
    require_dense_cap,
)
from .zx import basis_forms, is_z_type, zx_decompose

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PermutationWithPhases:
    """Canonical form G = Σ_s e^{iφ_s}|σ(s)⟩⟨s| of a bias-preserving gate, the
    one monomial form of every module, built from sequences into read-only arrays."""

    n: int
    perm: np.ndarray  # int64 sigma: source index -> target index
    phases: np.ndarray  # float64 phi_s, normalized to [0, 2pi)

    def __post_init__(self):
        dim = 1 << self.n
        perm = np.asarray(self.perm)
        phases = np.array(self.phases, dtype=np.float64)  # a copy: reduced in place
        if perm.shape != (dim,) or phases.shape != (dim,):
            raise ValueError("perm/phases length must be 2^n")
        # range and integrality are checked before the int64 cast truncates
        if (
            perm.dtype.kind not in "biuf"
            or not np.all((perm >= 0) & (perm < dim))
            or (perm.dtype.kind == "f" and np.any(perm % 1))
        ):
            raise ValueError("perm is not a bijection on basis indices")
        perm = perm.astype(np.int64)
        if np.any(np.bincount(perm, minlength=dim) != 1):
            raise ValueError("perm is not a bijection on basis indices")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        # np.mod leaves [0, 2π) bit for bit and turns −0.0 into 0.0, so only the
        # entries it would change are reduced; the 2π it rounds −1e-17 to is 0
        outside = np.signbit(phases) | (phases >= TWO_PI)
        if outside.any():
            phases[outside] = np.mod(phases[outside], TWO_PI)
            phases[phases == TWO_PI] = 0.0
        for name, array in (("perm", perm), ("phases", phases)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermutationWithPhases):
            return NotImplemented
        return np.array_equal(self.perm, other.perm) and np.array_equal(self.phases, other.phases)

    def compose(self, other: "PermutationWithPhases") -> "PermutationWithPhases":
        """self ∘ other (other applied first)."""
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        # the sum is nonnegative, so the constructor's reduction is enough
        phases = other.phases + self.phases[other.perm]
        return PermutationWithPhases(self.n, self.perm[other.perm], phases)

    def adjoint(self) -> "PermutationWithPhases":
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(1 << self.n)
        return PermutationWithPhases(self.n, inv, -self.phases[inv])


@dataclass(frozen=True)
class BpVerdict:
    is_bp: bool
    canonical: Optional[PermutationWithPhases] = None
    witness: Optional[str] = None


def to_unitary(p: PermutationWithPhases) -> np.ndarray:
    """The dense 2^n x 2^n matrix of p, refused above DENSE_QUBIT_CAP qubits."""
    require_dense_cap(p.n)
    dim = 1 << p.n
    M = np.zeros((dim, dim), dtype=complex)
    M[p.perm, np.arange(dim)] = np.exp(1j * p.phases)
    return M


def check_permutation(G: np.ndarray, tol: float = DEFAULT_TOL) -> BpVerdict:
    """Column test of a unitary G: each column holds exactly one unit-magnitude entry.

    Entries in the open band (tol, 1 - tol) are immediately diagnostic of a
    genuine superposition; all columns are tested at once, the first failing
    one being reported as witness.
    """
    G = np.asarray(G, dtype=complex)
    n = matrix_qubits(G)
    mags = np.abs(G)
    unit = np.abs(mags - 1.0) <= tol
    bad = np.any((mags > tol) & ~unit, axis=0) | (np.count_nonzero(unit, axis=0) != 1)
    if bad.any():
        s = int(np.argmax(bad))
        entries = ", ".join(
            f"|{index_to_bits(t, n)}⟩: {mags[t, s]:.6f}"
            for t in np.flatnonzero(mags[:, s] > tol).tolist()
        )
        return BpVerdict(is_bp=False, witness=f"column {index_to_bits(s, n)} has entries {entries}")
    perm = np.argmax(unit, axis=0)
    if np.any(np.bincount(perm, minlength=1 << n) != 1):
        return BpVerdict(is_bp=False, witness="unit entries do not form a bijection")
    phases = np.angle(G[perm, np.arange(1 << n)])
    return BpVerdict(is_bp=True, canonical=PermutationWithPhases(n, perm, phases))


def check_zx(G: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Block test of a unitary G: A_v A_w† = 0 for v ≠ w and Σ_v A_v A_v† = I.

    Decided from the block basis forms A_v = Σ_s β_{s,v}|s⟩⟨s⊕v| of the
    ZX-decomposition, where β_{s,v} = Σ_u (-1)^{u·s} α_{u,v} comes from the
    coefficients above tol by one batched Walsh-Hadamard transform over all
    X-parts (zx.basis_forms). No dense product is formed:
      * A_v has one entry in each column c, B_{v,c} = β_{c⊕v,v}, so the
        entries of A_v A_w† are the products B_{v,c}·conj(B_{w,c}) over c.
        The largest of them over all pairs v ≠ w lies, in each column, at
        the two entries of largest magnitude, found by two argmax passes.
        One O(parts·2^n) pass tests every pair, with no early stop; its
        verdict is the pairwise test's except within a few ulps of tol,
        where the largest magnitudes need not give the largest rounded
        product.
      * Σ_v A_v A_v† is diagonal with entry Σ_v |β_{s,v}|² at s.
    """
    parts, beta = basis_forms(zx_decompose(G, tol).array())
    if len(parts) > 1:
        # row c of B holds every block's entry in column c
        c = np.arange(beta.shape[1])
        B = beta[np.arange(len(parts)), c[:, None] ^ parts]
        mags = np.abs(B)
        first = np.argmax(mags, axis=1)
        mags[c, first] = -1.0
        second = np.argmax(mags, axis=1)
        if np.max(np.abs(B[c, first] * B[c, second].conj())) > tol:
            return False
    diagonal = np.sum(np.abs(beta) ** 2, axis=0)
    return bool(np.max(np.abs(diagonal - 1.0)) <= tol)


def check_normalizer(G: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Normalizer test of a unitary G: G Z G† stays Z-type (diagonal) for every Z string.

    One conjugation decides it. D = diag(0, 1, …, 2^n − 1) equals
    Σ_i 2^{n−1−i}(I − Z_i)/2, so it lies in the algebra the Z strings
    generate, and G D G† is diagonal whenever G normalizes them. Conversely
    D's eigenvalues are distinct, so G D G† is diagonal only if each G|s⟩ is
    an eigenvector of a diagonal matrix with distinct eigenvalues, a basis
    state: G maps basis states to basis states and normalizes the diagonal
    group. It is decided from the conjugate alone, not from G's columns, so
    it stays independent of check_permutation. The conjugate is formed as
    (G · D) G†, scaling the columns of G.
    """
    G = np.asarray(G, dtype=complex)
    n = matrix_qubits(G)
    return is_z_type((G * np.arange(1 << n)) @ G.conj().T, tol)


def coherence_rank(psi: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of computational-basis amplitudes above tol; 0 for the 0 vector."""
    return int(np.count_nonzero(np.abs(np.asarray(psi)) > tol))


def hadamard_bound(n: int) -> float:
    """Lower bound √(2(1 − 2^{-n/2})) on the worst-case error when any
    bias-preserving gate stands in for the n-fold Hadamard."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.sqrt(2.0 * (1.0 - 2.0 ** (-n / 2.0))))


def random_bp(n: int, rng: np.random.Generator) -> PermutationWithPhases:
    """Uniform random permutation plus phases uniform in [0, 2π); this
    parameterizes the whole bias-preserving group."""
    return PermutationWithPhases(n, rng.permutation(1 << n), rng.uniform(0.0, TWO_PI, 1 << n))
