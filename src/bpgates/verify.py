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
from .zx import is_z_type

TWO_PI = 2.0 * np.pi


def _given(array: np.ndarray, given: object) -> bool:
    """Whether `array`, made by np.asarray from `given`, holds the caller's
    data: it is `given` itself or a view; a conversion makes a new array."""
    return array is given or array.base is not None


@dataclass(frozen=True)
class PermutationWithPhases:
    """Canonical form G = Σ_s e^{iφ_s}|σ(s)⟩⟨s| of a bias-preserving gate, the
    one monomial form of every module, built from sequences into read-only
    arrays. A read-only int64 perm and float64 phases in [0, 2π) are kept,
    not copied, so a reader that hands over its own arrays read-only holds
    them once."""

    n: int
    perm: np.ndarray  # int64 sigma: source index -> target index
    phases: np.ndarray  # float64 phi_s, normalized to [0, 2pi)

    def __post_init__(self):
        dim = 1 << self.n
        perm = np.asarray(self.perm)
        phases = np.asarray(self.phases, dtype=np.float64)
        if perm.shape != (dim,) or phases.shape != (dim,):
            raise ValueError("perm/phases length must be 2^n")
        # range and integrality are checked before the int64 cast truncates
        if (
            perm.dtype.kind not in "biuf"
            or not (perm.min() >= 0 and perm.max() < dim)
            or (perm.dtype.kind == "f" and np.any(perm % 1))
        ):
            raise ValueError("perm is not a bijection on basis indices")
        perm = np.asarray(perm, dtype=np.int64)
        seen = np.zeros(dim, dtype=bool)
        seen[perm] = True
        if not seen.all():  # dim entries in range: a bijection iff each is hit
            raise ValueError("perm is not a bijection on basis indices")
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases must be finite")
        # np.mod leaves [0, 2π) bit for bit and turns −0.0 into 0.0, so only the
        # entries it would change are reduced; the 2π it rounds −1e-17 to is 0
        outside = np.signbit(phases) | (phases >= TWO_PI)
        reduce = outside.any()
        # an array the caller handed in, or a view of one, is copied if the
        # caller may still write to it or if it is reduced here; a read-only
        # one that needs no reduction is kept as it is
        if _given(perm, self.perm) and perm.flags.writeable:
            perm = perm.copy()
        if _given(phases, self.phases) and (phases.flags.writeable or reduce):
            phases = phases.copy()
        if reduce:
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
    one being reported as witness. A tol of 0.5 or more is refused: the
    bands [0, tol] of negligible and [1 - tol, 1 + tol] of unit magnitudes
    would overlap, and an entry in both would count as either.
    """
    if not tol < 0.5:
        raise ValueError(f"tol must be below 0.5 for the column test, got {tol}")
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
    ZX-decomposition with no coefficient dropped. Then β_{s,v} = G[s, s⊕v],
    so both tests reduce to the entries of G, and no transform runs:
      * A_v has one entry in each column c, B_{v,c} = β_{c⊕v,v} = G[c⊕v, c],
        so the blocks' entries in column c are column c of G, and the
        entries of A_v A_w† are the products B_{v,c}·conj(B_{w,c}). Each
        product is bounded by tol times its larger factor, that is, its
        smaller factor must be ≤ tol: no column of G holds two entries
        above tol.
      * Σ_v A_v A_v† is diagonal with entry Σ_v |β_{s,v}|² at s, the
        squared norm of row s of G.
    tol bounds only these two tests, never a coefficient. Exact BP gates
    pass at every tol, and a gate is read on the scale of one amplitude, as
    check_permutation reads it: a flat gate, all of whose entries are about
    2^{-n/2}, is refused once they exceed tol, though their products may not.
    """
    G = np.asarray(G, dtype=complex)
    matrix_qubits(G)
    mags = np.abs(G)
    if np.any(np.count_nonzero(mags > tol, axis=0) > 1):
        return False
    return bool(np.max(np.abs(np.sum(mags**2, axis=1) - 1.0)) <= tol)


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
