"""Deciding Z-bias preservation by three independent characterizations.

A gate preserves Z bias iff it is a permutation of computational basis
states with per-state phases. The three routes:
  * check_permutation — column structure of the dense matrix,
  * check_zx          — orthogonality/completeness of the ZX blocks,
  * check_normalizer  — conjugated Z generators stay diagonal.
They must agree on every unitary; the test suite enforces that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    index_to_bits,
    matrix_qubits,
    num_qubits,
    require_dense_cap,
    require_unitary,
    z_signs,
)
from .zx import basis_forms, is_z_type, zx_decompose

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PermutationWithPhases:
    """Canonical form G = Σ_s e^{iφ_s}|σ(s)⟩⟨s| of a bias-preserving gate."""

    n: int
    perm: tuple[int, ...]  # sigma: source index -> target index
    phases: tuple[float, ...]  # phi_s, normalized to [0, 2pi)

    def __post_init__(self):
        dim = 1 << self.n
        if len(self.perm) != dim or len(self.phases) != dim:
            raise ValueError("perm/phases length must be 2^n")
        if sorted(self.perm) != list(range(dim)):
            raise ValueError("perm is not a bijection on basis indices")
        phases = tuple(float(p) % TWO_PI for p in self.phases)
        if not all(map(math.isfinite, phases)):  # inf % 2π is nan
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", phases)

    def compose(self, other: "PermutationWithPhases") -> "PermutationWithPhases":
        """self ∘ other (other applied first)."""
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        dim = 1 << self.n
        perm = tuple(self.perm[other.perm[s]] for s in range(dim))
        phases = tuple(
            (other.phases[s] + self.phases[other.perm[s]]) % TWO_PI
            for s in range(dim)
        )
        return PermutationWithPhases(self.n, perm, phases)

    def adjoint(self) -> "PermutationWithPhases":
        dim = 1 << self.n
        inv = [0] * dim
        phases = [0.0] * dim
        for s in range(dim):
            inv[self.perm[s]] = s
            phases[self.perm[s]] = (-self.phases[s]) % TWO_PI
        return PermutationWithPhases(self.n, tuple(inv), tuple(phases))


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
    M[np.array(p.perm), np.arange(dim)] = np.exp(1j * np.array(p.phases))
    return M


def check_permutation(G: np.ndarray, tol: float = DEFAULT_TOL) -> BpVerdict:
    """Column test: each column must hold exactly one unit-magnitude entry.

    Entries in the open band (tol, 1 - tol) are immediately diagnostic of a
    genuine superposition, so the first such column is reported as witness.
    """
    G = require_unitary(G, tol)
    n = matrix_qubits(G)
    dim = 1 << n
    perm = [-1] * dim
    phases = [0.0] * dim
    for s in range(dim):
        col = G[:, s]
        mags = np.abs(col)
        unit = np.where(np.abs(mags - 1.0) <= tol)[0]
        band = np.where((mags > tol) & (np.abs(mags - 1.0) > tol))[0]
        if band.size or unit.size != 1:
            entries = ", ".join(
                f"|{index_to_bits(int(t), n)}⟩: {mags[t]:.6f}"
                for t in np.where(mags > tol)[0]
            )
            return BpVerdict(
                is_bp=False,
                witness=f"column {index_to_bits(s, n)} has entries {entries}",
            )
        t = int(unit[0])
        perm[s] = t
        phases[s] = float(np.angle(col[t])) % TWO_PI
    if sorted(perm) != list(range(dim)):
        return BpVerdict(is_bp=False, witness="unit entries do not form a bijection")
    canonical = PermutationWithPhases(n, tuple(perm), tuple(phases))
    return BpVerdict(is_bp=True, canonical=canonical)


def check_zx(G: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Block test: A_v A_w† = 0 for v ≠ w and Σ_v A_v A_v† = I.

    Decided from the block basis forms A_v = Σ_s β_{s,v}|s⟩⟨s⊕v| of the
    ZX-decomposition, where β_{s,v} = Σ_u (-1)^{u·s} α_{u,v} comes from the
    coefficients above tol by one batched Walsh-Hadamard transform over all
    X-parts (zx.basis_forms). No dense product is formed:
      * A_v A_w† is nonzero only at (s, s⊕v⊕w), where it equals
        β_{s,v}·conj(β_{s⊕v⊕w,w}); each part v is tested against all later
        parts w at once, over the s with β_{s,v} ≠ 0. That costs
        O(parts·2^n) per part, and the test stops at the first part with a
        product entry above tol.
      * Σ_v A_v A_v† is diagonal with entry Σ_v |β_{s,v}|² at s.
    """
    G = require_unitary(G, tol)
    parts, beta = basis_forms(zx_decompose(G, tol).array())
    for i in range(len(parts) - 1):
        s = np.flatnonzero(beta[i])
        later = np.arange(i + 1, len(parts))[:, None]
        partner = beta[later, s ^ parts[i] ^ parts[later]]
        if np.max(np.abs(beta[i, s] * partner.conj()), initial=0.0) > tol:
            return False
    diagonal = np.sum(np.abs(beta) ** 2, axis=0)
    return bool(np.max(np.abs(diagonal - 1.0)) <= tol)


def check_normalizer(
    G: np.ndarray, tol: float = DEFAULT_TOL, exhaustive: bool = False
) -> bool:
    """Normalizer test: G Z G† must stay Z-type (diagonal) for every Z string.

    Checking the n single-qubit generators Z_i suffices: conjugation is a
    homomorphism and the diagonal unitaries are closed under products. The
    exhaustive variant over all 2^n strings is kept for cross-validation.
    G Z_c G† is formed as (G · diag(Z_c)) G†, scaling the columns of G.
    """
    G = require_unitary(G, tol)
    n = matrix_qubits(G)
    Gdag = G.conj().T
    if exhaustive:
        strings = range(1, 1 << n)
    else:
        strings = [1 << (n - 1 - i) for i in range(n)]
    for c in strings:
        if not is_z_type((G * z_signs(c, n)) @ Gdag, tol):
            return False
    return True


def coherence_rank(psi: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Number of computational-basis amplitudes above tol; 0 for the 0 vector."""
    return int(np.count_nonzero(np.abs(np.asarray(psi)) > tol))


def support_set(psi: np.ndarray, tol: float = DEFAULT_TOL) -> set[str]:
    """Bit-string labels of the nonzero amplitudes."""
    psi = np.asarray(psi)
    n = num_qubits(psi.size)
    return {index_to_bits(s, n) for s in np.where(np.abs(psi) > tol)[0]}


def hadamard_bound(n: int) -> float:
    """Lower bound √(2(1 − 2^{-n/2})) on the worst-case error when any
    bias-preserving gate stands in for the n-fold Hadamard."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.sqrt(2.0 * (1.0 - 2.0 ** (-n / 2.0))))


def random_bp(n: int, rng: np.random.Generator) -> PermutationWithPhases:
    """Uniform random permutation plus phases uniform in [0, 2π); this
    parameterizes the whole bias-preserving group."""
    dim = 1 << n
    perm = tuple(int(t) for t in rng.permutation(dim))
    phases = tuple(float(p) for p in rng.uniform(0.0, TWO_PI, size=dim))
    return PermutationWithPhases(n, perm, phases)
