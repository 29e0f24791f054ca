"""CSS codes from classical code pairs, equicoherent encodings, and the
logical ↔ physical correspondence for bias-preserving gates.

A CSS code built from C1 ⊂ C2 encodes logical |x⟩ as the uniform coset
superposition over x·B + C1, where the transversal B extends a basis of C1
to one of C2. Every logical basis image has coherence rank |C1| and the
supports are disjoint cosets, which is exactly what lets a logical
permutation-with-phases lift to a physical one.

An encoding stores one coset table, whose row x is the support of |x>_L, and
builds a basis state only when it is looked up; lifting and restriction map
rows to rows on the PermutationWithPhases form, so they run beyond the dense cap.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from . import gf2
from .linalg import DEFAULT_TOL, MONOMIAL_QUBIT_CAP, index_to_bits, require_monomial_cap
from .stages import Stage
from .verify import TWO_PI, PermutationWithPhases

log = logging.getLogger(__name__)


class CodeConstructionError(ValueError):
    """Invalid classical code input or code pair."""


class NotLogicalOperatorError(ValueError):
    """Physical gate does not map the codespace to itself."""


@dataclass(frozen=True)
class BinaryCode:
    """Classical linear [n, k] code held as a row-reduced generator matrix."""

    n: int
    k: int
    generator: np.ndarray  # k x n uint8, RREF

    @classmethod
    def from_rows(cls, rows) -> "BinaryCode":
        A = gf2.as_gf2(rows)
        R, pivots = gf2.rref(A)
        if len(pivots) != A.shape[0]:
            raise CodeConstructionError(
                f"generator rows are dependent: rank {len(pivots)} < {A.shape[0]} rows"
            )
        R.setflags(write=False)
        return cls(n=A.shape[1], k=A.shape[0], generator=R)

    def words(self) -> list[int]:
        """All codewords as big-endian integers."""
        return gf2.codewords(self.generator).tolist()


class CosetStates(Mapping):
    """Read-only map logical x -> n-qubit state vector, the uniform
    superposition over row x of a coset table; each state is built when it
    is looked up, so an encoding holds no 2^n-entry vectors."""

    def __init__(self, n: int, cosets: np.ndarray):
        self._n = n
        self._cosets = cosets

    def __getitem__(self, x: int) -> np.ndarray:
        if x not in range(len(self._cosets)):  # numpy would wrap x = -1
            raise KeyError(x)
        require_monomial_cap(self._n)
        psi = np.zeros(1 << self._n, dtype=complex)
        psi[self._cosets[x]] = 1.0 / np.sqrt(self._cosets.shape[1])
        return psi

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._cosets)))

    def __len__(self) -> int:
        return len(self._cosets)


@dataclass(frozen=True)
class CssEncoding:
    c1: BinaryCode
    c2: BinaryCode
    n: int
    k: int
    transversal: np.ndarray  # k x n uint8, coset representatives B_i
    # (2^k, |C1|) int64, read-only: entry (x, j) is x·B ⊕ (word j of C1), so
    # row x is T(|x>_L) and any two rows are aligned by C1-translation
    cosets: np.ndarray

    @property
    def l(self) -> int:
        """Common coherence rank, |C1|."""
        return self.cosets.shape[1]

    @property
    def basis_support(self) -> dict[int, frozenset[int]]:
        """Logical x -> T(|x>_L)."""
        return {x: frozenset(row) for x, row in enumerate(self.cosets.tolist())}

    @property
    def basis_states(self) -> CosetStates:
        """Logical x -> n-qubit state vector."""
        return CosetStates(self.n, self.cosets)


@Stage(log, "build_css")
def build_css(c1: BinaryCode, c2: BinaryCode) -> CssEncoding:
    """Standard CSS encoding for C1 ⊂ C2.

    The transversal is the RREF of C2's rows reduced modulo C1, making the
    encoding a deterministic function of the code pair. Both generators are
    held in RREF, so they reduce rows as they stand: the subcode test and
    the reduction run on packed rows (gf2.residue). The coset table holds
    all |C2| words, so more than 2^MONOMIAL_QUBIT_CAP are refused before it."""
    if c1.n != c2.n:
        raise CodeConstructionError(f"code lengths differ: {c1.n} vs {c2.n}")
    n = c1.n
    g1, g2 = gf2.pack(c1.generator), gf2.pack(c2.generator)
    if any(gf2.residue(row, g2) for row in g1):
        raise CodeConstructionError("C1 is not a subcode of C2")
    k = c2.k - c1.k
    if k <= 0:
        raise CodeConstructionError(f"degenerate code: no logical qubits (k={k})")
    if c2.k > MONOMIAL_QUBIT_CAP:
        raise ValueError(f"C2 has 2^{c2.k} words; the coset table cap is 2^{MONOMIAL_QUBIT_CAP}")
    # reduction modulo C1 is linear with kernel C1: the rows span rank k
    B = gf2.unpack(gf2.echelon([gf2.residue(row, g1) for row in g2]), n)
    B.setflags(write=False)
    cosets = gf2.codewords(B)[:, None] ^ gf2.codewords(c1.generator)
    cosets.setflags(write=False)
    return CssEncoding(c1=c1, c2=c2, n=n, k=k, transversal=B, cosets=cosets)


def check_equicoherent(
    e: CssEncoding, tol: float = DEFAULT_TOL
) -> tuple[bool, int | None, str | None]:
    """Verify that the logical basis images have equal coherence ranks and
    pairwise disjoint supports, from the coset table with no state built.
    Returns (ok, common rank l, violation), the violation naming the first
    pair (x, y) in combinations order whose supports overlap.

    The ranks are equal by construction: every row holds |C1| amplitudes
    1/√|C1|, so every rank is |C1|, or 0 if that amplitude is not above tol,
    and then no support holds an index. Disjointness is what the table could
    get wrong, and one sort of its entries decides it."""
    if not 1.0 / np.sqrt(e.l) > tol:
        return True, 0, None
    overlap = _first_overlap(e.cosets)
    if overlap is not None:
        x, y, t = overlap
        return (
            False,
            None,
            f"condition 2: supports of ({index_to_bits(x, e.k)}, "
            f"{index_to_bits(y, e.k)}) overlap at {index_to_bits(t, e.n)}",
        )
    return True, e.l, None


def _first_overlap(table: np.ndarray) -> tuple[int, int, int] | None:
    """(x, y, t) for the first pair of rows x < y of table in combinations
    order that share an entry, and t the smallest entry they share; None if
    the rows are disjoint. No row may hold an entry twice.

    A shared entry t in rows o_1 < o_2 < … first brings in the pair
    (o_1, o_2), so the first pair overall is the least such pair, and every
    entry that pair shares has it as its first two rows."""
    flat = table.ravel()
    ordered = np.sort(flat)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    order = np.argsort(flat, kind="stable")  # rows ascending within each entry
    flat, row = flat[order], order // table.shape[1]
    same = flat[1:] == flat[:-1]
    first = np.flatnonzero(same & np.r_[True, ~same[:-1]])  # first two rows of each entry
    x, y, t = row[first], row[first + 1], flat[first]
    j = np.lexsort((t, y, x))[0]
    return int(x[j]), int(y[j]), int(t[j])


@Stage(log, "lift_logical")
def lift_logical(e: CssEncoding, g: PermutationWithPhases) -> PermutationWithPhases:
    """Physical bias-preserving gate realizing a logical one.

    Cosets matched by C1-translation: γ(x·B ⊕ y) = π(x)·B ⊕ y for y ∈ C1,
    identity outside the codespace supports; each coset carries its logical
    phase. Satisfies Ĝ|x⟩_L = e^{iφ_x}|π(x)⟩_L on the logical basis, the
    encoded form of G|x⟩ = e^{iφ_x}|π(x)⟩."""
    if g.n != e.k:
        raise ValueError(f"logical gate acts on {g.n} qubits, code has k={e.k}")
    require_monomial_cap(e.n)
    perm = np.arange(1 << e.n)
    phases = np.zeros(1 << e.n)
    perm[e.cosets] = e.cosets[g.perm]
    phases[e.cosets] = g.phases[:, None]
    return PermutationWithPhases(e.n, perm, phases)


@Stage(log, "restrict_physical")
def restrict_physical(
    e: CssEncoding, g_hat: PermutationWithPhases, tol: float = DEFAULT_TOL
) -> PermutationWithPhases:
    """Logical gate induced by a physical bias-preserving gate that is a
    logical operator.

    The gate is a logical operator iff it maps each coset T(|x>_L) onto one
    coset T(|y>_L) with a constant phase φ; the logical gate then sends x to
    y with phase φ. Beyond reading the gate, the check looks only at the
    2^k·|C1| codespace states and builds no state vector."""
    if g_hat.n != e.n:
        raise ValueError(f"physical gate acts on {g_hat.n} qubits, code has n={e.n}")
    owner = np.full(1 << e.n, -1)  # logical index of each codespace support
    owner[e.cosets] = np.arange(1 << e.k)[:, None]
    image = owner[g_hat.perm[e.cosets]]
    phase = g_hat.phases[e.cosets]
    drift = (phase - phase[:, :1]) % TWO_PI
    outside = np.any(image < 0, axis=1)
    bad = outside | np.any(image != image[:, :1], axis=1)
    bad |= np.any(np.minimum(drift, TWO_PI - drift) > tol, axis=1)
    if bad.any():
        x = int(np.argmax(bad))
        why = "leaves the codespace" if outside[x] else "is not one coset with a constant phase"
        raise NotLogicalOperatorError(f"image of logical |{index_to_bits(x, e.k)}⟩ {why}")
    return PermutationWithPhases(e.k, image[:, 0], phase[:, 0])
