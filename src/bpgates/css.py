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
from itertools import combinations

import numpy as np

from . import gf2
from .linalg import (DEFAULT_TOL, MONOMIAL_QUBIT_CAP, index_to_bits, num_qubits,
                     require_monomial_cap)
from .stages import Stage
from .verify import TWO_PI, PermutationWithPhases, coherence_rank

log = logging.getLogger(__name__)


class CodeConstructionError(ValueError):
    """Invalid classical code input or code pair."""


class NotInCodespaceError(ValueError):
    """State handed to decode lies outside the span of the code basis."""


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


@dataclass(frozen=True)
class GenericEncoding:
    """Arbitrary basis-state encoding, for equicoherence counterexamples."""

    n: int
    k: int
    basis_states: dict[int, np.ndarray]

    @classmethod
    def from_states(cls, states: dict[int, np.ndarray], tol: float = DEFAULT_TOL):
        k = len(states).bit_length() - 1
        if 1 << k != len(states) or set(states) != set(range(1 << k)):
            raise ValueError("basis_states must be keyed by 0..2^k-1")
        n = num_qubits(next(iter(states.values())).size)
        vecs = {x: np.asarray(v, dtype=complex) for x, v in states.items()}
        for x, y in combinations(sorted(vecs), 2):
            if abs(np.vdot(vecs[x], vecs[y])) > tol:
                raise ValueError(f"basis states {x} and {y} are not orthogonal")
        for x, v in vecs.items():
            if abs(np.linalg.norm(v) - 1.0) > tol:
                raise ValueError(f"basis state {x} is not normalized")
        return cls(n=n, k=k, basis_states=vecs)


@Stage(log, "build_css")
def build_css(c1: BinaryCode, c2: BinaryCode) -> CssEncoding:
    """Standard CSS encoding for C1 ⊂ C2.

    The transversal is the RREF of C2's rows reduced against C1, making the
    encoding a deterministic function of the code pair. The coset table holds
    all |C2| words, so more than 2^MONOMIAL_QUBIT_CAP are refused before it."""
    if c1.n != c2.n:
        raise CodeConstructionError(f"code lengths differ: {c1.n} vs {c2.n}")
    n = c1.n
    R1, piv1 = gf2.rref(c1.generator)
    R2, piv2 = gf2.rref(c2.generator)
    for row in c1.generator:
        if not gf2.in_rowspace(row, R2, piv2):
            raise CodeConstructionError("C1 is not a subcode of C2")
    k = c2.k - c1.k
    if k <= 0:
        raise CodeConstructionError(f"degenerate code: no logical qubits (k={k})")
    if c2.k > MONOMIAL_QUBIT_CAP:
        raise ValueError(f"C2 has 2^{c2.k} words; the coset table cap is 2^{MONOMIAL_QUBIT_CAP}")
    # reduction modulo C1 is linear with kernel C1: the rows span rank k
    B, _ = gf2.rref(np.array([gf2.reduce_against(row, R1, piv1) for row in c2.generator]))
    B.setflags(write=False)
    cosets = gf2.codewords(B)[:, None] ^ gf2.codewords(c1.generator)
    cosets.setflags(write=False)
    return CssEncoding(c1=c1, c2=c2, n=n, k=k, transversal=B, cosets=cosets)


def check_equicoherent(
    e: CssEncoding | GenericEncoding, tol: float = DEFAULT_TOL
) -> tuple[bool, int | None, str | None]:
    """Verify equal coherence ranks and pairwise disjoint supports of the
    logical basis images. Returns (ok, common rank l, violation), the
    violation being that of the first failing pair (x, y) in
    combinations order, a rank difference before an overlap.

    A CssEncoding is decided from its coset table with no state built: every
    row holds |C1| amplitudes 1/√|C1| (none if that is not above tol). A
    GenericEncoding takes one lookup per state."""
    if isinstance(e, CssEncoding):
        require_monomial_cap(e.n)  # the overlap count spans all 2^n indices
        keep = 1.0 / np.sqrt(e.l) > tol
        ranks = np.full(1 << e.k, e.l if keep else 0)
        flat = e.cosets.ravel() if keep else e.cosets[:, :0].ravel()
    else:
        supports = [np.flatnonzero(np.abs(e.basis_states[x]) > tol) for x in range(1 << e.k)]
        ranks = np.array([s.size for s in supports])
        flat = np.concatenate(supports)
    differ = np.flatnonzero(ranks != ranks[0]).tolist()
    overlap = _first_overlap(flat, np.repeat(np.arange(1 << e.k), ranks))
    if differ and (overlap is None or (0, differ[0]) <= overlap[:2]):
        y = differ[0]
        return (
            False,
            None,
            f"condition 1: ranks differ for ({index_to_bits(0, e.k)}, "
            f"{index_to_bits(y, e.k)}): {ranks[0]} vs {ranks[y]}",
        )
    if overlap is not None:
        x, y, t = overlap
        return (
            False,
            None,
            f"condition 2: supports of ({index_to_bits(x, e.k)}, "
            f"{index_to_bits(y, e.k)}) overlap at {index_to_bits(t, e.n)}",
        )
    return True, int(ranks[0]), None


def _first_overlap(flat: np.ndarray, owner: np.ndarray) -> tuple[int, int, int] | None:
    """(x, y, t) for the first pair x < y in combinations order whose
    supports share a basis index, and t the smallest index they share; None
    if the supports are disjoint. flat lists the supports one after another
    (each without repeats), owner[i] the state flat[i] belongs to.

    A shared index t with owners o_1 < o_2 < … first brings in the pair
    (o_1, o_2), so the first pair overall is the least such pair, and every
    index that pair shares has it as its first two owners."""
    shared = np.bincount(flat)[flat] > 1
    if not shared.any():
        return None
    flat, owner = flat[shared], owner[shared]
    order = np.argsort(flat, kind="stable")  # owners ascending within each index
    flat, owner = flat[order], owner[order]
    same = flat[1:] == flat[:-1]
    first = np.flatnonzero(same & np.r_[True, ~same[:-1]])  # first two owners of each index
    x, y, t = owner[first], owner[first + 1], flat[first]
    j = np.lexsort((t, y, x))[0]
    return int(x[j]), int(y[j]), int(t[j])


def encode(e: CssEncoding | GenericEncoding, psi: np.ndarray) -> np.ndarray:
    """Linear extension of the basis map to a k-qubit state."""
    psi = np.asarray(psi, dtype=complex)
    if psi.size != 1 << e.k:
        raise ValueError(f"expected a {e.k}-qubit state, got dimension {psi.size}")
    require_monomial_cap(e.n)
    out = np.zeros(1 << e.n, dtype=complex)
    for x in range(1 << e.k):
        if psi[x]:
            out += psi[x] * e.basis_states[x]
    return out


def decode(
    e: CssEncoding | GenericEncoding, psi_l: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Recover the logical state by inner products with the basis images.
    Errors if the input leaves the codespace by more than tol in norm."""
    psi_l = np.asarray(psi_l, dtype=complex)
    if psi_l.size != 1 << e.n:
        raise ValueError(f"expected a {e.n}-qubit state, got dimension {psi_l.size}")
    coeffs = np.array([np.vdot(e.basis_states[x], psi_l) for x in range(1 << e.k)])
    residual = np.linalg.norm(psi_l - encode(e, coeffs))
    if residual > tol:
        raise NotInCodespaceError(f"residual norm {residual:.3e} outside codespace")
    return coeffs


def coherence_scaling_check(
    e: CssEncoding, psi: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """χ(encode(ψ)) must equal l · χ(ψ): each logical term contributes one
    disjoint coset of size l."""
    return coherence_rank(encode(e, psi), tol) == e.l * coherence_rank(psi, tol)


@Stage(log, "lift_logical")
def lift_logical(e: CssEncoding, g: PermutationWithPhases) -> PermutationWithPhases:
    """Physical bias-preserving gate realizing a logical one.

    Cosets matched by C1-translation: γ(x·B ⊕ y) = π(x)·B ⊕ y for y ∈ C1,
    identity outside the codespace supports; each coset carries its logical
    phase. Satisfies encode ∘ G = Ĝ ∘ encode on the logical basis."""
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


def obstruction_check(
    e: GenericEncoding | CssEncoding, s: int, t: int, tol: float = DEFAULT_TOL
) -> tuple[int, int] | None:
    """Coherence-rank obstruction to lifting the logical gate |s⟩ → |t⟩.

    If the logical basis images have different ranks, no physical
    bias-preserving gate can realize that logical map; the rank pair is the
    certificate. Returns None when ranks agree."""
    if s == t:
        raise ValueError("s and t must be distinct logical basis indices")
    rs = coherence_rank(e.basis_states[s], tol)
    rt = coherence_rank(e.basis_states[t], tol)
    if rs != rt:
        return (rs, rt)
    return None
