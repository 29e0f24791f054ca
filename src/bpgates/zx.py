"""ZX-decomposition: G = Σ_{u,v} α_{u,v} Z_u X_v and its X-part blocks.

Z_u X_v has entry (-1)^{u·s} at (s, s⊕v), so the block A_v = Σ_u α_{u,v} Z_u X_v
has the basis form A_v = Σ_s β_{s,v}|s⟩⟨s⊕v| with β_{s,v} = G[s, s⊕v], the
shifted diagonals that shifted_diagonals gathers. So the block test
verify.check_zx reads the blocks from G itself, and its tol bounds only its
own two tests, never a coefficient. zx_decompose transforms them to the
coefficients, which live in one read-only dense array alpha[v, u], zero
where absent or at most its tol in magnitude; `coeffs` reads it as a
(u, v) -> α mapping, and the block A_v is its row v.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, matrix_qubits, walsh_hadamard, walsh_hadamard_columns


class CoefficientView(Mapping):
    """Read-only (u, v) -> α_{u,v} mapping over the nonzero entries of a
    dense coefficient array alpha[v, u], without copying it."""

    def __init__(self, alpha: np.ndarray):
        self.array = alpha

    def __getitem__(self, key: tuple[int, int]) -> complex:
        u, v = key
        dim = len(self.array)
        if not (0 <= u < dim and 0 <= v < dim) or self.array[v, u] == 0:
            raise KeyError(key)
        return complex(self.array[v, u])

    def __iter__(self):
        vs, us = np.nonzero(self.array)
        return zip(us.tolist(), vs.tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))


@dataclass(frozen=True)
class ZXDecomposition:
    n: int
    coeffs: CoefficientView  # (u, v) -> alpha_{u,v}

    def array(self) -> np.ndarray:
        """The read-only coefficient array alpha[v, u] = α_{u,v}; from
        zx_decompose, a transposed view of the alpha[u, v] it transforms."""
        return self.coeffs.array


@dataclass(frozen=True)
class ZXBlock:
    """A_v = Σ_u α_{u,v} Z_u X_v, the collected terms with X-part v."""

    n: int
    v: int
    alpha: np.ndarray  # row v of the coefficient array: alpha[u] = α_{u,v}

    @property
    def coeffs(self) -> dict[int, complex]:  # u -> alpha, nonzero entries only
        return {u: complex(self.alpha[u]) for u in np.flatnonzero(self.alpha).tolist()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZXBlock):
            return NotImplemented
        return (self.n, self.v) == (other.n, other.v) and np.array_equal(self.alpha, other.alpha)


def shifted_diagonals(G: np.ndarray) -> np.ndarray:
    """The (2^n, 2^n) array d[s, v] = G[s, s⊕v], by one gather that reads
    each row of G in place: column v is the basis form β_{·,v} of A_v."""
    s = np.arange(len(G))[:, None]
    return G[s, s ^ s.T]


def zx_decompose(G: np.ndarray, tol: float = DEFAULT_TOL) -> ZXDecomposition:
    """Expand G in the Z_u X_v basis, α_{u,v} = Tr((Z_u X_v)† G) / 2^n,
    keeping the coefficients above tol.

    α_{·,v} is the Walsh-Hadamard transform of the shifted diagonal
    d[·, v] = G[·, ·⊕v]: one gather of all 2^n of them as the columns of
    one array, then one transform of its columns, alpha[u, v]; array() is
    its transpose.
    """
    G = np.asarray(G, dtype=complex)
    n = matrix_qubits(G)
    alpha = walsh_hadamard_columns(shifted_diagonals(G))
    alpha /= 1 << n
    alpha[np.abs(alpha) <= tol] = 0.0
    alpha.flags.writeable = False
    return ZXDecomposition(n=n, coeffs=CoefficientView(alpha.T))


def block(d: ZXDecomposition, v: int | str) -> ZXBlock:
    """The block A_v; an all-absent block is the valid zero operator."""
    if isinstance(v, str):
        v = int(v, 2)
    if not 0 <= v < (1 << d.n):
        raise ValueError(f"v={v} out of range for n={d.n}")
    return ZXBlock(n=d.n, v=v, alpha=d.array()[v])


def block_matrix(b: ZXBlock) -> np.ndarray:
    """Dense A_v = Σ_s β_{s,v}|s⟩⟨s⊕v|, β_{s,v} = Σ_u (-1)^{u·s} α_{u,v}."""
    s = np.arange(1 << b.n)
    M = np.zeros((s.size, s.size), dtype=complex)
    M[s, s ^ b.v] = walsh_hadamard(b.alpha)
    return M


def is_z_type(G: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff G is a combination of Z-string Paulis, i.e. every ZX
    coefficient with v ≠ 0 is below tol. Equivalent to G being diagonal."""
    return not np.any(zx_decompose(G, tol).array()[1:])
