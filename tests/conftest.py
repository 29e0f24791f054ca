import numpy as np
import pytest

from bpgates import BinaryCode, build_css, random_bp, to_unitary


# ---------------------------------------------- dense references
# Definitions by the per-entry loops, for the tests to check the library by.

def parity(x: int) -> int:
    return bin(x).count("1") & 1


def rz(angle: float) -> np.ndarray:
    """Rotation about the z axis: diag(e^{-i a/2}, e^{i a/2})."""
    return np.diag([np.exp(-0.5j * angle), np.exp(0.5j * angle)])


def basis_state(bits: str) -> np.ndarray:
    """Computational basis state |bits⟩ as a state vector."""
    psi = np.zeros(1 << len(bits), dtype=complex)
    psi[int(bits, 2)] = 1.0
    return psi


def x_string(bits: str) -> np.ndarray:
    """X_v = ⊗_i X^{v_i}: the permutation matrix |s⟩ ↦ |s ⊕ v⟩."""
    v, dim = int(bits, 2), 1 << len(bits)
    M = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        M[s ^ v, s] = 1.0
    return M


def zx_sum(n: int, items) -> np.ndarray:
    """Dense Σ α_{u,v} Z_u X_v over ((u, v), α) items, entry by entry:
    Z_u X_v has (-1)^{u·s} at (s, s⊕v)."""
    M = np.zeros((1 << n, 1 << n), dtype=complex)
    for (u, v), alpha in items:
        for s in range(1 << n):
            M[s, s ^ v] += alpha * (-1.0) ** parity(u & s)
    return M


def normalizer_reference(G: np.ndarray, tol: float = 1e-9) -> bool:
    """The normalizer test by its definition: G Z_c G† has no off-diagonal
    entry above tol, for each of the 2^n − 1 nontrivial Z strings Z_c."""
    dim = G.shape[0]
    for c in range(1, dim):
        Zc = np.diag([(-1.0) ** parity(c & s) for s in range(dim)])
        C = G @ Zc @ G.conj().T
        if np.max(np.abs(C - np.diag(np.diagonal(C)))) > tol:
            return False
    return True


def check_zx_by_parts(G: np.ndarray, tol: float = 1e-9) -> bool:
    """verify.check_zx by a loop over X-parts. With every α kept, block A_v
    has the basis form β_{s,v} = G[s, s⊕v], gathered here part by part over
    the v whose β is not all zero. Part v's block is tested against every
    later part w's at once, A_v A_w† being β_{s,v}·conj(β_{s⊕v⊕w,w}) at
    (s, s⊕v⊕w), over the s with β_{s,v} ≠ 0, stopping at the first part
    with a product above tol times its larger factor, that is, with both
    factors above tol; then the same completeness test."""
    s = np.arange(len(G))
    parts = np.array([v for v in range(len(G)) if np.any(G[s, s ^ v])])
    beta = np.array([G[s, s ^ v] for v in parts])
    for i in range(len(parts) - 1):
        s = np.flatnonzero(beta[i])
        later = np.arange(i + 1, len(parts))[:, None]
        partner = beta[later, s ^ parts[i] ^ parts[later]]
        if np.any(np.minimum(np.abs(beta[i, s]), np.abs(partner)) > tol):
            return False
    diagonal = np.sum(np.abs(beta) ** 2, axis=0)
    return bool(np.max(np.abs(diagonal - 1.0)) <= tol)


def coherence_rank(psi: np.ndarray, tol: float = 1e-9) -> int:
    """χ(ψ): the number of computational-basis amplitudes above tol."""
    return int(np.count_nonzero(np.abs(np.asarray(psi)) > tol))


def encode(e, psi: np.ndarray) -> np.ndarray:
    """The n-qubit encoding of a k-qubit state under a CSS encoding e, as a
    scatter of its coset table: amplitude ψ_x/√l on each entry of row x."""
    psi = np.asarray(psi, dtype=complex)
    assert psi.shape == (1 << e.k,)
    out = np.zeros(1 << e.n, dtype=complex)
    out[e.cosets] = psi[:, None] / np.sqrt(e.l)
    return out


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random unitary from the QR decomposition of a Ginibre matrix."""
    dim = 1 << n
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_near_bp(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random BP gate followed by a Givens rotation, of angle in
    [1e-3, 1.3], between two distinct basis states: close to BP, but not BP."""
    G = to_unitary(random_bp(n, rng))
    a, b = rng.choice(1 << n, size=2, replace=False)
    theta = rng.uniform(1e-3, 1.3)
    c, s = np.cos(theta), np.sin(theta)
    R = np.eye(1 << n, dtype=complex)
    R[a, a], R[a, b], R[b, a], R[b, b] = c, -s, s, c
    return R @ G


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def code_422():
    c1 = BinaryCode.from_rows([[1, 1, 1, 1]])
    c2 = BinaryCode.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    return build_css(c1, c2)


@pytest.fixture
def steane():
    hamming = [[1, 0, 0, 0, 0, 1, 1],
               [0, 1, 0, 0, 1, 0, 1],
               [0, 0, 1, 0, 1, 1, 0],
               [0, 0, 0, 1, 1, 1, 1]]
    dual = [[0, 1, 1, 1, 1, 0, 0],
            [1, 0, 1, 1, 0, 1, 0],
            [1, 1, 0, 1, 0, 0, 1]]
    return build_css(BinaryCode.from_rows(dual), BinaryCode.from_rows(hamming))


def hamming_pair(m: int) -> tuple[BinaryCode, BinaryCode]:
    """(simplex [2^m-1, m], Hamming [2^m-1, 2^m-1-m]): column j of the simplex
    generator is j+1 in binary, so the simplex code is the Hamming code's dual
    and lies inside it. m = 4 gives the [[15,7,3]] quantum Hamming code."""
    n = (1 << m) - 1
    simplex = [[((j + 1) >> (m - 1 - i)) & 1 for j in range(n)] for i in range(m)]
    hamming = []
    for j in range(n):
        if (j + 1) & j:  # data position: j+1 is not a power of two
            row = [0] * n
            row[j] = 1
            for b in range(m):
                if (j + 1) >> b & 1:
                    row[(1 << b) - 1] = 1  # parity position 2^b
            hamming.append(row)
    return BinaryCode.from_rows(simplex), BinaryCode.from_rows(hamming)


@pytest.fixture
def hamming15():
    return build_css(*hamming_pair(4))


@pytest.fixture
def golay():
    """The [[23,1,7]] Golay code. C2 is the cyclic [23,12,7] Golay code,
    spanned by the 12 shifts of g(x) = 1+x²+x⁴+x⁵+x⁶+x¹⁰+x¹¹; C1 is its
    even-weight [23,11] subcode, spanned by the 11 shifts of (1+x)·g(x).
    Entry i of a row is the coefficient of x^i."""
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    g_even = [a ^ b for a, b in zip(g + [0], [0] + g)]  # (1+x)·g(x)

    def shifts(poly: list[int], count: int) -> list[list[int]]:
        return [[0] * i + poly + [0] * (23 - len(poly) - i) for i in range(count)]

    return build_css(BinaryCode.from_rows(shifts(g_even, 11)), BinaryCode.from_rows(shifts(g, 12)))


def wide_pair() -> tuple[BinaryCode, BinaryCode]:
    """C1 = <11 0^38> ⊂ C2 = <11 0^38, 001 0^37>: n = 40, k = 1, so a code
    whose encoding is small but whose 2^40-state arrays are not."""
    c1 = [1, 1] + [0] * 38
    return BinaryCode.from_rows([c1]), BinaryCode.from_rows([c1, [0, 0, 1] + [0] * 37])


def repetition_pair(n: int) -> tuple[BinaryCode, BinaryCode]:
    """(repetition [n, 1], even-weight [n, n-1]) for even n: k = n - 2, and
    the coset table holds all 2^(n-1) words of the even-weight code."""
    even = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n - 1)]
    return BinaryCode.from_rows([[1] * n]), BinaryCode.from_rows(even)
