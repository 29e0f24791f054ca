"""Seeded benchmark inputs and the plain-text writers that put them on disk.

Everything here is computed with numpy alone, apart from the program under
test, so the program receives only the generated files. The file formats
are the ones documented in `bpgates/io.py`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

CHECK_QUBITS = 7
# check_zx multiplies the ZX blocks of every pair of X-parts, so the X-part
# count of a BP gate sets the cost of checking it. 81 is the typical count
# for a uniform random permutation of 128 states, 128 * (1 - 1/e).
BP_PARTS = 81
SYNTH_EPS = 1e-3
PHASE_VALUES_SEED = 20251008
# Pool sizes per seed. A workload's round takes a prefix of each pool.
N_BP = 2
N_PHASE = 2  # random-phase synthesis targets per size n = 3, 4, 5
N_PERM6 = 6
N_LIFT15, N_LIFT7, N_LIFT4 = 8, 3, 1


# ------------------------------------------------------------ codes

def hamming_pair(m: int) -> tuple[list[list[int]], list[list[int]]]:
    """(simplex [2^m-1, m], Hamming [2^m-1, 2^m-1-m]) generator rows.

    Column j of the simplex generator is the binary form of j+1, so the
    simplex code is the dual of the Hamming code and lies inside it."""
    n = (1 << m) - 1
    simplex = [[((j + 1) >> (m - 1 - i)) & 1 for j in range(n)] for i in range(m)]
    hamming = []
    for j in range(n):
        if (j + 1) & j:  # j+1 is not a power of two
            row = [0] * n
            row[j] = 1
            for b in range(m):
                if (j + 1) >> b & 1:
                    row[(1 << b) - 1] = 1
            hamming.append(row)
    return simplex, hamming


CODES = {
    "q15": hamming_pair(4),  # [[15,7,3]]
    "steane": hamming_pair(3),  # [[7,1,3]]
    "q422": ([[1, 1, 1, 1]], [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]),  # [[4,2,2]]
}


def code_logical_qubits(name: str) -> int:
    c1, c2 = CODES[name]
    return len(c2) - len(c1)


# ------------------------------------------------------------ gates

@dataclass(frozen=True)
class PermGate:
    n: int
    perm: tuple[int, ...]  # source index -> target index
    phases: tuple[float, ...]  # phase of the source state, in [0, 2pi)


def random_perm_gate(n: int, rng: np.random.Generator, phases: bool = True) -> PermGate:
    dim = 1 << n
    perm = tuple(int(t) for t in rng.permutation(dim))
    ph = tuple(float(p) for p in rng.uniform(0.0, TWO_PI, dim)) if phases else (0.0,) * dim
    return PermGate(n, perm, ph)


def bp_gate_with_parts(n: int, parts: int, rng: np.random.Generator) -> PermGate:
    """Random BP gate whose permutation has exactly `parts` distinct X-parts
    s XOR sigma(s), drawn by rejection from uniform random permutations."""
    while True:
        g = random_perm_gate(n, rng)
        if len({s ^ t for s, t in enumerate(g.perm)}) == parts:
            return g


def phase_target(n: int, index: int, rng: np.random.Generator) -> PermGate:
    """Random permutation from `rng` carrying a fixed set of 2^n phases,
    assigned to the states in an order drawn from `rng`.

    The phase values do not depend on the seed: the phase search's cost and
    the Rz repetition total depend on the values alone, and drawing them per
    seed would move synth_s and rz_reps by about 12% per target."""
    values = np.random.default_rng([PHASE_VALUES_SEED, n, index]).uniform(0.0, TWO_PI, 1 << n)
    perm = tuple(int(t) for t in rng.permutation(1 << n))
    return PermGate(n, perm, tuple(float(p) for p in values[rng.permutation(1 << n)]))


def increment_gate(n: int) -> PermGate:
    """|s> -> |s+1 mod 2^n>, phase-free; independent of the seed."""
    dim = 1 << n
    return PermGate(n, tuple((s + 1) % dim for s in range(dim)), (0.0,) * dim)


def perm_matrix(g: PermGate) -> np.ndarray:
    dim = 1 << g.n
    M = np.zeros((dim, dim), dtype=complex)
    M[list(g.perm), np.arange(dim)] = np.exp(1j * np.array(g.phases))
    return M


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    dim = 1 << n
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def near_bp_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """A BP gate followed by one Givens rotation mixing two basis states.

    Both choices keep the seed from moving the cost of the reject path:
    - One mixed state is the image of the source on the gate's smallest
      X-part, so a violating pair of blocks holds the smallest X-part and
      check_zx's sorted pair loop meets it within its first row.
    - The two mixed states' sources differ in qubit 0, so check_normalizer
      rejects at its first generator, Z_0.
    The angle stays inside (0, pi/2), away from both ends, so the two mixed
    columns have entries of magnitude well inside (0, 1)."""
    g = bp_gate_with_parts(n, BP_PARTS, rng)
    dim = 1 << n
    s_a = min(range(dim), key=lambda s: s ^ g.perm[s])
    s_b = int(rng.choice([s for s in range(dim) if (s ^ s_a) >> (n - 1)]))
    a, b = g.perm[s_a], g.perm[s_b]
    t = float(rng.uniform(0.2, 1.3))
    R = np.eye(dim, dtype=complex)
    R[a, a], R[a, b], R[b, a], R[b, b] = np.cos(t), -np.sin(t), np.sin(t), np.cos(t)
    return R @ perm_matrix(g)


# ------------------------------------------------------------ writers

def matrix_text(M: np.ndarray) -> str:
    n = M.shape[0].bit_length() - 1
    rows = (" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in M)
    return f"n {n}\n" + "\n".join(rows) + "\n"


def perm_text(g: PermGate) -> str:
    return "".join(
        f"{s:0{g.n}b} -> {g.perm[s]:0{g.n}b} phase={g.phases[s]:.17g}\n"
        for s in range(1 << g.n)
    )


def code_text(rows: list[list[int]]) -> str:
    return f"n {len(rows[0])} k {len(rows)}\n" + "".join(
        "".join(str(b) for b in row) + "\n" for row in rows
    )


# ------------------------------------------------------------ the input set

@dataclass
class Inputs:
    """Paths of the written files plus what the checks need to know."""

    root: str
    check: dict[str, list[tuple[str, bool, PermGate | None]]] = field(default_factory=dict)
    synth: dict[str, list[tuple[str, PermGate]]] = field(default_factory=dict)
    codes: dict[str, tuple[str, str]] = field(default_factory=dict)
    lifts: dict[str, list[tuple[str, PermGate]]] = field(default_factory=dict)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)


def make_inputs(seed: int, root: str) -> Inputs:
    """Generate every pool from `seed` and write it under `root`.

    Each pool draws from its own child generator, so the content of one pool
    does not depend on the size of another."""
    os.makedirs(root, exist_ok=True)
    check_rng, synth_rng, css_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    inp = Inputs(root=root)

    def write(name: str, text: str) -> str:
        p = inp.path(name)
        with open(p, "w", encoding="utf-8") as fp:
            fp.write(text)
        return p

    n = CHECK_QUBITS
    bp = []
    for i in range(N_BP):
        g = bp_gate_with_parts(n, BP_PARTS, check_rng)
        bp.append((write(f"bp{i}.mat", matrix_text(perm_matrix(g))), True, g))
    reject = []
    for i, kind in enumerate(("haar", "near", "near")):
        M = haar_unitary(n, check_rng) if kind == "haar" else near_bp_unitary(n, check_rng)
        reject.append((write(f"{kind}{i}.mat", matrix_text(M)), False, None))
    inp.check = {"bp": bp, "reject": reject}

    for m in (3, 4, 5):
        targets = [phase_target(m, i, synth_rng) for i in range(N_PHASE)]
        inp.synth[f"phase{m}"] = [(write(f"phase{m}_{i}.perm", perm_text(g)), g) for i, g in enumerate(targets)]
    inp.synth["perm6"] = [
        (write(f"perm6_{i}.perm", perm_text(g)), g)
        for i, g in enumerate(random_perm_gate(6, synth_rng, phases=False) for _ in range(N_PERM6))
    ]
    inp.synth["perm7"] = [(write("perm7_inc.perm", perm_text(increment_gate(7))), increment_gate(7))]

    for name, count in (("q15", N_LIFT15), ("steane", N_LIFT7), ("q422", N_LIFT4)):
        c1, c2 = CODES[name]
        inp.codes[name] = (write(f"{name}_c1.code", code_text(c1)), write(f"{name}_c2.code", code_text(c2)))
        k = code_logical_qubits(name)
        gates = [random_perm_gate(k, css_rng) for _ in range(count)]
        inp.lifts[name] = [(write(f"{name}_g{i}.perm", perm_text(g)), g) for i, g in enumerate(gates)]
    return inp
