"""Text file formats: matrices, ZX decompositions, circuits, classical
codes, and permutation-with-phases gates.

All formats share the conventions: '#' starts a comment line, blank lines
are ignored, and floating-point values are written with 17 significant
digits so that emit → parse round-trips exactly at double precision.
"""

from __future__ import annotations

from io import StringIO
from typing import TextIO

import numpy as np

from .css import BinaryCode
from .linalg import GOLDEN_THETA, num_qubits, require_dense_cap
from .synth import Gate, GateSequence
from .verify import PermutationWithPhases
from .zx import CoefficientView, ZXDecomposition


class FormatError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# A matrix entry `a{+|-}bi`, filled from (real, imag).
_ENTRY = "%.17g%+.17gi"


def format_complex(z: complex) -> str:
    return _ENTRY % (z.real, z.imag)


def parse_complex(token: str, lineno: int | None = None) -> complex:
    if not token.endswith("i"):
        raise FormatError(f"complex entry {token!r} missing 'i' suffix", lineno)
    body = token[:-1]
    # split at the sign of the imaginary part: last +/- not in an exponent
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            try:
                return complex(float(body[:pos]), float(body[pos:]))
            except ValueError:
                break
    raise FormatError(f"cannot parse complex entry {token!r}", lineno)


# ---------------------------------------------------------------- matrices

def write_matrix(U: np.ndarray, fp: TextIO) -> None:
    """Format: `n <qubits>` header, then 2^n rows of 2^n `a{+|-}bi` entries.
    One `%` format over the interleaved real and imaginary parts, one write."""
    U = np.ascontiguousarray(U, dtype=complex)
    n = num_qubits(U.shape[0])
    row = " ".join([_ENTRY] * U.shape[1]) + "\n"
    fp.write(f"n {n}\n" + (row * U.shape[0]) % tuple(U.view(np.float64).ravel().tolist()))


def _plain_entries(body: str, count: int) -> bool:
    """True if the tokens of body (a space before the first and after each)
    are `count` tokens that each end in `i`, not in `+i` or `-i`, and hold
    exactly one sign neither at their start nor after an exponent mark.
    complex() of such a token with its `i` made `j` reads exactly what
    parse_complex reads: the sign splits it the same way. Only the totals
    are counted; a token with two such signs, which complex() refuses, is
    what lets another have none."""
    signs = body.count("+") + body.count("-")
    leading = body.count(" +") + body.count(" -")
    exponent = sum(body.count(e + sign) for e in "eE" for sign in "+-")
    return (
        body.count("i ") == count
        and body.count("+i ") + body.count("-i ") == 0
        and signs - leading - exponent == count
    )


def read_matrix(text: str) -> np.ndarray:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty matrix file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise FormatError(f"expected header 'n <qubits>', got {header!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(f"invalid qubit count {parts[1]!r}", lineno) from None
    if n < 0:
        raise FormatError(f"header n must be nonnegative, got {n}", lineno)
    require_dense_cap(n)  # before any row is read
    dim = 1 << n
    if len(lines) - 1 != dim:
        raise FormatError(f"expected {dim} matrix rows, found {len(lines) - 1}")
    M = np.empty((dim, dim), dtype=complex)
    for r, (lineno, line) in enumerate(lines[1:]):
        # one space between entries; only a row spaced otherwise is re-split
        if "  " in line or not line.isprintable():
            line = " ".join(line.split())
        padded = f" {line} "
        if line.count(" ") == dim - 1 and _plain_entries(padded, dim):
            try:  # one C-level pass over the row
                entries = map(complex, padded.replace("i ", "j ").split())
                M[r] = np.fromiter(entries, dtype=complex, count=dim)
                continue
            except ValueError:
                pass
        # a bad row or entry: read entry by entry to name its line
        tokens = line.split()
        if len(tokens) != dim:
            raise FormatError(f"expected {dim} entries, found {len(tokens)}", lineno)
        M[r] = [parse_complex(tok, lineno) for tok in tokens]
    return M


# ------------------------------------------------- ZX decompositions

def write_zx(d: ZXDecomposition, fp: TextIO) -> None:
    """Lines `u-bits v-bits re im` for the nonzero coefficients, sorted by u then v."""
    if d.n == 0:
        raise ValueError("a 0-qubit decomposition has no bit-string labels")
    alpha, label = d.array().T, f"0{d.n}b"
    us, vs = np.nonzero(alpha)  # row-major: by u, then v
    fp.write("".join(f"{u:{label}} {v:{label}} {_fmt(a.real)} {_fmt(a.imag)}\n"
                     for u, v, a in zip(us.tolist(), vs.tolist(), alpha[us, vs].tolist())))


def read_zx(text: str) -> ZXDecomposition:
    """Inverse of write_zx, lines in any order. An absent pair, or one with
    an explicit zero, has α = 0; a repeated pair and more than 10 qubits are
    refused."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty decomposition file")
    seen: set[tuple[str, str]] = set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 4:
            raise FormatError("expected 'u-bits v-bits re im'", lineno)
        ub, vb, re_s, im_s = parts
        if not seen:  # the width bounds the array before it exists
            n = len(ub)
            require_dense_cap(n)
            alpha = np.zeros((1 << n, 1 << n), dtype=complex)
        if len(ub) != n or len(vb) != n or set(ub + vb) - {"0", "1"}:
            raise FormatError(f"bad bit strings {ub!r} {vb!r}", lineno)
        if (ub, vb) in seen:
            raise FormatError(f"repeated pair {ub} {vb}", lineno)
        seen.add((ub, vb))
        try:
            alpha[int(vb, 2), int(ub, 2)] = complex(float(re_s), float(im_s))
        except ValueError:
            raise FormatError("bad coefficient value", lineno) from None
    alpha.flags.writeable = False
    return ZXDecomposition(n=n, coeffs=CoefficientView(alpha))


# ------------------------------------------------------------- circuits

# One `%` template per permutation gate kind, filled from Gate.qubits.
_GATE_LINE = {"X": "X %s\n", "CNOT": "CNOT %s %s\n", "CCNOT": "CCNOT %s %s %s\n"}


def write_circuit(seq: GateSequence, fp: TextIO) -> None:
    """Headers `qubits`, `ancillas`, `theta`, `globalphase`, then one line per
    gate: `RZ <qubit> <reps>` or `<kind> <qubits...>`."""
    fp.write("".join([
        f"qubits {seq.n_data}\nancillas {seq.n_anc}\n",
        f"theta {_fmt(seq.theta)}\nglobalphase {_fmt(seq.global_phase)}\n",
        *[
            "RZ %s %s\n" % (g.qubits[0], g.reps) if g.kind == "RZ" else _GATE_LINE[g.kind] % g.qubits
            for g in seq.gates
        ],
    ]))


def read_circuit(text: str) -> GateSequence:
    lines = _content_lines(text)
    headers: dict[str, str] = {}
    gates: list[Gate] = []
    for lineno, line in lines:
        parts = line.split()
        key = parts[0]
        if key in ("qubits", "ancillas", "theta", "globalphase"):
            if len(parts) != 2:
                raise FormatError(f"header {key} takes one value", lineno)
            headers[key] = parts[1]
        elif key in ("X", "CNOT", "CCNOT", "RZ"):
            try:
                args = [int(p) for p in parts[1:]]
            except ValueError:
                raise FormatError(f"bad gate arguments in {line!r}", lineno) from None
            try:
                if key == "RZ":
                    if len(args) != 2:
                        raise ValueError("RZ takes qubit and repetition count")
                    gates.append(Gate("RZ", (args[0],), reps=args[1]))
                else:
                    gates.append(Gate(key, tuple(args)))
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None
        else:
            raise FormatError(f"unknown line {line!r}", lineno)
    for required in ("qubits", "ancillas"):
        if required not in headers:
            raise FormatError(f"missing header '{required}'")
    sizes = {}
    for key in ("qubits", "ancillas"):
        try:
            sizes[key] = int(headers[key])
        except ValueError:
            raise FormatError(f"bad header value: header {key} {headers[key]!r}") from None
        if sizes[key] < 0:
            raise FormatError(f"header {key} must be nonnegative, got {sizes[key]}")
    try:
        seq = GateSequence(
            n_data=sizes["qubits"],
            n_anc=sizes["ancillas"],
            gates=gates,
            theta=float(headers["theta"]) if "theta" in headers else GOLDEN_THETA,
            global_phase=float(headers.get("globalphase", "0")),
        )
    except ValueError as exc:
        raise FormatError(f"bad header value: {exc}") from None
    try:
        seq.validate()
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return seq


# ------------------------------------------------------- classical codes

def write_code(code: BinaryCode, fp: TextIO) -> None:
    """Header `n <len> k <dim>`, then k rows of 0/1 characters."""
    fp.write(f"n {code.n} k {code.k}\n")
    for row in code.generator:
        fp.write("".join(str(int(b)) for b in row) + "\n")


def read_code(text: str) -> BinaryCode:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty code file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "n" or parts[2] != "k":
        raise FormatError(f"expected header 'n <len> k <dim>', got {header!r}", lineno)
    try:
        n, k = int(parts[1]), int(parts[3])
    except ValueError:
        raise FormatError("bad header values", lineno) from None
    if len(lines) - 1 != k:
        raise FormatError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        if len(line) != n or set(line) - {"0", "1"}:
            raise FormatError(f"expected {n} binary characters, got {line!r}", lineno)
        rows.append([int(ch) for ch in line])
    return BinaryCode.from_rows(rows)


# -------------------------------------------- permutation-with-phases gates

def write_perm(p: PermutationWithPhases, fp: TextIO) -> None:
    """Lines `s-bits -> t-bits phase=<radians>` for every basis string s."""
    if p.n == 0:
        raise ValueError("a 0-qubit gate has no bit-string labels")
    label = f"0{p.n}b"  # index_to_bits without its per-call range check
    bits = [format(s, label) for s in range(1 << p.n)]
    # Each distinct phase is formatted once, keyed on its bit pattern: -0.0
    # and 0.0 compare equal but are written differently.
    keys, which = np.unique(
        np.asarray(p.phases, dtype=np.float64).view(np.int64), return_inverse=True
    )
    text = [_fmt(x) for x in keys.view(np.float64).tolist()]
    perm, which = np.asarray(p.perm).tolist(), which.tolist()
    fp.write("".join(
        f"{b} -> {bits[t]} phase={text[i]}\n" for b, t, i in zip(bits, perm, which)
    ))


def read_perm(text: str) -> PermutationWithPhases:
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty gate file")
    n = None
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[1] != "->" or not parts[3].startswith("phase="):
            raise FormatError("expected 's-bits -> t-bits phase=<radians>'", lineno)
        sb, tb = parts[0], parts[2]
        if n is None:  # the line count bounds the arrays before they exist
            n = len(sb)
            if len(lines) != 1 << n:
                raise FormatError(f"expected all {1 << n} source strings exactly once")
            perm, phases = np.full(1 << n, -1), np.zeros(1 << n)
        if len(sb) != n or len(tb) != n or set(sb + tb) - {"0", "1"}:
            raise FormatError(f"bad bit strings {sb!r} {tb!r}", lineno)
        try:
            phase = float(parts[3][len("phase="):])
        except ValueError:
            raise FormatError("bad phase value", lineno) from None
        s = int(sb, 2)
        if perm[s] >= 0:
            raise FormatError(f"duplicate source string {sb}", lineno)
        perm[s], phases[s] = int(tb, 2), phase
    try:
        return PermutationWithPhases(n, perm, phases)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


def write_file(path: str, writer, obj) -> None:
    """Render obj in full, then open path and write it once: a writer that
    refuses obj leaves no file, and an existing one as it was."""
    buf = StringIO()
    writer(obj, buf)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(buf.getvalue())
