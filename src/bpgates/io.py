"""Text file formats: matrices, ZX decompositions, circuits, classical
codes, and permutation-with-phases gates.

All formats share the conventions: '#' starts a comment line, blank lines
are ignored, and floating-point values are written with 17 significant
digits so that emit → parse round-trips exactly at double precision.

Matrix and perm files, the large ones, are read by two paths: text in the
layout their writer writes by whole-array passes, and any other text, or
the part of it those passes refuse, by a per-line reader, which names the
line of a fault. A block of matrix rows that passes the byte guards is
converted by one call of numpy's C text reader, which reads the guarded
tokens bit for bit as float() reads their halves.
"""

from __future__ import annotations

import re
import sys
from io import StringIO
from operator import itemgetter
from typing import TextIO

import numpy as np

from .css import BinaryCode
from .linalg import GOLDEN_THETA, bits_index, index_bits, index_labels, num_qubits, require_dense_cap
from .synth import Gate, GateSequence, check_theta
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


# Text of a matrix file handled per whole-array step: temporaries stay O(block).
_MATRIX_BLOCK = 1 << 16

# The class of each byte, as a translate table: 0 for a byte no written row holds.
_SEP, _UNIT, _SIGN, _EXP, _DIGIT = 1, 2, 4, 8, 16
_BYTE_CLASS = bytes(
    _SEP if b in b" \n" else _UNIT if b == ord("i") else _SIGN if b in b"+-"
    else _EXP if b in b"eE" else _DIGIT if b in b"0123456789." else 0
    for b in range(256)
)

_WRITTEN_HEADER = re.compile(r"n ([0-9]+)\n")


def _row_values(block: bytes, dim: int) -> np.ndarray | None:
    """The (rows, dim) entries of a block of whole rows, each ended by a newline, of
    `dim` tokens `a{+|-}bi` made of `0-9 . e E + - i` and separated by single
    spaces; None for any other block. A token's split sign, the `+`/`-` that
    is neither its first byte nor after `e`/`E`, must be its only one: that
    is where parse_complex splits it. The block is converted by one call of
    numpy's C reader with `i` read as `j`; on such tokens it reads each half,
    as float() does, with CPython's correctly rounded conversion, and it
    refuses what float() refuses, such as `1.2.3` or `1ee5`."""
    classes = block.translate(_BYTE_CLASS)
    if b"\0" in classes or classes[0] == _SEP:
        return None
    chars, cls = np.frombuffer(block, dtype=np.uint8), np.frombuffer(classes, dtype=np.uint8)
    # every token ends in `i`, and one space or the row's newline follows each `i`
    unit = cls == _UNIT
    if not np.array_equal(cls[1:] == _SEP, unit[:-1]):
        return None
    ends = np.flatnonzero(unit)
    # `dim` tokens a row: the newlines follow exactly tokens dim, 2 dim, ...
    newline = chars[ends + 1] == ord("\n")
    if np.count_nonzero(newline) * dim != ends.size or not newline[dim - 1::dim].all():
        return None
    # the k-th split sign lies between the ends of tokens k - 1 and k
    splits = np.flatnonzero((cls[1:] == _SIGN) & ((cls[:-1] & (_SEP | _EXP)) == 0)) + 1
    if (splits.size != ends.size or not (splits < ends).all()
            or not (splits[1:] > ends[:-1]).all()):
        return None
    try:
        return np.loadtxt(StringIO(block.replace(b"i", b"j").decode("ascii")), dtype=complex,
                          delimiter=" ", comments=None, ndmin=2)
    except ValueError:  # a half float() refuses, such as `+` or `1.2.3`
        return None


def _read_plain_matrix(text: str) -> tuple[np.ndarray | None, int]:
    """(M, rows): the matrix of a file in the layout write_matrix writes,
    read by whole-array passes over blocks of rows, and how many of its
    leading rows the passes read, all 2^n unless a block is refused. M is
    None for a text whose header or line count is not in that layout. The
    header is checked against the dense cap before any row is read."""
    header = _WRITTEN_HEADER.match(text)
    if header is None:
        return None, 0
    n = int(header[1])
    require_dense_cap(n)
    dim = 1 << n
    if text.count("\n") != dim + 1 or not text.endswith("\n"):
        return None, 0
    M = np.empty((dim, dim), dtype=complex)
    start, rows = header.end(), 0
    while start < len(text):
        end = text.find("\n", min(start + _MATRIX_BLOCK, len(text)) - 1) + 1
        try:
            block = text[start:end].encode("ascii")
        except UnicodeEncodeError:
            break
        values = _row_values(block, dim)
        if values is None:
            break
        M[rows:rows + len(values)] = values
        start, rows = end, rows + len(values)
    return M, rows


def _read_matrix_by_entry(text: str, M: np.ndarray | None = None, rows: int = 0) -> np.ndarray:
    """read_matrix entry by entry with parse_complex: the reading that names
    the line of a fault. Given M, its first `rows` rows already hold the
    first `rows` rows of the text, which are not read again."""
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
    if M is None:
        M = np.empty((dim, dim), dtype=complex)
    for r, (lineno, line) in enumerate(lines[1 + rows:], start=rows):
        tokens = line.split()
        if len(tokens) != dim:
            raise FormatError(f"expected {dim} entries, found {len(tokens)}", lineno)
        M[r] = [parse_complex(tok, lineno) for tok in tokens]
    return M


def read_matrix(text: str) -> np.ndarray:
    """Inverse of write_matrix, with '#' comments, blank lines and any
    spacing. Rows from the first block the whole-array passes refuse are
    read entry by entry, which also reads nan, inf or `1_0` entries."""
    M, rows = _read_plain_matrix(text)
    if M is not None and rows == len(M):
        return M
    return _read_matrix_by_entry(text, M, rows)


# ------------------------------------------------- ZX decompositions

def write_zx(d: ZXDecomposition, fp: TextIO) -> None:
    """Lines `u-bits v-bits re im` for the nonzero coefficients, sorted by u then v."""
    if d.n == 0:
        raise ValueError("a 0-qubit decomposition has no bit-string labels")
    alpha, labels = d.array().T, index_labels(np.arange(1 << d.n), d.n)
    us, vs = np.nonzero(alpha)  # row-major: by u, then v
    if not us.size:  # read_zx refuses a file with no line
        raise ValueError("a decomposition with no coefficient above the tolerance has no lines")
    fp.write("".join(f"{labels[u]} {labels[v]} {_fmt(a.real)} {_fmt(a.imag)}\n"
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
    headers: dict[str, tuple[int, str]] = {}
    gates: list[Gate] = []
    top_reps, top_line = 0, None  # the largest RZ count, whose angle reps·theta/2 is largest
    for lineno, line in _content_lines(text):
        parts = line.split()
        key = parts[0]
        if key in ("qubits", "ancillas", "theta", "globalphase"):
            if len(parts) != 2:
                raise FormatError(f"header {key} takes one value", lineno)
            if key in headers:
                raise FormatError(f"repeated header {key}", lineno)
            headers[key] = (lineno, parts[1])
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
                    if args[1] > top_reps:
                        top_reps, top_line = args[1], lineno
                else:
                    gates.append(Gate(key, tuple(args)))
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None
        else:
            raise FormatError(f"unknown line {line!r}", lineno)
    sizes = {}
    for key in ("qubits", "ancillas"):
        if key not in headers:
            raise FormatError(f"missing header '{key}'")
        try:
            sizes[key] = int(headers[key][1])
        except ValueError:
            raise FormatError(f"bad header value: header {key} {headers[key][1]!r}") from None
        if sizes[key] < 0:
            raise FormatError(f"header {key} must be nonnegative, got {sizes[key]}")
    angles = {"theta": GOLDEN_THETA, "globalphase": 0.0}  # in GateSequence's order
    for key in [k for k in angles if k in headers]:
        lineno, value = headers[key]
        try:
            angles[key] = float(value)
        except ValueError as exc:
            raise FormatError(f"bad header value: {exc}") from None
        if not np.isfinite(angles[key]):
            raise FormatError(f"header {key} must be finite, got {value}", lineno)
        if key == "theta":
            try:
                check_theta(angles[key])
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None
    if top_reps > sys.float_info.max or not np.isfinite(0.5 * top_reps * angles["theta"]):
        raise FormatError("RZ count too large: reps·theta/2 is not a finite float", top_line)
    seq = GateSequence(sizes["qubits"], sizes["ancillas"], gates, *angles.values())
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
    if n < 1:
        raise FormatError(f"code length n must be at least 1, got {n}", lineno)
    if not 0 <= k <= n:
        raise FormatError(f"code dimension k must be in 0..{n}, got {k}", lineno)
    if len(lines) - 1 != k:
        raise FormatError(f"expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        if len(line) != n or set(line) - {"0", "1"}:
            raise FormatError(f"expected {n} binary characters, got {line!r}", lineno)
        rows.append([int(ch) for ch in line])
    # k = 0 is the zero code {0}, whose generator has no rows
    return BinaryCode.from_rows(np.array(rows, dtype=np.uint8).reshape(k, n))


# -------------------------------------------- permutation-with-phases gates

# Rows of a perm file handled per whole-array step: temporaries stay O(block).
_PERM_BLOCK = 4096


def write_perm(p: PermutationWithPhases, fp: TextIO) -> None:
    """Lines `s-bits -> t-bits phase=<radians>` for every basis string s,
    built as ASCII rows one block of basis strings at a time."""
    n = p.n
    if n == 0:
        raise ValueError("a 0-qubit gate has no bit-string labels")
    # Each distinct phase is formatted once, keyed on its bit pattern: -0.0
    # and 0.0 compare equal but are written differently. The tails form a
    # table padded with NULs, which are dropped from each block of rows.
    keys, which = np.unique(np.asarray(p.phases, dtype=np.float64).view(np.uint64),
                            return_inverse=True)
    tails = (" phase=%.17g\n" * keys.size) % tuple(keys.view(np.float64).tolist())
    table = np.array(tails.encode("ascii").splitlines(keepends=True))
    table = table.view(np.uint8).reshape(keys.size, -1)
    # blocks start at multiples of 2^low: a source label is the block's bits, then the row's
    size, head = min(_PERM_BLOCK, 1 << n), 2 * n + 4
    low = size.bit_length() - 1
    rows = np.empty((size, head + table.shape[1]), dtype=np.uint8)
    rows[:, n - low:n] = index_bits(np.arange(size), low) + ord("0")
    rows[:, n:n + 4] = np.frombuffer(b" -> ", dtype=np.uint8)
    for start in range(0, 1 << n, size):
        rows[:, :n - low] = index_bits(start >> low, n - low) + ord("0")
        np.add(index_bits(p.perm[start:start + size], n), ord("0"), out=rows[:, n + 4:head])
        np.take(table, which[start:start + size], axis=0, out=rows[:, head:])
        fp.write(rows[rows != 0].tobytes().decode("ascii"))


def _read_plain_perm(text: str) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """(perm, phases, rows) of an ASCII perm file in the layout write_perm
    writes, read by whole-array passes over blocks of lines: perm and phases
    hold what its first `rows` lines say, all 2^n unless a block is refused,
    none if they repeat a source. perm is None for a text of other than 2^n
    lines, n the width of its first label. A block is read only if each line
    is `s-bits -> t-bits phase=<x>` with n-bit labels, single spaces, no other
    whitespace or control character, and float(x) defined: what the passes
    read, the per-line reading reads alike."""
    lines = text.split("\n")
    if lines[-1] == "":
        del lines[-1]
    n, dim = (lines[0].find(" ") if lines else -1), len(lines)
    if n <= 0 or dim != 1 << n:  # before any array is allocated; 2^n lines bound n
        return None, None, 0
    # a line's first `width` characters, with the label columns or-ed with 1
    # so that '0' and '1' both read '1', match the template
    width = 2 * n + 11
    template = np.frombuffer(("1" * n + " -> " + "1" * n + " phase=").encode(), dtype=np.uint8)
    is_label = (template == ord("1")).astype(np.uint8)
    head, tail = itemgetter(slice(0, width)), itemgetter(slice(width, None))
    labels = np.r_[0:n, n + 4:2 * n + 4]  # the columns of the source and target labels
    perm, phases = np.full(dim, -1, dtype=np.int64), np.empty(dim)
    rows = 0
    for start in range(0, dim, _PERM_BLOCK):
        block = lines[start:start + _PERM_BLOCK]
        if min(map(len, block)) <= width:  # a phase value has a character or more
            break
        chars = np.frombuffer("".join(block).encode("ascii"), dtype=np.uint8)
        if np.count_nonzero(chars <= ord(" ")) != 3 * len(block):
            break
        heads = "".join(map(head, block)).encode("ascii")
        grid = np.frombuffer(heads, dtype=np.uint8).reshape(len(block), width)
        if not np.array_equal(grid | is_label, np.broadcast_to(template, grid.shape)):
            break
        try:
            values = np.fromiter(map(float, map(tail, block)), dtype=np.float64, count=len(block))
        except ValueError:
            break
        src, tgt = bits_index((grid[:, labels] & 1).reshape(-1, n)).reshape(-1, 2).T
        perm[src], phases[src] = tgt, values
        rows = start + len(block)
    if np.count_nonzero(perm >= 0) != rows:  # a repeated source sets fewer than it reads
        rows = 0
    return perm, phases, rows


def _perm_fields(lineno: int, line: str) -> tuple[str, str, str]:
    """The source bits, target bits and phase text of one perm line."""
    parts = line.split()
    if len(parts) != 4 or parts[1] != "->" or not parts[3].startswith("phase="):
        raise FormatError("expected 's-bits -> t-bits phase=<radians>'", lineno)
    return parts[0], parts[2], parts[3][len("phase="):]


def _read_perm_by_line(text: str, perm: np.ndarray | None = None,
                       phases: np.ndarray | None = None, rows: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phases) of a perm file read line by line, which names the
    first faulty line. Given rows > 0, perm and phases already hold what the
    first `rows` lines of the text say, and those lines are not read again."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty gate file")
    n = perm.size.bit_length() - 1 if rows else len(_perm_fields(*lines[0])[0])
    if len(lines) != 1 << n:  # before any array is allocated
        raise FormatError(f"expected all {1 << n} source strings exactly once")
    if not rows:
        perm, phases = np.full(1 << n, -1, dtype=np.int64), np.empty(1 << n)
    for lineno, line in lines[rows:]:
        sb, tb, value = _perm_fields(lineno, line)
        if len(sb) != n or len(tb) != n or set(sb + tb) - {"0", "1"}:
            raise FormatError(f"bad bit strings {sb!r} {tb!r}", lineno)
        try:
            phase = float(value)
        except ValueError:
            raise FormatError("bad phase value", lineno) from None
        s = int(sb, 2)
        if perm[s] >= 0:
            raise FormatError(f"duplicate source string {sb}", lineno)
        perm[s], phases[s] = int(tb, 2), phase
    return perm, phases


def read_perm(text: str) -> PermutationWithPhases:
    """Inverse of write_perm, lines in any order, with '#' comments and blank
    lines. The whole-array passes read only ASCII text."""
    # str.split() also splits at whitespace outside ASCII
    perm, phases, rows = _read_plain_perm(text) if text.isascii() else (None, None, 0)
    if perm is None or rows < perm.size:
        perm, phases = _read_perm_by_line(text, perm, phases, rows)
    try:
        return PermutationWithPhases(perm.size.bit_length() - 1, perm, phases)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


class _OpenOnWrite:
    """A text sink that opens path for writing at its first write."""

    def __init__(self, path: str):
        self.path, self.fp = path, None

    def write(self, text: str) -> int:
        if self.fp is None:
            self.fp = open(self.path, "w", encoding="utf-8")
        return self.fp.write(text)


def write_file(path: str, writer, obj) -> None:
    """Stream obj to path as writer renders it. The file is opened at the
    first write, and every writer refuses obj before it writes: a refused obj
    leaves no file, and an existing one as it was."""
    sink = _OpenOnWrite(path)
    try:
        writer(obj, sink)
    finally:
        if sink.fp is not None:
            sink.fp.close()
