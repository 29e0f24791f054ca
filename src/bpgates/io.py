"""Text file formats: matrices, ZX decompositions, circuits, classical
codes, and permutation-with-phases gates.

All formats share the conventions: '#' starts a comment line, blank lines
are ignored, and floating-point values are written with 17 significant
digits so that emit → parse round-trips exactly at double precision.

Every format is read one piece of about _PIECE_CHARS characters at a time,
and no list of a file's lines is made. Circuit, ZX and code files walk
their content lines as _content_lines makes them. Matrix and perm files are
read by one driver, _read_rows: after the first content line (a matrix
header, or a perm row, which fixes n), pieces are read whole-array as they
stand, else as their content lines, else line by line, naming the line of a
fault. Rows of matrix, perm and code files are read in line order, so a
faulty row is named before a wrong row count; rows past the expected count
are only counted. 2^n is bounded before it is allocated: by the dense cap
for a matrix or ZX file, and for a perm file by its text, as 2^n lines hold
2^(n+1) - 1 characters.
"""

from __future__ import annotations

import functools
from io import StringIO
from operator import itemgetter
from typing import Iterator, TextIO

import numpy as np

from .css import BinaryCode
from .linalg import GOLDEN_THETA, bits_index, index_bits, index_labels, num_qubits, require_dense_cap
from .synth import RZ_REPS_CAP, Gate, GateSequence, check_theta
from .verify import PermutationWithPhases
from .zx import CoefficientView, ZXDecomposition


class FormatError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


# Characters of text per piece of content lines: temporaries stay O(piece).
_PIECE_CHARS = 1 << 16


def _line_end(text: str, pos: int) -> int:
    """The index just past the first line end at or after pos, else
    len(text): a newline, or a carriage return and the newline after it, if
    any, so that no cut falls between the two. Windows of doubling width are
    searched, so that a text with no newline, or none but newlines, is not
    scanned to its end for the other."""
    width = 256
    while pos < len(text):
        stop = pos + width
        lf = text.find("\n", pos, stop)
        cr = text.find("\r", pos, stop if lf < 0 else lf)
        if cr >= 0:
            return cr + 2 if text.startswith("\n", cr + 1) else cr + 1
        if lf >= 0:
            return lf + 1
        pos, width = stop, 2 * width
    return len(text)


def _pieces(text: str) -> Iterator[str]:
    """text cut just after line ends: its first line, then pieces of about
    _PIECE_CHARS characters. A cut after a newline, or after a carriage
    return that no newline follows, ends a line of text.splitlines() too, so
    the pieces' lines are the whole text's, and no second copy of it is held."""
    start, size = 0, 1
    while start < len(text):
        end = _line_end(text, min(start + size, len(text)) - 1)
        yield text[start:end]
        start, size = end, _PIECE_CHARS


def _content(piece: str, lineno: int) -> tuple[list[tuple[int, str]], int]:
    """The (line number, stripped line) of each line of a piece that is
    neither blank nor a '#' comment, its first line being line lineno, and
    the number of all its lines."""
    lines = piece.splitlines()
    return [(i, line) for i, line in enumerate(map(str.strip, lines), start=lineno)
            if line and line[0] != "#"], len(lines)


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """The (line number, stripped line) of each content line of text, made
    one piece at a time."""
    lineno = 1
    for piece in _pieces(text):
        lines, count = _content(piece, lineno)
        yield from lines
        lineno += count


def _read_rows(text: str, first, whole, by_line) -> tuple[object, int]:
    """(sink, rows) of a file of rows: sink what first made, None if no line
    has content, and rows the number of content lines that are rows.
    first(lineno, line) reads the first content line and returns (sink, dim,
    the rows it read). Each later piece goes to whole(piece, sink, row), its
    first row being row `row`, as it stands, else as its content lines unless
    they are the same text; whole returns None or the number of lines it took,
    all rows, and stores those below the dim-th, the others being only
    counted. A piece refused both ways goes one line at a time to
    by_line(lineno, line, sink, row), which names the line of a fault."""
    sink, dim, rows, lineno = None, 0, 0, 1
    for piece in _pieces(text):
        taken = whole(piece, sink, rows) if sink is not None else None
        if taken is not None:
            rows, lineno = rows + taken, lineno + taken
            continue
        content, count = _content(piece, lineno)
        lineno += count
        if sink is None:
            if not content:
                continue
            sink, dim, rows = first(*content[0])
            content = content[1:]
        part = content[:max(dim - rows, 0)]
        if part:
            chunk = "\n".join([line for _, line in part] + [""])
            if chunk == piece or whole(chunk, sink, rows) is None:
                for row, (i, line) in enumerate(part, start=rows):
                    by_line(i, line, sink, row)
        rows += len(content)
    return sink, rows


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


# The class of each byte, as a translate table: 0 for a byte no written row holds.
_SEP, _UNIT, _SIGN, _EXP, _DIGIT = 1, 2, 4, 8, 16
_BYTE_CLASS = bytes(
    _SEP if b in b" \n" else _UNIT if b == ord("i") else _SIGN if b in b"+-"
    else _EXP if b in b"eE" else _DIGIT if b in b"0123456789." else 0
    for b in range(256)
)


def _row_values(block: bytes, dim: int) -> np.ndarray | None:
    """The (rows, dim) entries of a block of whole rows, each ended by a newline, of
    `dim` tokens `a{+|-}bi` made of `0-9 . e E + - i` and separated by single
    spaces; None for any other block. A token's split sign, the `+`/`-` that
    is neither its first byte nor after `e`/`E`, must be its only one: that
    is where parse_complex splits it. A token that is exactly `0+0i` is
    +0+0j, as parse_complex reads it, and the others are converted by one
    call of numpy's C reader with `i` read as `j`: the block as it stands
    if it holds no `0+0i`, else its other tokens as one line. On such
    tokens the reader reads each half, as float() does, with CPython's
    correctly rounded conversion, and it refuses what float() refuses, such
    as `1.2.3` or `1ee5`. Near misses such as `-0+0i`, `0-0i` or `00+0i`
    are not exact zeros: the reader converts them, keeping their signs."""
    classes = block.translate(_BYTE_CLASS)
    if b"\0" in classes or classes[0] == _SEP or not block.endswith(b"\n"):
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
    # a token starts just after the separator that follows the `i` before it,
    # so a `0+0i` token's `i` is byte 3 or lies 5 bytes after the one before it
    zero = None
    if ends[0] == 3 or (ends[1:] - ends[:-1] == 5).any():
        starts = np.concatenate(([0], ends[:-1] + 2))
        exact = ((ends - starts == 3) & (chars[starts] == ord("0"))
                 & (chars[starts + 1] == ord("+")) & (chars[starts + 2] == ord("0")))
        if exact.all():
            return np.zeros((ends.size // dim, dim), dtype=complex)
        if exact.any():  # the other tokens, each with the separator after it, as one line
            zero = exact
            block = chars[np.repeat(~zero, ends - starts + 2)].tobytes()[:-1].replace(b"\n", b" ")
    try:
        read = np.loadtxt(StringIO(block.replace(b"i", b"j").decode("ascii")), dtype=complex,
                          delimiter=" ", comments=None, ndmin=2)
    except ValueError:  # a half float() refuses, such as `+` or `1.2.3`
        return None
    if zero is None:
        return read
    values = np.zeros((ends.size // dim, dim), dtype=complex)
    values.reshape(-1)[~zero] = read.ravel()
    return values


def _row_entries(lineno: int, line: str, M: np.ndarray, row: int) -> None:
    """Row `row` of M read from one line with parse_complex, which names
    the line of a fault."""
    tokens = line.split()
    if len(tokens) != len(M):
        raise FormatError(f"expected {len(M)} entries, found {len(tokens)}", lineno)
    M[row] = [parse_complex(tok, lineno) for tok in tokens]


def _matrix_rows(piece: str, M: np.ndarray, row: int) -> int | None:
    """The number of rows of a piece _row_values takes, stored in M from
    row `row` up to its last row; None for a piece it refuses."""
    values = _row_values(piece.encode("ascii"), len(M)) if piece.isascii() else None
    if values is None:
        return None
    M[row:row + len(values)] = values[:max(len(M) - row, 0)]
    return len(values)


def _matrix_header(lineno: int, header: str) -> tuple[np.ndarray, int, int]:
    """(M, 2^n, 0) for a matrix header `n <qubits>`, checked against the
    dense cap before M is allocated."""
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n":
        raise FormatError(f"expected header 'n <qubits>', got {header!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(f"invalid qubit count {parts[1]!r}", lineno) from None
    if n < 0:
        raise FormatError(f"header n must be nonnegative, got {n}", lineno)
    require_dense_cap(n)
    return np.empty((1 << n, 1 << n), dtype=complex), 1 << n, 0


def read_matrix(text: str) -> np.ndarray:
    """Inverse of write_matrix, with '#' comments, blank lines and any
    spacing. A piece of rows is read whole-array if the byte guards of
    _row_values take it, which they do as it stands only if it is its own
    content rows; a piece they refuse both ways is read entry by entry,
    which also reads nan, inf, `1_0`, and tabs or runs of spaces."""
    M, rows = _read_rows(text, _matrix_header, _matrix_rows, _row_entries)
    if M is None:
        raise FormatError("empty matrix file")
    if rows != len(M):
        raise FormatError(f"expected {len(M)} matrix rows, found {rows}")
    return M


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
    an explicit zero, has α = 0; a repeated pair, found by a mask of one
    byte per pair, and more than 10 qubits are refused."""
    alpha = None
    for lineno, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 4:
            raise FormatError("expected 'u-bits v-bits re im'", lineno)
        ub, vb, re_s, im_s = parts
        if alpha is None:  # the width bounds the arrays before they exist
            n = len(ub)
            require_dense_cap(n)
            alpha, seen = np.zeros((1 << n, 1 << n), dtype=complex), bytearray(1 << 2 * n)
        if len(ub) != n or len(vb) != n or set(ub + vb) - {"0", "1"}:
            raise FormatError(f"bad bit strings {ub!r} {vb!r}", lineno)
        v, u = int(vb, 2), int(ub, 2)
        if seen[v << n | u]:
            raise FormatError(f"repeated pair {ub} {vb}", lineno)
        seen[v << n | u] = 1
        try:
            alpha[v, u] = complex(float(re_s), float(im_s))
        except ValueError:
            raise FormatError("bad coefficient value", lineno) from None
    if alpha is None:
        raise FormatError("empty decomposition file")
    alpha.flags.writeable = False
    return ZXDecomposition(n=n, coeffs=CoefficientView(alpha))


# ------------------------------------------------------------- circuits

# The header keys of a circuit file, in the order write_circuit writes them.
_CIRCUIT_HEADERS = ("qubits", "ancillas", "theta", "globalphase")
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


def circuit_sizes(text: str) -> dict[str, int] | None:
    """The `qubits` and `ancillas` headers of a circuit file, if both are
    among the header lines before its first gate line, where write_circuit
    puts them; read without reading the gates. None if either is not there,
    or a header line there is one read_circuit refuses, for it to name."""
    headers: dict[str, str] = {}
    for _, line in _content_lines(text):
        parts = line.split()
        if parts[0] not in _CIRCUIT_HEADERS:
            break
        if len(parts) != 2 or parts[0] in headers:
            return None
        headers[parts[0]] = parts[1]
    try:
        sizes = {key: int(headers[key]) for key in ("qubits", "ancillas")}
    except (KeyError, ValueError):
        return None
    return sizes if min(sizes.values()) >= 0 else None


def read_circuit(text: str) -> GateSequence:
    """Inverse of write_circuit, with '#' comments, blank lines and any
    spacing. Each distinct gate is built and checked once and shared by its
    lines, as synthesis shares it; a refused one is not cached, so every
    line that holds it is refused alike."""
    headers: dict[str, tuple[int, str]] = {}
    gates: list[Gate] = []
    gate = functools.cache(Gate)
    total_reps = 0  # the simulator sums RZ counts in int64
    for lineno, line in _content_lines(text):
        parts = line.split()
        key = parts[0]
        if key in _CIRCUIT_HEADERS:
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
                    gates.append(gate("RZ", (args[0],), args[1]))
                    total_reps += args[1]
                    if total_reps > RZ_REPS_CAP:
                        raise ValueError(f"RZ counts sum past the cap {RZ_REPS_CAP}")
                else:
                    gates.append(gate(key, tuple(args)))
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
    """Inverse of write_code, with '#' comments, blank lines and spaces
    around a line. Rows are read in line order, so a faulty row is named
    before a wrong row count; rows past the k-th are only counted."""
    lines = _content_lines(text)
    first = next(lines, None)
    if first is None:
        raise FormatError("empty code file")
    lineno, header = first
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
    rows, count = [], 0
    for lineno, line in lines:
        if count < k:
            if len(line) != n or set(line) - {"0", "1"}:
                raise FormatError(f"expected {n} binary characters, got {line!r}", lineno)
            rows.append([int(ch) for ch in line])
        count += 1
    if count != k:
        raise FormatError(f"expected {k} generator rows, found {count}")
    # k = 0 is the zero code {0}, whose generator has no rows
    return BinaryCode.from_rows(np.array(rows, dtype=np.uint8).reshape(k, n))


# -------------------------------------------- permutation-with-phases gates

# Rows of a perm file handled per whole-array step: temporaries stay O(block).
_PERM_BLOCK = 4096


def _phase_keys(phases) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of phases, sorted, and the index of each
    phase's among them, as np.unique(patterns, return_inverse=True) gives
    them. np.unique sorts one pattern per run of equal ones, and each run's
    index is spread over its rows. The runs' mask is made twice rather than
    held through np.unique, whose peak it would raise."""
    bits = np.asarray(phases, dtype=np.float64).view(np.uint64)

    def starts() -> np.ndarray:
        return np.r_[True, bits[1:] != bits[:-1]]

    keys, runs = np.unique(bits[starts()], return_inverse=True)
    return keys, runs[np.cumsum(starts()) - 1]


def write_perm(p: PermutationWithPhases, fp: TextIO) -> None:
    """Lines `s-bits -> t-bits phase=<radians>` for every basis string s,
    built as ASCII rows one block of basis strings at a time. Each distinct
    phase is formatted once; _phase_keys sorts one phase per run of equal
    ones, so a lifted gate sorts a few thousand, not one per row."""
    n = p.n
    if n == 0:
        raise ValueError("a 0-qubit gate has no bit-string labels")
    # Each distinct phase is formatted once, keyed on its bit pattern: -0.0
    # and 0.0 compare equal but are written differently. The tails form a
    # table padded with NULs, which are dropped from each block of rows.
    keys, which = _phase_keys(p.phases)
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


def _perm_rows(piece: str, sink: tuple[np.ndarray, np.ndarray], row: int) -> int | None:
    """The number of lines of a piece of lines `s-bits -> t-bits phase=<x>`,
    with n-bit labels, single spaces, no other whitespace and float(x)
    defined, whose sources repeat neither within it nor one an earlier piece
    set: what _perm_line reads alike. Its lines below the 2^n-th, its first
    being row `row`, go to sink = (perm, phases); None for any other piece."""
    perm, phases = sink
    lines = piece.splitlines()  # the lines _content reads
    n = perm.size.bit_length() - 1
    # a line's first `width` characters, with the label columns or-ed with 1
    # so that '0' and '1' both read '1', match the template
    width = 2 * n + 11
    if not piece.isascii() or min(map(len, lines)) <= width:  # a phase has a character
        return None
    chars = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8)
    if np.count_nonzero(chars <= ord(" ")) != 3 * len(lines):
        return None
    template = np.frombuffer(("1" * n + " -> " + "1" * n + " phase=").encode(), dtype=np.uint8)
    is_label = template == ord("1")  # the columns of the source and target labels
    heads = "".join(map(itemgetter(slice(0, width)), lines)).encode("ascii")
    grid = np.frombuffer(heads, dtype=np.uint8).reshape(len(lines), width)
    if not np.array_equal(grid | is_label, np.broadcast_to(template, grid.shape)):
        return None
    try:
        values = np.fromiter(map(float, map(itemgetter(slice(width, None)), lines)),
                             dtype=np.float64, count=len(lines))
    except ValueError:
        return None
    keep = max(perm.size - row, 0)
    src, tgt = bits_index((grid[:keep, is_label] & 1).reshape(-1, n)).reshape(-1, 2).T
    # a source an earlier piece set, or one the piece holds twice, which
    # leaves only one of its row numbers where they are scattered into perm
    if (perm[src] >= 0).any():
        return None
    perm[src] = order = np.arange(src.size)
    if (perm[src] != order).any():
        perm[src] = -1  # as it was
        return None
    perm[src], phases[src] = tgt, values[:keep]
    return len(lines)


def _perm_fields(lineno: int, line: str) -> tuple[str, str, str]:
    """The source bits, target bits and phase text of one perm line."""
    parts = line.split()
    if len(parts) != 4 or parts[1] != "->" or not parts[3].startswith("phase="):
        raise FormatError("expected 's-bits -> t-bits phase=<radians>'", lineno)
    return parts[0], parts[2], parts[3][len("phase="):]


def _perm_line(lineno: int, line: str, sink: tuple[np.ndarray, np.ndarray], row: int,
               fields: tuple[str, str, str] | None = None) -> None:
    """One perm line, or its _perm_fields, read alone into sink = (perm,
    phases), naming the line of a fault."""
    perm, phases = sink
    sb, tb, value = fields or _perm_fields(lineno, line)
    n = perm.size.bit_length() - 1
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


def read_perm(text: str) -> PermutationWithPhases:
    """Inverse of write_perm, lines in any order, with '#' comments, blank
    lines and any spacing. A piece is read whole-array if _perm_rows takes
    it, else line by line. 2^n is bounded by the text's length before any
    array is allocated, whatever the line ends; the full count is checked last."""
    def first(lineno: int, line: str):
        fields = _perm_fields(lineno, line)
        n = len(fields[0])
        if (2 << n) - 1 > len(text):
            raise FormatError(f"expected all {1 << n} source strings exactly once")
        sink = np.full(1 << n, -1, dtype=np.int64), np.empty(1 << n)
        _perm_line(lineno, line, sink, 0, fields)
        return sink, 1 << n, 1

    sink, rows = _read_rows(text, first, _perm_rows, _perm_line)
    if sink is None:
        raise FormatError("empty gate file")
    perm, phases = sink
    if rows != perm.size:
        raise FormatError(f"expected all {perm.size} source strings exactly once")
    for array in sink:  # read-only: the gate keeps them rather than copies
        array.setflags(write=False)
    try:
        return PermutationWithPhases(perm.size.bit_length() - 1, perm, phases)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read()


def read_head(path: str) -> str:
    """The whole lines among the first _PIECE_CHARS characters of the file
    at path, all of it if it is shorter: its headers, read in bounded memory."""
    with open(path, "r", encoding="utf-8") as fp:
        head = fp.read(_PIECE_CHARS)
    return head if len(head) < _PIECE_CHARS else head[:head.rfind("\n") + 1]


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
