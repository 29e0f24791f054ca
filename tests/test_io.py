import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpgates import (
    BinaryCode,
    Gate,
    GateSequence,
    PermutationWithPhases,
    build_css,
    lift_logical,
    random_bp,
    synthesize,
    zx_decompose,
)
from bpgates import io
from bpgates.io import (
    FormatError,
    parse_complex,
    read_circuit,
    read_code,
    read_matrix,
    read_perm,
    read_zx,
    write_circuit,
    write_code,
    write_matrix,
    write_perm,
    write_zx,
)
from bpgates.linalg import index_to_bits, require_dense_cap
from bpgates.verify import to_unitary
from conftest import random_near_bp, random_unitary, repetition_pair


def dumps(writer, obj) -> str:
    import io as _io

    buf = _io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


def test_complex_entry_roundtrip():
    values = [
        0j,
        1 + 0j,
        -1.5e-17 + 2.25j,
        complex(np.pi, -np.e),
        complex(-7.1e300, 3e-300),
    ]
    for z in values:
        assert parse_complex(io._ENTRY % (z.real, z.imag)) == z


def test_parse_complex_errors():
    with pytest.raises(FormatError):
        parse_complex("1+2")
    with pytest.raises(FormatError):
        parse_complex("nonsensei")


def test_matrix_roundtrip(rng):
    for n in (1, 2, 3):
        U = random_unitary(n, rng)
        text = dumps(write_matrix, U)
        assert np.array_equal(read_matrix(text), U)


def test_matrix_comments_and_errors(monkeypatch):
    text = "# a comment\nn 1\n1+0i 0+0i\n0+0i 1+0i\n"
    assert np.array_equal(read_matrix(text), np.eye(2))
    # CRLF endings, tabs and runs of spaces: read entry by entry
    for text in (
        "n 1\n1+0i\t 0+0i\n0+0i   1+0i\n",
        "n 1\r\n1+0i 0+0i\r\n0+0i 1+0i\r\n",
        "n\t1\n1+0i\t0+0i\n\t0+0i 1+0i\t\n",
        "n   1\n  1+0i    0+0i\n0+0i  1+0i  \n",
    ):
        assert np.array_equal(read_matrix(text), np.eye(2))
    with pytest.raises(FormatError, match="line 1"):
        read_matrix("bogus header\n")
    with pytest.raises(FormatError):
        read_matrix("n 1\n1+0i 0+0i\n")  # missing row
    with pytest.raises(FormatError, match="line 2"):
        read_matrix("n 1\n1+0i\n0+0i 1+0i\n")  # short row
    # `n -1` once failed with "negative shift count"
    with pytest.raises(FormatError, match="line 1: header n must be nonnegative, got -1"):
        read_matrix("n -1\n1+0i\n")

    # `n 11` is refused at the header: with 2048 rows (here of one entry
    # each), the rows were once read before the width was refused
    def parse(*args):
        raise AssertionError("parsed an entry of a matrix past the dense cap")

    monkeypatch.setattr(io, "parse_complex", parse)
    with pytest.raises(ValueError, match="11 qubits exceeds dense cap 10"):
        read_matrix("n 11\n" + "1+0i\n" * 2048)


def write_matrix_rows(U, fp):
    """The writer write_matrix replaced: one formatted line per row."""
    U = np.asarray(U, dtype=complex)
    fp.write(f"n {U.shape[0].bit_length() - 1}\n")
    for row in U:
        fp.write(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n")


def test_write_matrix_matches_row_writer(rng):
    for n in range(1, 6):
        for U in (random_unitary(n, rng), to_unitary(random_bp(n, rng))):
            signed = U.copy()  # -0.0 and 0.0 print differently
            signed.real[0, :2] = -0.0
            signed.imag[-1, -2:] = -0.0
            for M in (U, signed, U.T):
                assert dumps(write_matrix, M) == dumps(write_matrix_rows, M)
    assert dumps(write_matrix, np.array([[complex(-0.0, -0.0)]])) == "n 0\n-0-0i\n"


def bits(z: complex) -> bytes:
    return np.array([z.real, z.imag]).tobytes()


# Entries the fast path must read as parse_complex does: the guards'
# corners (a lone or missing sign, exponent signs, a bare `i` unit) and
# what float() accepts beyond plain decimals.
PARSER_CORPUS = [
    "2i", "-1e-5i", "1+i", "1-i", "nani", "1e5+-2i", "1e+2i", "(1+2i)",
    "1+2j", "1+2ji", "1_0+0i", "1+infi", "1-nani", "infinity+0i", "-0-0i",
    "+1+1i", ".5-.5i", "1E5-1E-5i", "0x1+2i", "-nan+1i", "1_0-infi",
]


def test_read_matrix_reads_the_parse_complex_language(rng):
    for tok in PARSER_CORPUS:
        try:
            want = parse_complex(tok)
        except FormatError:
            want = None
        try:
            got = read_matrix(f"n 0\n{tok}\n")[0, 0]
        except FormatError as exc:
            assert want is None, tok
            assert str(exc).startswith("line 2: "), tok
            continue
        assert want is not None, tok
        assert bits(got) == bits(want), tok
    # the same entries two to a row, so that a refused token can sit
    # beside an accepted one whose sign count makes up for it
    accepted = [t for t in PARSER_CORPUS if not _refused(t)]
    for tok in PARSER_CORPUS:
        for other in accepted:
            text = f"n 1\n0+0i 1+0i\n{other} {tok}\n"
            if _refused(tok):
                with pytest.raises(FormatError, match="^line 3: "):
                    read_matrix(text)
            else:
                M = read_matrix(text)
                assert bits(M[1, 0]) == bits(parse_complex(other))
                assert bits(M[1, 1]) == bits(parse_complex(tok))
    # the accepted entries in the last row of a 7-qubit file: the blocks
    # before it are read by the whole-block passes, its own rows entry by entry
    lines = dumps(write_matrix, random_unitary(7, rng)).splitlines()
    lines[-1] = " ".join(accepted + lines[-1].split()[len(accepted):])
    text = "\n".join(lines) + "\n"
    assert read_matrix(text).tobytes() == read_matrix_by_entry(text).tobytes()


def test_byte_guards_refuse_a_piece_as_it_stands_unless_written(rng):
    # read_matrix hands _row_values a piece of rows as it stands: the guards
    # refuse every corpus token parse_complex refuses, and every layout that
    # dropping comment and blank lines or stripping lines would change, so
    # a piece they take is its own content rows
    accepted = [t for t in PARSER_CORPUS if not _refused(t)]
    for tok in PARSER_CORPUS:
        for row, dim in [(tok, 1)] + [(f"{other} {tok}", 2) for other in accepted]:
            got = io._row_values(f"{row}\n".encode(), dim)
            if _refused(tok):
                assert got is None, row
            elif got is not None:
                assert bits(got[0, -1]) == bits(parse_complex(tok)), row
    rows = dumps(write_matrix, random_unitary(3, rng)).splitlines()[1:]
    written = "\n".join(rows) + "\n"
    assert io._row_values(written.encode(), 8).tobytes() == read_matrix("n 3\n" + written).tobytes()
    for layout in (
        written[:-1],  # no newline after the last row
        "\n" + written,  # a blank line
        written.replace("\n", "\n\n", 1),
        " " + written,  # spaces around a line
        written.replace("\n", " \n", 1),
        written.replace("\n", "\n ", 1),
        written.replace("\n", "\r\n"),
        written.replace(" ", "\t", 1),
        written.replace(" ", "  ", 1),
        written + "# a comment\n",
        written.replace("\n", "\n#\n", 1),
    ):
        assert io._row_values(layout.encode(), 8) is None, layout


def _refused(tok: str) -> bool:
    try:
        parse_complex(tok)
    except FormatError:
        return True
    return False


def read_matrix_by_entry(text):
    """Reference reader: the header, the row count, then parse_complex on
    each token of each content line, as matrix files were once read."""
    lines = [(i, line.strip()) for i, line in enumerate(text.splitlines(), start=1)]
    lines = [(i, line) for i, line in lines if line and not line.startswith("#")]
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
    require_dense_cap(n)
    dim = 1 << n
    if len(lines) - 1 != dim:
        raise FormatError(f"expected {dim} matrix rows, found {len(lines) - 1}")
    M = np.empty((dim, dim), dtype=complex)
    for r, (lineno, line) in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != dim:
            raise FormatError(f"expected {dim} entries, found {len(tokens)}", lineno)
        M[r] = [parse_complex(tok, lineno) for tok in tokens]
    return M


def entry_by_entry_forbidden(monkeypatch):
    """Make reading any row entry by entry fail the test."""
    monkeypatch.setattr(io, "_row_entries", lambda *row: pytest.fail("a row was read entry by entry"))


# Entries whose reading tests correct rounding: ±0, subnormals, the largest
# subnormal, 17-digit values on either side of a halfway point between two
# doubles (1 + 2^-53, 2^53 + 1, half the least subnormal), and an overflow.
EDGE_ENTRIES = [
    "0+0i", "-0-0i", "-0+0i", "5e-324-4.9406564584124654e-324i",
    "2.2250738585072009e-308+2.2250738585072014e-308i",
    "1.0000000000000001+1.0000000000000002i", "9007199254740993-9007199254740995i",
    "2.4703282292062327e-324-2.4703282292062328e-324i",
    "1.7976931348623157e308+1e309i", "-1.0000000000000000000001e-5+.5i",
]


def test_read_matrix_matches_entry_parser(rng, monkeypatch):
    # every text here is read by the whole-block passes
    entry_by_entry_forbidden(monkeypatch)
    for n in range(1, 6):
        for U in (random_unitary(n, rng), to_unitary(random_bp(n, rng))):
            U = U * 10.0 ** rng.integers(-300, 300, size=U.shape)
            U.real[0, 0] = -0.0
            text = dumps(write_matrix, U)
            got, want = read_matrix(text), read_matrix_by_entry(text)
            assert got.tobytes() == want.tobytes() == U.tobytes()
    # several blocks of rows, with tokens of mixed lengths and the edge
    # entries at random places
    for n in (7, 8):
        U = random_unitary(n, rng) * 10.0 ** rng.integers(-320, 300, size=(1 << n, 1 << n))
        rows = [line.split() for line in dumps(write_matrix, U).splitlines()[1:]]
        for entry in EDGE_ENTRIES * 8:
            rows[rng.integers(1 << n)][rng.integers(1 << n)] = entry
        text = f"n {n}\n" + "".join(" ".join(row) + "\n" for row in rows)
        assert len(text) > 4 * io._PIECE_CHARS
        assert read_matrix(text).tobytes() == read_matrix_by_entry(text).tobytes()


def test_written_gates_are_read_in_whole_blocks(rng, monkeypatch):
    # the bench's three kinds of 7-qubit gate: no row is read entry by
    # entry, and every value is the per-entry reader's, bit for bit
    entry_by_entry_forbidden(monkeypatch)
    for G in (to_unitary(random_bp(7, rng)), random_unitary(7, rng), random_near_bp(7, rng)):
        text = dumps(write_matrix, G)
        got, want = read_matrix(text), read_matrix_by_entry(text)
        assert got.tobytes() == want.tobytes() == G.tobytes()


def test_the_c_reader_receives_only_the_nonzero_entries(rng, monkeypatch):
    # a written 7-qubit BP gate: its 2^14 - 2^7 exact `0+0i` tokens are read
    # as +0+0j without the C reader, which converts the 2^7 others
    loadtxt, tokens = np.loadtxt, []

    def counted(*args, **kwargs):
        tokens.append(len(args[0].getvalue().split()))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    entry_by_entry_forbidden(monkeypatch)
    G = to_unitary(random_bp(7, rng))
    text = dumps(write_matrix, G)
    assert text.count(" 0+0i") + text.count("\n0+0i") == (1 << 14) - (1 << 7)
    assert read_matrix(text).tobytes() == read_matrix_by_entry(text).tobytes() == G.tobytes()
    assert len(tokens) > 1 and sum(tokens) == 1 << 7


def test_entries_the_c_reader_refuses_are_named_by_the_entry_reader(rng, monkeypatch):
    # `1.2.3` and `1ee5` pass the byte guards, with one split sign each, so
    # their block reaches numpy's reader, which refuses it as float() does;
    # the per-entry reader then names the line. In a BP gate's mostly-zero
    # block the reader receives the entry among the block's nonzero tokens.
    loadtxt, converted = np.loadtxt, []

    def counted(*args, **kwargs):
        converted.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    for G in (random_unitary(7, rng), to_unitary(random_bp(7, rng))):
        lines = dumps(write_matrix, G).splitlines()
        for bad in ("1.2.3+0i", "1ee5+0i"):
            row = lines[71].split()
            row[9] = bad
            text = "\n".join(lines[:71] + [" ".join(row)] + lines[72:]) + "\n"
            converted.clear()
            with pytest.raises(FormatError, match=f"^line 72: cannot parse complex entry '{re.escape(bad)}'$"):
                read_matrix(text)
            assert f"{bad[:-1]}j" in converted[-1][0].getvalue().split()  # the block with the entry
            assert io._row_values(f"{bad} 0+1i\n".encode(), 2) is None


def test_read_matrix_names_the_line_of_a_bad_entry(rng, monkeypatch):
    rows = ["1+0i 0+0i 0+0i 0+0i"] * 4
    for bad in ("2i", "1+i", "1e+2i", "1+2j", "1+-2i"):
        text = "n 2\n" + "\n".join(rows[:2] + [f"0+0i {bad} 1+0i 0+0i"] + rows[3:]) + "\n"
        with pytest.raises(FormatError, match=f"^line 4: .*{re.escape(bad)}"):
            read_matrix(text)
    # faults whose counts balance over a block: a token with two split signs
    # beside one with none, rows of 3 and 1 entries, an empty line counted
    # in place of a row
    for text, message in (
        ("n 1\n1+2+3i 2i\n0+0i 1+0i\n", "line 2: cannot parse complex entry '1+2+3i'"),
        ("n 1\n2i 1+2+3i\n0+0i 1+0i\n", "line 2: cannot parse complex entry '2i'"),
        ("n 1\n1+0i 0+0i 0+0i\n1+0i\n", "line 2: expected 2 entries, found 3"),
        ("n 1\n\n1+0i 0+0i\n", "expected 2 matrix rows, found 1"),
        # a faulty row and a missing one: rows are read in line order
        ("n 1\n1+2+3i 0+0i\n", "line 2: cannot parse complex entry '1+2+3i'"),
        # rows past the 2^n-th are counted, not read
        ("n 1\n1+0i 0+0i\n0+0i 1+0i\n0+0i 1+0i\nbogus\n", "expected 2 matrix rows, found 4"),
        # and not stored when their piece is read whole-array
        ("n 1\n1+0i 0+0i\n0+0i 1+0i\n0+0i 1+0i\n", "expected 2 matrix rows, found 3"),
    ):
        with pytest.raises(FormatError) as got:
            read_matrix(text)
        assert str(got.value) == message
    # a fault in the last row, so the last block, of an 8-qubit file: the
    # rows of the blocks before it are not read again entry by entry
    lines = dumps(write_matrix, random_unitary(8, rng)).splitlines()
    assert sum(map(len, lines)) > 40 * io._PIECE_CHARS
    parsed = []

    def counted(token, lineno=None):
        parsed.append(lineno)
        return parse_complex(token, lineno)

    monkeypatch.setattr(io, "parse_complex", counted)
    for bad in ("1.2.3+0i", "1+2+3i", "1e5i"):
        row = lines[-1].split()
        row[100] = bad
        for text in ("\n".join(lines[:-1] + [" ".join(row)]) + "\n",
                     "\r\n".join(lines[:-1] + [" ".join(row)])):
            parsed.clear()
            with pytest.raises(FormatError, match=f"^line 257: cannot parse complex entry '{re.escape(bad)}'"):
                read_matrix(text)
            assert 0 < len(parsed) < 16 * 256


def hand_made(text, rng):
    """text with a leading comment, comment and blank lines between its
    lines, spaces around each line and CRLF endings."""
    lines = ["# a hand-made gate"]
    for line in text.splitlines():
        lines += [" " * rng.integers(3) + line + " " * rng.integers(3)]
        lines += [["", "  # a comment", " "][rng.integers(3)]] * rng.integers(2)
    return "\r\n".join(lines) + "\r\n"


def test_hand_made_layouts_are_read_whole_array(rng, monkeypatch):
    entry_by_entry_forbidden(monkeypatch)
    for n in (7, 8):
        for G in (to_unitary(random_bp(n, rng)), random_unitary(n, rng)):
            text = hand_made(dumps(write_matrix, G), rng)
            assert len(text) > io._PIECE_CHARS  # more than one piece
            assert read_matrix(text).tobytes() == read_matrix_by_entry(text).tobytes() == G.tobytes()


def test_a_refused_piece_is_read_entry_by_entry_alone(rng, monkeypatch):
    # `1_0+0i` passes float() but not the byte guards: the piece of rows that
    # holds it is read entry by entry, every other piece whole-array
    lines = dumps(write_matrix, random_unitary(8, rng)).splitlines()
    row = lines[129].split()
    row[7] = "1_0+0i"
    lines[129] = " ".join(row)
    text = "\n".join(lines) + "\n"
    pieces, parsed, row_values = [], [], io._row_values

    def piece(block, dim):
        values = row_values(block, dim)
        pieces.append((block.count(b"\n"), values is not None))
        return values

    def counted(token, lineno=None):
        parsed.append(lineno)
        return parse_complex(token, lineno)

    monkeypatch.setattr(io, "_row_values", piece)
    monkeypatch.setattr(io, "parse_complex", counted)
    assert read_matrix(text).tobytes() == read_matrix_by_entry(text).tobytes()
    refused = [k for k, (_, read) in enumerate(pieces) if not read]
    assert len(refused) == 1 and 0 < refused[0] < len(pieces) - 1
    first = 2 + sum(rows for rows, _ in pieces[:refused[0]])
    rows = range(first, first + pieces[refused[0]][0])
    assert 130 in rows
    assert parsed == [lineno for lineno in rows for _ in range(256)]


# The bytes a row of the written layout is made of.
ROW_BYTES = "0123456789.eE+-i"


# Tokens over the row bytes: written entries, entries of drawn parts with
# near misses among them, and any text.
_number = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(lambda x: f"{x:.17g}"),
    st.text("0123456789.eE+-", min_size=1, max_size=8),
)
ROW_TOKENS = st.one_of(
    st.tuples(st.sampled_from(["", "+", "-"]), _number, st.sampled_from("+-"), _number)
    .map(lambda parts: "".join(parts) + "i"),
    st.text(ROW_BYTES, min_size=1, max_size=12),
    # the exact zero token, which skips the C reader, and its near misses
    st.sampled_from(["0+0i", "-0+0i", "0-0i", "+0+0i", "00+0i", "0+0.i", "0+0ii"]),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_matrix_agrees_with_entry_reader(data):
    # any text over the row bytes reads as the per-entry reader reads it, or
    # is refused with that reader's error and line: a written matrix, with
    # 0.0 and -0.0 drawn often so that it holds exact `0+0i` tokens, with
    # up to three of its tokens replaced, and with comment and blank lines,
    # spaces and tabs around lines and LF or CRLF endings drawn in
    n = data.draw(st.integers(0, 3))
    dim = 1 << n
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_infinity=False, allow_nan=False))
    values = data.draw(st.lists(part, min_size=2 * dim * dim, max_size=2 * dim * dim))
    rows = [line.split() for line in dumps(write_matrix, np.reshape(values, (dim, -1)).view(complex))
            .splitlines()[1:]]
    for _ in range(data.draw(st.integers(0, 3))):
        rows[data.draw(st.integers(0, dim - 1))][data.draw(st.integers(0, dim - 1))] = data.draw(ROW_TOKENS)
    pad, filler = st.sampled_from(["", " ", "\t", "  "]), st.sampled_from(["", " ", "# c", " #\t"])
    end = st.sampled_from(["\n", "\r\n"])
    text = "".join(
        data.draw(pad) + line + data.draw(pad) + data.draw(end)
        + "".join(f + data.draw(end) for f in data.draw(st.lists(filler, max_size=2)))
        for line in [f"n {n}"] + [" ".join(row) for row in rows]
    )
    try:
        want = read_matrix_by_entry(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            read_matrix(text)
        assert (str(got.value), got.value.lineno) == (str(exc), exc.lineno)
    else:
        assert read_matrix(text).tobytes() == want.tobytes()


def test_zx_roundtrip(rng):
    for n in (1, 2):
        d = zx_decompose(random_unitary(n, rng))
        text = dumps(write_zx, d)
        back = read_zx(text)
        assert back.n == d.n
        assert set(back.coeffs) == set(d.coeffs)
        for uv, a in d.coeffs.items():
            assert back.coeffs[uv] == a
        assert np.array_equal(back.array(), d.array())


def test_zx_sorted_lexicographically(rng):
    d = zx_decompose(random_unitary(2, rng))
    lines = dumps(write_zx, d).splitlines()
    keys = [tuple(line.split()[:2]) for line in lines]
    assert keys == sorted(keys)


def write_zx_sorted_labels(d, fp):
    """The writer write_zx replaced: every stored (u, v) key, sorted on its
    bit-string labels."""
    for (u, v) in sorted(d.coeffs, key=lambda uv: (index_to_bits(uv[0], d.n), index_to_bits(uv[1], d.n))):
        a = d.coeffs[(u, v)]
        fp.write(
            f"{index_to_bits(u, d.n)} {index_to_bits(v, d.n)} {format(a.real, '.17g')} {format(a.imag, '.17g')}\n"
        )


def test_write_zx_matches_sorted_label_writer(rng):
    for n in range(1, 6):
        for G in (random_unitary(n, rng), to_unitary(random_bp(n, rng))):
            d = zx_decompose(G)
            assert dumps(write_zx, d) == dumps(write_zx_sorted_labels, d)
            assert dumps(write_zx, read_zx(dumps(write_zx, d))) == dumps(write_zx, d)


def test_zx_parse_errors():
    with pytest.raises(FormatError, match="line 2: repeated pair 0 1"):
        read_zx("0 1 1 0\n0 1 0.5 0\n")
    with pytest.raises(FormatError, match="line 3: repeated pair 1 1"):
        read_zx("1 1 0 0\n0 1 1 0\n1 1 0 0\n")  # a repeated explicit zero too
    with pytest.raises(FormatError, match="line 2: bad bit strings"):
        read_zx("0 1 1 0\n00 01 1 0\n")
    with pytest.raises(FormatError, match="line 1: bad coefficient value"):
        read_zx("0 1 one 0\n")
    # 40-bit labels are refused at the first line, before a 4^40-entry
    # array is asked for
    wide = "0" * 40
    with pytest.raises(ValueError, match="^40 qubits exceeds dense cap 10$"):
        read_zx(f"{wide} {wide} 1 0\n")


def test_zx_explicit_zero_reads_as_absent():
    d = read_zx("0 0 0 0\n1 1 1 0\n")
    assert dict(d.coeffs) == {(1, 1): 1 + 0j}
    assert dumps(write_zx, d) == "1 1 1 0\n"


def test_circuit_roundtrip(rng):
    report = synthesize(random_bp(2, rng), eps=1e-2)
    seq = report.sequence
    text = dumps(write_circuit, seq)
    back = read_circuit(text)
    assert back.n_data == seq.n_data
    assert back.n_anc == seq.n_anc
    assert back.gates == seq.gates
    assert back.theta == seq.theta  # exact: 17 significant digits
    assert back.global_phase == seq.global_phase


def test_circuit_parse_errors():
    with pytest.raises(FormatError):
        read_circuit("qubits 1\n")  # missing ancillas
    with pytest.raises(FormatError, match="line 3"):
        read_circuit("qubits 1\nancillas 0\nH 0\n")
    with pytest.raises(FormatError, match="line 3"):
        read_circuit("qubits 2\nancillas 0\nCNOT 0 0\n")
    with pytest.raises(FormatError):
        read_circuit("qubits 1\nancillas 0\nX 5\n")  # out of register


def test_circuit_negative_register_sizes():
    # a negative ancilla count once shrank the register to one qubit, and a
    # negative qubit count failed with "negative shift count"
    with pytest.raises(FormatError, match="header ancillas must be nonnegative, got -1"):
        read_circuit("qubits 2\nancillas -1\nX 0\n")
    with pytest.raises(FormatError, match="header qubits must be nonnegative, got -2"):
        read_circuit("qubits -2\nancillas 0\n")
    with pytest.raises(FormatError, match="header qubits"):
        read_circuit("qubits two\nancillas 0\n")


def write_circuit_per_line(seq, fp):
    """Reference writer: one fp.write per header and per gate."""
    fp.write(f"qubits {seq.n_data}\n")
    fp.write(f"ancillas {seq.n_anc}\n")
    fp.write(f"theta {seq.theta:.17g}\n")
    fp.write(f"globalphase {seq.global_phase:.17g}\n")
    for g in seq.gates:
        if g.kind == "RZ":
            fp.write(f"RZ {g.qubits[0]} {g.reps}\n")
        else:
            fp.write(f"{g.kind} {' '.join(str(q) for q in g.qubits)}\n")


def test_write_circuit_matches_per_line_writer(rng):
    seqs = [GateSequence(n_data=0), GateSequence(n_data=3, theta=-0.0, global_phase=1e-300)]
    for n in (1, 3, 5):
        seqs.append(synthesize(random_bp(n, rng), eps=1e-3).sequence)
    seqs.append(GateSequence(n_data=12, n_anc=3, gates=[
        Gate("X", (14,)), Gate("CNOT", (10, 2)), Gate("CCNOT", (0, 11, 13)),
        Gate("RZ", (12,), reps=0), Gate("RZ", (1,), reps=10**15),
    ]))
    for seq in seqs:
        assert dumps(write_circuit, seq) == dumps(write_circuit_per_line, seq)


def test_code_roundtrip():
    code = BinaryCode.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    text = dumps(write_code, code)
    back = read_code(text)
    assert back.n == code.n and back.k == code.k
    assert np.array_equal(back.generator, code.generator)


def test_code_parse_errors():
    with pytest.raises(FormatError, match="line 1"):
        read_code("k 3 n 4\n1100\n0110\n0011\n")
    with pytest.raises(FormatError, match="line 2"):
        read_code("n 4 k 1\n112\n")
    with pytest.raises(FormatError):
        read_code("n 4 k 2\n1100\n")  # row count mismatch
    # a faulty row and a wrong count: rows are read in line order, as matrix
    # and perm rows are, so the row is named
    with pytest.raises(FormatError, match="^line 2: expected 4 binary characters, got '11x0'$"):
        read_code("n 4 k 1\n11x0\n1100\n")


def test_zero_code_roundtrip():
    # C = {0}: the header alone, with no generator row
    zero = BinaryCode.from_rows(np.zeros((0, 3), dtype=np.uint8))
    text = dumps(write_code, zero)
    assert text == "n 3 k 0\n"
    back = read_code(text)
    assert (back.n, back.k, back.generator.shape) == (3, 0, (0, 3))
    assert back.words() == [0]


@pytest.mark.parametrize("text, cause", [
    ("n 0 k 0\n", "line 1: code length n must be at least 1, got 0"),
    ("n -3 k 0\n", "line 1: code length n must be at least 1, got -3"),
    ("n 3 k -1\n", "line 1: code dimension k must be in 0..3, got -1"),
    ("n 3 k 4\n100\n010\n001\n111\n", "line 1: code dimension k must be in 0..3, got 4"),
], ids=["zero-length", "negative-length", "negative-dimension", "dimension-above-length"])
def test_code_header_faults_named(text, cause):
    with pytest.raises(FormatError, match=f"^{re.escape(cause)}$"):
        read_code(text)


def test_perm_roundtrip(rng):
    for n in (1, 2, 3):
        p = random_bp(n, rng)
        back = read_perm(dumps(write_perm, p))
        assert np.array_equal(back.perm, p.perm)
        assert np.array_equal(back.phases, p.phases)
        assert np.array_equal(to_unitary(back), to_unitary(p))


def test_perm_tiny_negative_phase_reads_as_zero():
    # np.mod rounds -1e-17 to 2π, which was once stored and written back
    p = read_perm("0 -> 1 phase=-1e-17\n1 -> 0 phase=-0.0\n")
    assert p.phases.view(np.int64).tolist() == [0, 0]
    assert dumps(write_perm, p) == "0 -> 1 phase=0\n1 -> 0 phase=0\n"


def write_perm_per_line(p, fp):
    """Reference writer: one formatted line per basis string."""
    for s in range(1 << p.n):
        fp.write(
            f"{index_to_bits(s, p.n)} -> {index_to_bits(p.perm[s], p.n)} "
            f"phase={p.phases[s]:.17g}\n"
        )


def test_write_perm_matches_per_line_writer(rng, hamming15):
    # -0.0 and 0.0 compare equal but print differently; the phase memo must
    # keep them apart (PermutationWithPhases maps -0.0 to 0.0, so the -0.0
    # gates are plain namespaces carrying the same three fields). n = 13 and
    # 16 span two and sixteen blocks of rows.
    gates = [SimpleNamespace(n=1, perm=(1, 0), phases=(-0.0, 0.0))]
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, np.nextafter(2 * np.pi, 0), -1.5, 1e300]
    for n in (1, 2, 3, 4, 12, 13, 16):
        g = random_bp(n, rng)
        phases = np.array(g.phases)
        phases[rng.choice(1 << n, min(len(special), 1 << n), replace=False)] = special[:1 << n]
        gates += [g, SimpleNamespace(n=n, perm=g.perm, phases=phases)]
    gates.append(lift_logical(hamming15, random_bp(7, rng)))
    # runs of equal phases, whose keys are sorted one per run: a phase-free
    # gate (one run), -0.0 and 0.0 alternating (no run), a run across the
    # 4096-row block boundary, and a lift onto rep[16] ⊂ even[16]
    g = random_bp(13, rng)
    gates.append(PermutationWithPhases(13, g.perm, np.zeros(1 << 13)))
    gates.append(SimpleNamespace(n=13, perm=g.perm, phases=np.tile([-0.0, 0.0], 1 << 12)))
    phases = np.array(g.phases)
    phases[4000:4200] = 1.25
    phases[4200:4300] = -0.0
    gates.append(SimpleNamespace(n=13, perm=g.perm, phases=phases))
    gates.append(lift_logical(build_css(*repetition_pair(16)), random_bp(14, rng)))
    for g in gates:
        assert dumps(write_perm, g) == dumps(write_perm_per_line, g)
    assert "phase=-0\n" in dumps(write_perm, gates[0])


class Discard:
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)


def test_write_perm_traced_peak_is_bounded(rng):
    # 2^16-row gates into a sink that keeps nothing: a random gate, whose
    # phases form no runs, and a lift onto rep[16] ⊂ even[16], whose phases
    # take 2^14 + 1 values over 54,613 runs. The bounds are the peaks of
    # one np.unique over every row, 140 B/source (9.16 MB) and 2.82 MB: the
    # run temporaries must not raise them.
    import tracemalloc

    gates = [random_bp(16, rng), lift_logical(build_css(*repetition_pair(16)), random_bp(14, rng))]
    for g, bound in zip(gates, (140 << 16, 2.82e6)):
        tracemalloc.start()
        try:
            write_perm(g, Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_read_perm_hands_its_arrays_to_the_gate(rng):
    # read_perm makes its perm and phases arrays read-only, so the gate keeps
    # them: a 2^16-row read peaks below the gate's two arrays plus 1 MB for
    # the pieces, where copying both arrays peaked at 2.69 MB
    import tracemalloc

    g = random_bp(16, rng)
    text = dumps(write_perm, g)
    tracemalloc.start()
    try:
        got = read_perm(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == g
    assert peak < got.perm.nbytes + got.phases.nbytes + (1 << 20)


def test_writers_refuse_zero_qubit_objects():
    # the line formats have no empty label: "0" would read back as 1 qubit
    with pytest.raises(ValueError, match="0-qubit gate has no bit-string labels"):
        dumps(write_perm, PermutationWithPhases(0, [0], [0.0]))
    with pytest.raises(ValueError, match="0-qubit decomposition has no bit-string labels"):
        dumps(write_zx, zx_decompose(np.ones((1, 1), dtype=complex)))


def test_perm_parse_errors():
    with pytest.raises(FormatError, match="line 1"):
        read_perm("0 => 1 phase=0\n")
    with pytest.raises(FormatError):
        read_perm("0 -> 1 phase=0\n")  # missing source string 1
    with pytest.raises(FormatError):
        read_perm("0 -> 1 phase=0\n1 -> 1 phase=0\n")  # not a bijection
    # one line of 40-bit strings: refused by its line count, before any
    # 2^40-entry structure is built
    line = f"{'0' * 40} -> {'0' * 40} phase=0\n"
    with pytest.raises(FormatError, match="expected all 1099511627776 source strings"):
        read_perm(line)
    with pytest.raises(FormatError, match="line 2: duplicate source string 1"):
        read_perm("1 -> 1 phase=0\n1 -> 0 phase=0\n")


def read_perm_per_line(text):
    """Reference reader: one line at a time, as perm files were once read."""
    lines = [(i, line) for i, line in enumerate(map(str.strip, text.splitlines()), start=1)
             if line and line[0] != "#"]
    if not lines:
        raise FormatError("empty gate file")
    n = None
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 4 or parts[1] != "->" or not parts[3].startswith("phase="):
            raise FormatError("expected 's-bits -> t-bits phase=<radians>'", lineno)
        sb, tb = parts[0], parts[2]
        if n is None:
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


@pytest.mark.parametrize("fault", [
    lambda s, t, x: f"{s[:-1]}2 -> {t} phase={x}",
    lambda s, t, x: f"{s} -> {t}0 phase={x}",
    lambda s, t, x: f"{s} => {t} phase={x}",
    lambda s, t, x: f"{s} -> {t} phase={x}x",
    lambda s, t, x: f"{'0' * len(s)} -> {t} phase={x}",
    lambda s, t, x: f"{s} -> {'0' * len(t)} phase={x}",
], ids=["bit-string", "label-width", "arrow", "phase-value", "repeated-source", "not-bijective"])
def test_perm_fault_deep_in_file_named_as_per_line(rng, fault):
    # with newlines, bare carriage returns, and CR and CRLF alternating: a
    # piece is cut after a lone CR, never between a CR and its LF
    lines = dumps(write_perm, random_bp(13, rng)).splitlines()
    row = 6000
    s, _, t, x = lines[row].split()
    lines[row] = fault(s, t, x[len("phase="):])
    for ends in (["\n"], ["\r"], ["\r", "\r\n"]):
        text = "".join(line + ends[i % len(ends)] for i, line in enumerate(lines))
        with pytest.raises(FormatError) as expected:
            read_perm_per_line(text)
        with pytest.raises(FormatError) as got:
            read_perm(text)
        assert str(got.value) == str(expected.value)
        assert got.value.lineno == expected.value.lineno


@pytest.mark.parametrize("text", [
    "0 -> 1 phase=\t0\n1 -> 0 phase=0\n",  # float() would skip the tab
    "0 -> 1 phase=\xa00\n1 -> 0 phase=0\n",  # and a no-break space
    "0 -> 1 p\n1 -> 0 phase=0\n",  # a line shorter than the fixed head
    "0 -> 1 phase=0\n1 -> 0 phase=0 0\n",
    # the right line count, so the bound checked before allocating, which
    # counts characters, passes a file whose short second line is faulty
    "0 -> 1 phase=0\n1 -> 0 p\n",
    # bare CR line ends, and CR and CRLF mixed
    "0 -> 1 phase=0\r1 -> 0 p\r",
    "0 -> 1 phase=0x\r1 -> 0 phase=0",
    "0 -> 1 phase=0\r\n1 -> 0 phase=0\r1 -> 1 phase=0\r\n",
    "0 -> 1 phase=0\r\r\n1 -> 0 phase=0 0\r\n",
])
def test_perm_layout_faults_named_as_per_line(text):
    with pytest.raises(FormatError) as expected:
        read_perm_per_line(text)
    with pytest.raises(FormatError) as got:
        read_perm(text)
    assert str(got.value) == str(expected.value)


def test_perm_layouts_read_alike(rng):
    p = random_bp(5, rng)
    clean = dumps(write_perm, p)
    lines = clean.splitlines()
    order = rng.permutation(len(lines))
    messy = ["# a permutation gate", ""]
    for i in order:
        s, arrow, t, phase = lines[i].split()
        messy += [f"  {s}   {arrow}\t{t}  {phase}   ", "", "   # comment"]
    for text in (
        "\r\n".join(messy) + "\r\n",
        "\n".join(lines[i] for i in order),  # shuffled, no final newline
        clean.replace("\n", "\r\n"),
        # bare CR line ends and no final newline: the bound checked before
        # allocating counts characters, not newlines
        clean.replace("\n", "\r"),
        clean[:-1],
        clean.replace("\n", "\r")[:-1],
    ):
        assert read_perm(text) == p == read_perm_per_line(text)


def test_perm_roundtrip_sixteen_qubits(rng):
    p = random_bp(16, rng)
    back = read_perm(dumps(write_perm, p))
    assert np.array_equal(back.perm, p.perm)
    assert back.phases.view(np.int64).tolist() == p.phases.view(np.int64).tolist()


def test_write_file_streams(rng, tmp_path):
    # the file holds no second copy of the text: write_file's peak is that
    # of write_perm into a sink that keeps nothing, within 10% of the file
    import tracemalloc

    p, path = random_bp(16, rng), tmp_path / "g16.perm"
    tracemalloc.start()
    try:
        write_perm(p, Discard())
        _, sink_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        io.write_file(str(path), write_perm, p)
        _, file_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert file_peak - sink_peak <= 0.1 * path.stat().st_size
    assert read_perm(path.read_text()) == p


def test_perm_pieces_go_to_the_converter_once_per_text(rng, monkeypatch):
    # each piece of a faulty file, in the written layout or with CRLF
    # endings, goes to the whole-array converter at most once per distinct
    # text before the per-line reader names the fault
    calls, whole = [], io._perm_rows

    def counted(piece, sink, row):
        calls.append(piece)
        return whole(piece, sink, row)

    monkeypatch.setattr(io, "_perm_rows", counted)
    lines = dumps(write_perm, random_bp(13, rng)).splitlines()
    lines[-1] = lines[-1] + "x"  # a bad last phase
    text = "\n".join(lines) + "\n"
    for layout in (text, text.replace("\n", "\r\n")):
        calls.clear()
        with pytest.raises(FormatError) as expected:
            read_perm_per_line(layout)
        with pytest.raises(FormatError) as got:
            read_perm(layout)
        assert str(got.value) == str(expected.value) == "line 8192: bad phase value"
        assert got.value.lineno == expected.value.lineno == 8192
        pieces = list(io._pieces(layout))[1:]  # the first line fixes n
        assert len(pieces) > 2 and calls[:len(pieces)] == pieces
        assert len(calls) == len(set(calls)) <= len(pieces) + 1


def parsed_lines(monkeypatch) -> list[int]:
    """The line numbers _perm_fields parses from now on, in order."""
    parsed, fields = [], io._perm_fields

    def recorded(lineno, line):
        parsed.append(lineno)
        return fields(lineno, line)

    monkeypatch.setattr(io, "_perm_fields", recorded)
    return parsed


def last_piece_lines(text: str) -> range:
    """The line numbers of the last piece of text."""
    pieces = list(io._pieces(text))
    first = 1 + sum(piece.count("\n") for piece in pieces[:-1])
    return range(first, first + len(pieces[-1].splitlines()))


@pytest.mark.parametrize("fault", [
    lambda lines: lines[-1] + "x",  # a bad last phase
    lambda lines: lines[20],  # the source of line 21, which the first pieces set
    lambda lines: lines[-2],  # the source of the line before it, in the same piece
], ids=["phase-value", "repeat-across-pieces", "repeat-in-piece"])
def test_perm_fields_parses_only_the_refused_piece(rng, monkeypatch, fault):
    # _perm_fields parses the first line, which fixes n, and then only the
    # lines of the piece the whole-array converter refuses
    parsed = parsed_lines(monkeypatch)
    lines = dumps(write_perm, random_bp(13, rng)).splitlines()
    lines[-1] = fault(lines)
    text = "\n".join(lines) + "\n"
    with pytest.raises(FormatError) as expected:
        read_perm_per_line(text)
    parsed.clear()
    with pytest.raises(FormatError, match="^line 8192: ") as got:
        read_perm(text)
    assert (str(got.value), got.value.lineno) == (str(expected.value), expected.value.lineno)
    last = last_piece_lines(text)
    assert last.stop == 8193 and len(last) < 8192 // 4  # a piece, not the file
    assert parsed == [1, *last]


def test_a_leading_comment_keeps_perm_pieces_whole_array(rng, monkeypatch):
    # a written file with a leading comment line, and its CRLF form: only
    # line 2, the first row, which fixes n, is parsed on its own
    parsed = parsed_lines(monkeypatch)
    p = random_bp(13, rng)
    text = "# a comment\n" + dumps(write_perm, p)
    for layout in (text, text.replace("\n", "\r\n")):
        parsed.clear()
        assert read_perm(layout) == p
        assert parsed == [2]


def test_read_perm_traced_peak_is_its_arrays(rng):
    # a written 2^16-line file, and its bare-CR form, which was once one
    # piece: at most 32 bytes per source besides 1 MB
    import tracemalloc

    p = random_bp(16, rng)
    text = dumps(write_perm, p)
    for layout in (text, text.replace("\n", "\r")):
        tracemalloc.start()
        try:
            assert read_perm(layout) == p
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * (1 << 16) + (1 << 20)


def test_a_faulty_line_is_named_before_a_wrong_count(rng):
    # a missing row or source and a fault at a later line: rows are read in
    # line order, by read_perm as by read_matrix
    lines = dumps(write_perm, random_bp(13, rng)).splitlines()
    lines[5000] = lines[5000] + "x"
    del lines[100]
    with pytest.raises(FormatError, match="^line 5000: bad phase value$") as got:
        read_perm("\n".join(lines) + "\n")
    assert got.value.lineno == 5000
    lines = dumps(write_matrix, random_unitary(7, rng)).splitlines()
    lines[101] = lines[101].replace("i ", "ii ", 1)
    del lines[10]
    bad = lines[100].split()[0]
    with pytest.raises(FormatError, match=f"^line 101: cannot parse complex entry '{re.escape(bad)}'$"):
        read_matrix("\n".join(lines) + "\n")


def test_a_wide_label_is_refused_before_allocating():
    # one line of 40-bit strings: refused by its count, with no 2^40 array
    import tracemalloc

    line = f"{'0' * 40} -> {'0' * 40} phase=0\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^expected all 1099511627776 source strings exactly once$"):
            read_perm(line)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# Faults of a 2^13-line written file, as {line index: new text}.
LATE_PERM_FAULTS = {
    "bits": lambda lines: {5000: "2" + lines[5000][1:]},
    "phase": lambda lines: {4096: lines[4096].replace("phase=", "phase=0x")},
    "comment": lambda lines: {7000: "# one source short"},
    # repeats within a piece or across pieces, and one in a piece ahead of
    # a refused piece
    "repeat-first-block": lambda lines: {10: lines[20]},
    "repeat-across-blocks": lambda lines: {6000: lines[30]},
    "repeat-then-bits": lambda lines: {10: lines[20], 5000: "2" + lines[5000][1:]},
}


@pytest.mark.parametrize("fault", LATE_PERM_FAULTS)
def test_perm_fault_past_first_block_named_as_per_line(rng, fault):
    lines = dumps(write_perm, random_bp(13, rng)).splitlines()
    for i, line in LATE_PERM_FAULTS[fault](lines).items():
        lines[i] = line
    text = "\n".join(lines) + "\n"
    with pytest.raises(FormatError) as expected:
        read_perm_per_line(text)
    with pytest.raises(FormatError) as got:
        read_perm(text)
    assert (str(got.value), got.value.lineno) == (str(expected.value), expected.value.lineno)


# ----------------------------------------- circuit, ZX and code files, streamed

def circuit_text() -> list[str]:
    """The lines of a 3-qubit circuit file of 180K characters."""
    return ["qubits 3", "ancillas 0"] + ["CNOT 0 1", "RZ 2 7"] * 10000


def zx_text() -> list[str]:
    """The lines of an 8-qubit ZX file of 90K characters."""
    return [f"{u:08b} {v:08b} 1 0" for u in range(256) for v in range(16)]


def code_text() -> list[str]:
    """The lines of a 600-bit code file of 200 rows, 120K characters."""
    return ["n 600 k 200"] + ["0" * i + "1" + "0" * (599 - i) for i in range(200)]


# Faults past the first piece, as (lines, {line index: new text}, message).
LATE_FAULTS = {
    "circuit-unknown": (circuit_text, {15000: "H 0"}, "line 15001: unknown line 'H 0'"),
    "circuit-gate": (circuit_text, {15000: "CNOT 2 2", 15002: "CNOT 2 2"},
                     "line 15001: CNOT qubit indices must be distinct"),
    "circuit-arguments": (circuit_text, {19000: "RZ 2"}, "line 19001: RZ takes qubit and repetition count"),
    "circuit-header": (circuit_text, {17000: "qubits 4"}, "line 17001: repeated header qubits"),
    "zx-repeat": (zx_text, {4000: "00000000 00000001 0 0"}, "line 4001: repeated pair 00000000 00000001"),
    "zx-bits": (zx_text, {3000: "0000000 00000001 1 0"}, "line 3001: bad bit strings '0000000' '00000001'"),
    "zx-value": (zx_text, {3500: "11011010 00001100 x 0"}, "line 3501: bad coefficient value"),
    "code-row": (code_text, {150: "0" * 599 + "2"},
                 f"line 151: expected 600 binary characters, got '{'0' * 599}2'"),
    "code-row-and-count": (code_text, {150: "0" * 601, 200: "# one row short"},
                           f"line 151: expected 600 binary characters, got '{'0' * 601}'"),
    "code-count": (code_text, {200: "# one row short"}, "expected 200 generator rows, found 199"),
}


@pytest.mark.parametrize("fault", LATE_FAULTS)
def test_fault_past_the_first_piece_is_named_at_its_line(fault):
    make, faults, message = LATE_FAULTS[fault]
    lines = make()
    for i, line in faults.items():
        lines[i] = line
    text = "\n".join(lines) + "\n"
    assert len(text) > 1 << 16
    reader = {"circuit": read_circuit, "zx": read_zx, "code": read_code}[fault.split("-")[0]]
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        reader(text)


def test_read_circuit_shares_its_gates_as_synthesis_does():
    # 223,863 gates of 2,639 distinct values, each built once: a fresh Gate
    # per line once peaked at 67.7 MB
    import tracemalloc

    seq = synthesize(random_bp(12, np.random.default_rng(12)), eps=1e-3).sequence
    text = dumps(write_circuit, seq)
    tracemalloc.start()
    try:
        back = read_circuit(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.gates == seq.gates
    assert len({id(g) for g in back.gates}) == len(set(back.gates)) < len(back.gates)
    assert peak < 8 << 20


def test_read_zx_traced_peak_is_its_arrays(rng):
    # the coefficient array, the mask of one byte per pair, and 1 MB: a set
    # of label pairs once peaked at 112 MB on 9 qubits
    import tracemalloc

    d = zx_decompose(random_unitary(8, rng))
    text = dumps(write_zx, d)
    tracemalloc.start()
    try:
        back = read_zx(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.array().tobytes() == d.array().tobytes()
    assert peak <= 16 * 4**8 + 4**8 + (1 << 20)
