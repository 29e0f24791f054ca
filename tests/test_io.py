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
from bpgates.linalg import index_to_bits
from bpgates.verify import to_unitary
from conftest import random_near_bp, random_unitary


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


def _refused(tok: str) -> bool:
    try:
        parse_complex(tok)
    except FormatError:
        return True
    return False


def read_matrix_by_entry(text):
    """Reference reader: parse_complex on each token of each row."""
    lines = text.splitlines()[1:]
    return np.array([[parse_complex(t) for t in line.split()] for line in lines])


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
    def by_entry(text, *read):
        raise AssertionError("a matrix in the written layout was read entry by entry")

    monkeypatch.setattr(io, "_read_matrix_by_entry", by_entry)
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
        assert len(text) > 4 * io._MATRIX_BLOCK
        assert read_matrix(text).tobytes() == read_matrix_by_entry(text).tobytes()


def test_written_gates_are_read_in_whole_blocks(rng, monkeypatch):
    # the bench's three kinds of 7-qubit gate: no row is read entry by
    # entry, and every value is the per-entry reader's, bit for bit
    by_entry = io._read_matrix_by_entry
    for G in (to_unitary(random_bp(7, rng)), random_unitary(7, rng), random_near_bp(7, rng)):
        text = dumps(write_matrix, G)
        want = by_entry(text)
        with monkeypatch.context() as patch:
            patch.setattr(io, "_read_matrix_by_entry", lambda *read: pytest.fail("read entry by entry"))
            got = read_matrix(text)
        assert got.tobytes() == want.tobytes() == G.tobytes()


def test_entries_the_c_reader_refuses_are_named_by_the_entry_reader(rng, monkeypatch):
    # `1.2.3` and `1ee5` pass the byte guards, with one split sign each, so
    # their block reaches numpy's reader, which refuses it as float() does;
    # the per-entry reader then names the line
    lines = dumps(write_matrix, random_unitary(7, rng)).splitlines()
    loadtxt, converted = np.loadtxt, []

    def counted(*args, **kwargs):
        converted.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    for bad in ("1.2.3+0i", "1ee5+0i"):
        row = lines[71].split()
        row[9] = bad
        text = "\n".join(lines[:71] + [" ".join(row)] + lines[72:]) + "\n"
        converted.clear()
        with pytest.raises(FormatError, match=f"^line 72: cannot parse complex entry '{re.escape(bad)}'$"):
            read_matrix(text)
        assert f" {bad[:-1]}j " in converted[-1][0].getvalue()  # the block with the entry
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
    ):
        with pytest.raises(FormatError) as got:
            read_matrix(text)
        assert str(got.value) == message
    # a fault in the last row, so the last block, of an 8-qubit file: the
    # rows of the blocks before it are not read again entry by entry
    lines = dumps(write_matrix, random_unitary(8, rng)).splitlines()
    assert sum(map(len, lines)) > 40 * io._MATRIX_BLOCK
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
            assert len(parsed) > 0
            if "\r" not in text:  # CRLF text is read entry by entry from row 0
                assert len(parsed) < 16 * 256


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
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_read_matrix_agrees_with_entry_reader(data):
    # any text over the row bytes reads as the per-entry reader reads it, or
    # is refused with that reader's error and line: a written matrix with
    # up to three of its tokens replaced
    n = data.draw(st.integers(0, 3))
    dim = 1 << n
    values = data.draw(st.lists(st.floats(allow_infinity=False, allow_nan=False),
                                min_size=2 * dim * dim, max_size=2 * dim * dim))
    rows = [line.split() for line in dumps(write_matrix, np.reshape(values, (dim, -1)).view(complex))
            .splitlines()[1:]]
    for _ in range(data.draw(st.integers(0, 3))):
        rows[data.draw(st.integers(0, dim - 1))][data.draw(st.integers(0, dim - 1))] = data.draw(ROW_TOKENS)
    text = f"n {n}\n" + "".join(" ".join(row) + "\n" for row in rows)
    try:
        want = io._read_matrix_by_entry(text)
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
    for g in gates:
        assert dumps(write_perm, g) == dumps(write_perm_per_line, g)
    assert "phase=-0\n" in dumps(write_perm, gates[0])


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
    lines = io._content_lines(text)
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
    lines = dumps(write_perm, random_bp(13, rng)).splitlines()
    row = 6000
    s, _, t, x = lines[row].split()
    lines[row] = fault(s, t, x[len("phase="):])
    text = "\n".join(lines) + "\n"
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

    class Discard:
        def write(self, text):
            return len(text)

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


def test_perm_fault_in_written_layout_read_once(rng, monkeypatch):
    # one whole-array pass over a faulty file, in the written layout or
    # with CRLF endings, before the per-line reader names the fault
    calls = []
    whole_array = io._read_plain_perm

    def counted(text):
        calls.append(len(text))
        return whole_array(text)

    monkeypatch.setattr(io, "_read_plain_perm", counted)
    lines = dumps(write_perm, random_bp(13, rng)).splitlines()
    lines[-1] = lines[-1] + "x"  # a bad last phase
    text = "\n".join(lines) + "\n"
    for layout, passes in ((text, 1), (text.replace("\n", "\r\n"), 1)):
        calls.clear()
        with pytest.raises(FormatError) as expected:
            read_perm_per_line(layout)
        with pytest.raises(FormatError) as got:
            read_perm(layout)
        assert len(calls) == passes
        assert str(got.value) == str(expected.value) == "line 8192: bad phase value"
        assert got.value.lineno == expected.value.lineno == 8192


def test_perm_reader_resumes_at_the_refused_block(rng, monkeypatch):
    # the whole-array passes read the first block of a 2^13-line file; the
    # per-line reader parses only the lines of the block they refuse
    parsed, fields = [], io._perm_fields

    def recorded(lineno, line):
        parsed.append(lineno)
        return fields(lineno, line)

    monkeypatch.setattr(io, "_perm_fields", recorded)
    lines = dumps(write_perm, random_bp(13, rng)).splitlines()
    lines[-1] = lines[-1] + "x"  # a bad last phase
    with pytest.raises(FormatError, match="^line 8192: bad phase value$"):
        read_perm("\n".join(lines) + "\n")
    assert parsed == list(range(io._PERM_BLOCK + 1, 8193))


# Faults of a 2^13-line written file, as {line index: new text}.
LATE_PERM_FAULTS = {
    "bits": lambda lines: {5000: "2" + lines[5000][1:]},
    "phase": lambda lines: {4096: lines[4096].replace("phase=", "phase=0x")},
    "comment": lambda lines: {7000: "# one source short"},
    # repeats that only the end of the passes finds, in the first block or
    # across blocks, and one ahead of a refused block
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
