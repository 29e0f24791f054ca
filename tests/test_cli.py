import argparse
import json
import logging
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from bpgates import (
    BinaryCode,
    Gate,
    GateSequence,
    PermutationWithPhases,
    check_permutation,
    io,
    linalg,
    random_bp,
    synth,
    synthesize,
    to_unitary,
)
from bpgates import cli
from bpgates.cli import build_parser, main
from bpgates.css import build_css
from bpgates.linalg import GOLDEN_THETA, H, index_to_bits
from conftest import hamming_pair, random_near_bp, random_unitary, repetition_pair, wide_pair

CNOT = to_unitary(PermutationWithPhases(2, (0, 1, 3, 2), (0.0,) * 4))


@pytest.fixture
def cnot_file(tmp_path):
    path = tmp_path / "cnot.mat"
    io.write_file(str(path), io.write_matrix, CNOT)
    return str(path)


@pytest.fixture
def hadamard_file(tmp_path):
    path = tmp_path / "h.mat"
    io.write_file(str(path), io.write_matrix, H)
    return str(path)


@pytest.fixture
def code_files(tmp_path):
    c1 = BinaryCode.from_rows([[1, 1, 1, 1]])
    c2 = BinaryCode.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    p1, p2 = tmp_path / "c1.code", tmp_path / "c2.code"
    io.write_file(str(p1), io.write_code, c1)
    io.write_file(str(p2), io.write_code, c2)
    return str(p1), str(p2)


# The options each command reads; one added where it is not read fails here.
COMMAND_OPTIONS = {
    "check": {"--matrix", "--tol", "--json"},
    "decompose-zx": {"--matrix", "--output", "--tol"},
    "distance": {"--matrix", "--other", "--phase-optimized", "--tol", "--json"},
    "synth": {"--target", "--matrix", "--eps", "--theta", "--output", "--tol", "--json"},
    "simulate": {"--circuit", "--restrict", "--output"},
    "css-build": {"--c1", "--c2", "--json"},
    "css-check": {"--c1", "--c2", "--tol", "--json"},
    "css-lift": {"--c1", "--c2", "--gate", "--output"},
    "css-restrict": {"--c1", "--c2", "--matrix", "--gate", "--output", "--tol"},
}


def test_each_command_has_only_the_options_it_reads():
    commands = next(
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in commands.items()
    }
    assert options == COMMAND_OPTIONS


def test_check_cnot(cnot_file, capsys):
    assert main(["check", "--matrix", cnot_file]) == 0
    out = capsys.readouterr().out
    assert "BP yes" in out
    assert "PERM 10->11 phase=0" in out


def test_check_hadamard(hadamard_file, capsys):
    assert main(["check", "--matrix", hadamard_file]) == 1
    out = capsys.readouterr().out
    assert "BP no" in out
    assert "WITNESS" in out


def test_check_json(cnot_file, capsys, caplog):
    caplog.set_level(logging.DEBUG, logger="bpgates.cli")
    assert main(["check", "--matrix", cnot_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bp"] is True
    assert payload["checks"] == {"permutation": True, "zx": True, "normalizer": True}
    assert set(payload["seconds"]) == {"permutation", "zx", "normalizer"}
    assert all(t >= 0.0 for t in payload["seconds"].values())
    messages = [r.getMessage() for r in caplog.records]
    for name in ("permutation", "zx", "normalizer"):
        assert f"{name}: start" in messages
        assert any(m.startswith(f"{name}: end in ") for m in messages)


def test_check_json_eight_qubits(tmp_path, capsys):
    p = random_bp(8, np.random.default_rng(8))
    path = tmp_path / "bp8.mat"
    io.write_file(str(path), io.write_matrix, to_unitary(p))
    assert main(["check", "--matrix", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bp"] is True
    assert set(payload["checks"].values()) == {True}
    perm = payload["canonical"]["perm"]
    assert [int(perm[format(s, "08b")], 2) for s in range(256)] == list(p.perm)
    got = np.exp(1j * np.array(payload["canonical"]["phases"]))
    assert np.max(np.abs(got - np.exp(1j * np.array(p.phases)))) < 1e-9


@pytest.mark.parametrize("bp", [True, False])
def test_check_json_ten_qubits(tmp_path, capsys, bp):
    rng = np.random.default_rng(10)
    G = to_unitary(random_bp(10, rng)) if bp else random_near_bp(10, rng)
    path = tmp_path / "g10.mat"
    io.write_file(str(path), io.write_matrix, G)
    assert main(["check", "--matrix", str(path), "--json"]) == (0 if bp else 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["bp"] is bp
    assert payload["checks"] == {"permutation": bp, "zx": bp, "normalizer": bp}


def test_check_accepts_a_bp_matrix_at_a_coarse_tol(tmp_path, capsys):
    # a permutation matrix with phases: the ZX test once dropped the
    # coefficients under tol and refused it, so check exited 2 with a
    # verifier disagreement
    g = random_bp(7, np.random.default_rng(1))
    path = tmp_path / "perm7.mat"
    io.write_file(str(path), io.write_matrix, to_unitary(g))
    assert main(["check", "--matrix", str(path), "--tol", "1e-3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bp"] is True
    assert payload["checks"] == {"permutation": True, "zx": True, "normalizer": True}


def test_check_refuses_a_haar_matrix_at_a_coarse_tol(tmp_path, capsys):
    # the largest entries of a 7-qubit Haar column are about 0.2: their
    # products fall under tol = 0.1, but every verifier reads the gate on
    # the scale of one amplitude and refuses it, so check exits 1, not 2
    path = tmp_path / "haar7.mat"
    io.write_file(str(path), io.write_matrix, random_unitary(7, np.random.default_rng(7)))
    assert main(["check", "--matrix", str(path), "--tol", "0.1", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["bp"] is False
    assert payload["checks"] == {"permutation": False, "zx": False, "normalizer": False}


def test_column_test_refuses_a_tol_of_one_half_or_more(tmp_path, capsys, code_files):
    # from tol = 0.5 the column test's bands overlap: an entry in
    # [1 - tol, tol] counted as both negligible and unit, and `check --tol 1`
    # on an exact BP gate exited 2 with a false verifier disagreement
    path = tmp_path / "perm7.mat"
    io.write_file(str(path), io.write_matrix, to_unitary(random_bp(7, np.random.default_rng(22))))
    for argv in (
        ["check", "--matrix", str(path), "--json"],
        ["synth", "--matrix", str(path)],
        ["css-restrict", "--c1", code_files[0], "--c2", code_files[1], "--matrix", str(path)],
    ):
        assert main([*argv, "--tol", "1"]) == 2, argv
        assert capsys.readouterr() == ("", "error: tol must be below 0.5 for the column test, got 1.0\n")
    assert main(["check", "--matrix", str(path), "--tol", "0.49", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"] == {"permutation": True, "zx": True, "normalizer": True}


def check_bp_reference(p: PermutationWithPhases) -> tuple[str, dict]:
    """`check`'s text for a BP gate and its canonical labels, formatted entry
    by entry as the CLI once did."""
    perm = {index_to_bits(s, p.n): index_to_bits(t, p.n) for s, t in enumerate(p.perm.tolist())}
    lines = [f"PERM {s}->{t} phase={x:.17g}" for (s, t), x in zip(perm.items(), p.phases.tolist())]
    return "\n".join(["BP yes"] + lines) + "\n", perm


@pytest.mark.parametrize("n", [0, 1, 3, 7])
def test_check_labels_match_per_entry_reference(tmp_path, capsys, n):
    path = tmp_path / "g.mat"
    io.write_file(str(path), io.write_matrix, to_unitary(random_bp(n, np.random.default_rng(n))))
    # the canonical form is read back from the file, as check reads it
    p = check_permutation(io.read_matrix(path.read_text())).canonical
    text, perm = check_bp_reference(p)
    assert main(["check", "--matrix", str(path)]) == 0
    assert capsys.readouterr() == (text, "")
    assert main(["check", "--matrix", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["canonical"] == {"perm": perm, "phases": p.phases.tolist()}


def test_check_refuses_non_unitary_matrix(tmp_path, capsys, hadamard_file, code_files):
    # every command that reads --matrix refuses it, each matrix of distance
    path = tmp_path / "shear.mat"
    path.write_text("n 1\n1+0i 1+0i\n0+0i 1+0i\n")
    shear = str(path)
    for argv in (
        ["check", "--matrix", shear, "--json"],
        ["decompose-zx", "--matrix", shear],
        ["distance", "--matrix", shear, "--other", hadamard_file],
        ["distance", "--matrix", hadamard_file, "--other", shear],
        ["synth", "--matrix", shear],
        ["css-restrict", "--c1", code_files[0], "--c2", code_files[1], "--matrix", shear],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == "error: matrix is not unitary within tolerance\n", argv


def test_each_matrix_is_checked_unitary_once(
    tmp_path, monkeypatch, cnot_file, hadamard_file, code_files, capsys
):
    # the CLI checks each matrix it reads; the verifiers take a unitary, so
    # check once formed G G† in each of its three verifiers
    identity4 = str(tmp_path / "id4.mat")
    io.write_file(identity4, io.write_matrix, np.eye(16))
    calls = []
    original = linalg.require_unitary

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bpgates" or name.startswith("bpgates."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    for argv, rc, want in (
        (["check", "--matrix", cnot_file], 0, 1),
        (["check", "--matrix", hadamard_file], 1, 1),
        (["decompose-zx", "--matrix", cnot_file], 0, 1),
        (["distance", "--matrix", cnot_file, "--other", cnot_file], 0, 2),
        (["synth", "--matrix", cnot_file], 0, 1),
        (["css-restrict", "--c1", code_files[0], "--c2", code_files[1], "--matrix", identity4], 0, 1),
    ):
        calls.clear()
        assert main(argv) == rc, argv
        assert len(calls) == want, argv
    capsys.readouterr()


def test_check_exhaustive_flag_is_refused(cnot_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--matrix", cnot_file, "--exhaustive-normalizer"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exhaustive-normalizer" in capsys.readouterr().err


def test_check_missing_file(tmp_path, capsys):
    assert main(["check", "--matrix", str(tmp_path / "nope.mat")]) == 2


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text("n 1\n1+0i zzz\n0+0i 1+0i\n")
    assert main(["check", "--matrix", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", [c for c, opts in COMMAND_OPTIONS.items() if "--tol" in opts])
def test_tol_must_be_finite_and_nonnegative(command, value, cnot_file, code_files, capsys):
    # on the [[4,2,2]] pair, `css-check --tol nan` once printed
    # `EQUICOHERENT yes l=0` (l is 2), and `check --tol inf` exited 2 with
    # `verifier disagreement`
    c1, c2 = code_files
    inputs = {
        "check": ["--matrix", cnot_file],
        "decompose-zx": ["--matrix", cnot_file],
        "distance": ["--matrix", cnot_file, "--other", cnot_file],
        "synth": ["--matrix", cnot_file],
        "css-check": ["--c1", c1, "--c2", c2],
        "css-restrict": ["--c1", c1, "--c2", c2, "--matrix", cnot_file],
    }
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs[command], "--tol", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --tol: must be a finite number >= 0, got '{value}'" in err


def test_unknown_flag_is_error(cnot_file):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--matrix", cnot_file, "--frobnicate"])
    assert exc.value.code == 2


def test_decompose_zx_roundtrip(cnot_file, capsys):
    assert main(["decompose-zx", "--matrix", cnot_file]) == 0
    text = capsys.readouterr().out
    d = io.read_zx(text)
    assert set(d.coeffs) == {(0, 0), (0, 1), (2, 0), (2, 1)}


def test_decompose_zx_with_no_coefficient_writes_no_file(tmp_path, capsys):
    # every |α| is at most 1, so --tol 1 drops them all: the empty file this
    # once wrote with exit 0 is one read_zx refuses
    path, out = tmp_path / "g.mat", tmp_path / "z.zx"
    path.write_text("n 1\n0.6+0.8i 0+0i\n0+0i 1+0i\n")
    for argv in (["--output", str(out)], []):
        assert main(["decompose-zx", "--matrix", str(path), "--tol", "1", *argv]) == 2
        assert capsys.readouterr() == (
            "", "error: a decomposition with no coefficient above the tolerance has no lines\n")
    assert not out.exists()


def test_distance(cnot_file, hadamard_file, capsys):
    assert main(["distance", "--matrix", cnot_file, "--other", cnot_file]) == 0
    assert float(capsys.readouterr().out.split()[1]) == 0.0
    assert main(["distance", "--matrix", cnot_file, "--other", hadamard_file]) == 2


def test_synth_and_simulate(tmp_path, capsys, rng):
    g = random_bp(2, rng)
    gate_file = tmp_path / "g.perm"
    circ_file = tmp_path / "g.circ"
    io.write_file(str(gate_file), io.write_perm, g)
    assert (
        main(
            [
                "synth",
                "--target",
                str(gate_file),
                "--eps",
                "1e-2",
                "--output",
                str(circ_file),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    achieved = float([l for l in out.splitlines() if l.startswith("ACHIEVED")][0].split()[1])
    assert achieved <= 1e-2
    # simulate the emitted circuit and compare against the target
    mat_file = tmp_path / "sim.mat"
    assert (
        main(
            [
                "simulate",
                "--circuit",
                str(circ_file),
                "--restrict",
                "--output",
                str(mat_file),
            ]
        )
        == 0
    )
    M = io.read_matrix(io.read_file(str(mat_file)))
    from bpgates import phase_optimized_error

    assert phase_optimized_error(to_unitary(g), M) <= 1e-2


def test_synth_and_simulate_seven_qubits(tmp_path, capsys):
    # 7 data + 4 ancilla qubits: synth certifies on the monomial, simulate
    # --restrict writes the 7-qubit matrix, and the full 11-qubit matrix is
    # refused at the dense cap
    g = PermutationWithPhases(7, tuple((s + 1) % 128 for s in range(128)), (0.0,) * 128)
    gate_file, circ_file, mat_file = tmp_path / "inc.perm", tmp_path / "inc.circ", tmp_path / "inc.mat"
    io.write_file(str(gate_file), io.write_perm, g)
    assert main(["synth", "--target", str(gate_file), "--output", str(circ_file)]) == 0
    assert "ACHIEVED 0\n" in capsys.readouterr().out
    argv = ["simulate", "--circuit", str(circ_file), "--output", str(mat_file)]
    assert main(argv + ["--restrict"]) == 0
    assert np.array_equal(io.read_matrix(io.read_file(str(mat_file))), to_unitary(g))
    assert main(argv) == 2
    assert "11 qubits exceeds dense cap 10" in capsys.readouterr().err


def test_simulate_refuses_above_dense_cap(tmp_path, capsys):
    circ_file = tmp_path / "wide.circ"
    io.write_file(str(circ_file), io.write_circuit, GateSequence(n_data=11, gates=[Gate("X", (0,))]))
    assert main(["simulate", "--circuit", str(circ_file)]) == 2
    assert "11 qubits exceeds dense cap 10" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, flags, width",
    [
        ("qubits 40\nancillas 0\n", [], 40),
        ("qubits 40\nancillas 0\n", ["--restrict"], 40),
        ("qubits 4\nancillas 36\n", [], 40),
    ],
    ids=["full", "restrict", "ancillas"],
)
def test_simulate_refuses_wide_circuit_before_simulating(
    tmp_path, capsys, monkeypatch, header, flags, width
):
    # the 2^40-input push once ran first and died allocating 8 TiB
    def push(*args):
        raise AssertionError("simulated a circuit wider than the dense cap")

    monkeypatch.setattr(synth, "_monomial", push)
    circ_file = tmp_path / "wide.circ"
    circ_file.write_text(header + "X 0\n")
    assert main(["simulate", "--circuit", str(circ_file)] + flags) == 2
    err = capsys.readouterr().err
    assert err == f"error: {width} qubits exceeds dense cap 10\n"


def test_simulate_refuses_wide_circuit_from_its_leading_headers(tmp_path, capsys, monkeypatch):
    # a synthesized 16-qubit circuit was once read whole, 7.9-9.2 s, before
    # its width was refused: the headers that lead the file are read first
    def read(text):
        raise AssertionError("read the gates of a circuit wider than the dense cap")

    circ_file = tmp_path / "wide.circ"
    circ_file.write_text("# synthesized\nqubits 16\nancillas 0\nX 99\n")
    with monkeypatch.context() as patch:
        patch.setattr(io, "read_circuit", read)
        assert main(["simulate", "--circuit", str(circ_file)]) == 2
    assert capsys.readouterr().err == "error: 16 qubits exceeds dense cap 10\n"
    # with --restrict the ancillas do not count; the bad line is then read
    circ_file.write_text("qubits 4\nancillas 36\nX 99\n")
    assert main(["simulate", "--circuit", str(circ_file), "--restrict"]) == 2
    assert "qubit outside register" in capsys.readouterr().err
    # headers after a gate line, or a faulty header, are left to the reader
    for text, err in (
        ("qubits 1\nX 0\nancillas 15\n", "error: 16 qubits exceeds dense cap 10\n"),
        ("qubits 16\nqubits 1\nancillas 0\n", "error: line 2: repeated header qubits\n"),
        ("qubits 16\nancillas -1\nX 0\n", "error: header ancillas must be nonnegative, got -1\n"),
    ):
        circ_file.write_text(text)
        assert main(["simulate", "--circuit", str(circ_file)]) == 2
        assert capsys.readouterr().err == err


def test_simulate_refuses_wide_circuit_before_reading_it_whole(tmp_path, capsys, monkeypatch):
    # a 35.7 MB 16-qubit circuit was once read whole, 98 MB max RSS, before
    # its headers were looked at: now its head alone is read
    def read(path):
        raise AssertionError("read the whole file of a circuit wider than the dense cap")

    circ_file = tmp_path / "wide.circ"
    circ_file.write_text("qubits 16\nancillas 15\n" + "X 0\n" * (1 << 16))
    monkeypatch.setattr(io, "read_file", read)
    assert main(["simulate", "--circuit", str(circ_file)]) == 2
    assert main(["simulate", "--circuit", str(circ_file), "--restrict"]) == 2
    assert capsys.readouterr().err == "error: 31 qubits exceeds dense cap 10\n" + \
        "error: 16 qubits exceeds dense cap 10\n"


def test_read_head_keeps_whole_lines(tmp_path, monkeypatch):
    path = tmp_path / "lines.txt"
    monkeypatch.setattr(io, "_PIECE_CHARS", 10)
    for text, head in (("qubits 1\n", "qubits 1\n"), ("ab\ncd\nefghij\n", "ab\ncd\n"),
                       ("abcdefghijkl\n", ""), ("ab\r\ncd\n", "ab\ncd\n")):
        path.write_bytes(text.encode())
        assert io.read_head(str(path)) == head


def test_simulate_restrict_ignores_ancilla_width(tmp_path, capsys):
    # 4 data + 36 ancilla qubits: only the 2^4 ancilla-clean inputs are pushed
    circ_file = tmp_path / "narrow.circ"
    circ_file.write_text("qubits 4\nancillas 36\nCNOT 0 39\nCNOT 0 39\nX 3\n")
    assert main(["simulate", "--circuit", str(circ_file), "--restrict"]) == 0
    M = io.read_matrix(capsys.readouterr().out)
    assert np.array_equal(M, to_unitary(PermutationWithPhases(4, tuple(s ^ 1 for s in range(16)), (0.0,) * 16)))


def test_simulate_restrict_refuses_excited_ancilla(tmp_path, capsys):
    # CNOT 0 1 leaves the ancilla at |1> for data |1>: this once died with an
    # AncillaNotRestoredError traceback and exit 1, the negative-verdict code
    circ_file, out_file = tmp_path / "dirty.circ", tmp_path / "out.mat"
    circ_file.write_text("qubits 1\nancillas 1\nCNOT 0 1\n")
    argv = ["simulate", "--circuit", str(circ_file), "--restrict", "--output", str(out_file)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: input 1 leaves ancillas at 1\n")
    assert not out_file.exists()


def test_simulate_restrict_names_zero_data_qubits_by_the_empty_label(tmp_path, capsys):
    # the one input of 0 data qubits has the empty label, as `check` prints it
    circ_file = tmp_path / "dirty.circ"
    circ_file.write_text("qubits 0\nancillas 2\nX 1\n")
    assert main(["simulate", "--circuit", str(circ_file), "--restrict"]) == 2
    assert capsys.readouterr() == ("", "error: input  leaves ancillas at 01\n")


def test_simulate_refuses_register_wider_than_basis_index(tmp_path, capsys):
    # 2 data + 70 ancilla qubits: the restriction is narrow, but basis
    # indices of 72 qubits do not fit int64; this once overflowed with a
    # traceback and exit 1
    circ_file = tmp_path / "deep.circ"
    circ_file.write_text("qubits 2\nancillas 70\nCNOT 0 71\nCNOT 0 71\n")
    assert main(["simulate", "--circuit", str(circ_file), "--restrict"]) == 2
    assert capsys.readouterr().err == "error: 72 qubits exceeds the 63-qubit basis-index width\n"


TOO_LARGE = f"RZ counts sum past the cap {(1 << 63) - 1}"


@pytest.mark.parametrize(
    "text, err",
    [
        ("qubits 1\nancillas 0\nRZ 0 " + "9" * 400 + "\n", f"line 3: {TOO_LARGE}"),
        ("qubits 1\nancillas 0\ntheta 6\nRZ 0 1\nRZ 0 1" + "0" * 308 + "\n", f"line 5: {TOO_LARGE}"),
        ("qubits 1\nancillas 0\ntheta 1e300\nRZ 0 1\n", "line 3: theta must lie in (-2*pi, 2*pi), got 1e+300"),
        ("qubits 1\nancillas 0\ntheta nan\nRZ 0 3\n", "line 3: header theta must be finite, got nan"),
        ("qubits 1\nqubits 2\nancillas 0\n", "line 2: repeated header qubits"),
        ("qubits 1\nancillas 0\nglobalphase inf\n", "line 3: header globalphase must be finite, got inf"),
    ],
    ids=[
        "count-overflows-float", "angle-overflows", "theta-huge", "theta-nan", "repeated-header",
        "globalphase-inf",
    ],
)
def test_simulate_refuses_circuit_header_or_count_at_its_line(tmp_path, capsys, text, err):
    # the 400-digit count once died with an OverflowError traceback and exit 1,
    # theta nan and the overflowing angle with `phases must be finite`, which
    # names no line, and the repeated header, infinite global phase and a
    # theta whose reduction mod 2π drifts passed
    circ_file = tmp_path / "bad.circ"
    circ_file.write_text(text)
    assert main(["simulate", "--circuit", str(circ_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_synth_rejects_non_bp(hadamard_file, capsys):
    assert main(["synth", "--matrix", hadamard_file, "--eps", "1e-2"]) == 1
    assert "not bias-preserving" in capsys.readouterr().err


def test_synth_from_matrix(cnot_file, capsys):
    assert main(["synth", "--matrix", cnot_file, "--eps", "1e-2"]) == 0
    out = capsys.readouterr().out
    assert "ACHIEVED 0" in out


def test_synth_json_reports_stages(tmp_path, capsys, rng):
    g = random_bp(3, rng)
    gate_file = tmp_path / "g.perm"
    io.write_file(str(gate_file), io.write_perm, g)
    assert main(["synth", "--target", str(gate_file), "--eps", "1e-2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"achieved_error", "target_eps", "gate_counts", "ancillas"} <= set(report)
    stages = report["stage_gate_counts"]
    for kind, count in report["gate_counts"].items():
        assert stages["permutation"][kind] + stages["diagonal"][kind] == count
    assert report["achieved_error"] <= report["max_phase_residual"] < 1e-2
    expected = synthesize(g, eps=1e-2)
    assert report["factor_reps"] == list(expected.factor_reps)
    assert len(report["factor_reps"]) == stages["diagonal"]["RZ"]
    assert report["phase_shift"] == expected.phase_shift
    assert report["rz_reps"] == sum(map(abs, report["factor_reps"])) > 0
    assert set(report["stage_seconds"]) == {"permutation", "diagonal", "certify"}
    assert all(t >= 0.0 for t in report["stage_seconds"].values())


def test_synth_certifies_seed_1004_at_twelve_qubits(tmp_path, capsys):
    # with no phase shift its exact error was 9.998363e-7, which a float sum
    # of each state's RZ angles once read as 1.0000235e-6 and refused with
    # exit 2; the shared shift j = 3,319,618 leaves an exact 9.986545e-7 and
    # takes Σ|k| from 3,431,412,588 to 3,372,156,485
    gate_file = tmp_path / "g.perm"
    io.write_file(str(gate_file), io.write_perm, random_bp(12, np.random.default_rng(1004)))
    argv = ["synth", "--target", str(gate_file), "--eps", "1e-6", "--output", str(tmp_path / "g.circ"), "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["phase_shift"] == 3_319_618
    assert report["rz_reps"] == 3_372_156_485
    assert abs(report["achieved_error"] - 9.986545e-7) < 1e-12


def test_synth_json_reports_a_negative_factor(tmp_path, capsys):
    # phase 2π − θ on |1⟩ is Rz(θ)^{-1}: one RZ under an X pair on qubit 0
    gate_file, circ_file = tmp_path / "g.perm", tmp_path / "g.circ"
    gate_file.write_text(f"0 -> 0 phase=0\n1 -> 1 phase={float(2 * np.pi - GOLDEN_THETA)!r}\n")
    argv = ["synth", "--target", str(gate_file), "--output", str(circ_file), "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["factor_reps"] == [-1]
    assert report["gate_counts"] == {"X": 2, "RZ": 1, "CNOT": 0, "CCNOT": 0}
    assert main(["simulate", "--circuit", str(circ_file), "--restrict"]) == 0
    M = io.read_matrix(capsys.readouterr().out)
    assert abs(M[1, 1] / M[0, 0] - np.exp(-1j * GOLDEN_THETA)) < 1e-12


def test_synth_emits_no_rz_for_a_phase_within_eps_of_zero(tmp_path, capsys):
    # phase 1e-9 is k = 0: it once compiled to the no-op line `RZ 0 0`
    gate_file = tmp_path / "g.perm"
    gate_file.write_text("0 -> 0 phase=0\n1 -> 1 phase=1e-9\n")
    assert main(["synth", "--target", str(gate_file)]) == 0
    out = capsys.readouterr().out
    assert "qubits 1" in out
    assert not any(line.startswith("RZ") for line in out.splitlines())
    assert main(["synth", "--target", str(gate_file), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["factor_reps"] == []


def test_synth_renders_the_circuit_only_when_it_prints_it(tmp_path, capsys, monkeypatch, rng):
    gate_file, circ_file = tmp_path / "g.perm", tmp_path / "g.circ"
    io.write_file(str(gate_file), io.write_perm, random_bp(3, rng))
    argv = ["synth", "--target", str(gate_file)]
    # text mode prints the summary lines, then the circuit as --output writes it
    assert main(argv + ["--output", str(circ_file)]) == 0
    summary = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == summary + circ_file.read_text()

    # --json prints no circuit, so none is rendered
    def render(*args):
        raise AssertionError("rendered a circuit that is not printed")

    monkeypatch.setattr(io, "write_circuit", render)
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ancillas"] >= 0


@pytest.mark.parametrize(
    "phase, flags",
    [
        (np.pi / 3, ["--theta", "0.7853981633974483"]),  # θ = 2π/8 never reaches π/3
        (np.pi / 3, ["--eps", "nan"]),
        (np.pi / 3, ["--eps", "inf"]),
        (np.pi / 3, ["--eps", "0"]),
        (np.pi / 3, ["--theta", "nan"]),
        (np.pi / 3, ["--theta", "inf"]),
        (np.pi / 3, ["--theta", "1e12"]),  # k·θ mod 2π would drift past eps
        (float("nan"), []),
    ],
    ids=[
        "rational-theta", "eps-nan", "eps-inf", "eps-zero", "theta-nan", "theta-inf",
        "theta-huge", "phase-nan",
    ],
)
def test_synth_input_errors_exit_2(tmp_path, capsys, phase, flags):
    gate_file = tmp_path / "t.perm"
    gate_file.write_text(f"0 -> 0 phase=0\n1 -> 1 phase={phase!r}\n")
    start = time.perf_counter()
    assert main(["synth", "--target", str(gate_file)] + flags) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_synth_refuses_a_target_above_the_synthesis_cap(tmp_path, capsys):
    n = synth.SYNTH_QUBIT_CAP + 1
    g = PermutationWithPhases(n, np.roll(np.arange(1 << n), 1), np.zeros(1 << n))
    gate_file = tmp_path / "wide.perm"
    io.write_file(str(gate_file), io.write_perm, g)
    start = time.perf_counter()
    assert main(["synth", "--target", str(gate_file)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {n} qubits exceeds synthesis cap {n - 1}\n"


def test_css_build(code_files, capsys):
    c1, c2 = code_files
    assert main(["css-build", "--c1", c1, "--c2", c2]) == 0
    out = capsys.readouterr().out
    assert "CSS n=4 k=2 l=2" in out


def css_build_reference(e) -> tuple[str, str]:
    """`css-build`'s text and JSON output, each label formatted and each
    support sorted entry by entry as the CLI once did."""
    payload = {
        "n": e.n,
        "k": e.k,
        "l": e.l,
        "transversal": ["".join(str(int(b)) for b in row) for row in e.transversal],
        "supports": {
            index_to_bits(x, e.k): sorted(index_to_bits(t, e.n) for t in row)
            for x, row in enumerate(e.cosets.tolist())
        },
    }
    lines = [f"CSS n={e.n} k={e.k} l={e.l}"]
    lines += [f"TRANSVERSAL {row}" for row in payload["transversal"]]
    for x in sorted(payload["supports"]):
        lines.append(f"SUPPORT {x} {{{', '.join(payload['supports'][x])}}}")
    return "\n".join(lines) + "\n", json.dumps(payload, indent=2, sort_keys=True) + "\n"


# C1 = {0} ⊂ even[3, 2]: the zero code, whose file is its header alone
ZERO_IN_EVEN3 = (BinaryCode.from_rows(np.zeros((0, 3), dtype=np.uint8)),
                 BinaryCode.from_rows([[1, 1, 0], [0, 1, 1]]))


@pytest.mark.parametrize("codes", [repetition_pair(10), hamming_pair(4), hamming_pair(3), ZERO_IN_EVEN3],
                         ids=["rep10", "hamming15", "steane", "zero-in-even3"])
def test_css_build_matches_per_entry_reference(tmp_path, capsys, codes):
    # rep[10] ⊂ even[10]: |C2| = 2^9 words over 2^8 supports
    paths = [str(tmp_path / "c1.code"), str(tmp_path / "c2.code")]
    for path, code in zip(paths, codes):
        io.write_file(path, io.write_code, code)
    text, payload = css_build_reference(build_css(*codes))
    assert main(["css-build", "--c1", paths[0], "--c2", paths[1]]) == 0
    assert capsys.readouterr() == (text, "")
    assert main(["css-build", "--c1", paths[0], "--c2", paths[1], "--json"]) == 0
    assert capsys.readouterr() == (payload, "")


@pytest.mark.parametrize("codes", [repetition_pair(10), hamming_pair(4), hamming_pair(3), ZERO_IN_EVEN3],
                         ids=["rep10", "hamming15", "steane", "zero-in-even3"])
def test_css_build_output_does_not_depend_on_its_blocks(tmp_path, capsys, monkeypatch, codes):
    # blocks of 3 rows of 2 entries, of 1 row of 16 or 8 entries, and of 4 rows of 1 entry
    monkeypatch.setattr(cli, "_SUPPORT_BLOCK", 7)
    paths = [str(tmp_path / "c1.code"), str(tmp_path / "c2.code")]
    for path, code in zip(paths, codes):
        io.write_file(path, io.write_code, code)
    text, payload = css_build_reference(build_css(*codes))
    assert main(["css-build", "--c1", paths[0], "--c2", paths[1]]) == 0
    assert capsys.readouterr() == (text, "")
    assert main(["css-build", "--c1", paths[0], "--c2", paths[1], "--json"]) == 0
    assert capsys.readouterr() == (payload, "")


def test_css_build_json_is_streamed(tmp_path):
    # rep[16] ⊂ even[16]: the JSON output's traced peak exceeds the text
    # output's, which is streamed one block of rows at a time, by less than
    # the JSON text itself; a dict of all supports exceeds it three times
    import contextlib
    import tracemalloc

    class Discard:
        size = 0

        def write(self, text):
            self.size += len(text)
            return len(text)

    paths = [str(tmp_path / "c1.code"), str(tmp_path / "c2.code")]
    for path, code in zip(paths, repetition_pair(16)):
        io.write_file(path, io.write_code, code)
    peaks, sizes = [], []
    for mode in ([], ["--json"]):
        sink = Discard()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                assert main(["css-build", "--c1", paths[0], "--c2", paths[1], *mode]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(sink.size)
    assert sizes[1] > 1 << 20
    assert peaks[1] - peaks[0] < sizes[1]


def test_css_check(code_files, capsys):
    c1, c2 = code_files
    assert main(["css-check", "--c1", c1, "--c2", c2]) == 0
    assert "EQUICOHERENT yes l=2" in capsys.readouterr().out


def test_css_zero_code_in_even_weight(tmp_path, capsys):
    # C1 = {0} ⊂ even[3, 2]: its file is the header `n 3 k 0` alone
    zero = BinaryCode.from_rows(np.zeros((0, 3), dtype=np.uint8))
    even = BinaryCode.from_rows([[1, 1, 0], [0, 1, 1]])
    c1, c2 = str(tmp_path / "zero.code"), str(tmp_path / "even.code")
    io.write_file(c1, io.write_code, zero)
    io.write_file(c2, io.write_code, even)
    assert main(["css-build", "--c1", c1, "--c2", c2, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["k"], payload["l"]) == (3, 2, 1)
    assert sorted(w for ws in payload["supports"].values() for w in ws) == ["000", "011", "101", "110"]
    assert main(["css-check", "--c1", c1, "--c2", c2]) == 0
    assert capsys.readouterr().out == "EQUICOHERENT yes l=1\n"


def test_css_check_twenty_logical_qubits(tmp_path, capsys):
    # rep[22,1] ⊂ even[22,21]: 2^20 logical states, once O(4^k) support pairs
    paths = []
    for name, code in zip(("c1", "c2"), repetition_pair(22)):
        paths.append(str(tmp_path / f"{name}.code"))
        io.write_file(paths[-1], io.write_code, code)
    assert main(["css-check", "--c1", paths[0], "--c2", paths[1]]) == 0
    assert capsys.readouterr().out == "EQUICOHERENT yes l=2\n"


def test_css_check_bad_pair(tmp_path, capsys):
    p1 = tmp_path / "a.code"
    p2 = tmp_path / "b.code"
    p1.write_text("n 4 k 1\n1000\n")
    p2.write_text("n 4 k 3\n1100\n0110\n0011\n")
    assert main(["css-check", "--c1", str(p1), "--c2", str(p2)]) == 2
    assert "subcode" in capsys.readouterr().err


def test_css_lift_and_restrict(code_files, tmp_path, rng, capsys):
    c1, c2 = code_files
    g = random_bp(2, rng)
    gate_file = tmp_path / "g.perm"
    lifted_file = tmp_path / "lifted.perm"
    logical_file = tmp_path / "back.perm"
    io.write_file(str(gate_file), io.write_perm, g)
    assert (
        main(
            [
                "css-lift",
                "--c1",
                c1,
                "--c2",
                c2,
                "--gate",
                str(gate_file),
                "--output",
                str(lifted_file),
            ]
        )
        == 0
    )
    lifted = io.read_perm(io.read_file(str(lifted_file)))
    assert lifted.n == 4
    assert (
        main(
            [
                "css-restrict",
                "--c1",
                c1,
                "--c2",
                c2,
                "--gate",
                str(lifted_file),
                "--output",
                str(logical_file),
            ]
        )
        == 0
    )
    back = io.read_perm(io.read_file(str(logical_file)))
    assert np.array_equal(back.perm, g.perm)
    assert np.allclose(
        np.exp(1j * np.array(back.phases)), np.exp(1j * np.array(g.phases))
    )


def test_css_lift_and_restrict_hamming15(tmp_path, rng, capsys):
    # [[15,7,3]]: the lifted gate acts on 15 qubits, past the dense cap
    c1, c2 = tmp_path / "c1.code", tmp_path / "c2.code"
    simplex, hamming = hamming_pair(4)
    io.write_file(str(c1), io.write_code, simplex)
    io.write_file(str(c2), io.write_code, hamming)
    g = random_bp(7, rng)
    gate_file, lifted_file, back_file = tmp_path / "g.perm", tmp_path / "lifted.perm", tmp_path / "back.perm"
    io.write_file(str(gate_file), io.write_perm, g)
    codes = ["--c1", str(c1), "--c2", str(c2)]
    assert main(["css-lift", *codes, "--gate", str(gate_file), "--output", str(lifted_file)]) == 0
    assert io.read_perm(io.read_file(str(lifted_file))).n == 15
    # written to stdout block by block, the same bytes as the file
    capsys.readouterr()
    assert main(["css-lift", *codes, "--gate", str(gate_file)]) == 0
    assert capsys.readouterr().out == lifted_file.read_text()
    assert main(["css-restrict", *codes, "--gate", str(lifted_file), "--output", str(back_file)]) == 0
    back = io.read_perm(io.read_file(str(back_file)))
    assert np.array_equal(back.perm, g.perm)
    assert np.allclose(
        np.exp(1j * np.array(back.phases)), np.exp(1j * np.array(g.phases))
    )


def test_css_restrict_rejects_non_logical(code_files, tmp_path, capsys):
    c1, c2 = code_files
    flip = PermutationWithPhases(4, tuple(s ^ 0b1000 for s in range(16)), (0.0,) * 16)
    gate_file = tmp_path / "flip.perm"
    io.write_file(str(gate_file), io.write_perm, flip)
    assert (
        main(["css-restrict", "--c1", c1, "--c2", c2, "--gate", str(gate_file)]) == 1
    )
    assert "REJECTED" in capsys.readouterr().err


def test_css_restrict_rejects_non_bp_matrix(code_files, tmp_path, capsys):
    # H⊗4 is unitary but not bias-preserving: the column test refuses it,
    # naming the first column that holds a superposition
    c1, c2 = code_files
    H4 = np.kron(np.kron(H, H), np.kron(H, H))
    matrix_file, out_file = tmp_path / "h4.mat", tmp_path / "out.perm"
    io.write_file(str(matrix_file), io.write_matrix, H4)
    argv = ["css-restrict", "--c1", c1, "--c2", c2, "--matrix", str(matrix_file)]
    assert main(argv + ["--output", str(out_file)]) == 1
    entries = ", ".join(f"|{s:04b}⟩: 0.250000" for s in range(16))
    assert capsys.readouterr() == ("", f"REJECTED column 0000 has entries {entries}\n")
    assert not out_file.exists()


@pytest.mark.parametrize("command", ["css-lift", "css-restrict"])
def test_css_refuses_forty_qubit_inputs_quickly(tmp_path, capsys, command):
    # n = 40: css-lift once died allocating 8 TiB (exit 1), and css-restrict
    # on a one-line perm file of 40-bit strings built a 2^40-entry set of
    # sources
    c1, c2 = tmp_path / "c1.code", tmp_path / "c2.code"
    for path, code in zip((c1, c2), wide_pair()):
        io.write_file(str(path), io.write_code, code)
    argv = [command, "--c1", str(c1), "--c2", str(c2)]
    assert main(["css-build", *argv[1:]]) == 0
    capsys.readouterr()
    gate_file = tmp_path / "g.perm"
    if command == "css-lift":
        io.write_file(str(gate_file), io.write_perm, PermutationWithPhases(1, (1, 0), (0.0, 0.5)))
        argv += ["--gate", str(gate_file)]
        want = "error: 40 qubits exceeds monomial cap 24\n"
    else:
        gate_file.write_text(f"{'0' * 40} -> {'0' * 40} phase=0\n")
        argv += ["--gate", str(gate_file)]
        want = "error: expected all 1099511627776 source strings exactly once\n"
    start = time.monotonic()
    assert main(argv) == 2
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().err == want


def simplex_pair(r: int) -> tuple[BinaryCode, BinaryCode]:
    """(simplex [2^r-1, r], simplex + the all-ones word): k = 1, l = 2^r."""
    simplex = hamming_pair(r)[0]
    return simplex, BinaryCode.from_rows([*simplex.generator, [1] * simplex.n])


@pytest.mark.parametrize(
    "codes, l", [(wide_pair(), 2), (simplex_pair(5), 32), (simplex_pair(6), 64)], ids=["n40", "n31", "n63"]
)
def test_css_check_answers_past_the_monomial_cap_quickly(tmp_path, capsys, codes, l):
    # n = 40, 31 and 63 exceed the 24-qubit cap of the 2^n-wide arrays:
    # css-check once died allocating 16 TiB at n = 40 (exit 1), then was
    # refused at the cap; it now sorts the 2^k·|C1| coset table alone
    c1, c2 = tmp_path / "c1.code", tmp_path / "c2.code"
    for path, code in zip((c1, c2), codes):
        io.write_file(str(path), io.write_code, code)
    start = time.monotonic()
    assert main(["css-check", "--c1", str(c1), "--c2", str(c2)]) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr() == (f"EQUICOHERENT yes l={l}\n", "")


@pytest.mark.parametrize("codes, want", [
    # 70-bit words overflowed int64: both supports once printed as {0^70}
    ((BinaryCode.from_rows([[1, 1] + [0] * 68]),
      BinaryCode.from_rows([[1, 1] + [0] * 68, [0, 0, 1] + [0] * 67])),
     "error: codewords of length 70 do not fit in 63-bit integers\n"),
    (repetition_pair(26), "error: C2 has 2^25 words; the coset table cap is 2^24\n"),
])
def test_css_build_refuses_codes_its_table_cannot_hold(tmp_path, capsys, codes, want):
    c1, c2 = tmp_path / "c1.code", tmp_path / "c2.code"
    for path, code in zip((c1, c2), codes):
        io.write_file(str(path), io.write_code, code)
    start = time.monotonic()
    assert main(["css-build", "--c1", str(c1), "--c2", str(c2)]) == 2
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == want
    assert "SUPPORT" not in captured.out


def test_zero_qubit_gate_has_empty_labels(tmp_path, capsys):
    # a 1x1 matrix: its one basis state has the empty label, which the
    # ZX file format cannot write (one digit would read back as 1 qubit)
    path = tmp_path / "one.mat"
    path.write_text("n 0\n1+0i\n")
    assert main(["check", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out == "BP yes\nPERM -> phase=0\n"
    assert main(["decompose-zx", "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a 0-qubit decomposition has no bit-string labels\n"
    # a global phase: synthesized by no gate, exactly (once "negative shift count")
    path.write_text("n 0\n0.54030230586813977+0.8414709848078965i\n")
    assert main(["check", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out == "BP yes\nPERM -> phase=1\n"
    assert main(["synth", "--matrix", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["achieved_error"] == report["max_phase_residual"] == 0.0
    assert report["ancillas"] == 0 and not any(report["gate_counts"].values())
    assert main(["synth", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out.endswith("qubits 0\nancillas 0\ntheta 3.8832220774509332\nglobalphase 1\n")


def test_refused_output_leaves_no_file(tmp_path, capsys):
    # the output file was once opened, and truncated, before the writer ran
    path, out = tmp_path / "one.mat", tmp_path / "one.zx"
    path.write_text("n 0\n1+0i\n")
    argv = ["decompose-zx", "--matrix", str(path), "--output", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    out.write_text("0 0 1 0\n")
    assert main(argv) == 2
    assert out.read_text() == "0 0 1 0\n"
    assert capsys.readouterr().out == ""


def test_emitted_files_reparse_equal(tmp_path, cnot_file, capsys):
    # matrix written by the CLI re-parses to an equal object
    out_file = tmp_path / "zx.txt"
    assert main(["decompose-zx", "--matrix", cnot_file, "--output", str(out_file)]) == 0
    d1 = io.read_zx(io.read_file(str(out_file)))
    d2 = io.read_zx(io.read_file(str(out_file)))
    assert d1.coeffs == d2.coeffs


@pytest.fixture
def fresh_parser():
    """build_parser's cache emptied before and after the test."""
    build_parser.cache_clear()
    yield build_parser
    build_parser.cache_clear()


def run_main(argv, capsys):
    """(exit code, stdout, stderr) of one in-process call; the per-verifier
    wall seconds of `check --json` are left out."""
    try:
        rc = main(argv)
    except SystemExit as exc:  # an argparse error
        rc = exc.code
    out, err = capsys.readouterr()
    if "--json" in argv:
        payload = json.loads(out)
        payload.pop("seconds", None)
        out = json.dumps(payload, sort_keys=True)
    return rc, out, err


def test_one_parser_serves_a_sequence_of_calls(
    cnot_file, hadamard_file, tmp_path, capsys, monkeypatch, fresh_parser
):
    target, circuit = tmp_path / "t.perm", tmp_path / "t.circ"
    io.write_file(str(target), io.write_perm, PermutationWithPhases(2, (1, 0, 3, 2), (0.0, 0.5, 1.0, 1.5)))
    calls = [
        ["check", "--matrix", cnot_file, "--json"],
        ["check", "--matrix", hadamard_file],
        ["check", "--matrix", cnot_file, "--no-such-flag"],
        ["synth", "--target", str(target), "--output", str(circuit)],
        ["synth", "--target", str(target)],
    ]
    alone = []
    for argv in calls:
        fresh_parser.cache_clear()
        alone.append(run_main(argv, capsys))
    written = circuit.read_text()
    circuit.unlink()
    assert [rc for rc, _, _ in alone] == [0, 1, 2, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in alone[2][2]

    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    fresh_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert [run_main(argv, capsys) for argv in calls] == alone
    assert circuit.read_text() == written
    assert built.count("bpgates") == 1  # the subcommands' parsers are built with it, once


def test_module_entry_point_prints_as_in_process(cnot_file, tmp_path, capsys):
    target = tmp_path / "t.perm"
    io.write_file(str(target), io.write_perm, PermutationWithPhases(2, (0, 1, 3, 2), (0.0, 0.25, 0.5, 0.75)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(io.__file__)))
    for argv in (["check", "--matrix", cnot_file], ["synth", "--target", str(target)]):
        proc = subprocess.run([sys.executable, "-m", "bpgates.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_main(argv, capsys)
