"""The benchmark's output checks must reject wrong outputs.

Each test feeds a correct program output through a checker, then a
corrupted copy, and expects CheckError for the copy.
"""

import contextlib
import io
import json

import numpy as np
import pytest

import checkers as ck
from bpgates import build_css, cli, io as bio, linalg, lift_logical, synthesize
from bpgates.css import BinaryCode
from bpgates.verify import PermutationWithPhases, to_unitary
from inputs import CODES, PermGate, matrix_text, perm_matrix, perm_text, random_perm_gate


def _synth(n=3, eps=1e-2, seed=5):
    g = random_perm_gate(n, np.random.default_rng(seed))
    rep = synthesize(PermutationWithPhases(n, g.perm, g.phases), eps)
    buf = io.StringIO()
    bio.write_circuit(rep.sequence, buf)
    report = {"achieved_error": rep.achieved_error, "gate_counts": rep.gate_counts,
              "ancillas": rep.sequence.n_anc}
    return g, buf.getvalue(), report, eps


def test_synth_check_accepts_program_output():
    g, text, report, eps = _synth()
    counts = ck.check_synth(text, report, g.perm, g.phases, eps)
    assert counts["gates"] == sum(report["gate_counts"].values())
    assert counts["rz_reps"] > 0 and counts["ancillas"] == report["ancillas"]


@pytest.mark.parametrize("corrupt", ["drop_gate", "rz_reps", "theta", "counts", "ancilla_left"])
def test_synth_check_rejects_corrupted_circuit(corrupt):
    g, text, report, eps = _synth()
    lines = text.splitlines()
    if corrupt == "drop_gate":  # first CCNOT of the permutation stage
        lines.remove(next(ln for ln in lines if ln.startswith("CCNOT")))
    elif corrupt == "rz_reps":
        i = next(i for i, ln in enumerate(lines) if ln.startswith("RZ"))
        q, k = lines[i].split()[1:]
        lines[i] = f"RZ {q} {int(k) + 1}"
    elif corrupt == "theta":
        i = next(i for i, ln in enumerate(lines) if ln.startswith("theta"))
        lines[i] = f"theta {float(lines[i].split()[1]) + 1e-3!r}"
    elif corrupt == "counts":
        report = dict(report, gate_counts=dict(report["gate_counts"], X=report["gate_counts"]["X"] + 1))
    elif corrupt == "ancilla_left":
        lines.append(f"X {g.n}")
    with pytest.raises(ck.CheckError):
        ck.check_synth("\n".join(lines) + "\n", report, g.perm, g.phases, eps)


def test_phase_error_matches_dense_computation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        phases = rng.uniform(0, 2 * np.pi, 8) * rng.uniform(0, 1)
        want = linalg.phase_optimized_error(np.eye(8), np.diag(np.exp(1j * phases)))
        assert abs(ck.phase_optimized_error(list(phases)) - want) < 1e-12


def _check_json(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["check", "--matrix", str(path), "--json"])
    return json.loads(out.getvalue())


def test_verdict_check_rejects_wrong_verdicts(tmp_path):
    g = random_perm_gate(3, np.random.default_rng(2))
    path = tmp_path / "g.mat"
    path.write_text(matrix_text(perm_matrix(g)))
    report = _check_json(path)
    ck.check_verdict(report, True, g.perm, g.phases)
    with pytest.raises(ck.CheckError):  # construction label says non-BP
        ck.check_verdict(report, False)
    disagree = dict(report, checks=dict(report["checks"], zx=False))
    with pytest.raises(ck.CheckError):
        ck.check_verdict(disagree, True, g.perm, g.phases)
    shifted = list(g.phases)
    shifted[3] += 1e-6
    with pytest.raises(ck.CheckError):
        ck.check_verdict(report, True, g.perm, shifted)
    swapped = list(g.perm)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(ck.CheckError):
        ck.check_verdict(report, True, swapped, g.phases)


def _steane():
    c1, c2 = CODES["steane"]
    e = build_css(BinaryCode.from_rows(c1), BinaryCode.from_rows(c2))
    report = {
        "n": e.n, "k": e.k, "l": e.l,
        "transversal": ["".join(str(int(b)) for b in row) for row in e.transversal],
        "supports": {format(x, "01b"): [format(t, "07b") for t in sup] for x, sup in e.basis_support.items()},
    }
    return e, report, c1, c2


def test_css_build_check_rejects_wrong_supports():
    e, report, c1, c2 = _steane()
    supports = ck.check_css_build(report, c1, c2)
    assert supports == e.basis_support
    moved = dict(report["supports"])
    moved["0"] = sorted(moved["0"])[1:] + [sorted(moved["1"])[0]]
    with pytest.raises(ck.CheckError):
        ck.check_css_build(dict(report, supports=moved), c1, c2)
    with pytest.raises(ck.CheckError):
        ck.check_css_build(dict(report, l=4), c1, c2)


@pytest.mark.parametrize("corrupt", ["swap_across_cosets", "phase_in_coset", "move_outside_c2"])
def test_lift_check_rejects_broken_lift(corrupt):
    e, report, c1, c2 = _steane()
    supports = ck.check_css_build(report, c1, c2)
    g = PermutationWithPhases(1, (1, 0), (0.5, 2.0))
    lifted = lift_logical(e, g)
    perm, phases = list(lifted.perm), list(lifted.phases)
    ck.check_lift(perm, phases, supports, c2, g.perm, g.phases)
    a, b = sorted(supports[0])[0], sorted(supports[1])[0]
    outside = next(t for t in range(1 << 7) if t not in supports[0] | supports[1])
    if corrupt == "swap_across_cosets":
        perm[a], perm[b] = perm[b], perm[a]
    elif corrupt == "phase_in_coset":
        phases[a] += 0.25
    else:
        perm[outside], perm[a] = perm[a], perm[outside]
    with pytest.raises(ck.CheckError):
        ck.check_lift(perm, phases, supports, c2, g.perm, g.phases)


def test_perm_parser_reads_writer_output():
    g = random_perm_gate(4, np.random.default_rng(9))
    n, perm, phases = ck.parse_perm(perm_text(g))
    assert n == 4 and perm == list(g.perm) and phases == list(g.phases)
    back = bio.read_perm(perm_text(g))
    assert np.allclose(to_unitary(back), perm_matrix(PermGate(n, tuple(perm), tuple(phases))))
