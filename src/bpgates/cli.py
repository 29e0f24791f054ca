"""Command-line front-end.

Exit codes: 0 for affirmative/successful results, 1 for negative verdicts
(not bias-preserving, not equicoherent, obstruction found), 2 for input or
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from io import StringIO

import numpy as np

from . import css, io, synth, verify, zx
from .linalg import (
    DEFAULT_TOL,
    GOLDEN_THETA,
    index_labels,
    phase_optimized_error,
    require_dense_cap,
    require_unitary,
    worst_case_error,
)
from .stages import Stage

log = logging.getLogger(__name__)


def _load_matrix(path: str, tol: float) -> np.ndarray:
    return require_unitary(io.read_matrix(io.read_file(path)), tol)


def _load_gate(perm_path: str | None, matrix_path: str | None, tol: float) -> verify.BpVerdict:
    """The verdict on a gate handed in as a perm file or as a dense matrix:
    the one place where a file becomes the PermutationWithPhases form."""
    if matrix_path is None:
        return verify.BpVerdict(is_bp=True, canonical=io.read_perm(io.read_file(perm_path)))
    return verify.check_permutation(_load_matrix(matrix_path, tol), tol)


def _write(path: str | None, writer, obj) -> None:
    """obj rendered by writer to the file at path, or to stdout without one."""
    if path:
        io.write_file(path, writer, obj)
    else:
        writer(obj, sys.stdout)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _timed(name: str, verifier, *args):
    """(result, wall seconds) of one verifier call, logged at its start and end."""
    with Stage(log, name) as stage:
        result = verifier(*args)
    return result, stage.seconds


def cmd_check(args) -> int:
    G = _load_matrix(args.matrix, args.tol)
    verdict, t_perm = _timed("permutation", verify.check_permutation, G, args.tol)
    agree_zx, t_zx = _timed("zx", verify.check_zx, G, args.tol)
    agree_norm, t_norm = _timed("normalizer", verify.check_normalizer, G, args.tol)
    if verdict.is_bp != agree_zx or verdict.is_bp != agree_norm:
        print(
            f"error: verifier disagreement (perm={verdict.is_bp} zx={agree_zx} "
            f"normalizer={agree_norm})",
            file=sys.stderr,
        )
        return 2
    payload: dict = {
        "bp": verdict.is_bp,
        "checks": {
            "permutation": verdict.is_bp,
            "zx": agree_zx,
            "normalizer": agree_norm,
        },
        # Wall seconds per verifier; kept out of "checks", which holds verdicts.
        "seconds": {"permutation": t_perm, "zx": t_zx, "normalizer": t_norm},
    }
    if verdict.is_bp:
        p = verdict.canonical
        phases = p.phases.tolist()
        perm = dict(zip(index_labels(np.arange(1 << p.n), p.n), index_labels(p.perm, p.n)))
        payload["canonical"] = {"perm": perm, "phases": phases}
        lines = [f"PERM {s}->{t} phase={x:.17g}" for (s, t), x in zip(perm.items(), phases)]
        _emit(args, payload, ["BP yes"] + lines)
        return 0
    payload["witness"] = verdict.witness
    _emit(args, payload, ["BP no", f"WITNESS {verdict.witness}"])
    return 1


def cmd_decompose_zx(args) -> int:
    G = _load_matrix(args.matrix, args.tol)
    _write(args.output, io.write_zx, zx.zx_decompose(G, args.tol))
    return 0


def cmd_distance(args) -> int:
    U = _load_matrix(args.matrix, args.tol)
    V = _load_matrix(args.other, args.tol)
    value = (
        phase_optimized_error(U, V) if args.phase_optimized else worst_case_error(U, V)
    )
    _emit(args, {"error": value}, [f"E {value:.17g}"])
    return 0


def cmd_synth(args) -> int:
    verdict = _load_gate(args.target, args.matrix, args.tol)
    if not verdict.is_bp:
        print(f"not bias-preserving: {verdict.witness}", file=sys.stderr)
        return 1
    report = synth.synthesize(verdict.canonical, eps=args.eps, theta=args.theta)
    if args.output:
        io.write_file(args.output, io.write_circuit, report.sequence)
    payload = {
        "achieved_error": report.achieved_error,
        "target_eps": report.target_eps,
        "gate_counts": report.gate_counts,
        "ancillas": report.sequence.n_anc,
        "stage_gate_counts": report.stage_gate_counts,
        "max_phase_residual": report.max_phase_residual,
        "factor_reps": list(report.factor_reps),
    }
    lines = [
        f"ACHIEVED {report.achieved_error:.17g}",
        f"EPS {report.target_eps:.17g}",
        f"ANCILLAS {report.sequence.n_anc}",
    ] + [f"COUNT {k} {v}" for k, v in sorted(report.gate_counts.items())]
    if not args.output:
        buf = StringIO()
        io.write_circuit(report.sequence, buf)
        lines += [buf.getvalue().rstrip("\n")]
    _emit(args, payload, lines)
    return 0


def cmd_simulate(args) -> int:
    seq = io.read_circuit(io.read_file(args.circuit))
    # refused before simulating: the push itself is 2^n wide
    n = seq.n_data if args.restrict else seq.n_total
    require_dense_cap(n)
    U = verify.to_unitary(synth.simulate_restricted(seq) if args.restrict else synth.simulate(seq))
    _write(args.output, io.write_matrix, U)
    return 0


def _load_css(args) -> css.CssEncoding:
    c1 = io.read_code(io.read_file(args.c1))
    c2 = io.read_code(io.read_file(args.c2))
    return css.build_css(c1, c2)


# Coset-table entries whose SUPPORT labels css-build makes at a time.
_SUPPORT_BLOCK = 1 << 16


def _support_rows(e: css.CssEncoding):
    """(logical labels, sorted support labels) of the rows of e's coset
    table, one block of rows at a time; equal-width labels sort as their
    indices do."""
    size = max(1, _SUPPORT_BLOCK // e.cosets.shape[1])
    for start in range(0, len(e.cosets), size):
        block = e.cosets[start:start + size]
        yield (index_labels(np.arange(start, start + len(block)), e.k),
               index_labels(np.sort(block, axis=1), e.n))


def cmd_css_build(args) -> int:
    e = _load_css(args)
    transversal = ["".join(str(int(b)) for b in row) for row in e.transversal]
    if args.json:
        supports: dict = {}
        for labels, rows in _support_rows(e):
            supports.update(zip(labels, rows))
        payload = {"n": e.n, "k": e.k, "l": e.l, "transversal": transversal, "supports": supports}
        _emit(args, payload, [])
        return 0
    print(f"CSS n={e.n} k={e.k} l={e.l}")
    for row in transversal:
        print(f"TRANSVERSAL {row}")
    # streamed: the text of one block of rows is held at a time
    for labels, rows in _support_rows(e):
        sys.stdout.write("".join(f"SUPPORT {x} {{{', '.join(support)}}}\n"
                                 for x, support in zip(labels, rows)))
    return 0


def cmd_css_check(args) -> int:
    e = _load_css(args)
    ok, l, violation = css.check_equicoherent(e, args.tol)
    payload = {"equicoherent": ok, "l": l, "violation": violation}
    if ok:
        _emit(args, payload, [f"EQUICOHERENT yes l={l}"])
        return 0
    _emit(args, payload, ["EQUICOHERENT no", f"WITNESS {violation}"])
    return 1


def cmd_css_lift(args) -> int:
    e = _load_css(args)
    g = io.read_perm(io.read_file(args.gate))
    _write(args.output, io.write_perm, css.lift_logical(e, g))
    return 0


def cmd_css_restrict(args) -> int:
    e = _load_css(args)
    verdict = _load_gate(args.gate, args.matrix, args.tol)
    if not verdict.is_bp:
        print(f"REJECTED {verdict.witness}", file=sys.stderr)
        return 1
    try:
        logical = css.restrict_physical(e, verdict.canonical, args.tol)
    except css.NotLogicalOperatorError as exc:
        print(f"REJECTED {exc}", file=sys.stderr)
        return 1
    _write(args.output, io.write_perm, logical)
    return 0


def _tolerance(text: str) -> float:
    """An argparse type: a finite float ≥ 0."""
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not 0.0 <= tol < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between
    calls, so in-process callers of main share it."""
    parser = argparse.ArgumentParser(
        prog="bpgates",
        description="Verify, decompose, synthesize and CSS-lift Z-bias-preserving gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tol=True, json=True):
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        if json:
            p.add_argument("--json", action="store_true")

    def add_css(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--c1", required=True, help="classical code file for C1")
        p.add_argument("--c2", required=True, help="classical code file for C2")
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("check", help="decide bias preservation of a matrix")
    p.add_argument("--matrix", required=True)
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose-zx", help="print the ZX-decomposition")
    p.add_argument("--matrix", required=True)
    p.add_argument("--output")
    add_common(p, json=False)
    p.set_defaults(func=cmd_decompose_zx)

    p = sub.add_parser("distance", help="worst-case gate-replacement error")
    p.add_argument("--matrix", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--phase-optimized", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("synth", help="compile a gate over {X, Rz, CNOT, CCNOT}")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--target", help="permutation-with-phases file")
    group.add_argument("--matrix", help="dense matrix file (verified first)")
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--theta", type=float, default=GOLDEN_THETA)
    p.add_argument("--output")
    add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="dense unitary of a circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--restrict", action="store_true", help="data-qubit restriction")
    p.add_argument("--output")
    p.set_defaults(func=cmd_simulate)

    add_common(add_css("css-build", cmd_css_build, "transversal and coset supports"), tol=False)
    add_common(add_css("css-check", cmd_css_check, "check the encoding is equicoherent"))
    p = add_css("css-lift", cmd_css_lift, "physical gate realizing a logical one")
    p.add_argument("--gate", required=True, help="logical gate (perm file)")
    p.add_argument("--output")
    p = add_css("css-restrict", cmd_css_restrict, "logical gate of a physical one")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="physical gate as dense matrix")
    group.add_argument("--gate", help="physical gate as perm file")
    p.add_argument("--output")
    add_common(p, json=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        io.FormatError,
        css.CodeConstructionError,
        synth.PhaseApproximationError,
        synth.AncillaNotRestoredError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
