"""Verification, discrete synthesis and CSS lifting for Z-bias-preserving
quantum gates."""

from .linalg import (
    DEFAULT_TOL,
    DENSE_QUBIT_CAP,
    GOLDEN_THETA,
    pauli_z_string,
    phase_optimized_error,
    worst_case_error,
)
from .zx import ZXBlock, ZXDecomposition, block, block_matrix, is_z_type, zx_decompose
from .verify import (
    BpVerdict,
    PermutationWithPhases,
    check_normalizer,
    check_permutation,
    check_zx,
    hadamard_bound,
    random_bp,
    to_unitary,
)
from .synth import (
    Gate,
    GateSequence,
    SynthesisReport,
    approximate_phase,
    diagonal_to_circuit,
    factor_dp,
    permutation_to_circuit,
    simulate,
    simulate_restricted,
    synthesize,
)
from .css import (
    BinaryCode,
    CssEncoding,
    build_css,
    check_equicoherent,
    lift_logical,
    restrict_physical,
)

__version__ = "0.1.0"
