"""Householder-reflection circuit synthesis for sparse states and isometries.

The package compiles quantum states, isometries and unitaries given in the
computational basis into structured gate sequences (CNOTs, single-qubit
gates, multi-controlled gates, diagonals, permutations, opaque
state-preparation blocks), verifies them by exact simulation, and audits
their CNOT cost with a closed-form cost model.  Sparse inputs get dedicated
decompositions whose cost scales with the nonzero count and its geometry
rather than with the full dimension.
"""

from .numerics import (
    EPS0,
    SparseIsometry,
    NotAnIsometryError,
    ValidationReport,
    apply_permutations,
    matrix_from_dict,
    matrix_to_dict,
    validate_isometry,
)
from .householder import (
    ReductionRecord,
    fill_in_predicate,
    reduce_column,
    sparse_reflection,
)
from .gates import (
    CNOT,
    MCU,
    MCX,
    Decrement,
    Diagonal,
    H0Phase,
    PermutationGate,
    SPBlock,
    SingleQubit,
    StructuredCircuit,
    apply_gate,
    apply_circuit,
    circuit_from_dict,
    circuit_to_dict,
    circuit_unitary,
    equivalent,
    gate_unitary,
    simulate_on_state,
)
from .costs import (
    AncillaRegime,
    CostReport,
    audit_circuit,
    cost_decrement,
    cost_dense_sp,
    cost_diagonal,
    cost_mcu,
    cost_mcx,
    cost_permutation,
    parse_regime,
    pivot_count_bound,
)
from .pivoting import (
    PivotPlan,
    QubitSplitting,
    choose_splitting,
    pivot_plan,
    sparse_state_prep_on,
)
from .ordering import (
    EliminationStrategy,
    EnvelopeProfile,
    elim_count,
    envelope,
    greedy_order,
    optimal_row_perm,
    simulate_pattern_reduction,
)
from .methods import (
    DecompositionResult,
    StepTrace,
    controlled_u_via_householder,
    dense_householder_iso,
    dense_householder_unitary,
    fixed_envelope_iso,
    householder_up_to,
    no_fill_in_iso,
    perm_diag_reduce,
    perm_via_householder,
    sparse_householder_iso,
)

__version__ = "0.1.0"
