"""Decomposition of bipartite and multipartite unitaries into controlled gates.

The package factors dense unitary matrices into verified circuits of
controlled gates: alternating (sandwich) forms with logarithmic-recursion
gate bounds, exact 3-gate forms for permutations, generalized multiparty
forms, standard two-level gate compilations with closed-form count budgets,
and ancilla-assisted CNOT protocols tied to binary/XOR/nonnegative matrix
rank.
"""

from .gateir import (
    Ancilla,
    Circuit,
    CnotGate,
    ControlledGate,
    GenericGate,
    LocalGate,
    PartySpace,
    TwoLevelGate,
    apply_circuit,
    bipartite_space,
    circuit_permutation,
    classify_gate,
    classify_matrix,
    controlled,
    multiparty_space,
    validate_circuit,
    verify_decomposition,
)
from .matcore import (
    DEFAULT_EPS,
    RECON_TOL,
    InfeasibleError,
    PreconditionError,
    complete_isometry,
    compress_rows,
    is_unitary,
    unitary_eig,
)
from .multiparty import (
    MultipartiteSandwichResult,
    decompose_4party,
    decompose_multiparty,
    fourparty_bound,
    multiparty_bound,
)
from .permdecomp import (
    AbsolutelySingular,
    ComplexPermutation,
    apply_stages,
    decompose_multiparty_perm,
    decompose_perm3,
    decompose_perm3_classical,
    find_sdr,
)
from .protocols import (
    BackupProtocolResult,
    BinaryMatrix,
    PartialPermExpansion,
    RankReport,
    TransferResult,
    XorProtocolResult,
    analyze_pair_swap_family,
    emit_backup_protocol,
    emit_transfer_protocol,
    emit_two_term_cnot,
    emit_xor_protocol,
    pair_swap_family_offdiagonal,
    pair_swap_family_unitary,
    pp_expansion,
    rank_toolkit,
)
from .sandwich import (
    DegenerateRankTwoError,
    SandwichResult,
    decompose_2xd_aform,
    decompose_bcu3,
    decompose_sandwich,
    rank2_to_controlled,
    sandwich_bound,
)
from .schmidt import SchmidtDecomposition, matrix_rank, operator_schmidt, realign, schmidt_rank
from .stdgates import (
    StandardGateBudget,
    compile_controlled_to_standard,
    compile_perm_to_cnot_type,
    compile_to_standard,
)

__version__ = "0.1.0"
