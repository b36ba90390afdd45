"""Always-on spin-chain processor core: gates from free evolution, swaps, locals."""

from .analysis import (
    ConcatCost,
    CostReport,
    RobustnessReport,
    TransferTimeReport,
    cost_of_program,
    qft_core_census,
    quadratic_fit_residual,
    robustness_fit,
    steane_concat_cost,
    switched_qft_cost,
    switched_transfer_time,
    timing_error,
)
from .applications import (
    PauliString,
    TrotterPlan,
    ancilla_pauli_program,
    axis_frame,
    direct_pauli_program,
    qft_program,
    trotter_program,
)
from .chain import (
    CERTIFICATE_TOL,
    CouplingProfile,
    JacobiMatrix,
    MirrorCertificate,
    MIRROR_TOL,
    ProfileDiagnostics,
    Spectrum,
    christandl_profile,
    mirror_certificate,
    reconstruct_profile,
    single_excitation_matrix,
    validate_profile,
    zero_phase_profile,
)
from .dynamics import (
    Layout,
    Propagator,
    StateVector,
    apply_local,
    evolution_overlaps,
    evolve,
    fidelity_up_to_global_phase,
    full_propagator,
    mirror_map,
    random_state,
    swap_qubits,
)
from .errors import (
    IllConditionedError,
    InsufficientDataError,
    InvalidCertificateError,
    InvalidProfileError,
    ReconstructionInfeasibleError,
    SizeLimitError,
    UnsupportedConfigurationError,
)
from .gates import (
    FreeEvolve,
    GateProgram,
    HADAMARD,
    IDENTITY_2,
    Local,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Swap,
    TargetSpec,
    abc_decompose,
    cat_state_program,
    controlled_reflection_program,
    controlled_unitary_program,
    controlled_z_program,
    execute,
    phase_correction,
    phase_gate,
    program_unitary,
    reflection_conjugator,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
