"""Open-system quantum process tomography with explicit state preparation.

Every input is prepared by one primitive, `prepare_generalized`: an operation
(`OutcomeMap`) on the system factor of the initial joint state gamma0,
renormalized by its probability; every size is read off the arrays, and the
system is one qubit (`qstate.DIM_SYS`).  Linear and bi-linear
process maps are reconstructed from the resulting records, and a process is
classified as Linear, Bilinear, or Neither from a 12-projection protocol.
"""

from .bilinear_tomo import (
    BilinearProcessMap,
    MElementTable,
    build_M_from_dynamics,
    element_table_from_map,
    predict_output,
    solve_M_elements,
)
from .dynamics import (
    ProcessSpec,
    correlated_pair_state,
    dynamical_map_fixed_env,
    heisenberg_hamiltonian,
    run_process,
    unitary_from_hamiltonian,
)
from .errors import ProcmapError
from .linear_tomo import (
    LinearProcessMap,
    NotAFrame,
    apply_linear_map,
    map_diagnostics,
    reconstruct_linear_map,
)
from .prep import (
    GeneralizedMeasurement,
    InvalidMeasurement,
    OutcomeMap,
    PreparedState,
    ZeroProbabilityOutcome,
    prepare_generalized,
)
from .records import NINE_STATE_LABELS, TWELVE_STATE_LABELS, Dataset, Fit, MissingRecord, TomographyRecord, fit
from .verify import VerificationReport, classify, gamma_completeness

__version__ = "0.1.0"
