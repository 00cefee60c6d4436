"""Open-system quantum process tomography with explicit state preparation.

Every input is prepared by one primitive, `prepare_generalized`: an operation
(`OutcomeMap`) on the system factor of the initial joint state gamma0, kept as
its superoperator S with its probability gamma; every size is read off the
arrays, and the system is one qubit (`qstate.DIM_SYS`).  Each record's output
is S contracted with the process tensor M, built once from (U, gamma0).  Linear
and bi-linear process maps are reconstructed from the records, and a process is
classified as Linear, Bilinear, or Neither from a 12-projection protocol.
"""

from .bilinear_tomo import (
    BilinearProcessMap,
    MElementTable,
    build_M_from_dynamics,
    element_table_from_map,
    solve_M_elements,
)
from .dynamics import (
    ProcessSpec,
    correlated_pair_state,
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
from .records import NINE_STATE_LABELS, TWELVE_STATE_LABELS, Dataset, Fit, MissingRecord, fit
from .verify import VerificationReport, classify, gamma_completeness

__version__ = "0.1.0"
