"""Open-system quantum process tomography with explicit state preparation.

Simulates tomography experiments for the two standard preparation procedures
(stochastic pin-then-rotate and preparation by measurement), reconstructs
linear and bi-linear process maps from the resulting records, and classifies
a process as Linear, Bilinear, or Neither from a 12-projection protocol.
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
    apply_pin_map,
    prepare_generalized,
    prepare_projective,
    prepare_stochastic,
)
from .records import NINE_STATE_LABELS, TWELVE_STATE_LABELS, Dataset, Fit, MissingRecord, TomographyRecord, fit
from .verify import VerificationReport, classify, gamma_completeness

__version__ = "0.1.0"
