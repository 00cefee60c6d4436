"""Open-system quantum process tomography with explicit state preparation.

An operation on the system is its 4x4 superoperator S, a plain array
(`superoperator` builds it from Kraus operators), and the process is its tensor
M, a plain (2,)*6 array built once from (U, gamma0) (`build_M_from_dynamics`).
Every input is prepared by one operation on the system factor of the initial joint
state gamma0: `prepare_generalized` reads its probability gamma off S, and `run_process`
its output off S and M, for one S or a dataset's whole stack of S in one call.  Every
size is read off the arrays, and the system is one qubit (`qstate.DIM_SYS`).  Linear and
bi-linear process maps are reconstructed from the records, as the 4x4 map array and the
element table array, and a process is classified as Linear, Bilinear, or Neither from a
12-projection protocol, in a report that is a plain JSON object.
"""

from .bilinear_tomo import (
    build_M_from_dynamics,
    element_table_from_map,
    elements_to_json,
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
    NotAFrame,
    apply_linear_map,
    map_diagnostics,
    map_to_json,
    reconstruct_linear_map,
)
from .prep import (
    InvalidMeasurement,
    ZeroProbabilityOutcome,
    check_completeness,
    prepare_generalized,
    superoperator,
)
from .records import NINE_STATE_LABELS, TWELVE_STATE_LABELS, Dataset, Fit, MissingRecord, fit
from .verify import classify, gamma_completeness

__version__ = "0.1.0"
