"""Open-system quantum process tomography with explicit state preparation.

The process layer, `dynamics`, holds both halves of the experiment as plain arrays.
An operation on the system is its 4x4 superoperator S (`superoperator` builds it
from Kraus operators), and the process is its tensor M, a (2,)*6 array built once
from (U, gamma0) (`build_M_from_dynamics`).  Every input is prepared by one operation
on the system factor of the initial joint state gamma0: `prepare_generalized` reads
its probability gamma off S, and `run_process` its output off S and M, for one S or
a dataset's whole stack of S in one call.  Every size is read off the arrays, and the
system is one qubit (`qstate.DIM_SYS`).  Linear and bi-linear process maps are
reconstructed from the records, as the 4x4 map array and the element table array,
and a process is classified as Linear, Bilinear, or Neither from a 12-projection
protocol, in a report that is a plain JSON object.
"""

from .bilinear_tomo import element_table_from_map, elements_to_json, solve_M_elements
from .dynamics import (
    InvalidMeasurement,
    ProcessSpec,
    ZeroProbabilityOutcome,
    build_M_from_dynamics,
    check_completeness,
    correlated_pair_state,
    heisenberg_hamiltonian,
    prepare_generalized,
    run_process,
    superoperator,
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
from .records import NINE_STATE_LABELS, TWELVE_STATE_LABELS, Dataset, Fit, MissingRecord, fit
from .verify import classify, gamma_completeness

__version__ = "0.1.0"
