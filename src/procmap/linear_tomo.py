"""Least-squares linear process tomography, map application, and map diagnostics.

The process map Lambda is stored as an N^2 x N^2 Hermitian matrix with row
composite index (r*N + r') and column composite index (s*N + s'), matching
the layout of the displayed maps it is tested against.  Acting on a state
contracts the primed indices: out[r,s] = sum_{r's'} Lambda[rr',ss'] rho[r',s'].
Reconstruction fits the outputs as a linear function of the inputs
(`records.fit` at degree 1); with exactly N^2 independent inputs this equals
the dual-frame solution, and more records are fitted in the least-squares sense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import EXIT_NOT_A_FRAME, ProcmapError
from .qstate import DIM_SYS, dagger, hermiticity_residual
from .records import fit

LAYOUT_TAG = "rrp-ssp"


class NotAFrame(ProcmapError):
    """The supplied input states do not form an invertible tomography frame."""

    exit_code = EXIT_NOT_A_FRAME


@dataclass(frozen=True)
class LinearProcessMap:
    """Linear process map of the qubit system in (r,r') x (s,s') storage."""

    mat: np.ndarray

    def __post_init__(self):
        n2 = DIM_SYS * DIM_SYS
        if self.mat.shape != (n2, n2):
            raise ValueError(f"map matrix has shape {self.mat.shape}, expected ({n2}, {n2})")

    def hermiticity_residual(self) -> float:
        return hermiticity_residual(self.mat)

    def to_json(self) -> dict:
        return {"dim": DIM_SYS, "layout": LAYOUT_TAG, "lam": jsonio.matrix_to_json(self.mat)}


MAX_FRAME_COND = 1e12


def reconstruct_linear_map(records) -> LinearProcessMap:
    """Process map fitted by least squares to N^2 or more (input, output) records.

    Raises NotAFrame unless the inputs span all N x N matrices with a design
    condition number of at most MAX_FRAME_COND.
    """
    records = list(records)
    if not records:
        raise NotAFrame("no records supplied")
    n = records[0].input.shape[0]
    if any(np.shape(m) != (n, n) for rec in records for m in (rec.input, rec.output)):
        raise NotAFrame("records have inconsistent dimensions")
    result = fit(records, degree=1)
    if result.rank < n * n or result.cond > MAX_FRAME_COND:
        raise NotAFrame(f"inputs are not a tomography frame (rank {result.rank} of {n * n}, cond {result.cond:.3e})")
    # coef[(r',s'), (r,s)] is the weight of rho[r',s'] in out[r,s].
    lam4 = result.coef.reshape(n, n, n, n).transpose(2, 0, 3, 1)
    return LinearProcessMap(mat=lam4.reshape(n * n, n * n))


def apply_linear_map(lam: LinearProcessMap, rho: np.ndarray) -> np.ndarray:
    """Contract the map with a state: out[r,s] = sum Lambda[rr',ss'] rho[r',s']."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (DIM_SYS, DIM_SYS):
        raise ValueError(f"state has shape {rho.shape}, expected ({DIM_SYS}, {DIM_SYS})")
    lam4 = lam.mat.reshape((DIM_SYS,) * 4)
    return np.einsum("rpsq,pq->rs", lam4, rho)


@dataclass(frozen=True)
class MapDiagnostics:
    eigenvalues: np.ndarray
    trace: float
    hermiticity_residual: float
    min_eigenvalue: float

    def to_json(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "trace": float(self.trace),
            "hermiticity_residual": float(self.hermiticity_residual),
            "min_eigenvalue": float(self.min_eigenvalue),
        }


def map_diagnostics(lam: LinearProcessMap) -> MapDiagnostics:
    """Spectral diagnostics of the map matrix; negative eigenvalues flag a bad fit."""
    herm_res = lam.hermiticity_residual()
    sym = 0.5 * (lam.mat + dagger(lam.mat))
    w = np.linalg.eigvalsh(sym)
    return MapDiagnostics(
        eigenvalues=w,
        trace=float(np.sum(w)),
        hermiticity_residual=float(herm_res),
        min_eigenvalue=float(w[0]),
    )
