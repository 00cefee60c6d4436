"""Least-squares linear process tomography, map application, and map diagnostics.

The process map Lambda is a plain N^2 x N^2 complex array, Hermitian for a
physical process, with row composite index (r*N + r') and column composite
index (s*N + s'): the `rrp-ssp` layout of the displayed maps it is tested
against, which `map_to_json` writes out.  Acting on a state contracts the
primed indices: out[r,s] = sum_{r's'} Lambda[rr',ss'] rho[r',s'].
Reconstruction fits the outputs as a linear function of the inputs
(`records.fit` at degree 1); with exactly N^2 independent inputs this equals
the dual-frame solution, and more records are fitted in the least-squares sense.
"""

from __future__ import annotations

import numpy as np

from . import jsonio
from .errors import EXIT_NOT_A_FRAME, ProcmapError
from .qstate import DIM_SYS, dagger, hermiticity_residual
from .records import Dataset, fit

LAYOUT_TAG = "rrp-ssp"


class NotAFrame(ProcmapError):
    """The supplied input states do not form an invertible tomography frame."""

    exit_code = EXIT_NOT_A_FRAME


def map_to_json(lam: np.ndarray) -> dict:
    """The map's JSON object: its dimension, layout tag and matrix."""
    return {"dim": DIM_SYS, "layout": LAYOUT_TAG, "lam": jsonio.matrix_to_json(lam)}


MAX_FRAME_COND = 1e12


def reconstruct_linear_map(dataset: Dataset) -> np.ndarray:
    """The N^2 x N^2 process map fitted by least squares to the N^2 or more (input, output) records of `dataset`.

    Raises NotAFrame unless the inputs span all N x N matrices with a design
    condition number of at most MAX_FRAME_COND.
    """
    n = DIM_SYS
    result = fit(dataset, degree=1)
    if result.rank < n * n or result.cond > MAX_FRAME_COND:
        raise NotAFrame(f"inputs are not a tomography frame (rank {result.rank} of {n * n}, cond {result.cond:.3e})")
    # coef[(r',s'), (r,s)] is the weight of rho[r',s'] in out[r,s].
    lam4 = result.coef.reshape(n, n, n, n).transpose(2, 0, 3, 1)
    return lam4.reshape(n * n, n * n)


def apply_linear_map(lam: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Contract the map with a state: out[r,s] = sum Lambda[rr',ss'] rho[r',s']."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (DIM_SYS, DIM_SYS):
        raise ValueError(f"state has shape {rho.shape}, expected ({DIM_SYS}, {DIM_SYS})")
    lam4 = lam.reshape((DIM_SYS,) * 4)
    return np.einsum("rpsq,pq->rs", lam4, rho)


def map_diagnostics(lam: np.ndarray) -> dict:
    """Spectral diagnostics of the map matrix as a JSON object; negative eigenvalues flag a bad fit."""
    w = np.linalg.eigvalsh(0.5 * (lam + dagger(lam)))
    return {
        "eigenvalues": w.tolist(),
        "trace": float(np.sum(w)),
        "hermiticity_residual": hermiticity_residual(lam),
        "min_eigenvalue": float(w[0]),
    }
