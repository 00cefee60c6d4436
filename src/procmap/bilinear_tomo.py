"""Bi-linear process maps for measurement-prepared open-system experiments.

A process whose inputs are prepared by von Neumann measurement satisfies

    gamma(n) * Q(n) = <P(n)| M |P(n)>,

a sesquilinear form in the prepared projector P(n), where M is the process
tensor that `dynamics` defines and builds from the joint unitary and the
initial system-environment state.

The nine-projection qubit protocol determines every element combination of M
needed to predict the output state and outcome probability for an arbitrary
prepared projector; one extra mixed-state preparation (via a generalized
measurement) additionally resolves <1|M|1> so that mixed inputs can be
predicted too.  Both are solved by one least-squares fit of gamma*Q, into the
element table: a plain (9, 2, 2) or (10, 2, 2) complex array in the order that
`elements_to_json` documents.  The protocol labels and their projectors are the
protocol table in `records`.
"""

from __future__ import annotations

import numpy as np

from . import jsonio
from .dynamics import ZeroProbabilityOutcome
from .errors import ProcmapError, shown
from .qstate import IDENTITY_2, PAULIS, bloch_vector
from .records import MIXED_LABEL, NINE_STATE_LABELS, Dataset, fit

CROSS_PAIRS = ((1, 2), (1, 3), (2, 3))


class ZeroGamma(ZeroProbabilityOutcome):
    """A protocol record carries a vanishing outcome probability."""


class NotStrictlyMixed(ProcmapError):
    """The mixed-state record's input is pure, so it cannot resolve <1|M|1>."""


_BASIS = (IDENTITY_2,) + PAULIS


def _probe(*pairs) -> np.ndarray:
    """Sum of conj(vec A) (x) vec(B) over index pairs (a, b) into (1, sigma_1, sigma_2, sigma_3)."""
    return sum(np.outer(np.conj(_BASIS[a]), _BASIS[b]).ravel() for a, b in pairs)


# Row i reads table element i off M in the layout m16[(r'',r',s'',s'), (r,s)] =
# m[r, s, r'', r', s'', s'], which is also the layout of the degree-2 fit coefficients.
# The products below use np.einsum, not `@`: with numpy's bundled OpenBLAS 0.3.31 on an
# AVX-512 Xeon, one small complex `@` slows the pure-Python JSON work after it (a
# json.loads of a dimB = 64 scenario took 68 ms instead of 43 ms), and `simulate`
# writes its dataset right after this contraction.
_PROBES = np.array(
    [_probe((0, 0), (j, j)) for j in (1, 2, 3)]
    + [_probe((0, j), (j, 0)) for j in (1, 2, 3)]
    + [_probe((j, k), (k, j)) for j, k in CROSS_PAIRS]
    + [_probe((0, 0))]
)


def elements_to_json(elements: np.ndarray) -> dict:
    """The element table's JSON object, from its (9, 2, 2) or (10, 2, 2) array in this order:

        0..2  D_j    = <1|M|1> + <sigma_j|M|sigma_j>,            j = 1, 2, 3
        3..5  Y_j    = <1|M|sigma_j> + <sigma_j|M|1>,            j = 1, 2, 3
        6..8  Z_jk   = <sigma_j|M|sigma_k> + <sigma_k|M|sigma_j>, jk = 12, 13, 23
        9     <1|M|1>, present when a mixed-state record resolved it
    """
    mats = jsonio.matrices_to_json(elements)
    out = {"D": mats[0:3], "Y": mats[3:6], "Z": {f"{j}{k}": m for (j, k), m in zip(CROSS_PAIRS, mats[6:9])}}
    if len(mats) > 9:
        out["unit_unit"] = mats[9]
    return out


def element_table_from_map(m: np.ndarray) -> np.ndarray:
    """The (10, 2, 2) element table, <1|M|1> included: the process tensor M contracted with the probes."""
    m16 = m.transpose(2, 3, 4, 5, 0, 1).reshape(16, 4)
    return np.einsum("ei,ik->ek", _PROBES, m16).reshape(-1, 2, 2)


def solve_M_elements(dataset: Dataset) -> np.ndarray:
    """The (9, 2, 2) element table of M solved from the nine protocol records, or (10, 2, 2) with the mixed one.

    One least-squares fit (`records.fit` at degree 2) expresses gamma*Q as a
    sesquilinear form in the prepared projector.  The nine projectors pin down
    exactly the combinations of the element table, so the probes read them off
    the min-norm solution.  When the dataset holds a `MIXED_LABEL` record, its
    mixed input (Bloch norm < 1) is fitted as well and resolves <1|M|1> too.
    """
    mixed = MIXED_LABEL in dataset.labels
    fitted = dataset.subset(NINE_STATE_LABELS + ((MIXED_LABEL,) if mixed else ()))
    if mixed:
        p = bloch_vector(fitted.inputs[-1])
        norm_sq = float(np.dot(p, p))
        if norm_sq >= 1.0 - 1e-10:
            raise NotStrictlyMixed(
                f"record {MIXED_LABEL!r} has input Bloch norm {np.sqrt(norm_sq):.6f}, not strictly below 1"
            )
    for label, gamma in zip(fitted.labels, fitted.gammas.tolist()):
        if gamma <= 0:
            raise ZeroGamma(f"record {shown(label)} has gamma = {gamma}")

    # Nine records resolve the first nine elements; a mixed record adds the tenth, <1|M|1>.
    elements = np.einsum("ei,ik->ek", _PROBES[: len(fitted.labels)], fit(fitted, degree=2).coef)
    return elements.reshape(-1, 2, 2)
