"""Bi-linear process maps for measurement-prepared open-system experiments.

A process whose inputs are prepared by von Neumann measurement satisfies

    gamma(n) * Q(n) = <P(n)| M |P(n)>,

a sesquilinear form in the prepared projector P(n).  The map M is a 6-index
tensor built from the joint unitary and the initial system-environment state:

    M[(r,s), r''r'; s''s'] = sum_{a,b,e} U[(r,e),(r',a)] gamma0[(r'',a),(s'',b)]
                                          conj(U[(s,e),(s',b)])

stored here as an ndarray m[r, s, r'', r', s'', s'].  Composite indices pack
the system index first: (i, a) -> i * dim_env + a.  The stored tensor is
Hermitian in the exact sense conj(m[r,s,x,p,y,q]) = m[s,r,y,q,x,p], and its
full trace sum_{r,p,x} m[r,r,x,p,x,p] is the system dimension, not 1.

The nine-projection qubit protocol determines every element combination of M
needed to predict the output state and outcome probability for an arbitrary
prepared projector; one extra mixed-state preparation (via a generalized
measurement) additionally resolves <1|M|1> so that mixed inputs can be
predicted too.  Both are solved by one least-squares fit of gamma*Q.  The
protocol labels and their projectors are the protocol table in `records`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsonio
from .errors import ProcmapError
from .prep import ZeroProbabilityOutcome
from .qstate import DIM_SYS, IDENTITY_2, PAULIS, pauli_decompose
from .records import NINE_STATE_LABELS, TomographyRecord, fit, select

CROSS_PAIRS = ((1, 2), (1, 3), (2, 3))


class ZeroGamma(ZeroProbabilityOutcome):
    """A protocol record carries a vanishing outcome probability."""


class NotStrictlyMixed(ProcmapError):
    """The mixed-state record's input is pure, so it cannot resolve <1|M|1>."""


class MixedWithoutUnitUnit(Exception):
    """Prediction for a mixed preparation requires the <1|M|1> element."""


@dataclass(frozen=True)
class BilinearProcessMap:
    """Dense 6-index process tensor m[r, s, r'', r', s'', s'] of the qubit system."""

    m: np.ndarray

    def __post_init__(self):
        if self.m.shape != (DIM_SYS,) * 6:
            raise ValueError(f"tensor has shape {self.m.shape}, expected {(DIM_SYS,) * 6}")


def build_M_from_dynamics(spec) -> BilinearProcessMap:
    """Direct construction of the process tensor from (U, gamma0).

    The raw contraction is Hermitian up to rounding; the result is
    symmetrized so the stored hermiticity relation holds bit-exactly.
    """
    shape4 = (DIM_SYS, spec.dim_env) * 2
    u4 = np.asarray(spec.u, dtype=complex).reshape(shape4)
    g4 = np.asarray(spec.gamma0, dtype=complex).reshape(shape4)
    # raw[r,s,x,p,y,q] = sum_{e,a,b} u4[r,e,p,a] g4[x,a,y,b] conj(u4[s,e,q,b]), as two BLAS products
    ug = np.tensordot(u4, g4, axes=([3], [1]))
    raw = np.tensordot(ug, np.conj(u4), axes=([1, 5], [1, 3])).transpose(0, 4, 2, 1, 3, 5)
    m = 0.5 * (raw + np.conj(raw).transpose(1, 0, 4, 5, 2, 3))
    return BilinearProcessMap(m=m)


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


@dataclass(frozen=True)
class MElementTable:
    """The element combinations of M resolvable by the nine-projection protocol.

    `elements` is a complex array of shape (9, 2, 2), or (10, 2, 2) when a
    mixed-state record resolved <1|M|1>, in this order:

        0..2  D_j    = <1|M|1> + <sigma_j|M|sigma_j>,            j = 1, 2, 3
        3..5  Y_j    = <1|M|sigma_j> + <sigma_j|M|1>,            j = 1, 2, 3
        6..8  Z_jk   = <sigma_j|M|sigma_k> + <sigma_k|M|sigma_j>, jk = 12, 13, 23
        9     <1|M|1>
    """

    elements: np.ndarray

    @property
    def unit_unit(self) -> np.ndarray | None:
        return self.elements[9] if len(self.elements) > 9 else None

    def to_json(self) -> dict:
        mats = [jsonio.matrix_to_json(m) for m in self.elements]
        cross = {f"{j}{k}": m for (j, k), m in zip(CROSS_PAIRS, mats[6:9])}
        out = {"D": mats[0:3], "Y": mats[3:6], "Z": cross}
        if len(mats) > 9:
            out["unit_unit"] = mats[9]
        return out


def element_table_from_map(bmap: BilinearProcessMap) -> MElementTable:
    """Element table (with <1|M|1>) by contracting M with the {1, sigma_j} probes."""
    m16 = bmap.m.transpose(2, 3, 4, 5, 0, 1).reshape(16, 4)
    return MElementTable(elements=np.einsum("ei,ik->ek", _PROBES, m16).reshape(-1, 2, 2))


def solve_M_elements(records, mixed_record: TomographyRecord | None = None) -> MElementTable:
    """Solve the element combinations of M from the nine protocol records.

    One least-squares fit (`records.fit` at degree 2) expresses gamma*Q as a
    sesquilinear form in the prepared projector.  The nine projectors pin down
    exactly the combinations in MElementTable, so the probes read them off the
    min-norm solution.  When a mixed-state record (Bloch norm < 1) is fitted
    as well, <1|M|1> is resolved too.
    """
    fitted = select(records, NINE_STATE_LABELS)
    if mixed_record is not None:
        _, half_p = pauli_decompose(mixed_record.input)
        norm_sq = 4.0 * float(np.dot(half_p, half_p))
        if norm_sq >= 1.0 - 1e-10:
            raise NotStrictlyMixed(
                f"record {mixed_record.label!r} has input Bloch norm {np.sqrt(norm_sq):.6f}, not strictly below 1"
            )
        fitted.append(mixed_record)
    for rec in fitted:
        if rec.gamma <= 0:
            raise ZeroGamma(f"record {rec.label!r} has gamma = {rec.gamma}")

    # Nine records resolve the first nine elements; a mixed record adds the tenth, <1|M|1>.
    elements = np.einsum("ei,ik->ek", _PROBES[: len(fitted)], fit(fitted, degree=2).coef)
    return MElementTable(elements=elements.reshape(-1, 2, 2))


def predict_output(table: MElementTable, p) -> tuple[float, np.ndarray]:
    """Outcome probability and output state for a preparation with Bloch vector p.

    |p| must be 1 (a projector) unless the table carries <1|M|1>, in which
    case mixed preparations with |p| < 1 are supported as well.
    """
    p = np.asarray(p, dtype=float)
    norm_sq = float(np.dot(p, p))
    pure = abs(norm_sq - 1.0) <= 1e-10
    if not pure and table.unit_unit is None:
        raise MixedWithoutUnitUnit(
            f"Bloch norm {np.sqrt(norm_sq):.6f} < 1 but the table has no <1|M|1> element"
        )
    cross = [p[j - 1] * p[k - 1] for j, k in CROSS_PAIRS]
    weights = np.concatenate([p**2, p, cross, [0.0 if pure else 1.0 - norm_sq]])
    four_gq = np.einsum("e,ers->rs", weights[: len(table.elements)], table.elements)
    gamma = float(np.trace(four_gq).real) / 4.0
    if gamma <= 1e-12:
        raise ZeroGamma(f"predicted outcome probability {gamma:.3e} is not positive")
    q = four_gq / (4.0 * gamma)
    return gamma, 0.5 * (q + np.conj(q).T)
