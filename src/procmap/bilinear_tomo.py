"""Bi-linear process maps for measurement-prepared open-system experiments.

A process whose inputs are prepared by von Neumann measurement satisfies

    gamma(n) * Q(n) = <P(n)| M |P(n)>,

a sesquilinear form in the prepared projector P(n).  The map M is a 6-index
tensor built from the joint unitary and the initial system-environment state:

    M[(r,s), r''r'; s''s'] = sum_{a,b,e} U[(r,e),(r',a)] gamma0[(r'',a),(s'',b)]
                                          conj(U[(s,e),(s',b)])

stored here as an ndarray m[r, s, r'', r', s'', s'].  Composite indices pack
the system index first: (i, a) -> i * dim_env + a.  The stored tensor is
Hermitian in the exact sense conj(m[r,s,x,p,y,q]) = m[s,r,y,q,x,p] and has
unit trace sum_{r,p,x} m[r,r,x,p,x,p].

The nine-projection qubit protocol determines every element combination of M
needed to predict the output state and outcome probability for an arbitrary
prepared projector; one extra mixed-state preparation (via a generalized
measurement) additionally resolves <1|M|1> so that mixed inputs can be
predicted too.  Both are solved by one least-squares fit of gamma*Q.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import jsonio
from .prep import ZeroProbabilityOutcome
from .qstate import IDENTITY_2, PAULIS, hermiticity_residual, pauli_decompose, state_from_bloch
from .records import MissingRecord, TomographyRecord, fit, record_map

SQRT2 = float(np.sqrt(2.0))

# Bloch vectors of the nine-projection protocol, in protocol order.
NINE_STATE_LABELS = ("1+", "1-", "2+", "2-", "3+", "3-", "4+", "5+", "6+")
_BLOCH_BY_LABEL = {
    "1+": (1.0, 0.0, 0.0),
    "1-": (-1.0, 0.0, 0.0),
    "2+": (0.0, 1.0, 0.0),
    "2-": (0.0, -1.0, 0.0),
    "3+": (0.0, 0.0, 1.0),
    "3-": (0.0, 0.0, -1.0),
    "4+": (1.0 / SQRT2, 1.0 / SQRT2, 0.0),
    "4-": (-1.0 / SQRT2, -1.0 / SQRT2, 0.0),
    "5+": (1.0 / SQRT2, 0.0, 1.0 / SQRT2),
    "5-": (-1.0 / SQRT2, 0.0, -1.0 / SQRT2),
    "6+": (0.0, 1.0 / SQRT2, 1.0 / SQRT2),
    "6-": (0.0, -1.0 / SQRT2, -1.0 / SQRT2),
}
CROSS_PAIRS = ((1, 2), (1, 3), (2, 3))


class ZeroGamma(ZeroProbabilityOutcome):
    """A protocol record carries a vanishing outcome probability."""


class MixedWithoutUnitUnit(Exception):
    """Prediction for a mixed preparation requires the <1|M|1> element."""


def bloch_of_label(label: str) -> np.ndarray:
    return np.asarray(_BLOCH_BY_LABEL[label], dtype=float)


def state_of_label(label: str) -> np.ndarray:
    return state_from_bloch(bloch_of_label(label))


def nine_state_inputs() -> list[np.ndarray]:
    """The nine protocol projectors, ordered as NINE_STATE_LABELS."""
    return [state_of_label(label) for label in NINE_STATE_LABELS]


@dataclass(frozen=True)
class BilinearProcessMap:
    """Dense 6-index process tensor m[r, s, r'', r', s'', s']."""

    dim: int
    m: np.ndarray

    def __post_init__(self):
        n = self.dim
        if self.m.shape != (n,) * 6:
            raise ValueError(f"tensor has shape {self.m.shape}, expected {(n,) * 6}")

    def trace(self) -> complex:
        return complex(np.einsum("rrxpxp->", self.m))

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(np.conj(self.m) - self.m.transpose(1, 0, 4, 5, 2, 3))))

    def is_exactly_hermitian(self) -> bool:
        return bool(np.array_equal(np.conj(self.m), self.m.transpose(1, 0, 4, 5, 2, 3)))

    def to_json(self) -> dict:
        """Blocks m[:, :, x, p, y, q] in row-major (x, p, y, q) order."""
        n = self.dim
        blocks = np.moveaxis(self.m.reshape(n, n, n**4), 2, 0)
        return {"dim": int(n), "blocks": [jsonio.matrix_to_json(b) for b in blocks]}

    @staticmethod
    def from_json(obj: dict) -> "BilinearProcessMap":
        n = int(obj["dim"])
        blocks = obj["blocks"]
        if len(blocks) != n**4:
            raise ValueError(f"expected {n**4} blocks, got {len(blocks)}")
        m = np.stack([jsonio.matrix_from_json(b) for b in blocks], axis=2).reshape((n,) * 6)
        return BilinearProcessMap(dim=n, m=m)


def build_M_from_dynamics(spec) -> BilinearProcessMap:
    """Direct construction of the process tensor from (U, gamma0).

    The raw contraction is Hermitian up to rounding; the result is
    symmetrized so the stored hermiticity relation holds bit-exactly.
    """
    spec.validate()
    na, nb = spec.dim_sys, spec.dim_env
    u4 = np.asarray(spec.u, dtype=complex).reshape(na, nb, na, nb)
    g4 = np.asarray(spec.gamma0, dtype=complex).reshape(na, nb, na, nb)
    # raw[r,s,x,p,y,q] = sum_{e,a,b} u4[r,e,p,a] g4[x,a,y,b] conj(u4[s,e,q,b]), as two BLAS products
    ug = np.tensordot(u4, g4, axes=([3], [1]))
    raw = np.tensordot(ug, np.conj(u4), axes=([1, 5], [1, 3])).transpose(0, 4, 2, 1, 3, 5)
    m = 0.5 * (raw + np.conj(raw).transpose(1, 0, 4, 5, 2, 3))
    return BilinearProcessMap(dim=na, m=m)


def basis_element(bmap: BilinearProcessMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix element <A|M|B>[r,s] = sum conj(A[r'',r']) m[r,s,r'',r',s'',s'] B[s'',s']."""
    return np.einsum("xp,rsxpyq,yq->rs", np.conj(np.asarray(a, dtype=complex)), bmap.m, np.asarray(b, dtype=complex))


def apply_bilinear(bmap: BilinearProcessMap, p: np.ndarray) -> np.ndarray:
    """Unnormalized output gamma*Q = <P|M|P>; callers normalize by its trace."""
    return basis_element(bmap, p, p)


@dataclass(frozen=True)
class MElementTable:
    """The element combinations of M resolvable by the nine-projection protocol.

    diag_plus[j]  = <1|M|1> + <sigma_j|M|sigma_j>
    linear[j]     = <1|M|sigma_j> + <sigma_j|M|1>
    cross[(j,k)]  = <sigma_j|M|sigma_k> + <sigma_k|M|sigma_j>
    unit_unit     = <1|M|1>, present only when a mixed-state record was supplied.
    """

    diag_plus: tuple[np.ndarray, np.ndarray, np.ndarray]
    linear: tuple[np.ndarray, np.ndarray, np.ndarray]
    cross: dict[tuple[int, int], np.ndarray]
    unit_unit: np.ndarray | None = None

    def hermiticity_residual(self) -> float:
        mats = list(self.diag_plus) + list(self.linear) + [self.cross[jk] for jk in CROSS_PAIRS]
        if self.unit_unit is not None:
            mats.append(self.unit_unit)
        return max(hermiticity_residual(m) for m in mats)

    def to_json(self) -> dict:
        out = {
            "D": [jsonio.matrix_to_json(m) for m in self.diag_plus],
            "Y": [jsonio.matrix_to_json(m) for m in self.linear],
            "Z": {f"{j}{k}": jsonio.matrix_to_json(self.cross[(j, k)]) for (j, k) in CROSS_PAIRS},
        }
        if self.unit_unit is not None:
            out["unit_unit"] = jsonio.matrix_to_json(self.unit_unit)
        return out

    @staticmethod
    def from_json(obj: dict) -> "MElementTable":
        diag_plus = tuple(jsonio.matrix_from_json(m) for m in obj["D"])
        linear = tuple(jsonio.matrix_from_json(m) for m in obj["Y"])
        cross = {
            (j, k): jsonio.matrix_from_json(obj["Z"][f"{j}{k}"]) for (j, k) in CROSS_PAIRS
        }
        unit_unit = jsonio.matrix_from_json(obj["unit_unit"]) if "unit_unit" in obj else None
        return MElementTable(diag_plus=diag_plus, linear=linear, cross=cross, unit_unit=unit_unit)


def element_table_from_map(bmap: BilinearProcessMap) -> MElementTable:
    """Element table by direct contraction of M with the {1, sigma_j} basis."""
    unit = basis_element(bmap, IDENTITY_2, IDENTITY_2)
    diag_plus = tuple(unit + basis_element(bmap, s, s) for s in PAULIS)
    linear = tuple(
        basis_element(bmap, IDENTITY_2, s) + basis_element(bmap, s, IDENTITY_2) for s in PAULIS
    )
    cross = {}
    for j, k in CROSS_PAIRS:
        sj, sk = PAULIS[j - 1], PAULIS[k - 1]
        cross[(j, k)] = basis_element(bmap, sj, sk) + basis_element(bmap, sk, sj)
    return MElementTable(diag_plus=diag_plus, linear=linear, cross=cross, unit_unit=unit)


def solve_M_elements(records, mixed_record: TomographyRecord | None = None) -> MElementTable:
    """Solve the element combinations of M from the nine protocol records.

    One least-squares fit (`records.fit` at degree 2) expresses gamma*Q as a
    sesquilinear form in the prepared projector.  The nine projectors pin down
    exactly the combinations in MElementTable, so they are read off the
    min-norm solution by `element_table_from_map`.  When a mixed-state record
    (Bloch norm < 1) is fitted as well, <1|M|1> is resolved too.
    """
    recs = record_map(records)
    missing = [label for label in NINE_STATE_LABELS if label not in recs]
    if missing:
        raise MissingRecord(f"protocol records missing labels: {', '.join(missing)}")
    fitted = [recs[label] for label in NINE_STATE_LABELS]
    if mixed_record is not None:
        _, half_p = pauli_decompose(mixed_record.input)
        if 4.0 * float(np.dot(half_p, half_p)) >= 1.0 - 1e-10:
            raise ValueError("mixed-state record must have Bloch norm strictly below 1")
        fitted.append(mixed_record)
    for rec in fitted:
        if rec.gamma <= 0:
            raise ZeroGamma(f"record {rec.label!r} has gamma = {rec.gamma}")

    n = fitted[0].input.shape[0]
    # coef[(r'',r',s'',s'), (r,s)] holds m[r, s, r'', r', s'', s'].
    m = fit(fitted, degree=2).coef.reshape((n,) * 6).transpose(4, 5, 0, 1, 2, 3)
    table = element_table_from_map(BilinearProcessMap(dim=n, m=m))
    return table if mixed_record is not None else replace(table, unit_unit=None)


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
    four_gq = np.zeros((2, 2), dtype=complex)
    if not pure:
        four_gq += (1.0 - norm_sq) * table.unit_unit
    for j in range(3):
        four_gq += p[j] ** 2 * table.diag_plus[j] + p[j] * table.linear[j]
    for j, k in CROSS_PAIRS:
        four_gq += p[j - 1] * p[k - 1] * table.cross[(j, k)]
    gamma = float(np.trace(four_gq).real) / 4.0
    if gamma <= 1e-12:
        raise ZeroGamma(f"predicted outcome probability {gamma:.3e} is not positive")
    q = four_gq / (4.0 * gamma)
    return gamma, 0.5 * (q + np.conj(q).T)
