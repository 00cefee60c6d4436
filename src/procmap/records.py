"""The tomography protocol, its records and datasets, and the least-squares fit every protocol solves.

Every protocol prepares eigenstates of six Bloch directions, `DIRECTIONS`: the
Pauli axes 1, 2, 3 and the normalized diagonals 4 = 1+2, 5 = 1+3, 6 = 2+3.
Label "<d>+" prepares the projector onto +d and "<d>-" the one onto -d
(`state_of_label`), so each direction's two labels form an orthonormal pair.
`PROTOCOL_LABELS` names the protocols: verify12, all twelve labels in pair
order; bilinear9, both labels of 1, 2, 3 and 4+, 5+, 6+; linear4, 1-, 1+, 2+,
3+.  A bi-linear dataset may add a record labeled `MIXED_LABEL`.  `select`
looks records up by label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import EXIT_MISSING_LABELS, ProcmapError
from .qstate import state_from_bloch

_DIAGONAL = 1.0 / math.sqrt(2.0)
DIRECTIONS = {
    "1": (1.0, 0.0, 0.0),
    "2": (0.0, 1.0, 0.0),
    "3": (0.0, 0.0, 1.0),
    "4": (_DIAGONAL, _DIAGONAL, 0.0),
    "5": (_DIAGONAL, 0.0, _DIAGONAL),
    "6": (0.0, _DIAGONAL, _DIAGONAL),
}
TWELVE_STATE_LABELS = tuple(f"{d}{sign}" for d in DIRECTIONS for sign in "+-")
NINE_STATE_LABELS = TWELVE_STATE_LABELS[:6] + ("4+", "5+", "6+")
LINEAR4_LABELS = ("1-", "1+", "2+", "3+")
MIXED_LABEL = "mixed"
PROTOCOL_LABELS = {
    "linear4": LINEAR4_LABELS,
    "bilinear9": NINE_STATE_LABELS,
    "verify12": TWELVE_STATE_LABELS,
}


# 0.0 - b, not -b, so that a zero component stays +0.0.
_STATES = {f"{d}{sign}": state_from_bloch(np.array(b) if sign == "+" else 0.0 - np.array(b))
           for d, b in DIRECTIONS.items() for sign in "+-"}


def state_of_label(label: str) -> np.ndarray:
    """The projector a protocol label prepares (a fresh copy); raises KeyError for any other label."""
    return _STATES[label].copy()


class MissingRecord(ProcmapError):
    """A protocol step requires a record label that the dataset does not contain."""

    exit_code = EXIT_MISSING_LABELS


@dataclass(frozen=True)
class TomographyRecord:
    """One (prepared input, measured output, outcome probability) triple."""

    label: str
    input: np.ndarray
    output: np.ndarray
    gamma: float

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "gamma": float(self.gamma),
            "input": jsonio.matrix_to_json(self.input),
            "output": jsonio.matrix_to_json(self.output),
        }

    @staticmethod
    def from_json(obj: dict) -> "TomographyRecord":
        gamma = obj["gamma"]
        if type(gamma) not in (int, float):
            raise ValueError(f"record {obj['label']!r} has gamma {gamma!r}, not a JSON number")
        # An outcome probability; the allowance above 1 is for rounding only.
        if not 0.0 <= gamma <= 1.0 + 1e-12:
            raise ValueError(f"record {obj['label']!r} has gamma {gamma!r} outside [0, 1]")
        record = TomographyRecord(
            label=str(obj["label"]),
            input=jsonio.matrix_from_json(obj["input"]),
            output=jsonio.matrix_from_json(obj["output"]),
            gamma=float(gamma),
        )
        shapes = {record.input.shape, record.output.shape}
        if shapes != {(2, 2)}:
            raise ValueError(f"record {record.label!r} has shapes {sorted(shapes)}; every protocol is qubit-only")
        return record


@dataclass(frozen=True)
class Dataset:
    """An ordered set of uniquely labeled tomography records plus free-form metadata.

    `oracle` is None or the exact element table of the true process, (10, 2, 2) in
    `MElementTable` order; its JSON is one 10 x 4 matrix, row i element i flattened.
    """

    records: tuple[TomographyRecord, ...]
    metadata: dict[str, str] = field(default_factory=dict)
    oracle: np.ndarray | None = None

    def __post_init__(self):
        select(self.records, ())

    def labels(self) -> list[str]:
        return [r.label for r in self.records]

    def get(self, label: str) -> TomographyRecord:
        return select(self.records, (label,))[0]

    def subset(self, labels) -> list[TomographyRecord]:
        return select(self.records, labels)

    def to_json(self) -> dict:
        out = {
            "records": [r.to_json() for r in self.records],
            "metadata": {k: str(v) for k, v in self.metadata.items()},
        }
        if self.oracle is not None:
            out["oracle"] = jsonio.matrix_to_json(self.oracle.reshape(10, 4))
        return out

    @staticmethod
    def from_json(obj: dict) -> "Dataset":
        records = tuple(TomographyRecord.from_json(r) for r in obj["records"])
        metadata = obj.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError(f"metadata must be a JSON object, got {type(metadata).__name__}")
        metadata = {str(k): str(v) for k, v in metadata.items()}
        oracle = None
        if "oracle" in obj:
            try:
                oracle = jsonio.matrix_from_json(obj["oracle"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"oracle: {exc}") from exc
            if oracle.shape != (10, 4):
                raise ValueError(f"oracle has shape {oracle.shape}, expected (10, 4)")
            oracle = oracle.reshape(10, 2, 2)
        return Dataset(records=records, metadata=metadata, oracle=oracle)


def select(records, labels) -> list[TomographyRecord]:
    """The records labeled `labels`, in that order; records with other labels are ignored.

    Raises ValueError when two records share a label, and MissingRecord naming
    every label that no record carries.
    """
    by_label: dict[str, TomographyRecord] = {}
    for rec in records:
        if rec.label in by_label:
            raise ValueError(f"record labels must be unique; {rec.label!r} repeats")
        by_label[rec.label] = rec
    missing = [label for label in labels if label not in by_label]
    if missing:
        raise MissingRecord(f"missing records labeled {', '.join(missing)}")
    return [by_label[label] for label in labels]


@dataclass(frozen=True)
class Fit:
    """Least-squares fit of record outputs as a polynomial in the record inputs.

    coef[i, (r*N + s)] is the coefficient of design column i in output entry
    [r, s]; residuals holds each record's max-abs misfit, keyed by label.
    """

    coef: np.ndarray
    residuals: dict[str, float]
    rank: int
    cond: float


def fit(records, degree: int) -> Fit:
    """One least-squares fit over all records.

    Degree 1 fits Q against vec(P) (Q linear in the input P); degree 2 fits
    gamma*Q against conj(vec P) (x) vec(P) (gamma*Q sesquilinear in P).  The
    coefficients are the min-norm solution; `cond` is the condition number of
    the design over its nonzero singular values.
    """
    if degree not in (1, 2):
        raise ValueError(f"fit degree must be 1 or 2, got {degree}")
    records = list(records)
    k = len(records)
    design = np.array([rec.input for rec in records], dtype=complex).reshape(k, -1)
    target = np.array([rec.output for rec in records], dtype=complex).reshape(k, -1)
    if degree == 2:
        design = (np.conj(design)[:, :, None] * design[:, None, :]).reshape(k, -1)
        target = np.array([rec.gamma for rec in records])[:, None] * target
    coef, _, rank, sv = np.linalg.lstsq(design, target, rcond=None)
    misfit = np.max(np.abs(design @ coef - target), axis=1)
    return Fit(
        coef=coef,
        residuals={rec.label: float(m) for rec, m in zip(records, misfit)},
        rank=int(rank),
        cond=float(sv[0] / sv[rank - 1]) if rank else math.inf,
    )
