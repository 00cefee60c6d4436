"""Tomography records and datasets, and the least-squares fit every protocol solves."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import EXIT_MISSING_LABELS, ProcmapError


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
        gamma = float(obj["gamma"])
        # An outcome probability; the allowance above 1 is for rounding only.
        if not 0.0 <= gamma <= 1.0 + 1e-12:
            raise ValueError(f"record {obj['label']!r} has gamma {gamma!r} outside [0, 1]")
        record = TomographyRecord(
            label=str(obj["label"]),
            input=jsonio.matrix_from_json(obj["input"]),
            output=jsonio.matrix_from_json(obj["output"]),
            gamma=gamma,
        )
        shapes = {record.input.shape, record.output.shape}
        if shapes != {(2, 2)}:
            raise ValueError(f"record {record.label!r} has shapes {sorted(shapes)}; every protocol is qubit-only")
        return record


@dataclass(frozen=True)
class Dataset:
    """An ordered set of uniquely labeled tomography records plus free-form metadata."""

    records: tuple[TomographyRecord, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        labels = [r.label for r in self.records]
        if len(set(labels)) != len(labels):
            raise ValueError("dataset labels must be unique")

    def labels(self) -> list[str]:
        return [r.label for r in self.records]

    def get(self, label: str) -> TomographyRecord:
        for rec in self.records:
            if rec.label == label:
                return rec
        raise MissingRecord(f"dataset has no record labeled {label!r}")

    def subset(self, labels) -> list[TomographyRecord]:
        """Records for `labels`, in the requested order; raises MissingRecord."""
        return [self.get(label) for label in labels]

    def to_json(self) -> dict:
        return {
            "records": [r.to_json() for r in self.records],
            "metadata": {k: str(v) for k, v in self.metadata.items()},
        }

    @staticmethod
    def from_json(obj: dict) -> "Dataset":
        records = tuple(TomographyRecord.from_json(r) for r in obj["records"])
        metadata = obj.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError(f"metadata must be a JSON object, got {type(metadata).__name__}")
        metadata = {str(k): str(v) for k, v in metadata.items()}
        return Dataset(records=records, metadata=metadata)


def record_map(records) -> dict[str, TomographyRecord]:
    """Index records by label, raising on duplicates."""
    out: dict[str, TomographyRecord] = {}
    for rec in records:
        if rec.label in out:
            raise ValueError(f"duplicate record label {rec.label!r}")
        out[rec.label] = rec
    return out


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
