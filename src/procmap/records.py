"""The tomography protocol, its records and datasets, and the least-squares fit every protocol solves.

Every protocol prepares eigenstates of six Bloch directions, `DIRECTIONS`: the
Pauli axes 1, 2, 3 and the normalized diagonals 4 = 1+2, 5 = 1+3, 6 = 2+3.
Label "<d>+" prepares the projector onto +d and "<d>-" the one onto -d
(`state_of_label`), so each direction's two labels form an orthonormal pair.
Each label's ket |t> (`ket_of_label`) is the half-angle closed form of its Bloch vector,
computed once, in the gauge where the first component of largest magnitude is real and positive.
`PROTOCOL_LABELS` names the protocols: verify12, all twelve labels in pair
order; bilinear9, both labels of 1, 2, 3 and 4+, 5+, 6+; linear4, 1-, 1+, 2+,
3+.  A bi-linear dataset may add a record labeled `MIXED_LABEL`.
A `Dataset` holds its records as stacked arrays, record i being (labels[i],
inputs[i], outputs[i], gammas[i]); `Dataset.subset` selects a protocol's records
by label, and `fit` reads the stacks directly, factoring each distinct design once per process (a protocol
fixes its inputs).  `Dataset.checked`, behind both `scenarios.simulate_scenario` and `Dataset.from_json`, requires
string labels, each gamma in [0, `dynamics.MAX_GAMMA`] (the preparation's bound) and states `_check_states` allows.
`Dataset.from_json` decodes the inputs, then the outputs, then `oracle`, one matrix at a time, naming any at fault.
"""

from __future__ import annotations

import functools
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .dynamics import MAX_GAMMA
from .errors import EXIT_MISSING_LABELS, ProcmapError, shown
from .qstate import STATE_TOL, read_only, state_from_bloch

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


# Each label's Bloch vector; 0.0 - b, not -b, so that a zero component stays +0.0.
_BLOCH = {f"{d}{s}": np.array(b) if s == "+" else 0.0 - np.array(b) for d, b in DIRECTIONS.items() for s in "+-"}
_STATES = {label: state_from_bloch(b) for label, b in _BLOCH.items()}

# Each label's half-angle ket, its first component of largest magnitude (the first when z >= 0) real and positive.
_KETS = {label: np.array([math.sqrt((1 + z) / 2), complex(x, y) / math.sqrt(2 * (1 + z))]) if z >= 0
         else np.array([complex(x, -y) / math.sqrt(2 * (1 - z)), math.sqrt((1 - z) / 2)])
         for label, (x, y, z) in _BLOCH.items()}


def state_of_label(label: str) -> np.ndarray:
    """The projector a protocol label prepares (a fresh copy); raises KeyError for any other label."""
    return _STATES[label].copy()


def ket_of_label(label: str) -> np.ndarray:
    """The ket |t> with |t><t| = state_of_label(label) (a fresh copy); raises KeyError for any other label."""
    return _KETS[label].copy()


class MissingRecord(ProcmapError):
    """A protocol step requires a record label that the dataset does not contain."""

    exit_code = EXIT_MISSING_LABELS


@dataclass(frozen=True)
class Dataset:
    """Uniquely labeled tomography records, stacked, plus free-form metadata.

    Record i is the triple (inputs[i], outputs[i], gammas[i]) labeled labels[i]: the
    prepared input and measured output, (k, 2, 2) complex stacks, and the outcome
    probability, a (k,) float array.  Construction raises ValueError when a label
    repeats or the stacks do not have those shapes.
    `oracle` is None or the exact element table of the true process, (10, 2, 2) in
    the order of `bilinear_tomo.elements_to_json`; its JSON is one 10 x 4 matrix, row i element i flattened.
    """

    labels: tuple[str, ...]
    inputs: np.ndarray
    outputs: np.ndarray
    gammas: np.ndarray
    metadata: Mapping[str, str] = field(default_factory=dict)
    oracle: np.ndarray | None = None

    def __post_init__(self):
        k = len(self.labels)
        for name, dtype, shape in (("inputs", complex, (k, 2, 2)), ("outputs", complex, (k, 2, 2)),
                                   ("gammas", float, (k,))):
            stack = np.asarray(getattr(self, name), dtype=dtype)
            if stack.shape != shape:
                raise ValueError(f"{name} has shape {stack.shape}, expected {shape} for {k} labels")
            object.__setattr__(self, name, stack)
        seen: set[str] = set()
        for label in self.labels:
            if label in seen:
                raise ValueError(f"record labels must be unique; {shown(label)} repeats")
            seen.add(label)

    def subset(self, labels) -> "Dataset":
        """The records labeled `labels`, in that order; raises MissingRecord naming every absent label."""
        index = {label: i for i, label in enumerate(self.labels)}
        missing = [label for label in labels if label not in index]
        if missing:
            raise MissingRecord(f"missing records labeled {', '.join(missing)}")
        rows = [index[label] for label in labels]
        return Dataset(tuple(labels), self.inputs[rows], self.outputs[rows], self.gammas[rows],
                       self.metadata, self.oracle)

    def to_json(self) -> dict:
        records = zip(self.labels, self.gammas.tolist(), jsonio.matrices_to_json(self.inputs),
                      jsonio.matrices_to_json(self.outputs))
        out = {
            "records": [{"label": label, "gamma": gamma, "input": i, "output": o} for label, gamma, i, o in records],
            "metadata": {k: str(v) for k, v in self.metadata.items()},
        }
        if self.oracle is not None:
            out["oracle"] = jsonio.matrix_to_json(self.oracle.reshape(10, 4))
        return out

    @staticmethod
    def from_json(obj: dict) -> "Dataset":
        """The read-only Dataset a JSON object holds, by `Dataset.checked`; raises KeyError, TypeError or ValueError."""
        entries = obj["records"]
        labels = [entry["label"] for entry in entries]
        gammas = [entry["gamma"] for entry in entries]
        objs = [e[side] for side in ("input", "output") for e in entries]  # a missing side before any matrix error
        mats = np.empty((len(objs), 2, 2), dtype=complex)
        for i, m in enumerate(objs):
            try:
                mats[i] = jsonio.matrix_from_json(m, (2, 2))
            except ValueError as exc:
                side, j = divmod(i, len(labels))
                raise ValueError(f"record {shown(labels[j])} {('input', 'output')[side]}: {exc}") from None
        metadata = obj.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError(f"metadata must be a JSON object, got {type(metadata).__name__}")
        try:
            oracle = jsonio.matrix_from_json(obj["oracle"], (10, 4)).reshape(10, 2, 2) if "oracle" in obj else None
        except ValueError as exc:
            raise ValueError(f"oracle: {exc}") from None
        return Dataset.checked(labels, gammas, mats, metadata, oracle)

    @staticmethod
    def checked(labels, gammas, mats, metadata, oracle=None) -> "Dataset":
        """The read-only Dataset of k records (labels[i], mats[i], mats[k + i], gammas[i]) if a read allows it, else
        ValueError; `mats` (2k, 2, 2) and `oracle` become read-only in place, `metadata` a str-to-str mapping proxy."""
        for i, (label, gamma) in enumerate(zip(labels, gammas)):
            if type(label) is not str:
                raise ValueError(f"record {i} has label {shown(label)}, not a JSON string")
            if type(gamma) not in (int, float) or not 0.0 <= gamma <= MAX_GAMMA:
                raise ValueError(f"record {shown(label)} has gamma {shown(gamma)}, not a JSON number in [0, 1]")
        _check_states(labels, mats, exact=metadata.get("shots") == "exact")
        gammas = np.array(gammas, dtype=float)
        mats.flags.writeable = gammas.flags.writeable = False  # and so the views of mats below
        if oracle is not None:
            oracle.flags.writeable = False
        metadata = types.MappingProxyType({str(k): str(v) for k, v in metadata.items()})
        return Dataset(tuple(labels), *mats.reshape(2, -1, 2, 2), gammas, metadata, oracle)


def _check_states(labels, mats, exact: bool) -> None:
    """Raise ValueError naming a record whose input or output is not a state it may hold, within STATE_TOL.

    `mats` stacks the records' inputs, then their outputs, (2k, 2, 2).  A protocol label's input must
    be the projector the label prepares, and any other input a density matrix.  An output must be
    Hermitian with unit trace with each Bloch component in [-1, 1], as states and shot estimates
    2*ups/shots - 1 are; an `exact` output must be a state too, but a shot estimate may leave the Bloch ball.
    """
    k = len(labels)
    # Any other label is compared with its own input, so only the density-matrix test can fail it.
    expected = np.array([_STATES.get(label, mat) for label, mat in zip(labels, mats)]).reshape(-1, 2, 2)
    other = np.array([label not in _STATES for label in labels], dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as an infinite deviation
        adjoint = np.abs(mats - np.conj(mats.transpose(0, 2, 1))).max(axis=(1, 2))
        hermitian_unit_trace = np.maximum(adjoint, np.abs(np.trace(mats, axis1=1, axis2=2) - 1.0))
        z, xy = mats[:, 0, 0] - mats[:, 1, 1], 2.0 * mats[:, 0, 1]
        # For a Hermitian unit-trace qubit matrix, (|Bloch vector| - 1) / 2 is minus its lower eigenvalue.
        negativity = (np.hypot(np.abs(z), np.abs(xy)) - 1.0) / 2.0
        bloch = np.max(np.abs([z.real, xy.real, xy.imag]), axis=0)[k:] - 1.0
        tests = (
            ("input is not the state its label prepares", np.abs(mats[:k] - expected).max(axis=(1, 2))),
            ("input is not a density matrix", np.where(other, np.maximum(hermitian_unit_trace, negativity)[:k], 0.0)),
            ("output is not Hermitian with unit trace", hermitian_unit_trace[k:]),
            ("output has a Bloch component outside [-1, 1]", bloch),
            ("output is not a state", np.where(exact, negativity[k:], 0.0)),
        )
    for what, deviation in tests:
        ok = deviation <= STATE_TOL  # a NaN deviation fails too
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"record {shown(labels[i])} {what} (deviation {deviation[i]:.3e})")


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


def fit(dataset: Dataset, degree: int) -> Fit:
    """One least-squares fit over all records of `dataset`.

    Degree 1 fits Q against vec(P) (Q linear in the input P); degree 2 fits gamma*Q against
    conj(vec P) (x) vec(P) (gamma*Q sesquilinear in P).  The coefficients are the min-norm solution,
    pinv(design) @ target for every target, so each distinct design (by its exact bytes) is factored
    once per process and every fit of it, first or later, applies the same read-only pseudo-inverse:
    no result depends on what the process fitted before.  `cond` is the condition number of the
    design over its nonzero singular values.
    """
    if degree not in (1, 2):
        raise ValueError(f"fit degree must be 1 or 2, got {degree}")
    k = len(dataset.labels)
    design = dataset.inputs.reshape(k, 4)
    target = dataset.outputs.reshape(k, 4)
    if degree == 2:
        design = (np.conj(design)[:, :, None] * design[:, None, :]).reshape(k, 16)
        target = dataset.gammas[:, None] * target
    pinv, rank, cond = _factor(design.tobytes(), design.shape)
    coef = np.einsum("ij,jk->ik", pinv, target)  # einsum, not `@`: see bilinear_tomo._PROBES
    misfit = np.max(np.abs(design @ coef - target), axis=1)
    return Fit(coef=coef, residuals=dict(zip(dataset.labels, misfit.tolist())), rank=rank, cond=cond)


@functools.lru_cache(maxsize=8)
def _factor(design: bytes, shape: tuple[int, int]) -> tuple[np.ndarray, int, float]:
    """Read-only pseudo-inverse, rank (numpy's least-squares rule: s > eps*max(shape)*s_max) and cond of a design."""
    u, s, vh = np.linalg.svd(np.frombuffer(design, dtype=complex).reshape(shape), full_matrices=False)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(shape) * s.max(initial=0.0)))
    pinv = np.einsum("ji,j,kj->ik", np.conj(vh[:rank]), 1.0 / s[:rank], np.conj(u[:, :rank]))
    return read_only(pinv), rank, float(s[0] / s[rank - 1]) if rank else math.inf
