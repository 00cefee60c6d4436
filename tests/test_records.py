"""The protocol table, tomography records and datasets: JSON round trip, stack checks and lookup."""

import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import BLOCH_BY_LABEL, is_projector, measured_records, va_spec
from procmap import jsonio
from procmap.qstate import state_from_bloch
from procmap.records import (
    DIRECTIONS,
    TWELVE_STATE_LABELS,
    Dataset,
    MissingRecord,
    state_of_label,
)


def demo_dataset() -> Dataset:
    return replace(measured_records(va_spec(), TWELVE_STATE_LABELS), metadata={"shots": "exact"})


def test_dataset_json_round_trip_is_exact():
    dataset = demo_dataset()
    back = Dataset.from_json(json.loads(jsonio.dumps(dataset.to_json())))
    assert back.labels == dataset.labels
    assert back.metadata == dataset.metadata
    for name in ("inputs", "outputs", "gammas"):
        assert getattr(back, name).tobytes() == getattr(dataset, name).tobytes(), name


def test_dataset_oracle_json_round_trip_is_exact():
    rng = np.random.default_rng(3)
    oracle = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
    dataset = replace(demo_dataset(), oracle=oracle)
    obj = json.loads(jsonio.dumps(dataset.to_json()))
    assert (obj["oracle"]["rows"], obj["oracle"]["cols"]) == (10, 4)
    assert Dataset.from_json(obj).oracle.tobytes() == oracle.tobytes()
    assert "oracle" not in demo_dataset().to_json()
    assert Dataset.from_json(demo_dataset().to_json()).oracle is None


def test_duplicate_labels_raise():
    dataset = demo_dataset()
    with pytest.raises(ValueError, match="unique; '2[+]' repeats"):
        replace(dataset, labels=dataset.labels[:3] + ("2+",) + dataset.labels[4:])


def test_mismatched_stacks_raise():
    dataset = demo_dataset()
    for bad in (
        {"inputs": dataset.inputs[:-1]},  # one input short
        {"outputs": dataset.outputs[:, :1]},  # 1 x 2 outputs
        {"gammas": dataset.gammas[:, None]},  # gammas not one-dimensional
        {"gammas": dataset.gammas[1:]},
        {"labels": dataset.labels[:-1]},  # one label short of the stacks
        {"inputs": np.zeros((12, 3, 3)), "outputs": np.zeros((12, 3, 3))},  # 3 x 3 matrices
    ):
        with pytest.raises(ValueError, match="has shape"):
            replace(dataset, **bad)


def test_subset_keeps_requested_order():
    dataset = demo_dataset()
    wanted = ["6-", "1+", "3-", "2+"]
    got = dataset.subset(wanted)
    assert got.labels == tuple(wanted)
    rows = [TWELVE_STATE_LABELS.index(label) for label in wanted]
    for name in ("inputs", "outputs", "gammas"):
        assert np.array_equal(getattr(got, name), getattr(dataset, name)[rows]), name
    assert got.metadata == dataset.metadata


def test_subset_names_every_missing_label():
    dataset = demo_dataset()
    assert dataset.subset(["4-"]).labels == ("4-",)
    with pytest.raises(MissingRecord, match="labeled mixed, 7[+]$"):
        dataset.subset(("1+", "mixed", "7+"))


def test_label_states_match_the_hand_written_bloch_table():
    assert TWELVE_STATE_LABELS == tuple(BLOCH_BY_LABEL)
    for label, bloch in BLOCH_BY_LABEL.items():
        assert state_of_label(label).tobytes() == state_from_bloch(bloch).tobytes(), label


def test_each_direction_is_an_orthonormal_pair_of_projectors():
    for d in DIRECTIONS:
        plus, minus = state_of_label(f"{d}+"), state_of_label(f"{d}-")
        assert is_projector(plus) and is_projector(minus)
        assert np.max(np.abs(plus @ minus)) < 1e-15
        assert np.max(np.abs(plus + minus - np.eye(2))) < 1e-15
