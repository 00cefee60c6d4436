"""Tomography records and datasets: JSON round trip, unique labels and lookup."""

import json

import numpy as np
import pytest

from helpers import measured_records, va_spec
from procmap import jsonio
from procmap.records import Dataset, MissingRecord, TomographyRecord
from procmap.verify import TWELVE_STATE_LABELS


def demo_dataset() -> Dataset:
    return Dataset(records=tuple(measured_records(va_spec(), TWELVE_STATE_LABELS)), metadata={"shots": "exact"})


def test_dataset_json_round_trip_is_exact():
    dataset = demo_dataset()
    back = Dataset.from_json(json.loads(jsonio.dumps(dataset.to_json())))
    assert back.labels() == dataset.labels()
    assert back.metadata == dataset.metadata
    for got, want in zip(back.records, dataset.records):
        assert got.gamma == want.gamma
        assert got.input.tobytes() == np.asarray(want.input, dtype=complex).tobytes()
        assert got.output.tobytes() == np.asarray(want.output, dtype=complex).tobytes()


def test_dataset_oracle_json_round_trip_is_exact():
    rng = np.random.default_rng(3)
    oracle = rng.normal(size=(10, 2, 2)) + 1j * rng.normal(size=(10, 2, 2))
    dataset = Dataset(records=demo_dataset().records, oracle=oracle)
    obj = json.loads(jsonio.dumps(dataset.to_json()))
    assert (obj["oracle"]["rows"], obj["oracle"]["cols"]) == (10, 4)
    assert Dataset.from_json(obj).oracle.tobytes() == oracle.tobytes()
    assert "oracle" not in demo_dataset().to_json()
    assert Dataset.from_json(demo_dataset().to_json()).oracle is None


def test_duplicate_labels_raise():
    rec = demo_dataset().records[0]
    with pytest.raises(ValueError, match="unique"):
        Dataset(records=(rec, TomographyRecord(rec.label, rec.input, rec.output, rec.gamma)))


def test_subset_keeps_requested_order():
    dataset = demo_dataset()
    wanted = ["6-", "1+", "3-", "2+"]
    assert [rec.label for rec in dataset.subset(wanted)] == wanted


def test_get_unknown_label_raises_missing_record():
    dataset = demo_dataset()
    assert dataset.get("4-").label == "4-"
    with pytest.raises(MissingRecord, match="mixed"):
        dataset.get("mixed")
