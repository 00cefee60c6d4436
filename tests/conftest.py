"""Every test starts with procmap's per-process caches empty.

A test that replaces a layer (with monkeypatch) must see that layer run, not an
answer cached by an earlier test from the same deterministic demo bytes: each
of `helpers.PROCESS_CACHES` is cleared, and so is the CLI's dataset cache.
A test that asks for `decodes` sees each dataset read that missed the CLI's cache.
"""

import pytest

from helpers import PROCESS_CACHES
from procmap import cli
from procmap.records import Dataset


@pytest.fixture(autouse=True)
def empty_caches():
    for cache in PROCESS_CACHES:
        cache.cache_clear()
    cli._datasets.clear()


@pytest.fixture
def decodes(monkeypatch) -> list:
    """The objects `Dataset.from_json` decodes during the test: one per dataset read that misses `cli._datasets`."""
    calls = []
    from_json = Dataset.from_json
    monkeypatch.setattr(Dataset, "from_json", staticmethod(lambda obj: calls.append(obj) or from_json(obj)))
    return calls
