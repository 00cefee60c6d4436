"""Every test starts with procmap's per-process caches empty.

A test that replaces a layer (with monkeypatch) must see that layer run, not an
answer cached by an earlier test from the same deterministic demo bytes.
"""

import pytest

from procmap import cli, records


@pytest.fixture(autouse=True)
def empty_caches():
    records._factor.cache_clear()
    cli._decode_dataset.cache_clear()
