"""Every twin builder reproduces the pinned payloads bit for bit.

``pinned_twins.json`` (see ``generate_pinned_twins.py``) was written
from the decode-and-re-encode builders; the builders now take rows in
the parent's code spaces, and each twin must still equal it column by
column.
"""

from __future__ import annotations

import pytest
from generate_pinned_twins import TWINS, twin_record
from pinned import load

PINNED = load("twins")


def test_every_twin_is_pinned():
    assert set(TWINS) == set(PINNED)


@pytest.mark.parametrize("twin", sorted(TWINS))
def test_twin_matches_pinned(twin, request):
    assert twin_record(TWINS[twin](request.getfixturevalue)) == PINNED[twin]
