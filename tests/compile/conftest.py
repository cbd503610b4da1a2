"""Shared fixtures for the compiler test suite.

Tilings and the bit-identity assertion come from the matrix
(``tests/matrix``).
"""

from __future__ import annotations

import pytest

from repro.engines import ALL_ENGINES


@pytest.fixture(scope="module", params=ALL_ENGINES, ids=lambda cls: cls.name)
def engine(request):
    return request.param()
