"""Fixtures shared by every test module."""

import pytest

from cmreg import invariants, modops


@pytest.fixture(autouse=True)
def empty_process_state():
    """Each test starts with no adapted run kept (`modops._adapted_run`) and
    no component walk kept (`invariants._ideal_walk`), so the runs and the
    numerators a test counts or patches do not depend on the tests before
    it."""
    modops._LAST_RUN.set(None)
    invariants._ideal_walk.cache_clear()
