"""Fixtures shared by every test module."""

import pytest

from cmreg import modops


@pytest.fixture(autouse=True)
def empty_adapted_run_slot():
    """Each test starts with no adapted run kept (`modops._adapted_run`), so
    the runs a test counts do not depend on the tests before it."""
    modops._LAST_RUN.set(None)
