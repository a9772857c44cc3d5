"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_children():
    """Every test ends with no child process of this one left: a run that
    writes its trace through a forked child has reaped it before it
    returns or raises."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
