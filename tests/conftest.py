import os
from pathlib import Path

import pytest

import framedprod


@pytest.fixture
def child_env():
    """Environment for a child Python that imports this framedprod."""
    src = str(Path(framedprod.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))
