import os
import sys
from pathlib import Path

import pytest

import framedprod
from framedprod import embedding


@pytest.fixture
def child_env():
    """Environment for a child Python that imports this framedprod."""
    src = str(Path(framedprod.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.fixture
def count_traces(monkeypatch):
    """Call to route every framedprod binding of trace_faces through a
    counter; the call returns the list of graphs traced from then on."""
    def start():
        original = embedding.trace_faces
        traced = []

        def counted(E):
            traced.append(E)
            return original(E)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "framedprod" and \
                    getattr(mod, "trace_faces", None) is original:
                monkeypatch.setattr(mod, "trace_faces", counted)
        return traced
    return start
