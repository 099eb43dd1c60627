"""The frame check: every face of a frame is bounded by a cycle."""

from __future__ import annotations

from .embedding import EmbeddedMultigraph, FaceSet, trace_faces
from .errors import DomainError, InvalidFrameError


def check_frame(E: EmbeddedMultigraph, d: int,
                faces: FaceSet = None) -> FaceSet:
    """A frame needs d >= 3, an edge, and every face bounded by a cycle.

    Returns the faces of ``E``, traced here when not given.
    """
    if d < 3:
        raise DomainError("d must be >= 3")
    if E.m == 0:
        raise InvalidFrameError("an edgeless graph has no cycle-bounded faces")
    if faces is None:
        faces = trace_faces(E)
    for i, w in enumerate(faces.vertex_walks(E)):
        if len(w) < 3 or len(set(w)) != len(w):
            raise InvalidFrameError(
                f"face {i} (vertex walk {w}) is not a cycle: not a valid frame")
    return faces
