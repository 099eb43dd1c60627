"""The frame check, and the closure ``G^(d)`` as the construction reads it."""

from __future__ import annotations

from array import array

from .embedding import EmbeddedMultigraph, FaceSet, trace_faces
from .errors import DomainError, InvalidFrameError


def check_frame(E: EmbeddedMultigraph, d: int,
                faces: FaceSet = None) -> dict:
    """A frame needs d >= 3, an edge, and every face bounded by a cycle.

    ``faces`` are ``E``'s faces, traced here when not given.  Returns the
    chord faces as ``closure_quotient`` reads them: each length 4..``d``
    maps to the vertex walks of that length in one flat ``array("i")``.
    """
    if d < 3:
        raise DomainError("d must be >= 3")
    if E.m == 0:
        raise InvalidFrameError("an edgeless graph has no cycle-bounded faces")
    if faces is None:
        faces = trace_faces(E)
    short = {}
    for i, w in enumerate(faces.vertex_walks(E)):
        if len(w) < 3 or len(set(w)) != len(w):
            raise InvalidFrameError(
                f"face {i} (vertex walk {w}) is not a cycle: not a valid frame")
        if 4 <= len(w) <= d:
            short.setdefault(len(w), array("i")).extend(w)
    return short


def closure_quotient(E: EmbeddedMultigraph, short: dict,
                     part_of: list) -> set:
    """The part pairs ``(a, b)`` that the closure ``G^(d)`` joins, each in
    one orientation or both: the quotient of ``G^(d)``, each part
    contracted to one node (with each vertex its own part, ``G^(d)``).

    The closure is ``E``'s edges plus the chords of its faces of length
    4..``d``; ``short`` maps such a length ``k`` to the vertex walks of
    those faces, concatenated, so walk ``w`` holds ``short[k][k*w:k*w+k]``.
    A part's attachments minus its quotient neighbours are the extras the
    certificate states: the verifier derives the rest from its own closure.
    """
    part = part_of.__getitem__
    tails = E.tails()
    pairs = set(zip(map(part, tails[0::2]), map(part, tails[1::2])))
    for k, flat in short.items():
        parts = list(map(part, flat))
        for i in range(k - 2):
            for j in range(i + 2, k - (i == 0)):
                pairs.update(zip(parts[i::k], parts[j::k]))
    return pairs
