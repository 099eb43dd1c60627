"""Embeddings for the tests, built from their faces given as vertex cycles."""

from framedprod.embedding import EmbeddedMultigraph
from framedprod.errors import FormatError


def from_face_list(face_walks, n=None) -> EmbeddedMultigraph:
    """Build an orientable embedding from faces given as vertex cycles.

    Every undirected edge must be traversed exactly twice, in opposite
    directions, across all walks.
    """
    if n is None:
        n = 1 + max(v for w in face_walks for v in w)
    darts_of = {}       # (u, v, occurrence) bookkeeping via multimap
    edges = []
    pending = {}        # (v, u) -> list of dart ids awaiting their twin
    walk_darts = []
    for walk in face_walks:
        k = len(walk)
        ds = []
        for i in range(k):
            u, v = walk[i], walk[(i + 1) % k]
            key = (v, u)
            if pending.get(key):
                d = pending[key].pop() ^ 1
            else:
                e = len(edges)
                edges.append((u, v, 1))
                d = 2 * e
                pending.setdefault((u, v), []).append(d)
            ds.append(d)
        walk_darts.append(ds)
    if any(lst for lst in pending.values()):
        raise FormatError("face list does not traverse each edge twice")
    # successor-in-rotation: for consecutive face darts a -> d at vertex
    # tail(d), rotation successor of twin(a) is d
    succ = {}
    for ds in walk_darts:
        k = len(ds)
        for i in range(k):
            a, d = ds[i], ds[(i + 1) % k]
            if (a ^ 1) in succ:
                raise FormatError("inconsistent face list (not an embedding)")
            succ[a ^ 1] = d
    tails = [0] * (2 * len(edges))
    for e, (u, v, _) in enumerate(edges):
        tails[2 * e] = u
        tails[2 * e + 1] = v
    rot = [[] for _ in range(n)]
    placed = [False] * (2 * len(edges))
    for d0 in range(2 * len(edges)):
        if placed[d0]:
            continue
        v = tails[d0]
        cyc = []
        d = d0
        while not placed[d]:
            placed[d] = True
            cyc.append(d)
            d = succ[d]
            if tails[d] != v:
                raise FormatError("rotation cycle leaves its vertex")
        if rot[v]:
            raise FormatError(f"vertex {v} has a disconnected rotation")
        rot[v] = cyc
    E = EmbeddedMultigraph(n, edges, rot)
    return E
