"""Dart-based embedded multigraphs.

An embedding is a rotation system: every edge e owns two darts 2e and 2e+1
(dart 2e leaves the first endpoint, 2e+1 the second), and each vertex holds
its incident darts in cyclic order.  Edge signatures in {+1,-1} support
non-orientable surfaces; all +1 means the rotation alone defines the surface.
"""

from __future__ import annotations

import functools
import gc
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count

from .errors import ContractViolation, DomainError, FormatError


def gc_paused(fn):
    """``fn`` with the cyclic garbage collector paused for the call.

    The bulk stages allocate many containers and form no reference cycles,
    so collections during them find nothing and only cost time.  The
    collector's state on entry is restored on return and on a raise; when
    it is already off (a caller paused it, or an outer stage did) the call
    leaves it off.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class EmbeddedMultigraph:
    """Multigraph embedded in a surface, given by rotations and signatures.

    Loops and parallel edges are allowed.  A loop contributes both of its
    darts to the rotation of its vertex.  The graph keeps the ``edges`` list
    of ``(u, v, sign)`` tuples and the ``rot`` list of dart lists it is
    given: a caller that goes on changing a list copies it first.
    """

    __slots__ = ("n", "edges", "rot", "root", "_tail")

    def __init__(self, n, edges, rot, root=None, validate=True):
        self.n = n
        self.edges = edges
        self.rot = rot
        self.root = root
        self._tail = None
        if validate:
            self.validate()

    @property
    def m(self):
        return len(self.edges)

    @property
    def num_darts(self):
        return 2 * len(self.edges)

    def tails(self):
        """Array mapping dart -> tail vertex."""
        if self._tail is None:
            t = [0] * self.num_darts
            t[0::2] = [u for u, _, _ in self.edges]
            t[1::2] = [v for _, v, _ in self.edges]
            self._tail = t
        return self._tail

    def validate(self):
        nd = self.num_darts
        if self.n < 1:
            raise FormatError("graph needs at least one vertex")
        if len(self.rot) != self.n:
            raise FormatError("rotation table size != vertex count")
        for u, v, s in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise FormatError("edge endpoint out of range")
            if s not in (1, -1):
                raise FormatError("edge signature must be +1 or -1")
        seen = [False] * nd
        tails = self.tails()
        for v in range(self.n):
            for d in self.rot[v]:
                if not (0 <= d < nd):
                    raise FormatError(f"unknown dart {d} at vertex {v}")
                if seen[d]:
                    raise FormatError(f"dart {d} appears twice in rotations")
                if tails[d] != v:
                    raise FormatError(f"dart {d} listed at vertex {v}, "
                                      f"but its edge ends at {tails[d]}")
                seen[d] = True
        if not all(seen):
            missing = seen.index(False)
            raise FormatError(f"dart {missing} missing from rotations")
        if self.root is not None and not (0 <= self.root < self.n):
            raise FormatError("root vertex out of range")

    def is_connected(self):
        if self.n == 1:
            return True
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        tails = self.tails()
        while stack:
            v = stack.pop()
            for d in self.rot[v]:
                w = tails[d ^ 1]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)


def _owned(rot, base, v):
    """``rot[v]``, copied first while it is still ``base``'s list."""
    r = rot[v]
    if r is base[v]:
        r = rot[v] = list(r)
    return r


def stellate(E: EmbeddedMultigraph, walks) -> EmbeddedMultigraph:
    """``E`` with a new vertex ``E.n + i`` inside face walk ``i``, joined to
    every corner of it.

    The spokes are appended in walk order.  A spoke's corner end goes right
    before the walk's dart at that corner; the new vertex's rotation is its
    first spoke, then the others against the walk.  The walks are faces of
    an all-+1 scheme.  Only the rotations that change are copied.
    """
    edges = list(E.edges)
    rot = list(E.rot)
    tails = E.tails()
    for z, walk in enumerate(walks, E.n):
        first = 2 * len(edges)
        for d in walk:
            r = _owned(rot, E.rot, tails[d])
            r.insert(r.index(d), 2 * len(edges) + 1)
            edges.append((z, tails[d], 1))
        spokes = range(first, 2 * len(edges), 2)
        rot.append([spokes[0], *reversed(spokes[1:])])
    return EmbeddedMultigraph(len(rot), edges, rot)


def add_chords(E: EmbeddedMultigraph, chords, root=None) -> EmbeddedMultigraph:
    """``E`` with one new edge per chord ``((a, sa), (b, sb))``, in order.

    The chord runs from the tail of dart ``a`` to the tail of dart ``b``.
    An end goes right before its dart when its sense is +1 and right after
    it when -1: the corner a face walk passing the dart in that sense turns
    through.  A chord whose senses differ reverses (signature -1).  Only
    the rotations that change are copied.
    """
    edges = list(E.edges)
    rot = list(E.rot)
    tails = E.tails()
    for (a, sa), (b, sb) in chords:
        e = len(edges)
        edges.append((tails[a], tails[b], 1 if sa == sb else -1))
        for d, s, new in ((a, sa, 2 * e), (b, sb, 2 * e + 1)):
            r = _owned(rot, E.rot, tails[d])
            r.insert(r.index(d) + (s == -1), new)
    return EmbeddedMultigraph(E.n, edges, rot, root=root)


def drop(edges, rot, dead_edges, dead_vertices=(), root=None) -> tuple:
    """The graph left when ``dead_edges`` and ``dead_vertices`` go, and the
    new id of each old edge (-1 if dead).

    ``edges`` and ``rot`` are raw lists, as an edit in progress holds them:
    a dead edge's darts may still sit in the rotations.  The survivors keep
    their order and are numbered consecutively, and each rotation keeps
    its surviving darts in place.  A live edge at a dead vertex is a
    ``FormatError``.
    """
    live = bytearray(b"\x01") * len(edges)
    for e in dead_edges:
        live[e] = 0
    new_id = list(accumulate(live, initial=0))    # live edges below each id
    edge_map = [i if ok else -1 for i, ok in zip(new_id, live)]
    kept = list(compress(edges, live))
    rot = [[2 * new_id[x >> 1] + (x & 1) for x in r if live[x >> 1]]
           for r in rot]
    if dead_vertices:
        vlive = bytearray(b"\x01") * len(rot)
        for v in dead_vertices:
            vlive[v] = 0
        if not all(vlive[u] and vlive[v] for u, v, _ in kept):
            raise FormatError("a live edge ends at a dead vertex")
        vid = list(accumulate(vlive, initial=0))
        kept = [(vid[u], vid[v], s) for u, v, s in kept]
        rot = list(compress(rot, vlive))
    return EmbeddedMultigraph(len(rot), kept, rot, root=root), edge_map


@dataclass
class FaceSet:
    """Face partition produced by tracing an embedding scheme.

    Each face is a closed dart walk.  For orientable inputs every dart lies
    in exactly one walk; with negative signatures a walk may repeat a dart
    (once per traversal sense), and the total length is still 2m.
    """

    faces: list = field(default_factory=list)        # list of dart walks
    slot_face: list = field(default_factory=list)    # 2m entries: side-slot -> face id
    face_of_state: list = field(default_factory=list)  # 4m signed-dart states
    _vertex_walks: list = None

    @property
    def f(self):
        return len(self.faces)

    def vertex_walks(self, E):
        if self._vertex_walks is None:
            tails = E.tails()
            self._vertex_walks = [[tails[d] for d in walk] for walk in self.faces]
        return self._vertex_walks

    def is_disk_cycle(self, E, i):
        """True iff face i is bounded by a cycle: length >= 3, no repeats."""
        w = self.vertex_walks(E)[i]
        return len(w) >= 3 and len(set(w)) == len(w)

    def edge_slot_faces(self, e):
        """The two faces incident with edge e (equal for bridges' sides)."""
        return self.slot_face[2 * e], self.slot_face[2 * e + 1]


def trace_faces(E: EmbeddedMultigraph) -> FaceSet:
    """Trace the faces of an embedding scheme.

    A scheme whose signatures are all +1 is orientable, and its faces are
    the orbits of one dart permutation (``_trace_orientable``); any -1 edge
    takes the signed walk (``_trace_signed``).  Both give the same
    ``FaceSet`` on an all-+1 scheme.
    """
    if E.m == 0:
        return FaceSet(faces=[], slot_face=[], face_of_state=[])
    if [s for _, _, s in E.edges].count(1) == E.m:
        return _trace_orientable(E)
    return _trace_signed(E)


def _trace_orientable(E: EmbeddedMultigraph) -> FaceSet:
    """Faces of an all-+1 scheme: the orbits of ``phi(d) = succ[d ^ 1]``,
    the dart after ``d``'s twin in the rotation at ``d``'s head.

    Each orbit starts at its smallest dart, so the faces come in the order
    the signed walk's plus states give them.  In its terms, state ``2d``
    (``d`` walked in sense +1) lies on the face of ``d`` and state
    ``2d + 1`` (sense -1) on the face of ``d ^ 1``, which walks the same
    sides the other way; the side slots are the darts themselves.
    """
    nd = 2 * E.m
    phi = [0] * nd
    for r in E.rot:
        if r:
            a = r[-1]            # b follows a around their vertex
            for b in r:
                phi[a ^ 1] = b
                a = b
    face_of = [-1] * nd
    faces = []
    for start in range(nd):
        if face_of[start] != -1:
            continue
        fid = len(faces)
        walk = []
        d = start
        while True:
            face_of[d] = fid
            walk.append(d)
            d = phi[d]
            if d == start:
                break
            if face_of[d] != -1:
                raise ContractViolation("face walk closed away from its start")
        faces.append(walk)
    face_of_state = [0] * (2 * nd)
    face_of_state[0::2] = face_of
    face_of_state[1::4] = face_of[1::2]
    face_of_state[3::4] = face_of[0::2]
    return FaceSet(faces=faces, slot_face=face_of,
                   face_of_state=face_of_state)


def _trace_signed(E: EmbeddedMultigraph) -> FaceSet:
    """Faces of any scheme, walked on signed dart states.

    A state is a dart ``d`` walked in sense ``sb`` (0 for +1, 1 for -1),
    stored as the integer ``2*d + sb``; states 4e..4e+3 are (2e, +1),
    (2e, -1), (2e+1, +1), (2e+1, -1).  A step leaves along ``d`` and turns
    to the next dart around the head, or the previous one when the sense is
    -1; crossing an edge with signature -1 flips the sense.  Each face is
    one orbit; its mirror orbit (same face, opposite sense) is claimed with
    it.  Plus-side states start walks first, so orientable faces partition
    the darts.
    """
    nd = 2 * E.m
    succ = [0] * nd
    pred = [0] * nd
    for r in E.rot:
        for a, b in zip(r, r[1:] + r[:1]):
            succ[a] = b
            pred[b] = a
    # next state: across a +1 edge (d, +1) goes on to (succ[d ^ 1], +1) and
    # (d, -1) to (pred[d ^ 1], -1); a -1 edge swaps the two
    ns = 2 * nd
    nxt = [0] * ns
    nxt[0::4] = [2 * x for x in succ[1::2]]
    nxt[1::4] = [2 * x + 1 for x in pred[1::2]]
    nxt[2::4] = [2 * x for x in succ[0::2]]
    nxt[3::4] = [2 * x + 1 for x in pred[0::2]]
    del succ, pred
    sign = [0 if s == 1 else 1 for _, _, s in E.edges]
    for e, neg in enumerate(sign):
        if neg:
            x = 4 * e
            nxt[x], nxt[x + 1] = nxt[x + 1], nxt[x]
            nxt[x + 2], nxt[x + 3] = nxt[x + 3], nxt[x + 2]

    face_of_state = [-1] * ns
    faces = []
    for start in chain(range(0, ns, 2), range(1, ns, 2)):
        if face_of_state[start] != -1:
            continue
        fid = len(faces)
        walk = []
        s = start
        while True:
            face_of_state[s] = fid
            walk.append(s >> 1)
            # the mirror state (d ^ 1, -sense * signature) walks the same
            # face the other way
            ms = s ^ 3 ^ sign[s >> 2]
            f = face_of_state[ms]
            if f == -1:
                face_of_state[ms] = fid
            elif f != fid:
                raise ContractViolation("mirror orbit already claimed")
            s = nxt[s]
            if s == start:
                break
            if face_of_state[s] != -1:
                raise ContractViolation("face walk closed away from its start")
        faces.append(walk)
    if sum(map(len, faces)) != nd:
        raise ContractViolation("face lengths do not sum to 2m")

    slot_face = [0] * nd       # edge slot 2e + sb: the state (dart 2e, sb)
    slot_face[0::2] = face_of_state[0::4]
    slot_face[1::2] = face_of_state[1::4]
    return FaceSet(faces=faces, slot_face=slot_face,
                   face_of_state=face_of_state)


def euler_genus(E: EmbeddedMultigraph, faces: FaceSet = None) -> int:
    """Euler genus of the embedding: 2 - n + m - f for connected graphs.

    A lone vertex (m = 0) bounds one face, which no dart walk traces.
    """
    if not E.is_connected():
        raise DomainError("Euler genus needs a connected graph")
    if faces is None:
        faces = trace_faces(E)
    f = faces.f if E.m else 1
    g = 2 - E.n + E.m - f
    if g < 0:
        raise ContractViolation(f"negative genus {g} from face count {f}")
    return g


@dataclass
class BfsStructure:
    """BFS tree with depths and the layering V_0, V_1, ... by distance."""

    root: int
    parent: list          # parent vertex, -1 at root
    parent_edge: list     # edge id to parent, -1 at root
    depth: list
    layers: list          # layers[i] = vertices at distance i, ascending ids


def bfs_structure(E: EmbeddedMultigraph, root: int) -> BfsStructure:
    """Breadth-first tree from root; neighbours explored in dart-id order."""
    if not (0 <= root < E.n):
        raise DomainError(f"root {root} is not a vertex")
    tails = E.tails()
    parent = [-1] * E.n
    parent_edge = [-1] * E.n
    depth = [-1] * E.n
    depth[root] = 0
    q = deque([root])
    sorted_rot = [sorted(r) for r in E.rot]
    while q:
        v = q.popleft()
        dv = depth[v]
        for d in sorted_rot[v]:
            w = tails[d ^ 1]
            if depth[w] == -1:
                depth[w] = dv + 1
                parent[w] = v
                parent_edge[w] = d >> 1
                q.append(w)
    if -1 in depth:
        raise DomainError("BFS layering needs a connected graph")
    layers = []
    for v in range(E.n):
        dv = depth[v]
        while len(layers) <= dv:
            layers.append([])
        layers[dv].append(v)
    return BfsStructure(root=root, parent=parent, parent_edge=parent_edge,
                        depth=depth, layers=layers)


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


def check_plain(text, lines, marks):
    """Raise a ``FormatError`` naming the first of ``lines`` (``text``'s,
    comments stripped) that is not ASCII or holds one of ``marks``, which
    int() would read: '+1', '0_1' and non-ASCII digits.  The whole text is
    scanned first, so only a comment holding such a character costs more."""
    if text.isascii() and not any(c in text for c in marks):
        return
    for ln in lines:
        if not ln.isascii() or any(c in ln for c in marks):
            raise FormatError(f"not a plain decimal integer in line: {ln}")


def _dart_fault(rot, nd):
    """The ``FormatError`` naming the first dart at fault in rotations that
    do not list each of ``0..nd-1`` once."""
    seen = set()
    for v, d in ((v, d) for v, r in enumerate(rot) for d in r):
        if d >= nd or d in seen:
            return FormatError(f"unknown dart {d} at vertex {v}" if d >= nd
                               else f"dart {d} appears twice in rotations")
        seen.add(d)
    missing = next(d for d in count() if d not in seen)
    return FormatError(f"dart {missing} missing from rotations")


_VERTEX_LINE = re.compile(r"v\s+\d+\s*:[\s\d]*")


@gc_paused
def parse_embedding(text: str) -> EmbeddedMultigraph:
    """Parse the embedding text format.

    Line 1: ``emg <n> <m>``; then one ``v <id>: <dart> ...`` per vertex,
    rotation in cyclic order, in any order, at most one ``root <v>`` and at
    most one ``twist <e> ...`` listing the edges of signature -1, ascending.
    Edge ``e`` runs from the vertex listing dart ``2e`` to the one listing
    ``2e+1``.  '#' starts a comment.  Every value is a plain decimal
    integer, none negative.
    """
    try:
        return _parse_embedding(text)
    except (ValueError, IndexError) as ex:
        if isinstance(ex, FormatError):
            raise
        raise FormatError(f"malformed embedding: {ex}") from None


def _parse_embedding(text: str) -> EmbeddedMultigraph:
    raw = text.splitlines()
    if "#" in text:
        raw = [ln.split("#", 1)[0] for ln in raw]
    lines = [s for s in map(str.strip, raw) if s]
    if not lines:
        raise FormatError("empty embedding file")
    check_plain(text, lines, "+_-")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "emg" or not (head[1] + head[2]).isdigit():
        raise FormatError("first line must be 'emg <n> <m>'")
    n, m = int(head[1]), int(head[2])
    vlines = [ln for ln in lines if ln[0] == "v"]
    root = twist = None
    for ln in [ln for ln in lines[1:] if ln[0] != "v"]:
        parts = ln.split()
        if parts[0] == "root" and len(parts) == 2 and root is None:
            root = int(parts[1])
        elif parts[0] == "twist" and len(parts) > 1 and twist is None:
            twist = list(map(int, parts[1:]))
            if twist != sorted(set(twist)) or twist[-1] >= m:
                raise FormatError(f"twist must list edges, ascending, each "
                                  f"once: {ln}")
        elif parts[0] in ("root", "twist"):
            raise FormatError(f"bad or repeated {parts[0]} line: {ln}")
        elif parts[0] == "e":
            raise FormatError(f"edge lines are gone, the rotations state "
                              f"every edge: {ln}")
        else:
            raise FormatError(f"unknown line: {ln}")
    if len(vlines) != n or n < 1:
        raise FormatError(f"{len(vlines)} vertex lines for {n} vertices"
                          + ("" if n else "; a graph needs one"))
    if root is not None and root >= n:
        raise FormatError(f"root {root} is not a vertex")
    # with one ':' per line, the head tokens alternate 'v' and an integer
    # iff every head is 'v <id>': no head can start at an integer's place
    heads, _, bodies = zip(*[ln.partition(":") for ln in vlines])
    toks = " ".join(heads).split()
    try:
        if ("".join(vlines).count(":") != n or len(toks) != 2 * n
                or toks[0::2].count("v") != n):
            raise ValueError
        vids = list(map(int, toks[1::2]))
        rot = [list(map(int, b.split())) for b in bodies]
    except ValueError:
        bad = next(ln for ln in vlines if not _VERTEX_LINE.fullmatch(ln))
        raise FormatError(f"a vertex line must read 'v <id>: <dart> ...', "
                          f"each dart one integer: {bad}") from None
    if vids != list(range(n)):
        order = sorted(range(n), key=vids.__getitem__)
        if [vids[j] for j in order] != list(range(n)):
            raise FormatError(f"vertex lines must give the ids 0..{n - 1}, "
                              f"each once")
        rot = [rot[j] for j in order]
    # the rotations list 2m darts, so every dart is set iff none repeats
    nd = 2 * m
    if sum(map(len, rot)) != nd:
        raise _dart_fault(rot, nd)
    tail = [-1] * nd
    try:
        for v, r in enumerate(rot):
            for d in r:
                tail[d] = v
    except IndexError:
        raise _dart_fault(rot, nd) from None
    if -1 in tail:
        raise _dart_fault(rot, nd)
    sign = [1] * m
    for e in twist or ():
        sign[e] = -1
    E = EmbeddedMultigraph(n, list(zip(tail[0::2], tail[1::2], sign)), rot,
                           root=root, validate=False)
    E._tail = tail               # the checks above are all of validate()'s
    return E


@gc_paused
def serialize_embedding(E: EmbeddedMultigraph) -> str:
    out = [f"emg {E.n} {E.m}"]
    if E.root is not None:
        out.append(f"root {E.root}")
    twist = [e for e, (_, _, s) in enumerate(E.edges) if s == -1]
    if twist:
        out.append("twist " + " ".join(map(str, twist)))
    for v, r in enumerate(E.rot):
        out.append(f"v {v}: " + " ".join(map(str, r)))
    return "\n".join(out) + "\n"
