"""Reductions into framed graphs: map graphs and 1-plane drawings."""

from __future__ import annotations

from dataclasses import dataclass

from .embedding import (
    EmbeddedMultigraph,
    FaceSet,
    add_chords,
    check_plain,
    drop,
    euler_genus,
    gc_paused,
    stellate,
    trace_faces,
)
from .errors import (
    ContractViolation,
    DomainError,
    FormatError,
    InvalidFrameError,
)
from .frame import check_frame, closure_quotient

NATION = "nation"
LAKE = "lake"


@dataclass
class LabelledMap:
    """Embedded graph with each face labelled a nation or a lake."""

    G0: EmbeddedMultigraph
    labels: list              # per face of G0, in trace order

    def validate(self):
        fs = trace_faces(self.G0)
        if len(self.labels) != fs.f:
            raise FormatError(f"{len(self.labels)} labels for {fs.f} faces")
        for lab in self.labels:
            if lab not in (NATION, LAKE):
                raise FormatError(f"unknown face label {lab}")
        if not self.G0.is_connected():
            raise DomainError("labelled map must be connected")
        if any(s != 1 for (_, _, s) in self.G0.edges):
            raise DomainError("labelled maps must be orientably embedded")
        if any(u == v for (u, v, _) in self.G0.edges):
            raise DomainError("loops are not supported in map input")
        return fs


def map_graph_edges(LM: LabelledMap, fs: FaceSet = None):
    """Brute-force map graph: nations adjacent iff they share a vertex."""
    if fs is None:
        fs = trace_faces(LM.G0)
    walks = fs.vertex_walks(LM.G0)
    at_vertex = [[] for _ in range(LM.G0.n)]
    for fi, walk in enumerate(walks):
        if LM.labels[fi] == NATION:
            for v in set(walk):
                at_vertex[v].append(fi)
    edges = set()
    for nations in at_vertex:
        for i, a in enumerate(nations):
            for b in nations[i + 1:]:
                edges.add((min(a, b), max(a, b)))
    return sorted(edges)


@dataclass
class MapFrameResult:
    """The frame of a repaired map.  Frame vertex ``fi`` is face ``fi`` of
    the repaired map, so nation ids index the frame directly."""

    frame: EmbeddedMultigraph
    map_edges: list           # E(M) over nation ids
    repaired: LabelledMap     # the map after 2-face and repeat repairs
    nation_origin: dict       # repaired nation face id -> input face id


@gc_paused
def map_to_frame(LM: LabelledMap, d: int) -> MapFrameResult:
    """Realize the map graph inside the closure of a dual-based frame."""
    if d < 3:
        raise DomainError("d must be >= 3")
    # each version of the map (after each repair) and the frame is traced
    # once; the face set goes to the next step that reads it
    LM = LabelledMap(G0=LM.G0, labels=list(LM.labels))
    fs = LM.validate()
    origin = list(range(fs.f))

    budget = 10 * (LM.G0.n + LM.G0.m) + 100
    for _ in range(budget):
        walks = fs.vertex_walks(LM.G0)
        action = None
        for fi, walk in enumerate(walks):
            if len(walk) == 2:
                action = ("stellate", fi, None)
                break
            if len(set(walk)) != len(walk):
                action = ("cut", fi, _first_repeat(walk))
                break
        if action is None:
            v = next((x for x in range(LM.G0.n)
                      if len(LM.G0.rot[x]) <= 2), None)
            if v is None:
                break
            if len(LM.G0.rot[v]) < 2:
                raise DomainError(f"vertex {v} has degree < 2 (pendant map)")
            faces_at = [fi for fi, w in enumerate(walks) if v in w]
            lakes = [fi for fi in faces_at if LM.labels[fi] == LAKE]
            if lakes:
                action = ("stellate", min(lakes), None)
            else:
                fi = min(faces_at)
                action = ("cut", fi, walks[fi].index(v))
        kind, fi, pos = action
        if kind == "cut":
            step, fs = _cut_triangle_at(LM, fs, fi, pos)
        else:
            step, fs = _stellate_face(LM, fs, fi)
        origin = [origin[o] for o in step]
    else:
        raise ContractViolation("map repairs did not converge")

    for fi, walk in enumerate(fs.vertex_walks(LM.G0)):
        if len(walk) < 3 or len(set(walk)) != len(walk):
            raise ContractViolation(f"face {fi} not repaired to a cycle")

    frame = _nation_frame(LM, fs, d)
    ffs = trace_faces(frame)
    # validate tested the map's connectivity, and repairs keep it
    if euler_genus(frame, ffs) != 2 - LM.G0.n + LM.G0.m - fs.f:
        raise ContractViolation("dual frame changed the genus")
    m_edges = map_graph_edges(LM, fs)
    _closure_contract(frame, d, ffs, m_edges, "map edge")
    nation_origin = {fi: origin[fi] for fi, lab in enumerate(LM.labels)
                     if lab == NATION}
    return MapFrameResult(frame=frame, map_edges=m_edges, repaired=LM,
                          nation_origin=nation_origin)


def _closure_contract(frame, d, ffs, edges, what):
    """Every face of ``frame`` (traced as ``ffs``) is a cycle, and each of
    ``edges`` but a loop is a pair of the frame's closure at ``d``."""
    try:
        short = check_frame(frame, d, ffs)
    except InvalidFrameError as exc:
        raise ContractViolation(f"frame {exc}") from None
    # a list, not a range, which would make new ints for every pair
    closure = closure_quotient(frame, short, list(range(frame.n)))
    for a, b in edges:
        if a != b and (a, b) not in closure and (b, a) not in closure:
            raise ContractViolation(f"{what} {a}-{b} missing from closure")


def _stellate_face(LM, fs, fi):
    """New vertex inside face fi, joined to its every corner.  A split
    2-face keeps its nation on the side of its first dart; a lake's pieces
    stay lakes."""
    G = stellate(LM.G0, [fs.faces[fi]])
    return _relabel_after(G, LM, fs, keep_first_dart=fs.faces[fi][0],
                          split_face=fi)


def _first_repeat(vertex_walk):
    seen = {}
    for i, v in enumerate(vertex_walk):
        if v in seen:
            return seen[v]
        seen[v] = i
    return None


def _relabel_after(G, LM, fs, keep_first_dart, split_face, lake_darts=()):
    """Make the repaired graph ``G`` the map's and recompute its labels.

    Unchanged faces keep their labels; the split face's pieces are
    relabelled, the nation surviving on one designated side.  Returns, per
    new face, the old face it came from, and the faces of ``G``.
    """
    old_of_dart = {}
    for fi, walk in enumerate(fs.faces):
        for dart in walk:
            old_of_dart[dart] = fi
    new_fs = trace_faces(G)
    labels = []
    came_from = []
    for walk in new_fs.faces:
        olds = {old_of_dart[x] for x in walk if x in old_of_dart}
        if len(olds) != 1:
            raise ContractViolation("face repair mixed two old faces")
        old = olds.pop()
        came_from.append(old)
        if old != split_face:
            labels.append(LM.labels[old])
            continue
        if LM.labels[old] == LAKE:
            labels.append(LAKE)
        elif lake_darts and set(walk) & set(lake_darts):
            labels.append(LAKE)
        elif keep_first_dart is not None and keep_first_dart not in walk:
            labels.append(LAKE)
        else:
            labels.append(NATION)
    LM.G0 = G
    LM.labels = labels
    return came_from, new_fs


def _cut_triangle_at(LM, fs, fi, pos):
    """Chord across face fi cutting off the corner at walk position pos
    as a lake triangle."""
    E = LM.G0
    walk = fs.faces[fi]
    k = len(walk)
    d_in, d_out = walk[(pos - 1) % k], walk[(pos + 1) % k]
    tails = E.tails()
    if len({tails[d_in], tails[walk[pos]], tails[d_out]}) < 3:
        raise DomainError(
            "degenerate repeated-vertex corner (pendant edge) in map input")
    G = add_chords(E, [((d_in, 1), (d_out, 1))])
    return _relabel_after(G, LM, fs, keep_first_dart=None, split_face=fi,
                          lake_darts={2 * E.m + 1})


def _rotation_walk(r):
    """A vertex's rotation ``r`` started at its smallest dart.

    The map's dual has vertex ``fi`` with rotation ``fs.faces[fi]`` and
    keeps the map's darts, so its face permutation is the map's rotation
    successor: the dual face of vertex ``x`` is this walk, in the order a
    trace of the dual gives, and its dart ``dart`` lies at dual vertex
    ``fs.slot_face[dart]``.
    """
    k = r.index(min(r))
    return r[k:] + r[:k]


def _nation_frame(LM, fs, d):
    """The map's dual with the cycle of nations around each vertex
    inserted into that vertex's dual face (``fs`` holds the map's faces).

    A vertex touching more than ``d`` nations is a ``DomainError``.  The
    frame has no 2-gon and no bridge: every repaired face is a cycle, so no
    edge has one face on both sides and no face meets a vertex twice; every
    vertex has degree >= 3, so every dual face has length >= 3; and nations
    that are neighbours on a vertex's walk already share a dual edge and
    get no chord, so each piece a chord cuts off has two walk edges or
    more, and the nation cycle of r >= 3 nations has length r.
    """
    E = LM.G0
    sf = fs.slot_face
    edges = [(sf[2 * e], sf[2 * e + 1], 1) for e in range(E.m)]
    rot = [list(walk) for walk in fs.faces]
    for x in range(E.n):
        walk = _rotation_walk(E.rot[x])
        wverts = [sf[dart] for dart in walk]
        positions = [i for i, f in enumerate(wverts)
                     if LM.labels[f] == NATION]
        r = len(positions)
        if r > d:
            raise DomainError(f"vertex {x} touches {r} nations > d")
        if r <= 1:
            continue
        s = len(walk)
        # chord only across lakes: walk-consecutive nations already share
        # a dual edge, and doubling it would bound a 2-gon
        chord = {}
        pair_count = r if r >= 3 else 1
        for i in range(pair_count):
            pa, pb = positions[i], positions[(i + 1) % r]
            if (pa + 1) % s == pb:
                continue
            if r == 2 and (pb + 1) % s == pa:
                continue   # adjacent the other way round: already an edge
            a, b = wverts[pa], wverts[pb]
            chord[i] = len(edges)
            edges.append((a, b, 1))
        for i in range(r):
            ins = []
            prev = (i - 1) % r
            if prev in chord:
                ins.append(2 * chord[prev] + 1)
            if i in chord:
                ins.append(2 * chord[i])
            if ins:
                _corner_insert(rot, walk, wverts, positions[i], ins)
    return EmbeddedMultigraph(len(rot), edges, rot)


def _corner_insert(rot, walk, wverts, pos, new_darts):
    """Insert darts into the face corner at walk position ``pos``."""
    w = wverts[pos]
    out_dart = walk[pos]
    idx = rot[w].index(out_dart)
    for k, nd in enumerate(new_darts):
        rot[w].insert(idx + k, nd)


# ---------------------------------------------------------------------------
# 1-plane drawings
# ---------------------------------------------------------------------------

@dataclass
class OnePlaneDrawing:
    """Planarization of a drawing with at most one crossing per edge.

    Real vertices come first; each crossing is a degree-4 dummy vertex whose
    record lists its four planarization edges in rotation order, opposite
    pairs forming the two original edges.
    """

    P: EmbeddedMultigraph
    crossings: list           # (dummy vertex, [e1, e2, e3, e4])

    @property
    def num_real(self):
        return self.P.n - len(self.crossings)

    def validate(self):
        dummies = sorted(c for c, _ in self.crossings)
        if dummies != list(range(self.num_real, self.P.n)):
            raise FormatError("dummies must occupy the top vertex ids")
        if any(s != 1 for (_, _, s) in self.P.edges):
            raise DomainError("1-plane input must be orientably embedded")
        dset = set(dummies)
        tails = self.P.tails()
        for c, quad in self.crossings:
            if len(self.P.rot[c]) != 4 or len(quad) != 4:
                raise FormatError(f"crossing {c} is not degree 4")
            rot_edges = [dd >> 1 for dd in self.P.rot[c]]
            if sorted(rot_edges) != sorted(quad):
                raise FormatError(f"crossing {c} record disagrees with rotation")
            k = rot_edges.index(quad[0])
            rr = rot_edges[k:] + rot_edges[:k]
            if rr != quad and rr != [quad[0]] + list(reversed(quad[1:])):
                raise FormatError(f"crossing {c} pairs are not opposite")
            for e in quad:
                u, v, _ = self.P.edges[e]
                far = u if v == c else v
                if far in dset:
                    raise DomainError("an edge is involved in two crossings")

    def original_edges(self):
        """Edge list of the drawn graph G (over real vertex ids)."""
        dset = {c for c, _ in self.crossings}
        out = []
        for u, v, _ in self.P.edges:
            if u not in dset and v not in dset:
                out.append((min(u, v), max(u, v)))
        for c, quad in self.crossings:
            pairs = ((quad[0], quad[2]), (quad[1], quad[3]))
            for ea, eb in pairs:
                fa = self._far(ea, c)
                fb = self._far(eb, c)
                out.append((min(fa, fb), max(fa, fb)))
        return sorted(set(out))

    def _far(self, e, c):
        u, v, _ = self.P.edges[e]
        return u if v == c else v


@dataclass
class OnePlanarFrameResult:
    frame: EmbeddedMultigraph
    original_edges: list


@gc_paused
def oneplanar_to_frame(Dw: OnePlaneDrawing) -> OnePlanarFrameResult:
    """Augment, delete crossing pairs, and return a {3,4}-face frame."""
    Dw.validate()
    if Dw.num_real < 3:
        raise DomainError("need at least three real vertices")
    P, crossings = _normalize_adjacent_crossings(Dw)
    P2, crossings = _triangulate_planarization(P, crossings)
    frame = _delete_crossings(P2, crossings)
    fs = trace_faces(frame)
    if any(len(walk) > 4 for walk in fs.faces):
        raise ContractViolation("a frame face is longer than 4")
    original = Dw.original_edges()
    _closure_contract(frame, 4, fs, original, "drawn edge")
    return OnePlanarFrameResult(frame=frame, original_edges=original)


def _normalize_adjacent_crossings(Dw: OnePlaneDrawing):
    """Uncross any pair of crossing edges that share an endpoint."""
    P = Dw.P
    crossings = list(Dw.crossings)
    while True:
        bad = None
        for idx, (c, quad) in enumerate(crossings):
            far = [Dw._far(e, c) for e in quad]
            if len(set(far)) < 4:
                bad = (idx, c, quad, far)
                break
        if bad is None:
            return P, crossings
        idx, c, quad, far = bad
        if far[0] == far[2] or far[1] == far[3]:
            raise DomainError("a drawn edge crosses itself")
        # reconnect ray i with ray i+1's partner: bounce instead of cross;
        # each new edge takes the far-end corners of the two rays it joins
        if far[0] == far[1] or far[2] == far[3]:
            pairing = ((quad[0], quad[3]), (quad[1], quad[2]))
        else:
            pairing = ((quad[0], quad[1]), (quad[2], quad[3]))
        tails = P.tails()
        far_dart = {e: 2 * e + (tails[2 * e] == c) for e in quad}
        P = add_chords(P, [((far_dart[ea], 1), (far_dart[eb], 1))
                           for ea, eb in pairing])
        P, edge_map = drop(P.edges, P.rot, quad, (c,))
        del crossings[idx]
        # vertex ids above c shift down by one
        crossings = [(cc - (cc > c), [edge_map[e] for e in qq])
                     for cc, qq in crossings]
        Dw = OnePlaneDrawing(P=P, crossings=crossings)


def _triangulate_planarization(P, crossings):
    """Add real-real chords until every face is a triangle."""
    dset = {c for c, _ in crossings}
    while True:
        fs = trace_faces(P)
        walks = fs.vertex_walks(P)
        target = None
        for fi, walk in enumerate(walks):
            if len(walk) > 3:
                target = fi
                break
        if target is None:
            break
        walk = walks[target]
        darts = fs.faces[target]
        if len(set(walk)) != len(walk):
            raise DomainError(
                "augmentation needs simple face boundaries in the drawing")
        k = len(walk)
        dpos = [i for i, v in enumerate(walk) if v in dset]
        if dpos:
            j = dpos[0]               # cut the ear at the first dummy
        else:
            j = min(range(k), key=lambda i: walk[i])
        ear = ((darts[(j - 1) % k], 1), (darts[(j + 1) % k], 1))
        P = add_chords(P, [ear])
    return P, crossings


def _delete_crossings(P, crossings):
    dead_vertices = [c for c, _ in crossings]
    dead_edges = [dd >> 1 for c in dead_vertices for dd in P.rot[c]]
    return drop(P.edges, P.rot, dead_edges, dead_vertices)[0]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _tagged_lines(text: str, tag: str) -> tuple:
    """The lines whose first token is ``tag``, and the embedding lines.

    Comments and blank lines are dropped; tokens are split on any
    whitespace, as the embedding parser splits them.
    """
    tagged, rest = [], []
    for raw in text.splitlines():
        s = raw.split("#", 1)[0].strip()
        if s:
            (tagged if s.split(None, 1)[0] == tag else rest).append(s)
    return tagged, rest


@gc_paused
def parse_labelled_map(text: str) -> LabelledMap:
    """Embedding format plus one ``f <faceid> nation|lake`` line per face.
    A face id is a plain decimal integer."""
    from .embedding import parse_embedding
    face_lines, emb_lines = _tagged_lines(text, "f")
    check_plain("\n".join(face_lines), face_lines, "+_")
    G0 = parse_embedding("\n".join(emb_lines))
    # the ids must be 0..k-1; LabelledMap.validate checks k against the
    # face count when it traces the map
    labels = {}
    for ln in face_lines:
        parts = ln.split()
        if len(parts) != 3 or parts[2] not in (NATION, LAKE):
            raise FormatError(f"bad face label line: {ln}")
        try:
            fi = int(parts[1])
        except ValueError:
            raise FormatError(f"bad face id in line: {ln}") from None
        if fi in labels:
            raise FormatError(f"duplicate label for face {fi}")
        labels[fi] = parts[2]
    k = len(labels)
    if any(not (0 <= fi < k) for fi in labels):
        raise FormatError(f"face ids must be 0..{k - 1}, each once")
    return LabelledMap(G0=G0, labels=[labels[fi] for fi in range(k)])


@gc_paused
def serialize_labelled_map(LM: LabelledMap) -> str:
    from .embedding import serialize_embedding
    out = serialize_embedding(LM.G0)
    lines = [f"f {i} {lab}" for i, lab in enumerate(LM.labels)]
    return out + "\n".join(lines) + "\n"


@gc_paused
def parse_oneplanar(text: str) -> OnePlaneDrawing:
    """Embedding of the planarization plus ``x <dummy> <e1> <e2> <e3> <e4>``,
    each a plain decimal integer."""
    from .embedding import parse_embedding
    xlines, emb_lines = _tagged_lines(text, "x")
    check_plain("\n".join(xlines), xlines, "+_")
    P = parse_embedding("\n".join(emb_lines))
    crossings = []
    for ln in xlines:
        parts = ln.split()
        if len(parts) != 6:
            raise FormatError(f"bad crossing line: {ln}")
        try:
            c, *quad = map(int, parts[1:])
        except ValueError:
            raise FormatError(f"non-integer token in line: {ln}") from None
        crossings.append((c, quad))
    crossings.sort()
    D = OnePlaneDrawing(P=P, crossings=crossings)
    D.validate()
    return D


@gc_paused
def serialize_oneplanar(D: OnePlaneDrawing) -> str:
    from .embedding import serialize_embedding
    out = serialize_embedding(D.P)
    lines = [f"x {c} " + " ".join(str(e) for e in quad)
             for c, quad in D.crossings]
    return out + "\n".join(lines) + ("\n" if lines else "")
