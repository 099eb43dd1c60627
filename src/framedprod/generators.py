"""Deterministic instance generators for tests and batch runs."""

from __future__ import annotations

from itertools import accumulate

from .embedding import EmbeddedMultigraph, trace_faces
from .errors import ContractViolation, DomainError

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Counter-based 64-bit generator; reproducible across languages.

    Test vectors (seed 0): first three outputs are
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next() % bound

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next())


def gen_toroidal_grid(mrows: int, ncols: int) -> EmbeddedMultigraph:
    """C_m x C_n torus grid with the N,E,S,W rotation at every vertex."""
    if mrows < 3 or ncols < 3:
        raise DomainError("toroidal grid needs mrows, ncols >= 3")
    n = mrows * ncols
    edges = []
    right = [0] * n
    down = [0] * n
    for i in range(mrows):
        for j in range(ncols):
            v = i * ncols + j
            right[v] = len(edges)
            edges.append((v, i * ncols + (j + 1) % ncols, 1))
    for i in range(mrows):
        for j in range(ncols):
            v = i * ncols + j
            down[v] = len(edges)
            edges.append((v, ((i + 1) % mrows) * ncols + j, 1))
    rot = []
    for i in range(mrows):
        for j in range(ncols):
            v = i * ncols + j
            up = ((i - 1) % mrows) * ncols + j
            left = i * ncols + (j - 1) % ncols
            rot.append([2 * down[up] + 1, 2 * right[v], 2 * down[v],
                        2 * right[left] + 1])
    return EmbeddedMultigraph(n, edges, rot)


class _TriBuilder:
    """Incremental plane triangulation: faces tracked without re-tracing."""

    def __init__(self):
        # triangle 0-1-2 on the sphere: two faces
        self.edges = [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
        self.rot = [[0, 5], [2, 1], [4, 3]]
        # faces as dart walks, kept as vertex triples + their darts
        self.faces = [[0, 2, 4], [1, 5, 3]]

    def dart_tail(self, d):
        u, v, _ = self.edges[d >> 1]
        return v if (d & 1) else u

    def insert_in_face(self, fidx, w):
        """New vertex w inside face fidx, joined to its three corners."""
        d0, d1, d2 = self.faces[fidx]
        a, b, c = (self.dart_tail(d0), self.dart_tail(d1), self.dart_tail(d2))
        base = len(self.edges)
        self.edges.append((w, a, 1))   # dart 2*base   at w, +1 at a
        self.edges.append((w, b, 1))
        self.edges.append((w, c, 1))
        da, db, dc = 2 * base, 2 * (base + 1), 2 * (base + 2)
        # rotation at w runs against the face walk orientation
        self.rot.append([da, dc, db])
        # at a corner x, the new spoke sits in the face corner: right
        # before the face's outgoing dart in rotation order
        for x, dx, spoke in ((a, d0, da), (b, d1, db), (c, d2, dc)):
            rx = self.rot[x]
            rx.insert(rx.index(dx), spoke ^ 1)
        self.faces[fidx] = [da, d0, db ^ 1]          # w->a, a->b, b->w
        self.faces.append([db, d1, dc ^ 1])          # w->b, b->c, c->w
        self.faces.append([dc, d2, da ^ 1])          # w->c, c->a, a->w

    def build(self):
        return EmbeddedMultigraph(len(self.rot), self.edges, self.rot)


def gen_plane_triangulation(n: int, seed: int) -> EmbeddedMultigraph:
    """Stacked plane triangulation on n vertices by seeded face insertion."""
    if n < 3:
        raise DomainError("triangulation needs n >= 3")
    rng = SplitMix64(seed)
    tb = _TriBuilder()
    for w in range(3, n):
        fidx = rng.below(len(tb.faces))
        tb.insert_in_face(fidx, w)
    return tb.build()


def triangulate_quads(E: EmbeddedMultigraph) -> EmbeddedMultigraph:
    """Add a diagonal to every 4-face (real edges, genus preserved).

    Handles signed embeddings: the face corner at a walk position sits
    after the outgoing dart when the walk passes it in the reversed sense,
    and a diagonal joining corners of opposite sense is itself reversing.
    """
    fs = trace_faces(E)
    edges = list(E.edges)
    rot = [list(r) for r in E.rot]
    tails = E.tails()

    def side(fi, dart):
        return 1 if fs.face_of_state[2 * dart] == fi else -1

    for fi, walk in enumerate(fs.faces):
        if len(walk) != 4:
            continue
        d0, d1, d2, d3 = walk
        a, c = tails[d0], tails[d2]
        s0, s2 = side(fi, d0), side(fi, d2)
        e = len(edges)
        edges.append((a, c, 1 if s0 == s2 else -1))
        ia = rot[a].index(d0) + (1 if s0 == -1 else 0)
        rot[a].insert(ia, 2 * e)
        ic = rot[c].index(d2) + (1 if s2 == -1 else 0)
        rot[c].insert(ic, 2 * e + 1)
    out = EmbeddedMultigraph(E.n, edges, rot, root=E.root)
    check = trace_faces(out)
    if check.f != fs.f + sum(1 for w in fs.faces if len(w) == 4):
        raise DomainError("quad triangulation broke the face structure")
    return out


class _LiveEdges:
    """Fenwick tree over edge ids 0..m-1: kill an edge, find the k-th live one.

    Fenwick, "A new data structure for cumulative frequency tables",
    Software: Practice and Experience 24(3), 1994.
    """

    __slots__ = ("tree", "alive", "count", "_top")

    def __init__(self, m: int):
        tree = [0] + [1] * m
        for i in range(1, m + 1):
            j = i + (i & -i)
            if j <= m:
                tree[j] += tree[i]
        self.tree = tree
        self.alive = bytearray(b"\x01") * m
        self.count = m
        self._top = 1 << (m.bit_length() - 1) if m else 0

    def kill(self, e: int):
        """Mark live edge e dead."""
        self.alive[e] = 0
        self.count -= 1
        tree = self.tree
        size = len(tree) - 1
        i = e + 1
        while i <= size:
            tree[i] -= 1
            i += i & -i

    def kth(self, k: int) -> int:
        """Id of the live edge with exactly k live edges below it."""
        if not (0 <= k < self.count):
            raise ValueError(f"no live edge of rank {k}")
        tree = self.tree
        size = len(tree) - 1
        pos = 0
        step = self._top
        while step:
            nxt = pos + step
            if nxt <= size and tree[nxt] <= k:
                pos = nxt
                k -= tree[nxt]
            step >>= 1
        return pos


def gen_framed(n: int, d: int, g: int, seed: int) -> EmbeddedMultigraph:
    """Frame with face lengths in {3..d} via seeded edge deletion.

    Starts from a plane triangulation (g = 0) or toroidal grid (g = 2) and
    deletes edges while every face stays a cycle of length at most d.

    Seed contract: each of the m attempts draws ``rng.below(live)`` and
    takes that index among the live edges in their current order, which
    is ascending original id, exactly as if every deletion renumbered the
    survivors 0..live-1.  Surviving edges keep that order in the output,
    and each rotation keeps its first surviving dart first.
    """
    if d < 3:
        raise DomainError("d must be >= 3")
    if g not in (0, 2):
        raise DomainError("generator supports g in {0, 2}")
    rng = SplitMix64(seed)
    if g == 0:
        E = gen_plane_triangulation(n, rng.next())
    else:
        side = max(3, round(n ** 0.5))
        E = gen_toroidal_grid(side, side)
        if d == 3:
            E = triangulate_quads(E)
    alive = _attempt_deletions(E, d, rng)
    edges = [e for e, ok in zip(E.edges, alive) if ok]
    new_id = list(accumulate(alive, initial=0))   # live edges below each id
    rot = [[2 * new_id[x >> 1] + (x & 1) for x in r if alive[x >> 1]]
           for r in E.rot]
    return EmbeddedMultigraph(E.n, edges, rot, root=E.root)


def _attempt_deletions(E: EmbeddedMultigraph, d: int,
                       rng: SplitMix64) -> bytearray:
    """Make E.m seeded deletion attempts; return the live flag per edge.

    An attempt deletes its edge iff the edge separates two faces, the
    merged face has length in [3, d], and both old faces and their union
    are repeat-free vertex walks.  Faces are traced once; a deletion
    unlinks the edge's darts and re-walks only the merged face.
    """
    if any(s != 1 for _, _, s in E.edges):
        raise ContractViolation("framed generator needs an orientable start")
    m = E.m
    tails = E.tails()
    # rotation as a doubly linked cycle per vertex; the face successor of
    # a dart is the rotation successor of its twin
    rnext = [0] * (2 * m)
    rprev = [0] * (2 * m)
    for r in E.rot:
        k = len(r)
        for i, x in enumerate(r):
            rnext[x] = r[(i + 1) % k]
            rprev[x] = r[i - 1]
    face = [-1] * (2 * m)
    walks = []
    for s in range(2 * m):
        if face[s] < 0:
            walk = []
            x = s
            while face[x] < 0:
                face[x] = len(walks)
                walk.append(x)
                x = rnext[x ^ 1]
            walks.append(walk)
    live = _LiveEdges(m)
    below, kth, kill = rng.below, live.kth, live.kill
    for _ in range(m):
        eid = kth(below(live.count))
        a, b = 2 * eid, 2 * eid + 1
        f1, f2 = face[a], face[b]
        if f1 == f2:
            continue   # bridge
        w1, w2 = walks[f1], walks[f2]
        merged_len = len(w1) + len(w2) - 2
        if merged_len > d or merged_len < 3:
            continue
        vw1 = {tails[x] for x in w1}
        vw2 = {tails[x] for x in w2}
        # merged walk keeps every vertex except one copy of each endpoint;
        # repeats anywhere make the merged face a non-disk
        if len(vw1) != len(w1) or len(vw2) != len(w2):
            continue
        if len(vw1 | vw2) != merged_len:
            continue
        # the face successor of a, or of b when a closes a loop face alone
        start = rnext[b] if rnext[b] != a else rnext[a]
        for x in (a, b):
            p, q = rprev[x], rnext[x]
            rnext[p] = q
            rprev[q] = p
        walk = [start]
        x = rnext[start ^ 1]
        while x != start and len(walk) <= merged_len:
            walk.append(x)
            x = rnext[x ^ 1]
        if len(walk) != merged_len:
            raise ContractViolation(f"merged face at edge {eid} has length "
                                    f"{len(walk)}, expected {merged_len}")
        for x in walk:
            face[x] = f1
        walks[f1] = walk
        walks[f2] = None
        kill(eid)
    return live.alive


def gen_labelled_map(n: int, d: int, seed: int):
    """Plane labelled map: seeded nation/lake labels under the d budget."""
    from .frontends import LAKE, NATION, LabelledMap
    E = gen_plane_triangulation(n, seed)
    fs = trace_faces(E)
    walks = fs.vertex_walks(E)
    rng = SplitMix64(seed ^ 0xA5A5A5A5)
    budget = [0] * E.n
    labels = []
    for walk in walks:
        want = rng.below(2) == 0
        if want and all(budget[v] < d for v in walk):
            labels.append(NATION)
            for v in walk:
                budget[v] += 1
        else:
            labels.append(LAKE)
    if NATION not in labels:
        labels[0] = NATION
        for v in walks[0]:
            budget[v] += 1
    return LabelledMap(G0=E, labels=labels)


def _planarize_quads(E: EmbeddedMultigraph):
    """Cross both diagonals inside every 4-face; dummies take the top ids."""
    fs = trace_faces(E)
    tails = E.tails()
    edges = list(E.edges)
    rot = [list(r) for r in E.rot]
    crossings = []
    next_v = E.n
    for walk in fs.faces:
        if len(walk) != 4:
            continue
        corners = [tails[dd] for dd in walk]
        base = len(edges)
        spokes = []
        for i, v in enumerate(corners):
            e = len(edges)
            edges.append((next_v, v, 1))
            spokes.append(e)
            rot[v].insert(rot[v].index(walk[i]), 2 * e + 1)
        # rotation at the dummy runs against the face walk
        rot.append([2 * spokes[0], 2 * spokes[3], 2 * spokes[2],
                    2 * spokes[1]])
        crossings.append((next_v, [spokes[0], spokes[3], spokes[2],
                                   spokes[1]]))
        next_v += 1
    P = EmbeddedMultigraph(next_v, edges, rot)
    return P, crossings


def gen_oneplanar(n: int, seed: int):
    """Seeded 1-plane drawing: a {3,4}-face frame with crossed diagonals."""
    from .frontends import OnePlaneDrawing
    E = gen_framed(n, 4, 0, seed)
    P, crossings = _planarize_quads(E)
    return OnePlaneDrawing(P=P, crossings=crossings)


def k5_oneplane():
    """K5 drawn with one crossing; vertex 5 is the crossing dummy."""
    from .embedding import from_face_list
    from .frontends import OnePlaneDrawing
    P = from_face_list([[0, 1, 4], [0, 4, 2], [1, 5, 4], [4, 5, 2],
                        [0, 2, 3], [0, 3, 1], [5, 1, 3], [5, 3, 2]])
    quad = _crossing_record(P, 5, ((4, 3), (1, 2)))
    return OnePlaneDrawing(P=P, crossings=[(5, quad)])


def k6_oneplane():
    """K6 drawn with three crossings (dummies 6, 7, 8)."""
    from .embedding import from_face_list
    from .frontends import OnePlaneDrawing
    P = from_face_list([
        [0, 2, 3], [5, 1, 4],
        [0, 1, 6], [0, 6, 2], [5, 2, 6], [5, 6, 1],
        [0, 7, 1], [7, 4, 1], [0, 3, 7], [3, 4, 7],
        [5, 8, 2], [8, 3, 2], [5, 4, 8], [4, 3, 8],
    ])
    crossings = [(6, _crossing_record(P, 6, ((0, 5), (1, 2)))),
                 (7, _crossing_record(P, 7, ((0, 4), (1, 3)))),
                 (8, _crossing_record(P, 8, ((5, 3), (2, 4))))]
    return OnePlaneDrawing(P=P, crossings=crossings)


def _crossing_record(P, c, originals):
    """Edge record at dummy c, rotation order, opposite pairs checked."""
    tails = P.tails()
    rot_edges = [dd >> 1 for dd in P.rot[c]]
    if len(rot_edges) != 4:
        raise ValueError(f"dummy {c} is not degree 4")
    far = [P.edges[e][0] if P.edges[e][1] == c else P.edges[e][1]
           for e in rot_edges]
    for a, b in originals:
        ia, ib = far.index(a), far.index(b)
        if (ia - ib) % 4 != 2:
            raise ValueError(f"halves of {a}-{b} are not opposite at {c}")
    return rot_edges
