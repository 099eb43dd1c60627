import hashlib
import json
import random
import re
import subprocess
import sys
from collections import Counter, deque
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedprod.assemble import parse_certificate
from framedprod.embedding import (
    EmbeddedMultigraph,
    FaceSet,
    add_chords,
    bfs_structure,
    drop,
    euler_genus,
    parse_embedding,
    serialize_embedding,
    stellate,
    trace_faces,
)
from framedprod.cut import attach_apex, build_Tplus, build_Z, cut_along
from framedprod.errors import ContractViolation, DomainError, FormatError
from framedprod.frontends import map_to_frame, oneplanar_to_frame
from framedprod.generators import (
    gen_framed,
    gen_labelled_map,
    gen_oneplanar,
    gen_plane_triangulation,
    gen_toroidal_grid,
)
from framedprod.verify import rebuild_faces, verify_certificate
from face_list import from_face_list
from test_nonorientable import klein_grid, projective_k4
from test_verify import golden_corpus

# sha256 of (faces, slot_face, face_of_state) per embedding, recorded from
# the tracer that stepped through rotation positions modulo the degree
GOLDEN_FACES = json.loads((Path(__file__).parent / "golden_faces.json")
                          .read_text())
# sha256 of the cut and apexed graphs and T+, per positive-genus embedding;
# re-recorded when the apex's rotation came to start at its first spoke
GOLDEN_CUT = json.loads((Path(__file__).parent / "golden_cut.json")
                        .read_text())


def triangle():
    return from_face_list([[0, 1, 2], [2, 1, 0]])


def k4_planar():
    # tetrahedron: 4 triangular faces
    return from_face_list([[0, 1, 2], [0, 2, 3], [0, 3, 1], [3, 2, 1]])


def toroidal_grid(mr, nc):
    n = mr * nc
    edges = []
    right = {}
    down = {}
    for i in range(mr):
        for j in range(nc):
            v = i * nc + j
            right[v] = len(edges)
            edges.append((v, i * nc + (j + 1) % nc, 1))
    for i in range(mr):
        for j in range(nc):
            v = i * nc + j
            down[v] = len(edges)
            edges.append((v, ((i + 1) % mr) * nc + j, 1))
    rot = [[] for _ in range(n)]
    for i in range(mr):
        for j in range(nc):
            v = i * nc + j
            up = ((i - 1) % mr) * nc + j
            left = i * nc + (j - 1) % nc
            # N, E, S, W
            rot[v] = [2 * down[up] + 1, 2 * right[v], 2 * down[v],
                      2 * right[left] + 1]
    return EmbeddedMultigraph(n, edges, rot)


def signed_trace_faces(E):
    """The reference tracer: every scheme walked on signed dart states.

    A state is a dart ``d`` walked in sense ``sb`` (0 for +1, 1 for -1),
    stored as ``2*d + sb``.  A step leaves along ``d`` and turns to the next
    dart around the head, or the previous one in sense -1; a -1 edge flips
    the sense.  Each orbit claims its mirror orbit; plus states start walks
    first.
    """
    m = E.m
    if m == 0:
        return FaceSet(faces=[], slot_face=[], face_of_state=[])
    nd = 2 * m
    succ = [0] * nd
    pred = [0] * nd
    for r in E.rot:
        for a, b in zip(r, r[1:] + r[:1]):
            succ[a] = b
            pred[b] = a
    ns = 2 * nd
    nxt = [0] * ns
    nxt[0::4] = [2 * x for x in succ[1::2]]
    nxt[1::4] = [2 * x + 1 for x in pred[1::2]]
    nxt[2::4] = [2 * x for x in succ[0::2]]
    nxt[3::4] = [2 * x + 1 for x in pred[0::2]]
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
    slot_face = [0] * nd
    slot_face[0::2] = face_of_state[0::4]
    slot_face[1::2] = face_of_state[1::4]
    return FaceSet(faces=faces, slot_face=slot_face,
                   face_of_state=face_of_state)


@st.composite
def orientable_schemes(draw):
    """Random all-+1 rotation systems: loops, parallel edges, several
    components and isolated vertices all occur."""
    n = draw(st.integers(1, 8))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=14))
    edges = [(u, v, 1) for u, v in ends]
    darts = [[] for _ in range(n)]
    for e, (u, v) in enumerate(ends):
        darts[u].append(2 * e)
        darts[v].append(2 * e + 1)
    rot = [draw(st.permutations(ds)) for ds in darts]
    return EmbeddedMultigraph(n, edges, rot)


def flipped(E, v):
    """The same surface with vertex ``v`` flipped: its rotation reversed
    and the signature of each non-loop edge at it negated."""
    edges = [(a, b, -s if (a == v) != (b == v) else s)
             for a, b, s in E.edges]
    rot = [r[::-1] if x == v else r for x, r in enumerate(E.rot)]
    return EmbeddedMultigraph(E.n, edges, rot)


def brute_bfs_depths(E, root):
    adj = [[] for _ in range(E.n)]
    for u, v, _ in E.edges:
        adj[u].append(v)
        adj[v].append(u)
    depth = [-1] * E.n
    depth[root] = 0
    q = deque([root])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if depth[w] == -1:
                depth[w] = depth[v] + 1
                q.append(w)
    return depth


class TestTraceFaces:
    def test_cycle_c3_two_faces(self):
        E = triangle()
        fs = trace_faces(E)
        assert fs.f == 2
        assert sorted(len(w) for w in fs.faces) == [3, 3]

    def test_k4_planar_four_triangles(self):
        E = k4_planar()
        fs = trace_faces(E)
        assert fs.f == 4
        assert all(len(w) == 3 for w in fs.faces)
        # Euler: n - m + f = 4 - 6 + 4 = 2
        assert E.n - E.m + fs.f == 2

    def test_toroidal_c3_c3_nine_quads(self):
        E = toroidal_grid(3, 3)
        fs = trace_faces(E)
        assert E.n == 9 and E.m == 18
        assert fs.f == 9
        assert all(len(w) == 4 for w in fs.faces)

    def test_face_double_count(self):
        for E in (triangle(), k4_planar(), toroidal_grid(3, 4)):
            fs = trace_faces(E)
            assert sum(len(w) for w in fs.faces) == 2 * E.m

    def test_darts_partitioned_when_orientable(self):
        for E in (triangle(), k4_planar(), toroidal_grid(4, 4)):
            fs = trace_faces(E)
            seen = sorted(d for w in fs.faces for d in w)
            assert seen == list(range(E.num_darts))

    def test_nonorientable_loop(self):
        # one vertex, one loop with signature -1: projective plane
        E = EmbeddedMultigraph(1, [(0, 0, -1)], [[0, 1]])
        fs = trace_faces(E)
        assert fs.f == 1
        assert sum(len(w) for w in fs.faces) == 2
        assert euler_genus(E, fs) == 1

    @given(orientable_schemes())
    @settings(max_examples=300, deadline=None)
    def test_orientable_walk_matches_the_signed_reference(self, E):
        fs = trace_faces(E)
        ref = signed_trace_faces(E)
        assert fs.faces == ref.faces
        assert fs.slot_face == ref.slot_face
        assert fs.face_of_state == ref.face_of_state
        assert rebuild_faces(E) == fs.vertex_walks(E)

    @pytest.mark.parametrize("name", [
        k for k, E in golden_corpus().items()
        if all(s == 1 for _, _, s in E.edges)])
    def test_flipped_vertex_takes_the_signed_path(self, name):
        # one all-+1 scheme and an equivalent one with -1 edges: both
        # walkers find the same faces on each
        E = golden_corpus()[name]
        F = flipped(E, E.n // 2)
        assert any(s == -1 for _, _, s in F.edges)
        want = Counter(map(len, trace_faces(E).faces))
        for G in (E, F):
            assert Counter(map(len, trace_faces(G).faces)) == want
            assert Counter(map(len, rebuild_faces(G))) == want

    def test_repeated_dart_fails_in_bounded_time(self, child_env):
        # vertex 0 lists dart 0 twice and drops dart 5: the walk from dart 1
        # runs into the closed face 0 -> 2 -> 4 and never returns to 1; run
        # in a child process so a hang fails the test instead of the suite
        code = ("from framedprod.embedding import EmbeddedMultigraph, "
                "trace_faces\n"
                "from framedprod.errors import ContractViolation\n"
                "E = EmbeddedMultigraph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)],\n"
                "                       [[0, 0], [1, 2], [3, 4]],\n"
                "                       validate=False)\n"
                "try:\n"
                "    trace_faces(E)\n"
                "except ContractViolation as ex:\n"
                "    print(ex)\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "face walk closed away from its start\n"

    def test_malformed_rotation_rejected(self):
        with pytest.raises(FormatError):
            EmbeddedMultigraph(2, [(0, 1, 1)], [[0, 0], [1]])
        with pytest.raises(FormatError):
            EmbeddedMultigraph(2, [(0, 1, 1)], [[1], [0]])


class TestGoldenTrace:
    """The tracer's output on the verifier's golden corpus, plus the cut
    graph Gt and the apexed graph G+ of every positive-genus member."""

    @staticmethod
    def digest(fs):
        blob = json.dumps([fs.faces, fs.slot_face, fs.face_of_state])
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_faces_pinned(self):
        got = {}
        for name, E in golden_corpus().items():
            fs = trace_faces(E)
            got[name] = self.digest(fs)
            g = euler_genus(E, fs)
            if g == 0:
                continue
            T = bfs_structure(E, E.root if E.root is not None else 0)
            C = build_Z(E, T, fs)
            R, gt_faces = cut_along(E, C, fs)
            Gplus, gplus_faces = attach_apex(R, gt_faces)
            got[name + "/Gt"] = self.digest(gt_faces)
            got[name + "/Gplus"] = self.digest(gplus_faces)
            # the face sets handed along are what a fresh trace gives
            assert self.digest(trace_faces(R.Gt)) == got[name + "/Gt"]
            assert self.digest(trace_faces(Gplus)) == got[name + "/Gplus"]
        assert got == GOLDEN_FACES


def cut_pins():
    """sha256 of the cut graph, the apexed graph and T+ per positive-genus
    member of the golden corpus: which copy owns each dart, and the bank
    order, are pinned here, beyond the face walks."""
    pins = {}
    for name, E in golden_corpus().items():
        fs = trace_faces(E)
        if euler_genus(E, fs) == 0:
            continue
        T = bfs_structure(E, E.root if E.root is not None else 0)
        C = build_Z(E, T, fs)
        R, gt_faces = cut_along(E, C, fs)
        Gplus, _ = attach_apex(R, gt_faces)
        parent, Pp = build_Tplus(Gplus, T, R)
        Gt = R.Gt
        blob = json.dumps([Gt.edges, Gt.rot, R.provenance, R.cf_cycle,
                           Gplus.edges, Gplus.rot, parent, Pp])
        pins[name] = hashlib.sha256(blob.encode()).hexdigest()
    return pins


class TestGoldenCut:
    def test_cut_pinned(self):
        assert cut_pins() == GOLDEN_CUT


class TestEdits:
    """``stellate``, ``add_chords`` and ``drop``: exact output on tiny
    fixtures, the genus kept, and the input left as it was."""

    @staticmethod
    def square():
        return from_face_list([[0, 1, 2, 3], [3, 2, 1, 0]])

    @staticmethod
    def edited(E, edit):
        """``edit(E)``, checking that ``E`` is unchanged and that every
        rotation the edit changed is a new list."""
        edges, rot = list(E.edges), [list(r) for r in E.rot]
        out = edit(E)
        G = out[0] if isinstance(out, tuple) else out
        assert (E.edges, E.rot) == (edges, rot)
        assert all(r is not s for r, s in zip(G.rot, E.rot) if r != s)
        return out

    def test_stellate(self):
        E = triangle()
        fs = trace_faces(E)
        assert fs.faces == [[0, 2, 4], [1, 5, 3]]
        G = self.edited(E, lambda E: stellate(E, [fs.faces[0]]))
        # spokes in walk order; each corner end right before the walk's
        # dart; the new vertex: first spoke, then the others against the walk
        assert G.edges == E.edges + [(3, 0, 1), (3, 1, 1), (3, 2, 1)]
        assert G.rot == [[7, 0, 5], [1, 9, 2], [3, 11, 4], [6, 10, 8]]
        assert euler_genus(G) == 0 and trace_faces(G).f == 4
        both = stellate(E, fs.faces)
        assert both.n == 5 and both.edges[6:] == [(4, 1, 1), (4, 0, 1),
                                                  (4, 2, 1)]
        assert both.rot[4] == [12, 16, 14] and euler_genus(both) == 0

    def test_stellate_keeps_the_torus_genus(self):
        E = toroidal_grid(3, 4)
        G = self.edited(E, lambda E: stellate(E, trace_faces(E).faces[:5]))
        assert G.n == E.n + 5 and euler_genus(G) == euler_genus(E) == 2

    def test_add_chords(self):
        E = self.square()
        walk = trace_faces(E).faces[0]
        assert walk == [0, 2, 4, 6]
        G = self.edited(E, lambda E: add_chords(E, [((0, 1), (4, 1))]))
        assert G.edges == E.edges + [(0, 2, 1)]
        assert G.rot == [[8, 0, 7], [1, 2], [3, 9, 4], [5, 6]]
        assert G.root is None
        assert euler_genus(G) == 0 and trace_faces(G).f == 3
        # a -1 end goes after its dart
        after = add_chords(E, [((0, -1), (4, -1))], root=2)
        assert after.edges[-1] == (0, 2, 1) and after.root == 2
        assert after.rot[0] == [0, 8, 7] and after.rot[2] == [3, 4, 9]

    def test_reversing_chord_on_a_klein_quad(self):
        E = klein_grid(3)
        fs = trace_faces(E)
        walk = fs.faces[0]
        sense = [1 if fs.face_of_state[2 * d] == 0 else -1 for d in walk]
        assert sense[0] == 1 and sense[2] == -1
        G = self.edited(E, lambda E: add_chords(
            E, [((walk[0], 1), (walk[2], -1))]))
        assert G.edges[-1] == (E.tails()[walk[0]], E.tails()[walk[2]], -1)
        assert euler_genus(G) == euler_genus(E) == 2
        assert trace_faces(G).f == fs.f + 1

    def test_drop(self):
        E = add_chords(self.square(), [((0, 1), (4, 1))])
        G, edge_map = self.edited(E, lambda E: drop(E.edges, E.rot, [0]))
        assert edge_map == [-1, 0, 1, 2, 3]
        assert G.edges == E.edges[1:]
        assert G.rot == [[6, 5], [0], [1, 7, 2], [3, 4]]
        assert euler_genus(G) == euler_genus(E) == 0
        # a dropped chord gives the square back
        G, edge_map = drop(E.edges, E.rot, [4], root=3)
        assert (G.edges, G.rot, G.root) == (self.square().edges,
                                            self.square().rot, 3)
        assert edge_map == [0, 1, 2, 3, -1]

    def test_drop_renumbers_the_vertices(self):
        E = add_chords(self.square(), [((0, 1), (4, 1))])
        G, edge_map = drop(E.edges, E.rot, [0, 3, 4], [0])
        assert edge_map == [-1, 0, 1, -1, -1]
        assert (G.n, G.edges, G.rot) == (3, [(0, 1, 1), (1, 2, 1)],
                                         [[0], [1, 2], [3]])
        # stellating, then dropping the new vertex, gives the graph back
        T = triangle()
        S = stellate(T, trace_faces(T).faces[:1])
        G, edge_map = drop(S.edges, S.rot, [3, 4, 5], [3])
        assert (G.edges, G.rot) == (T.edges, T.rot)
        assert edge_map == [0, 1, 2, -1, -1, -1]

    def test_drop_rejects_a_live_edge_at_a_dead_vertex(self):
        E = self.square()
        with pytest.raises(FormatError, match="live edge ends at a dead"):
            drop(E.edges, E.rot, [0], [0])


class TestEulerGenus:
    def test_triangle_planar(self):
        assert euler_genus(triangle()) == 0

    def test_toroidal_grids_genus_two(self):
        assert euler_genus(toroidal_grid(3, 3)) == 2
        E = toroidal_grid(4, 4)
        fs = trace_faces(E)
        assert (E.n, E.m, fs.f) == (16, 32, 16)
        assert euler_genus(E, fs) == 2

    def test_single_vertex_sphere(self):
        # one vertex, no edge: one face, which no dart walk traces
        E = EmbeddedMultigraph(1, [], [[]])
        assert trace_faces(E).f == 0 and rebuild_faces(E) == []
        assert euler_genus(E) == 0
        # the verifier's 2 - n + m - f agrees
        for g, fails in ((0, []), (1, ["FAIL genus stated 1 actual 0"])):
            cert = parse_certificate(f"cert 1 3 {g}\nPARTS 1\n"
                                     "0\nELL 1\n")
            assert verify_certificate(E, cert) == fails

    def test_disconnected_rejected(self):
        E = EmbeddedMultigraph(4, [(0, 1, 1), (2, 3, 1)],
                               [[0], [1], [2], [3]])
        with pytest.raises(DomainError):
            euler_genus(E)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_relabel_darts_invariance(self, seed):
        # reversing every rotation is a consistent relabelling: genus invariant
        E = toroidal_grid(3, 4)
        rev = EmbeddedMultigraph(E.n, E.edges,
                                 [list(reversed(r)) for r in E.rot])
        assert euler_genus(rev) == euler_genus(E)


class TestBfs:
    def test_single_vertex(self):
        E = EmbeddedMultigraph(1, [], [[]])
        T = bfs_structure(E, 0)
        assert T.depth == [0]
        assert T.layers == [[0]]

    def test_path(self):
        E = from_face_list([[0, 1, 2, 1]])  # path a-b-c: one face of length 4
        T = bfs_structure(E, 0)
        assert T.depth == [0, 1, 2]

    def test_toroidal_depths_match_brute_force(self):
        E = toroidal_grid(3, 3)
        T = bfs_structure(E, 0)
        assert T.depth == brute_bfs_depths(E, 0)
        assert [len(L) for L in T.layers] == [1, 4, 4]

    def test_parent_depth_relation(self):
        E = toroidal_grid(4, 5)
        T = bfs_structure(E, 7)
        for v in range(E.n):
            if v != T.root:
                assert T.depth[T.parent[v]] == T.depth[v] - 1

    def test_edge_spans_at_most_one_layer(self):
        E = k4_planar()
        T = bfs_structure(E, 2)
        for u, v, _ in E.edges:
            assert abs(T.depth[u] - T.depth[v]) <= 1

    def test_bad_root(self):
        with pytest.raises(DomainError):
            bfs_structure(triangle(), 9)


def shuffled_ids(E, rng):
    """The same embedded graph with vertex and edge ids permuted, some
    edges turned round (their two darts swapped) and every rotation
    started at a random dart."""
    vid = list(range(E.n))
    rng.shuffle(vid)
    eid = list(range(E.m))
    rng.shuffle(eid)
    flip = [rng.randrange(2) for _ in range(E.m)]
    edges = [None] * E.m
    for e, (u, v, s) in enumerate(E.edges):
        edges[eid[e]] = (vid[v], vid[u], s) if flip[e] else (vid[u], vid[v], s)
    rot = [None] * E.n
    for v, darts in enumerate(E.rot):
        darts = [2 * eid[x >> 1] + ((x & 1) ^ flip[x >> 1]) for x in darts]
        k = rng.randrange(len(darts)) if darts else 0
        rot[vid[v]] = darts[k:] + darts[:k]
    return EmbeddedMultigraph(E.n, edges, rot, root=rng.choice((None, 0)))


ROUND_TRIP_SOURCES = {
    "triangulation": lambda s: gen_plane_triangulation(20 + s % 40, s),
    "torus": lambda s: gen_toroidal_grid(3 + s % 4, 3 + s % 5),
    "klein": lambda s: klein_grid(3 + s % 4),
    "projective_k4": lambda s: projective_k4(),
    "framed": lambda s: gen_framed(40 + s % 40, 3 + s % 4, 2 * (s % 2), s),
    "map_frame": lambda s: map_to_frame(
        gen_labelled_map(20 + s % 20, 3 + s % 3, s), 3 + s % 3).frame,
    "oneplanar_frame": lambda s: oneplanar_to_frame(
        gen_oneplanar(10 + s % 20, s)).frame,
}


class TestFormat:
    def test_roundtrip(self):
        for E in (triangle(), k4_planar(), toroidal_grid(3, 4)):
            text = serialize_embedding(E)
            E2 = parse_embedding(text)
            assert E2.n == E.n
            assert E2.edges == E.edges
            assert E2.rot == E.rot
            assert serialize_embedding(E2) == text

    @given(st.sampled_from(sorted(ROUND_TRIP_SOURCES)),
           st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_shuffled(self, source, seed):
        rng = random.Random(seed)
        E = shuffled_ids(ROUND_TRIP_SOURCES[source](seed), rng)
        E.validate()
        text = serialize_embedding(E)
        back = parse_embedding(text)
        assert (back.edges, back.rot, back.root) == (E.edges, E.rot, E.root)
        assert back.tails() == E.tails()
        assert ("twist" in text) == (-1 in [s for _, _, s in E.edges])

    def test_comments_and_root(self):
        text = ("# a triangle\nemg 3 3\nroot 1\n"
                "v 0: 0 5  # édges 0 and 2\nv 1: 1 2\nv 2: 3 4\n")
        E = parse_embedding(text)
        assert E.root == 1
        assert E.edges == [(0, 1, 1), (1, 2, 1), (2, 0, 1)]
        assert trace_faces(E).f == 2

    # edge e runs from the vertex listing dart 2e to the one listing 2e + 1
    TRIANGLE = "emg 3 3\nroot 1\nv 0: 0 5\nv 1: 1 2\nv 2: 3 4\n"

    def test_twist_line_gives_the_signatures(self):
        E = parse_embedding(self.TRIANGLE + "twist 0 2\n")
        assert E.edges == [(0, 1, -1), (1, 2, 1), (2, 0, -1)]
        assert serialize_embedding(E) == self.TRIANGLE.replace(
            "root 1\n", "root 1\ntwist 0 2\n")

    @pytest.mark.parametrize("old,new", [
        ("v 2: 3", "v 2 junk: 3"),
        ("v 2: 3", "v 2 7: 3"),
        ("v 2: 3", "v2: 3"),
        ("v 2: 3", "v 2 3"),
        ("root 1\n", "root 1 2\n"),
        ("root 1\n", "root 1\nroot 2\n"),
        ("root 1\n", "root 1\nroot 1\n"),
        ("root 1\n", "root 3\n"),
        ("root 1\n", "root 1\ntwist 0\ntwist 1\n"),
        ("root 1\n", "root 1\ntwist 0\ntwist 0\n"),
        ("root 1\n", "root 1\ntwist 1 0\n"),
        ("root 1\n", "root 1\ntwist 1 1\n"),
        ("root 1\n", "root 1\ntwist 3\n"),
        ("root 1\n", "root 1\ntwist -1\n"),
        ("root 1\n", "root 1\ntwist\n"),
    ], ids=["vertex-junk-token", "vertex-two-ids", "vertex-glued-id",
            "vertex-no-colon", "root-two-tokens", "root-twice",
            "root-repeated", "root-past-last", "twist-twice",
            "twist-repeated", "twist-unsorted", "twist-id-twice",
            "twist-past-last", "twist-negative", "twist-empty"])
    def test_loose_lines_rejected(self, old, new):
        parse_embedding(self.TRIANGLE)
        with pytest.raises(FormatError):
            parse_embedding(self.TRIANGLE.replace(old, new))

    @pytest.mark.parametrize("old,new,names", [
        ("v 0: 0 5", "v 0_0: 0 5", "v 0_0:"),
        ("v 0: 0 5", "v 0: +1", "v 0: +1"),
        ("v 0: 0 5", "v 0: -0 5", "v 0: -0 5"),
        ("v 0: 0 5", "v 0: 0 \u0665", "v 0: 0 \u0665"),
        ("root 1\n", "root 1\ntwist +1\n", "twist +1"),
        ("root 1\n", "root +1\n", "root +1"),
    ], ids=["underscore-id", "plus-dart", "minus-dart", "arabic-indic-dart",
            "plus-twist", "plus-root"])
    def test_only_plain_decimal_integers(self, old, new, names):
        with pytest.raises(FormatError, match=re.escape(names)):
            parse_embedding(self.TRIANGLE.replace(old, new))

    @pytest.mark.parametrize("old,new", [
        ("emg 3 3\n", "emg 3 3\ne 0 0 1 1\n"),
        ("v 0: 0 5", "v 0: 0.0 2.1"),
    ], ids=["edge-line", "edge-side-dart"])
    def test_old_format_names_its_line(self, old, new):
        bad = new.splitlines()[-1]
        with pytest.raises(FormatError, match=re.escape(bad)):
            parse_embedding(self.TRIANGLE.replace(old, new))

    def test_every_vertex_needs_a_line(self):
        # vertex 3 is isolated: it still needs its (empty) rotation line
        text = self.TRIANGLE.replace("emg 3 3", "emg 4 3")
        with pytest.raises(FormatError):
            parse_embedding(text)
        E = parse_embedding(text + "v 3:\n")
        assert E.rot[3] == [] and E.rot[:3] == parse_embedding(
            self.TRIANGLE).rot

    def test_lines_in_any_order(self):
        head, root, *body = self.TRIANGLE.splitlines()
        E = parse_embedding("\n".join([head] + body[::-1] + [root]))
        assert serialize_embedding(E) == self.TRIANGLE

    def test_huge_counts_rejected_before_allocating(self):
        with pytest.raises(FormatError):
            parse_embedding("emg 1000000000000000 1000000000000000\n")
        with pytest.raises(FormatError, match="dart 2 missing"):
            parse_embedding("emg 1 1000000000000000\nv 0: 0 1\n")

    def test_unknown_ids_rejected(self):
        # a dart past the last, with too many darts and with the right count
        for bad, dart in (("emg 2 1\nv 0: 0 6\nv 1: 1\n", 6),
                          ("emg 2 1\nv 0: 0 2\nv 1:\n", 2)):
            with pytest.raises(FormatError,
                               match=f"unknown dart {dart} at vertex 0"):
                parse_embedding(bad)

    def test_non_permutation_rejected(self):
        # the first dart at fault is named, whatever the dart count
        for bad, names in (
                ("emg 2 1\nv 0: 0 0\nv 1: 1\n", "dart 0 appears twice"),
                ("emg 2 1\nv 0: 0 0\nv 1:\n", "dart 0 appears twice"),
                ("emg 2 1\nv 0: 1\nv 1:\n", "dart 0 missing"),
                ("emg 2 2\nv 0: 0 2\nv 1: 1\n", "dart 3 missing")):
            with pytest.raises(FormatError, match=names):
                parse_embedding(bad)

    @pytest.mark.parametrize("bad", [
        "", "emg", "emg x y", "emg 2 1\nv", "emg 2 1\nroot",
        "emg 2 1\ne 0 0 1\nv 0: 0.0\nv 1: 0.1",
        "emg 2 1\ne 0 0 1 1\ne 0 0 1 1\nv 0: 0.0\nv 1: 0.1",
        "emg 0 0\n", "emg 2 1\nv 0: 0\nv 1:", "emg 2 1\nv 0: 0\nv 0: 1",
    ])
    def test_truncated_inputs_raise_format_errors(self, bad):
        with pytest.raises(FormatError):
            parse_embedding(bad)
