"""The frame check, and the closure G^(d) as the verifier rebuilds it."""

from collections import deque
from itertools import combinations

import pytest

from framedprod.embedding import EmbeddedMultigraph, trace_faces
from framedprod.errors import DomainError, InvalidFrameError
from framedprod.frame import check_frame, closure_quotient
from framedprod.frontends import map_to_frame, oneplanar_to_frame
from framedprod.generators import gen_framed, gen_plane_triangulation
from framedprod.verify import closure_pairs, rebuild_closure, rebuild_faces

from face_list import from_face_list
from test_frontends import GOLDEN, GOLDEN_ONEPLANE, golden_drawing, golden_map


def simple_adjacency(E):
    """Neighbour sets of the underlying simple graph (loops dropped)."""
    adj = [set() for _ in range(E.n)]
    for u, v, _ in E.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def frame_distances(E, src):
    adj = simple_adjacency(E)
    dist = {src: 0}
    q = deque([src])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def edge_count(adj):
    return sum(len(a) for a in adj) // 2


def brute_closure_edges(E, d):
    """Frame edges plus every pair on a face walk of length 3..d."""
    edges = {(min(u, v), max(u, v)) for u, v, _ in E.edges if u != v}
    for w in trace_faces(E).vertex_walks(E):
        if 3 <= len(w) <= d:
            for u, v in combinations(w, 2):
                edges.add((min(u, v), max(u, v)))
    return edges


class TestCloseFrame:
    """The frame check and the closure G^(d) that rebuild_closure builds."""

    def test_d3_is_underlying_simple_graph(self):
        E = gen_plane_triangulation(20, 3)
        adj = rebuild_closure(E, 3)
        assert adj == simple_adjacency(E)
        assert edge_count(adj) == E.m

    def test_four_face_gets_both_diagonals(self):
        # a single 4-face suffices: C4 embedded in the sphere
        E = from_face_list([[0, 1, 2, 3], [3, 2, 1, 0]])
        adj = rebuild_closure(E, 4)
        assert 2 in adj[0] and 3 in adj[1]
        assert edge_count(adj) == 6

    def test_five_face_five_chords(self):
        E = from_face_list([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
        assert edge_count(rebuild_closure(E, 5)) == 10  # 5 edges + 5 chords

    def test_faces_longer_than_d_untouched(self):
        E = from_face_list([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
        adj = rebuild_closure(E, 4)
        assert adj == simple_adjacency(E)
        assert edge_count(adj) == 5

    def test_invalid_frame_rejected(self):
        # path: single face with repeated vertices
        E = from_face_list([[0, 1, 2, 1]])
        with pytest.raises(InvalidFrameError, match="face 0"):
            check_frame(E, 3)
        with pytest.raises(DomainError):
            check_frame(E, 2)           # d is checked first

    def test_edgeless_rejected(self):
        with pytest.raises(InvalidFrameError):
            check_frame(EmbeddedMultigraph(1, [], [[]]), 3)

    def test_huge_d_on_triangle(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        assert edge_count(rebuild_closure(E, 99)) == 3

    @pytest.mark.parametrize("n,d,g,seed", [(30, 4, 0, 1), (50, 5, 0, 2),
                                            (40, 6, 0, 3), (16, 4, 2, 4)])
    def test_edge_count_matches_brute_force(self, n, d, g, seed):
        E = gen_framed(n, d, g, seed)
        # the chord faces check_frame returns are the traced faces of
        # length 4..d
        chord_faces = {}
        for w in trace_faces(E).vertex_walks(E):
            if 4 <= len(w) <= d:
                chord_faces.setdefault(len(w), []).extend(w)
        assert {k: list(flat) for k, flat in check_frame(E, d).items()} \
            == chord_faces
        adj = rebuild_closure(E, d)
        brute = brute_closure_edges(E, d)
        assert {(u, v) for u in range(E.n) for v in adj[u] if u < v} == brute
        assert edge_count(adj) == len(brute)

    @pytest.mark.parametrize("n,d,seed", [(40, 4, 7), (60, 6, 8)])
    def test_closure_edges_within_floor_d_half(self, n, d, seed):
        E = gen_framed(n, d, 0, seed)
        adj = rebuild_closure(E, d)
        for u in range(E.n):
            dist = frame_distances(E, u)
            assert all(dist[v] <= d // 2 for v in adj[u])


class TestFaceCliques:
    """Every face of length at most d is a clique of the closure."""

    def test_triangulation_all_triangles(self):
        E = gen_plane_triangulation(12, 9)
        walks = trace_faces(E).vertex_walks(E)
        adj = rebuild_closure(E, 3)
        assert all(len(w) == 3 for w in walks)
        for w in walks:
            assert all(v in adj[u] for u, v in combinations(w, 2))

    def test_mixed_faces_filtered_by_d(self):
        E = gen_framed(50, 6, 0, 13)
        walks = trace_faces(E).vertex_walks(E)
        frame_adj = simple_adjacency(E)
        adj = rebuild_closure(E, 4)
        short = [set(w) for w in walks if len(w) <= 4]
        for w in walks:
            chords = [(u, v) for u, v in combinations(w, 2)
                      if v not in frame_adj[u]]
            if len(w) <= 4:
                assert all(v in adj[u] for u, v in chords)
            else:
                # a longer face adds no chord, unless a short face shares it
                for u, v in chords:
                    assert (v in adj[u]) == any({u, v} <= s for s in short)


def unordered(pairs):
    """Vertex pairs as unordered pairs, loops dropped."""
    return {(min(u, v), max(u, v)) for u, v in pairs if u != v}


class TestClosureQuotient:
    """``closure_quotient`` with each vertex its own part is the closure
    the verifier rebuilds with its own walker."""

    @staticmethod
    def check(E, d):
        mine = closure_quotient(E, check_frame(E, d, trace_faces(E)),
                                range(E.n))
        assert unordered(mine) == unordered(
            zip(*closure_pairs(E, d, rebuild_faces(E))))

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_golden_maps(self, key):
        LM, d = golden_map(key)
        self.check(map_to_frame(LM, d).frame, d)

    @pytest.mark.parametrize("key", sorted(GOLDEN_ONEPLANE))
    def test_golden_drawings(self, key):
        self.check(oneplanar_to_frame(golden_drawing(key)).frame, 4)

    @pytest.mark.parametrize("d", range(3, 9))
    @pytest.mark.parametrize("g", [0, 2])
    def test_framed(self, g, d):
        self.check(gen_framed(80, d, g, 10 + d), d)
