from types import SimpleNamespace

import pytest

from framedprod.embedding import (
    EmbeddedMultigraph,
    bfs_structure,
    euler_genus,
    from_face_list,
    trace_faces,
)
from framedprod.cut import (
    _check_spanning,
    _dual_cotree,
    attach_apex,
    build_Tplus,
    build_Z,
    cut_along,
)
from framedprod.errors import ContractViolation, DomainError
from framedprod.generators import gen_plane_triangulation, gen_toroidal_grid


def two_loop_bouquet():
    # one vertex, two interleaved loops: orientable genus 1, Euler genus 2
    return EmbeddedMultigraph(1, [(0, 0, 1), (0, 0, 1)], [[0, 2, 1, 3]])


def projective_k4():
    # K4 in the projective plane: three quadrilateral faces, Euler genus 1
    edges = [(0, 1, 1), (0, 2, -1), (0, 3, 1), (1, 2, 1), (1, 3, -1),
             (2, 3, 1)]
    rot = [[0, 2, 4], [1, 6, 8], [3, 7, 10], [5, 9, 11]]
    return EmbeddedMultigraph(4, edges, rot)


class TestDualCotree:
    """Q: the non-tree edges outside a spanning tree of the non-tree dual."""

    def test_k4(self):
        # 3 non-tree edges join the 4 faces of a plane graph in a tree
        E = from_face_list([[0, 1, 2], [0, 2, 3], [0, 3, 1], [3, 2, 1]])
        T = bfs_structure(E, 0)
        assert _dual_cotree(E, T, trace_faces(E)) == []

    def test_tree_input_edgeless_dual(self):
        # star on 3 vertices: m = n-1, one face, no dual edges
        E = EmbeddedMultigraph(3, [(0, 1, 1), (0, 2, 1)], [[0, 2], [1], [3]])
        fs = trace_faces(E)
        assert fs.f == 1
        assert _dual_cotree(E, bfs_structure(E, 0), fs) == []

    def test_toroidal_counts(self):
        E = gen_toroidal_grid(3, 3)
        T = bfs_structure(E, 0)
        Q = _dual_cotree(E, T, trace_faces(E))
        tree = set(T.parent_edge)
        assert len(Q) == euler_genus(E) == 2      # 18 - 8 = 10 = 9 - 1 + 2
        assert Q == sorted(Q) and not tree & set(Q)
        assert build_Z(E, T).Q == Q

    def test_contracts(self):
        E = gen_toroidal_grid(3, 3)
        fs = trace_faces(E)
        T = bfs_structure(E, 0)
        short = SimpleNamespace(parent_edge=T.parent_edge[:-1])
        with pytest.raises(ContractViolation, match="dual edge count"):
            _dual_cotree(E, short, fs)
        # n - 1 "tree" edges that close the boundary of face 0 cut that
        # face off in the dual
        ring = sorted({d >> 1 for d in fs.faces[0]})
        rest = [e for e in range(E.m) if e not in ring][:E.n - 1 - len(ring)]
        fake = SimpleNamespace(parent_edge=[-1] + ring + rest)
        with pytest.raises(ContractViolation, match="disconnected"):
            _dual_cotree(E, fake, fs)


class TestBuildZ:
    def test_genus_zero_empty(self):
        E = gen_plane_triangulation(10, 1)
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        assert C.Q == [] and C.paths == [] and C.q == 0

    def test_toroidal_counts(self):
        E = gen_toroidal_grid(3, 3)
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        assert len(C.Q) == 2
        assert C.q == C.p - 1 + 2
        assert len(C.paths) <= 4
        # paths are disjoint and cover V(Z)
        seen = set()
        for p in C.paths:
            assert not (seen & set(p))
            seen.update(p)
        assert sorted(seen) == C.z_vertices

    def test_paths_vertical(self):
        E = gen_toroidal_grid(4, 5)
        T = bfs_structure(E, 3)
        C = build_Z(E, T)
        for p in C.paths:
            for a, b in zip(p, p[1:]):
                assert T.parent[b] == a

    def test_bouquet_whole_graph(self):
        E = two_loop_bouquet()
        fs = trace_faces(E)
        assert fs.f == 1 and euler_genus(E, fs) == 2
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        assert len(C.Q) == 2
        assert C.z_vertices == [0]
        assert C.q == 2

    def test_z_ancestor_closed(self):
        E = gen_toroidal_grid(5, 4)
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        zs = set(C.z_vertices)
        for v in C.z_vertices:
            if T.parent[v] != -1:
                assert T.parent[v] in zs


class TestCutAlong:
    def test_bouquet_becomes_four_cycle(self):
        E = two_loop_bouquet()
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        R, _ = cut_along(E, C)
        assert R.Gt.n == 4 and R.Gt.m == 4
        assert sorted(R.cf_cycle) == [0, 1, 2, 3]
        fs = trace_faces(R.Gt)
        assert fs.f == 2
        assert euler_genus(R.Gt, fs) == 0

    @pytest.mark.parametrize("mr,nc,root", [(3, 3, 0), (3, 4, 5), (4, 4, 7),
                                            (5, 3, 1), (6, 6, 17)])
    def test_toroidal_invariants(self, mr, nc, root):
        E = gen_toroidal_grid(mr, nc)
        T = bfs_structure(E, root)
        C = build_Z(E, T)
        R, _ = cut_along(E, C)
        g = C.genus
        assert R.Gt.n == E.n + C.p - 2 + 2 * g
        assert R.Gt.m == E.m + C.p - 1 + g
        assert sorted(R.cf_cycle) == R.zprime
        assert len(set(R.cf_cycle)) == len(R.cf_cycle)
        # provenance maps copies onto Z and unsplit vertices onto themselves
        zset = set(C.z_vertices)
        for new, old in enumerate(R.provenance):
            if new in set(R.zprime):
                assert old in zset
            else:
                assert old not in zset

    def test_genus_zero_rejected(self):
        E = gen_plane_triangulation(6, 2)
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        with pytest.raises(DomainError):
            cut_along(E, C)

    def test_k5_on_torus_invariants(self):
        edges = [(u, v, 1) for u in range(5) for v in range(u + 1, 5)]
        rot = [[0, 2, 4, 6], [1, 8, 10, 12], [3, 14, 9, 16],
               [5, 11, 15, 18], [7, 19, 13, 17]]
        E = EmbeddedMultigraph(5, edges, rot)
        fs = trace_faces(E)
        g = euler_genus(E, fs)
        assert g == 2
        assert all(fs.is_disk_cycle(E, i) for i in range(fs.f))
        T = bfs_structure(E, 0)
        C = build_Z(E, T, fs)
        R, _ = cut_along(E, C, fs)
        assert C.q == C.p - 1 + g
        assert R.Gt.n == E.n + C.p - 2 + 2 * g
        assert R.Gt.m == E.m + C.p - 1 + g
        fs2 = trace_faces(R.Gt)
        assert fs2.f == fs.f + 1
        assert euler_genus(R.Gt, fs2) == 0
        assert sorted(R.cf_cycle) == R.zprime

    def test_projective_plane_cuts_to_plane(self):
        E = projective_k4()
        fs = trace_faces(E)
        assert fs.f == 3
        assert all(fs.is_disk_cycle(E, i) for i in range(fs.f))
        assert euler_genus(E, fs) == 1
        T = bfs_structure(E, 0)
        C = build_Z(E, T, fs)
        assert len(C.Q) == 1
        R, _ = cut_along(E, C, fs)
        assert euler_genus(R.Gt) == 0
        assert all(s == 1 for (_, _, s) in R.Gt.edges)
        assert sorted(R.cf_cycle) == R.zprime


class TestApexAndTree:
    @pytest.mark.parametrize("mr,nc", [(3, 3), (4, 3), (4, 4)])
    def test_apex_triangles(self, mr, nc):
        E = gen_toroidal_grid(mr, nc)
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        R, gt_faces = cut_along(E, C)
        Gplus, _ = attach_apex(R, gt_faces)
        fs = trace_faces(Gplus)
        assert euler_genus(Gplus, fs) == 0
        # every face touching the apex is a triangle
        walks = fs.vertex_walks(Gplus)
        apex_faces = [w for w in walks if Gplus.n - 1 in w]
        assert len(apex_faces) == len(R.cf_cycle)
        assert all(len(w) == 3 for w in apex_faces)
        assert all(fs.is_disk_cycle(Gplus, i) for i in range(fs.f))

    @pytest.mark.parametrize("mr,nc,root", [(3, 3, 0), (4, 4, 9), (5, 4, 2)])
    def test_tree_plus_spans(self, mr, nc, root):
        E = gen_toroidal_grid(mr, nc)
        T = bfs_structure(E, root)
        C = build_Z(E, T)
        R, gt_faces = cut_along(E, C)
        Gplus, _ = attach_apex(R, gt_faces)
        parent, Pp = build_Tplus(Gplus, T, R)
        n = Gplus.n
        assert parent[Gplus.n - 1] == -1
        assert sum(1 for v in range(n) if parent[v] == -1) == 1
        # edge-count identity
        interior = E.n - C.p
        assert len(Pp) + interior == n - 1
        # P+ covers the whole cut boundary and is a path below the apex
        assert sorted(Pp) == R.zprime
        assert parent[Pp[0]] == Gplus.n - 1
        for a, b in zip(Pp, Pp[1:]):
            assert parent[b] == a

    def test_vertical_paths_project_to_original_tree(self):
        E = gen_toroidal_grid(4, 4)
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        R, gt_faces = cut_along(E, C)
        Gplus, _ = attach_apex(R, gt_faces)
        parent, Pp = build_Tplus(Gplus, T, R)
        zp = set(R.zprime)
        # climbing from any non-boundary vertex stays inside the original
        # tree until the boundary: each parent step matches T
        for vn in range(Gplus.n):
            if vn == Gplus.n - 1 or vn in zp:
                continue
            pn = parent[vn]
            if pn in zp or pn == Gplus.n - 1:
                continue
            assert T.parent[R.provenance[vn]] == R.provenance[pn]

    def test_all_of_graph_in_z(self):
        E = two_loop_bouquet()
        T = bfs_structure(E, 0)
        C = build_Z(E, T)
        R, gt_faces = cut_along(E, C)
        Gplus, _ = attach_apex(R, gt_faces)
        parent, Pp = build_Tplus(Gplus, T, R)
        # T+ is exactly the boundary path plus the apex edge
        assert len(Pp) == 4
        assert sum(1 for v in range(Gplus.n) if parent[v] != -1) == 4


class TestCheckSpanning:
    """Parent pointers of a tree on every vertex, with one root."""

    def test_valid_tree(self):
        _check_spanning([-1, 0, 0, 1, 3], 0)
        _check_spanning([2, 2, -1], 2)

    @pytest.mark.parametrize("parent,msg", [
        ([-1, 0, -1, 2], "one root"),               # a second root
        ([1, -1, 1], "one root"),                   # the root has a parent
        ([-1, 2, 1], "cycle"),                      # a 2-cycle
        ([-1, 0, 1, 5, 3, 4, 3], "cycle"),          # path 0-1-2; cycle 3-5-4
    ])
    def test_broken_trees_rejected(self, parent, msg):
        with pytest.raises(ContractViolation, match=msg):
            _check_spanning(parent, 0)
