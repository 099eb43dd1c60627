import hashlib
import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from framedprod.assemble import decompose
from framedprod.embedding import from_face_list
from framedprod.errors import DomainError
from framedprod.generators import (
    SplitMix64,
    gen_framed,
    gen_plane_triangulation,
    gen_toroidal_grid,
    triangulate_quads,
)
from framedprod.tripods import Part
from framedprod.verify import (
    check_part_structure,
    check_planarity,
    check_tree_decomposition,
    exact_treewidth,
    rebuild_bfs,
    rebuild_closure,
    rebuild_faces,
    verify_certificate,
)
from test_nonorientable import klein_grid, projective_k4

# sha256 digests of the re-traced faces, closures and tamper FAIL lines,
# recorded from the verifier that kept its states in tuple-keyed dicts
GOLDEN = json.loads((Path(__file__).parent / "golden_verify.json")
                    .read_text())


def _sha(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def golden_corpus():
    """Named embeddings whose faces and closures are pinned."""
    out = {}
    for n in (3, 30, 200):
        for s in (0, 1):
            out[f"tri_{n}_{s}"] = gen_plane_triangulation(n, s)
    for mr, nc in ((3, 3), (4, 5), (7, 6)):
        out[f"torus_{mr}x{nc}"] = gen_toroidal_grid(mr, nc)
    out["torus_tri_4x5"] = triangulate_quads(gen_toroidal_grid(4, 5))
    for d in (4, 5, 6):
        for n in (40, 150):
            out[f"framed_g2_{n}_{d}"] = gen_framed(n, d, 2, 5)
    out["framed_g0_120_6"] = gen_framed(120, 6, 0, 3)
    out["projective_k4"] = projective_k4()
    for s in (3, 4, 5):
        out[f"klein_{s}"] = klein_grid(s)
        out[f"klein_tri_{s}"] = triangulate_quads(klein_grid(s))
    return out


def closure_pairs(adj):
    return sorted((u, v) for u in range(len(adj)) for v in adj[u] if u < v)


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
        # brute force over the construction's face walks: frame edges plus
        # every pair on a cycle face of length at most d
        from framedprod.embedding import trace_faces
        from framedprod.frame import check_frame
        from framedprod.generators import gen_framed
        E = gen_framed(50, 5, 0, 9)
        brute = [set() for _ in range(E.n)]
        pairs = [(u, v) for u, v, _ in E.edges]
        for w in check_frame(E, 5, trace_faces(E)).vertex_walks(E):
            if len(w) <= 5:
                pairs.extend(combinations(w, 2))
        for u, v in pairs:
            if u != v:
                brute[u].add(v)
                brute[v].add(u)
        assert rebuild_closure(E, 5) == brute

    def test_bfs_matches_embedding_module(self):
        from framedprod.embedding import bfs_structure
        E = gen_toroidal_grid(4, 5)
        T = bfs_structure(E, 2)
        parent, depth = rebuild_bfs(E, 2)
        assert parent == T.parent
        assert depth == T.depth


class TestIndependence:
    def test_verifier_imports_only_errors_from_the_package(self):
        # the verifier shares no face walker or BFS with the construction
        import ast

        from framedprod import verify
        tree = ast.parse(Path(verify.__file__).read_text())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if node.level == 0 and mod.split(".")[0] != "framedprod":
                    continue
                if node.level == 0:
                    mod = mod.partition(".")[2]
                if mod:
                    used.add(mod.split(".")[0])
                else:
                    used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                used.update(alias.name.partition(".")[2] or alias.name
                            for alias in node.names
                            if alias.name.split(".")[0] == "framedprod")
        assert used == {"errors"}


class TestGoldenVerify:
    @pytest.fixture(scope="class")
    def corpus(self):
        return golden_corpus()

    def test_corpus_is_pinned(self, corpus):
        assert sorted(corpus) == sorted(GOLDEN["faces"])

    def test_faces(self, corpus):
        got = {k: _sha(rebuild_faces(E)) for k, E in corpus.items()}
        assert got == GOLDEN["faces"]

    def test_closures(self, corpus):
        got = {k: {str(d): _sha(closure_pairs(rebuild_closure(E, d)))
                   for d in (3, 4, 5, 6)}
               for k, E in corpus.items()}
        assert got == GOLDEN["closure"]


class TestPlanarityOracle:
    """check_planarity against networkx on random and known graphs."""

    @pytest.fixture
    def agree(self):
        nx = pytest.importorskip("networkx")

        def check(n, edges):
            G = nx.Graph()
            G.add_nodes_from(range(n))
            G.add_edges_from((a, b) for a, b in edges if a != b)
            want, _ = nx.check_planarity(G)
            assert check_planarity(n, edges) == want, (n, edges)
        return check

    def test_random_graphs(self, agree):
        rng = SplitMix64(2024)
        for _ in range(400):
            n = 1 + rng.below(14)
            pairs = list(combinations(range(n), 2))
            m = rng.below(min(len(pairs), 3 * n) + 1)
            edges = []
            for _ in range(m):
                a, b = pairs[rng.below(len(pairs))]
                edges.append((a, b) if rng.below(2) else (b, a))
            agree(n, edges)

    def test_near_planar_graphs(self, agree):
        # a triangulation with edges dropped and up to two random edges
        # added: planar and non-planar graphs whose DFS has long back edges
        rng = SplitMix64(31)
        for _ in range(250):
            n = 40 + rng.below(80)
            E = gen_plane_triangulation(n, rng.below(10 ** 6))
            edges = [(u, v) for u, v, _ in E.edges]
            for i in range(len(edges) - 1, 0, -1):
                j = rng.below(i + 1)
                edges[i], edges[j] = edges[j], edges[i]
            del edges[n + rng.below(len(edges) - n + 1):]
            for _ in range(rng.below(3)):
                edges.append((rng.below(n), rng.below(n)))
            agree(n, edges)

    def test_gnm_random_graphs(self, agree):
        # sparse to dense random graphs around the planarity threshold: the
        # set that catches a wrong back-edge nesting depth in the first DFS
        nx = pytest.importorskip("networkx")
        rng = SplitMix64(11)
        for seed in range(3000):
            n = 5 + rng.below(25)
            m = n + rng.below(2 * n + 1)
            G = nx.gnm_random_graph(n, m, seed=seed)
            agree(n, list(G.edges()))

    @pytest.mark.parametrize("base", ["k5", "k33"])
    def test_subdivisions(self, agree, base):
        rng = SplitMix64(7)
        if base == "k5":
            core = list(combinations(range(5), 2))
            n0 = 5
        else:
            core = [(a, b + 3) for a in range(3) for b in range(3)]
            n0 = 6
        for _ in range(20):
            edges = []
            nxt = n0
            for a, b in core:
                prev = a
                for _ in range(rng.below(3)):
                    edges.append((prev, nxt))
                    prev = nxt
                    nxt += 1
                edges.append((prev, b))
            agree(nxt, edges)
            # one core edge cut: planar again
            agree(nxt, edges[1:])

    def test_pipeline_h_graphs(self, agree):
        frames = [gen_plane_triangulation(300, 1), gen_toroidal_grid(8, 8),
                  gen_framed(150, 6, 2, 4), klein_grid(5)]
        for E, d in zip(frames, (3, 4, 6, 4)):
            cert = decompose(E, d)
            agree(cert.num_parts, cert.h_edges)


class TestTreewidthOracle:
    """exact_treewidth between networkx's degeneracy lower bound and its
    min-degree and min-fill-in upper bounds on seeded random graphs."""

    def test_random_graphs(self):
        nx = pytest.importorskip("networkx")
        approx = pytest.importorskip("networkx.algorithms.approximation")
        rng = SplitMix64(4242)
        for _ in range(150):
            n = 1 + rng.below(12)
            pairs = list(combinations(range(n), 2))
            m = rng.below(len(pairs) + 1)
            G = nx.Graph()
            G.add_nodes_from(range(n))
            for _ in range(m):
                G.add_edge(*pairs[rng.below(len(pairs))])
            tw = exact_treewidth([set(G[v]) for v in range(n)])
            assert tw <= approx.treewidth_min_degree(G)[0], sorted(G.edges)
            assert tw <= approx.treewidth_min_fill_in(G)[0], sorted(G.edges)
            if G.number_of_edges():
                assert tw >= max(nx.core_number(G).values()), sorted(G.edges)


class TestStatedGenus:
    """The genus is recomputed from the re-traced faces, never trusted."""

    def test_raised_genus_fails(self):
        import copy
        E = gen_plane_triangulation(20, 1)
        cert = copy.deepcopy(decompose(E, 3))
        cert.genus, cert.bound = 6, 12
        assert verify_certificate(E, cert) == ["FAIL genus stated 6 actual 0"]

    def test_lowered_genus_keeps_the_true_cap_and_bound(self):
        # with the stated 0 the Z part's 2g cap and the bound would be
        # violated; the recomputed genus 2 holds both
        import copy
        E = gen_toroidal_grid(6, 6)
        cert = copy.deepcopy(decompose(E, 4))
        assert cert.ell > 5          # d + 3h - 3, the genus-0 bound
        cert.genus, cert.bound = 0, 5
        assert verify_certificate(E, cert) == ["FAIL genus stated 0 actual 2"]


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


class TestOutOfRangeFields:
    def test_h_edges_and_bag_nodes(self):
        import copy
        E = gen_plane_triangulation(30, 1)
        cert = copy.deepcopy(decompose(E, 3))
        k = cert.num_parts
        cert.h_edges += [(k + 5, 0), (-1, 1)]
        cert.bags[0] = cert.bags[0] + [10 ** 6]
        fails = verify_certificate(E, cert)
        assert f"FAIL H edge {k + 5}-0 out of range" in fails
        assert "FAIL H edge -1-1 out of range" in fails
        assert "FAIL td bag 0 node 1000000 out of range" in fails
        assert "FAIL planarity H is not planar" not in fails

    def test_d_below_three(self):
        import copy
        E = gen_plane_triangulation(30, 1)
        cert = copy.deepcopy(decompose(E, 3))
        for d in (2, 1, 0, -4):
            cert.d = d
            assert verify_certificate(E, cert) == [
                f"FAIL shape certificate d {d} < 3"]


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

    def test_tampering_fail_lines_pinned(self):
        rng = SplitMix64(99)
        E = gen_plane_triangulation(60, 4)
        cert = decompose(E, 3)
        got = [sorted(verify_certificate(E, self.tampered(cert, rng, E)))
               for _ in range(60)]
        assert _sha(got) == GOLDEN["tamper_fail_lines"]

    def test_single_vertex_cell(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        cert = decompose(E, 3)
        assert verify_certificate(E, cert) == []
