import copy
import hashlib
import json
import subprocess
import sys
from ast import literal_eval
from itertools import combinations
from pathlib import Path

import pytest

from framedprod.assemble import (
    decompose,
    parse_certificate,
    serialize_certificate,
)
from framedprod.embedding import EmbeddedMultigraph, from_face_list
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
    check_containment,
    check_part_structure,
    check_planarity,
    check_tree_decomposition,
    closure_pairs,
    rebuild_bfs,
    rebuild_closure,
    rebuild_faces,
    verify_certificate,
)
from test_nonorientable import klein_grid, projective_k4
from treewidth import exact_treewidth, stated_decomposition

# sha256 digests of the re-traced faces and closures, recorded from the
# verifier that kept its states in tuple-keyed dicts, and of the FAIL lines
# of TestTamper's edits of the parts, recorded when the certificate came to
# state only its parts; the d >= 4 ones (face chords) were recorded from the
# containment check that walked per-vertex adjacency sets
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


def sorted_pairs(adj):
    return sorted((u, v) for u in range(len(adj)) for v in adj[u] if u < v)


def adj_from(n, edges):
    a = [set() for _ in range(n)]
    for u, v in edges:
        a[u].add(v)
        a[v].add(u)
    return a


def h_edges(cert):
    return stated_decomposition(cert.parts)[0]


def tampered(cert, rng, E):
    """One guaranteed-invalid edit of the parts of a valid certificate."""
    c = copy.deepcopy(cert)
    parts = c.parts
    node = [None] * c.n
    for part in parts:
        for v in part.vertices():
            node[v] = part.pid
    edges = [(u, v) for u, v, _ in E.edges]
    mode = rng.below(5)
    if mode == 0:
        # move u into the absorbed set of a part that is neither v's part
        # nor adjacent to it in H: the edge uv leaves H
        hset = {(min(a, b), max(a, b)) for a, b in h_edges(c)}
        for u, v in edges:
            a = node[v]
            choices = [p for p in range(c.num_parts)
                       if p != a and p != node[u]
                       and (min(p, a), max(p, a)) not in hset]
            if choices:
                old = parts[node[u]]
                old.legs = [[x for x in leg if x != u] for leg in old.legs]
                old.legs = [leg for leg in old.legs if leg]
                old.absorbed = [x for x in old.absorbed if x != u]
                parts[choices[rng.below(len(choices))]].absorbed.append(u)
                return c
        mode = 4
    if mode == 1:
        # a leg read bottom up is no longer a vertical path
        legs = [leg for part in parts for leg in part.legs if len(leg) > 1]
        if legs:
            legs[rng.below(len(legs))].reverse()
            return c
        mode = 4
    if mode == 2:
        # a creator pointing at a part it created closes a cycle; with no
        # such part it points past the last bag
        i = rng.below(c.num_parts)
        kids = [part.pid for part in parts if part.creator == i]
        parts[i].creator = kids[0] if kids else c.num_parts
        return c
    if mode == 3:
        # an attachment the edge uv needs is dropped: H loses the edge
        cut = [(u, v) for u, v in edges if node[u] != node[v]]
        if cut:
            u, v = cut[rng.below(len(cut))]
            a, b = sorted((node[u], node[v]))
            parts[b].attachments.remove(a)
            return c
    c.ell -= 1
    return c


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

    def test_nodes_out_of_range_rejected(self):
        # an edge key a*N + b decodes to another pair when a or b is not
        # in 0..N-1
        for bad in ((0, 4), (-1, 2), (3, 9)):
            with pytest.raises(DomainError, match="leaves the nodes"):
                check_planarity(4, [(0, 1), bad])

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
            adj = adj_from(cert.num_parts, h_edges(cert))
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

    def test_rotations_not_a_permutation_fail_in_bounded_time(self,
                                                              child_env):
        # vertex 0 lists dart 0 twice and drops dart 5: the all-+1 walk from
        # dart 1 runs into the closed face 0 -> 2 -> 4 and once grew until
        # memory ran out; the signed walk (edge 2-0 flipped) must stop as
        # well.  A child process with capped memory turns a hang into a
        # failed test instead of a stalled suite.
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from framedprod.assemble import decompose\n"
                "from framedprod.embedding import EmbeddedMultigraph, "
                "from_face_list\n"
                "from framedprod.verify import verify_certificate\n"
                "cert = decompose(from_face_list([[0, 1, 2], [2, 1, 0]]), 3)\n"
                "for sg in (1, -1):\n"
                "    E = EmbeddedMultigraph(3, [(0, 1, 1), (1, 2, 1), "
                "(2, 0, sg)],\n"
                "                           [[0, 0], [1, 2], [3, 4]],\n"
                "                           validate=False)\n"
                "    print(verify_certificate(E, cert))\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        plus, signed = map(literal_eval, res.stdout.splitlines())
        assert plus == ["FAIL shape a face walk closes away from its start: "
                        "the rotations are not a permutation of the darts"]
        assert signed and all(ln.startswith("FAIL ") for ln in signed)


class TestShape:
    """Graphs built with ``validate=False`` against a triangle's
    certificate: each fault the walks cannot index is one ``FAIL shape``
    line, never an exception."""

    @pytest.fixture(scope="class")
    def case(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        return E, decompose(E, 3)

    @staticmethod
    def run(case, edges=None, rot=None, root=None):
        E, cert = case
        F = EmbeddedMultigraph(
            E.n, list(E.edges) if edges is None else edges,
            [list(r) for r in E.rot] if rot is None else rot,
            root=root, validate=False)
        return verify_certificate(F, cert)

    def test_the_triangle_passes(self, case):
        assert self.run(case) == []

    @pytest.mark.parametrize("end", [7, 3, -1])
    def test_edge_end_not_a_vertex(self, case, end):
        edges = list(case[0].edges)
        edges[1] = (1, end, 1)
        assert self.run(case, edges=edges) == [
            "FAIL shape an edge end is not a vertex"]

    @pytest.fixture(scope="class")
    def out_of_range(self, child_env):
        # vertex 1 lists dart 9, 6, -1 or -7 in place of its first, with
        # edge 0 signed +1 and -1.  The eight cases run in one child
        # process with capped memory, so that a regression in the
        # permutation test fails them instead of taking the host's memory
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from framedprod.assemble import decompose\n"
                "from framedprod.embedding import EmbeddedMultigraph, "
                "from_face_list\n"
                "from framedprod.verify import verify_certificate\n"
                "E = from_face_list([[0, 1, 2], [2, 1, 0]])\n"
                "cert = decompose(E, 3)\n"
                "for dart in (9, 6, -1, -7):\n"
                "    for sign in (1, -1):\n"
                "        edges = [(u, v, sign if e == 0 else 1)\n"
                "                 for e, (u, v, _) in enumerate(E.edges)]\n"
                "        rot = [list(r) for r in E.rot]\n"
                "        rot[1][0] = dart\n"
                "        F = EmbeddedMultigraph(E.n, edges, rot, "
                "validate=False)\n"
                "        print((dart, sign, verify_certificate(F, cert)))\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        return {(dart, sign): fails for dart, sign, fails
                in map(literal_eval, res.stdout.splitlines())}

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("dart", [9, 6, -1, -7])
    def test_dart_out_of_range(self, out_of_range, dart, sign):
        assert out_of_range[dart, sign] == [
            "FAIL shape a rotation lists a dart out of range"]

    @pytest.mark.parametrize("sign", [0, 2])
    def test_signature_not_plus_or_minus_one(self, case, sign):
        edges = [(u, v, sign) for u, v, _ in case[0].edges]
        assert self.run(case, edges=edges) == [
            "FAIL shape an edge signature is not +1 or -1"]

    def test_rotation_count_not_n(self, case):
        rot = [list(r) for r in case[0].rot]
        assert self.run(case, rot=rot + [[]]) == [
            "FAIL shape 4 rotations for 3 vertices"]
        assert self.run(case, rot=rot[:2]) == [
            "FAIL shape 2 rotations for 3 vertices"]

    @pytest.mark.parametrize("root", [5, 3, -1])
    def test_root_not_a_vertex(self, case, root):
        assert self.run(case, root=root) == [
            f"FAIL shape root {root} is not a vertex"]

    def test_darts_not_a_permutation_fail_in_bounded_time(self, child_env):
        # against the triangle's certificate: vertex 0 lists dart 5 twice
        # and drops dart 0; seven darts, dart 1 twice, so that every slot
        # of the walk's table is written and only the count tells (the walk
        # from dart 0 would cycle 1 -> 5 -> 3 without returning); five
        # darts.  Each with edge 2-0 signed +1 and -1.  Then, against the
        # 3x3 torus grid's certificate, -5 in place of dart 0 at vertex 0
        # ([31, -5, 18, 5]): the next write goes to slot -5 ^ 1 = -6, the
        # one -5 was written to.  The first and the last once returned only
        # a FAIL genus line.  A child process with capped memory turns a
        # hang into a failed test instead of a stalled suite.
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from framedprod.assemble import decompose\n"
                "from framedprod.embedding import EmbeddedMultigraph, "
                "from_face_list\n"
                "from framedprod.generators import gen_toroidal_grid\n"
                "from framedprod.verify import verify_certificate\n"
                "cert = decompose(from_face_list([[0, 1, 2], [2, 1, 0]]), 3)\n"
                "for rot in ([[5, 5], [1, 2], [3, 4]], "
                "[[0, 5, 1], [1, 2], [3, 4]], [[0, 5], [1, 2], [3]]):\n"
                "    for sg in (1, -1):\n"
                "        E = EmbeddedMultigraph(3, [(0, 1, 1), (1, 2, 1), "
                "(2, 0, sg)], rot, validate=False)\n"
                "        print(verify_certificate(E, cert))\n"
                "E = gen_toroidal_grid(3, 3)\n"
                "rot = [list(r) for r in E.rot]\n"
                "rot[0][rot[0].index(0)] = -5\n"
                "F = EmbeddedMultigraph(E.n, E.edges, rot, validate=False)\n"
                "print(verify_certificate(F, decompose(E, 4)))\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert list(map(literal_eval, res.stdout.splitlines())) == [[
            "FAIL shape a face walk closes away from its start: "
            "the rotations are not a permutation of the darts"]] * 6 + [[
                "FAIL shape a rotation lists a dart out of range"]]


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
        got = {k: {str(d): _sha(sorted_pairs(rebuild_closure(E, d)))
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
            agree(cert.num_parts, h_edges(cert))


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
        E = gen_plane_triangulation(20, 1)
        cert = copy.deepcopy(decompose(E, 3))
        cert.genus, cert.bound = 6, 12
        assert verify_certificate(E, cert) == ["FAIL genus stated 6 actual 0"]

    def test_lowered_genus_keeps_the_true_cap_and_bound(self):
        # with the stated 0 the Z part's 2g cap and the bound would be
        # violated; the recomputed genus 2 holds both
        E = gen_toroidal_grid(6, 6)
        cert = copy.deepcopy(decompose(E, 4))
        assert cert.ell > 5          # d + 3h - 3, the genus-0 bound
        cert.genus, cert.bound = 0, 5
        assert verify_certificate(E, cert) == ["FAIL genus stated 0 actual 2"]


def td_parts(spec):
    """Parts with no vertices whose (creator, attachments) are spec[i]."""
    return [Part(i, "tripod", [], [], c, list(a))
            for i, (c, a) in enumerate(spec)]


class TestTreeDecompositionCheck:
    """Bag i is part i's attachments plus i, under its creator's bag."""

    def test_k4_creator_chain(self):
        # bags {0}, {0,1}, {0,1,2}, {0,1,2,3}: H is K4
        fails, h = check_tree_decomposition(
            td_parts([(-1, []), (0, [0]), (1, [0, 1]), (2, [0, 1, 2])]))
        assert fails == []
        assert sorted(h) == sorted((a, b) for b in range(4) for a in range(b))
        assert check_tree_decomposition([]) == (["FAIL td no bags"], [])

    def test_disconnected_subtree_detected(self):
        # node 0 is in bags 0 and 2 but not in bag 1 between them
        fails, _ = check_tree_decomposition(
            td_parts([(-1, []), (0, []), (1, [0])]))
        assert fails == ["FAIL td node 0 spans 2 subtrees"]

    def test_oversized_bag(self):
        fails, h = check_tree_decomposition(
            td_parts([(-1, []), (0, [0]), (1, [0, 1]), (2, [0, 1, 2]),
                      (3, [0, 1, 2, 3])]))
        assert fails == ["FAIL td bag 4 has size 5"]
        assert len(h) == 10

    def test_repeated_node(self):
        fails, h = check_tree_decomposition(
            td_parts([(-1, []), (0, [0, 0]), (1, [2])]))
        assert fails == ["FAIL td bag 1 repeats a node",
                         "FAIL td bag 2 repeats a node"]
        assert h == [(0, 1), (0, 1), (2, 2)]

    def test_node_out_of_range(self):
        # one line per bad attachment, in sorted order; H keeps the rest
        fails, h = check_tree_decomposition(
            td_parts([(-1, []), (0, [9, 0, 5]), (1, [1, -1])]))
        assert fails == ["FAIL td bag 1 node 5 out of range",
                         "FAIL td bag 1 node 9 out of range",
                         "FAIL td bag 2 node -1 out of range"]
        assert h == [(0, 1), (1, 2)]

    def test_parent_out_of_range(self):
        fails, h = check_tree_decomposition(
            td_parts([(-1, []), (7, [0]), (-3, [0])]))
        assert fails == ["FAIL td bag 1 parent 7 out of range"]
        assert h == [(0, 1), (0, 2)]

    def test_two_roots(self):
        fails, _ = check_tree_decomposition(td_parts([(-1, []), (-1, [0])]))
        assert fails == ["FAIL td 2 roots", "FAIL td node 0 spans 2 subtrees"]

    def test_parent_cycle_fails_in_bounded_time(self, child_env):
        # a cycle whose bags share a node once made the anchor walk spin;
        # run in a child process so a hang fails the test instead of the suite
        code = ("from framedprod.tripods import Part\n"
                "from framedprod.verify import check_tree_decomposition as c\n"
                "def ps(spec):\n"
                "    return [Part(i, 'tripod', [], [], p, a)\n"
                "            for i, (p, a) in enumerate(spec)]\n"
                "print(c(ps([(1, [1]), (0, [0])]))[0])\n"
                "print(c(ps([(-1, []), (2, [0]), (1, [0, 1])]))[0])\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 2
        assert all("FAIL td bag_parent has a cycle" in ln for ln in lines)


class TestContainmentCheck:
    def test_parts_and_blocks_per_closure_edge(self):
        # a path 0-1-2-3: parts 0, 0, 1, 2 with H = {0-1}; blocks 0, 0, 2, 3
        us, vs = [0, 2, 2], [1, 1, 3]
        fails = check_containment(us, vs, [0, 0, 1, 2], [0, 0, 2, 3],
                                  [(0, 1)])
        assert fails == ["FAIL containment edge 1-2: layers 0,2",
                         "FAIL containment edge 2-3: parts 1,2 not "
                         "adjacent in H"]
        assert check_containment(us, vs, [0, 0, 1, 2], [0, 0, 1, 2],
                                 [(1, 0), (2, 1)]) == []

    def test_vertex_in_no_part_skips_the_parts_test(self):
        assert check_containment([0, 1], [1, 2], [0, -1, 1], [0, 0, 3],
                                 []) == ["FAIL containment edge 1-2: layers "
                                         "0,3"]

    def test_emptied_part_gives_only_the_parts_line(self):
        # part 5 of this certificate holds one vertex with 43 closure edges
        E = gen_plane_triangulation(2000, 1)
        cert = copy.deepcopy(decompose(E, 3))
        assert cert.parts[5].vertices() == [121]
        cert.parts[5].legs = []
        assert verify_certificate(E, cert) == [
            "FAIL parts 1 vertices in no part"]


    @staticmethod
    def pairs(faces, d):
        E = from_face_list(faces)
        return closure_pairs(E, d, rebuild_faces(E))

    def test_edge_that_is_also_a_chord_gives_one_line(self):
        # the quad 0-1-2-3 with its diagonal 0-2 drawn outside: 0-2 is an
        # edge of E and a chord of the quad face
        us, vs = self.pairs([[0, 1, 2, 3], [1, 0, 2], [3, 2, 0]], 4)
        assert sorted(zip(us, vs)).count((0, 2)) == 2
        assert check_containment(us, vs, [0, 2, 1, 2], [0, 1, 2, 1],
                                 [(0, 2), (1, 2)]) == [
            "FAIL containment edge 0-2: parts 0,1 not adjacent in H",
            "FAIL containment edge 0-2: layers 0,2"]

    def test_chord_of_two_faces_gives_one_line(self):
        # a 4-cycle on the sphere: both faces have the chords 0-2 and 1-3
        us, vs = self.pairs([[0, 1, 2, 3], [3, 2, 1, 0]], 4)
        assert sorted(map(sorted, zip(us, vs))).count([0, 2]) == 2
        assert check_containment(us, vs, [0, 0, 0, 0], [0, 1, 2, 1],
                                 []) == [
            "FAIL containment edge 0-2: layers 0,2"]

    def test_lines_in_ascending_pair_order(self):
        us, vs = self.pairs([[0, 1, 2, 3, 4, 5], [3, 2, 1, 0, 5, 4]], 6)
        fails = check_containment(us, vs, list(range(6)), [0] * 6, [])
        assert fails == [f"FAIL containment edge {u}-{v}: parts {u},{v} "
                         "not adjacent in H"
                         for u, v in combinations(range(6), 2)]


class TestContainmentOracle:
    """The column check against the set-based check it replaced, over the
    golden corpus and graphs with parallel edges and loops, under seeded
    random part, block and H assignments."""

    @staticmethod
    def reference_closure(E, d):
        adj = [set() for _ in range(E.n)]
        for u, v, _ in E.edges:
            adj[u].add(v)
            adj[v].add(u)
        for walk in rebuild_faces(E):
            if 4 <= len(walk) <= d and len(set(walk)) == len(walk):
                for u in walk:
                    adj[u].update(walk)
        for u, nbrs in enumerate(adj):
            nbrs.discard(u)
        return adj

    @staticmethod
    def reference_containment(closure_adj, node, layer, h_edges):
        fails = []
        hset = set(h_edges)
        hset.update([(b, a) for a, b in h_edges])
        for u, nbrs in enumerate(closure_adj):
            a = node[u]
            lu = layer[u]
            for v in nbrs:
                if u >= v:
                    continue
                b = node[v]
                if a != b and (a, b) not in hset and a != -1 and b != -1:
                    fails.append(f"FAIL containment edge {u}-{v}: parts "
                                 f"{a},{b} not adjacent in H")
                if abs(lu - layer[v]) > 1:
                    fails.append(f"FAIL containment edge {u}-{v}: layers "
                                 f"{lu},{layer[v]}")
        return fails

    @staticmethod
    def line_key(line):
        u, v = line.split()[3].rstrip(":").split("-")
        return int(u), int(v), "layers" in line

    @staticmethod
    def assignments(rng, n):
        """A passing start (one part, one block), then a few vertices moved
        to random parts (-1 included) and blocks, and a random H."""
        k = 1 + rng.below(5)
        node = [0] * n
        layer = [0] * n
        for _ in range(rng.below(4)):
            node[rng.below(n)] = rng.below(k + 1) - 1
        for _ in range(rng.below(4)):
            layer[rng.below(n)] = rng.below(5) - 2
        h = [(rng.below(k), rng.below(k)) for _ in range(rng.below(2 * k))]
        return node, layer, h

    def test_same_fail_lines_as_the_set_based_check(self):
        corpus = golden_corpus()
        corpus["parallel_quad"] = from_face_list(
            [[0, 1, 2, 3], [1, 0], [3, 2, 1, 0]])
        corpus["parallel_pentagon"] = from_face_list(
            [[0, 1, 2, 3, 4], [1, 0], [4, 3, 2, 1, 0]])
        corpus["loop_triangle"] = from_face_list(
            [[0], [0, 0, 1, 2], [2, 1, 0]])
        # one face 0-1-0-2 repeats vertex 0, so its pair 1-2 is no chord
        corpus["path_of_two"] = from_face_list([[0, 1, 0, 2]])
        rng = SplitMix64(2026)
        passed = failed = 0
        for E in corpus.values():
            walks = rebuild_faces(E)
            for d in (4, 5, 6):
                us, vs = closure_pairs(E, d, walks)
                ref = self.reference_closure(E, d)
                assert rebuild_closure(E, d) == ref
                for _ in range(12):
                    node, layer, h = self.assignments(rng, E.n)
                    got = check_containment(us, vs, node, layer, h)
                    want = self.reference_containment(ref, node, layer, h)
                    assert got == sorted(want, key=self.line_key)
                    passed += not got
                    failed += bool(got)
        assert passed > 100 and failed > 100


class TestPartStructureCheck:
    def test_out_of_range_vertices(self):
        parts = [Part(pid=0, kind="tripod", legs=[[0, 1, 5]], absorbed=[-1],
                      creator=-1, attachments=[])]
        fails, node = check_part_structure(parts, [-1, 0], 0, 4, -1)
        assert fails == ["FAIL parts vertex 5 out of range",
                         "FAIL parts vertex -1 out of range"]
        assert node == [0, 0]

    def test_each_vertex_in_exactly_one_part(self):
        parts = [Part(0, "tripod", [[0, 1]], [], -1, []),
                 Part(1, "tripod", [[1]], [], 0, [0])]
        fails, node = check_part_structure(parts, [-1, 0, 1], 0, 4, -1)
        assert fails == ["FAIL parts vertex 1 in two parts",
                         "FAIL parts 1 vertices in no part"]
        assert node == [0, 0, -1]


class TestOutOfRangeFields:
    def test_h_edges_and_bag_nodes(self):
        E = gen_plane_triangulation(30, 1)
        cert = copy.deepcopy(decompose(E, 3))
        k = cert.num_parts
        cert.parts[0].attachments.append(k + 5)
        cert.parts[1].attachments.insert(0, -1)
        fails = verify_certificate(E, cert)
        # one line per bad attachment; its H edge is left out, not reported
        assert [f for f in fails if "out of range" in f] == [
            f"FAIL td bag 0 node {k + 5} out of range",
            "FAIL td bag 1 node -1 out of range"]
        assert "FAIL planarity H is not planar" not in fails

    def test_d_below_three(self):
        E = gen_plane_triangulation(30, 1)
        cert = copy.deepcopy(decompose(E, 3))
        for d in (2, 1, 0, -4):
            cert.d = d
            assert verify_certificate(E, cert) == [
                f"FAIL shape certificate d {d} < 3"]


class TestStatedDecomposition:
    """H and the bags come from the p lines; a bad creator or attachment
    gives FAIL lines, never an exception."""

    @pytest.fixture(scope="class")
    def case(self):
        E = gen_plane_triangulation(40, 3)
        return E, serialize_certificate(decompose(E, 3))

    def test_derived_from_the_parts(self, case):
        _, text = case
        cert = parse_certificate(text)
        edges, bags, parent = stated_decomposition(cert.parts)
        assert parent[0] == -1
        for part in cert.parts:
            i = part.pid
            assert bags[i] == sorted(part.attachments) + [i]
            assert parent[i] == part.creator
            assert [(a, i) for a in part.attachments] == [
                e for e in edges if e[1] == i]
        # the check reads the same H from the parts
        fails, h = check_tree_decomposition(cert.parts)
        assert fails == []
        assert sorted(h) == sorted(edges)

    @staticmethod
    def edit(text, pid, fn):
        """``text`` with the head tokens of part ``pid``'s p line (id,
        kind, creator, attachments) replaced by ``fn(tokens)``."""
        lines = text.splitlines()
        i = next(j for j, ln in enumerate(lines)
                 if ln.startswith(f"p {pid} "))
        head, sep, rest = lines[i].partition(" x: ")
        toks = head.split()
        lines[i] = " ".join(toks[:1] + fn(toks[1:])) + sep + rest
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("pid,fn,want", [
        (2, lambda t: t[:2] + ["99"] + t[3:],
         "FAIL td bag 2 parent 99 out of range"),
        (2, lambda t: t[:2] + ["-7"] + t[3:],
         "FAIL td bag 2 parent -7 out of range"),
        (3, lambda t: t + ["99"], "FAIL td bag 3 node 99 out of range"),
        (3, lambda t: t + ["-2"], "FAIL td bag 3 node -2 out of range"),
        (3, lambda t: t + [t[3]], "FAIL td bag 3 repeats a node"),
        (3, lambda t: t + ["3"], "FAIL td bag 3 repeats a node"),
        (2, lambda t: t[:2] + ["2"] + t[3:], "FAIL td bag_parent has a cycle"),
        (0, lambda t: t[:2] + ["1"] + t[3:], "FAIL td bag_parent has a cycle"),
        (1, lambda t: t[:2] + ["-1"] + t[3:], "FAIL td 2 roots"),
    ], ids=["creator-past-the-bags", "creator-negative", "attachment-past",
            "attachment-negative", "attachment-twice", "attachment-self",
            "creator-self", "creator-cycle", "two-roots"])
    def test_bad_creator_or_attachment(self, case, pid, fn, want):
        E, text = case
        cert = parse_certificate(self.edit(text, pid, fn))
        fails = verify_certificate(E, cert)
        assert fails.count(want) == 1
        assert all(f.startswith("FAIL ") for f in fails)


class TestTamper:
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
            bad = tampered(cert, rng, E)
            assert verify_certificate(E, bad) != []

    def test_tampering_fail_lines_pinned(self):
        rng = SplitMix64(99)
        E = gen_plane_triangulation(60, 4)
        cert = decompose(E, 3)
        got = [sorted(verify_certificate(E, tampered(cert, rng, E)))
               for _ in range(60)]
        assert _sha(got) == GOLDEN["tamper_fail_lines"]

    def test_chord_tampering_fail_lines_pinned(self):
        # d >= 4: the closure has face chords, so some FAIL lines name a
        # pair of vertices that no edge of E joins
        got = []
        for E, d in ((gen_toroidal_grid(4, 4), 4),
                     (gen_framed(60, 6, 0, 1), 6)):
            rng = SplitMix64(7)
            cert = decompose(E, d)
            got.append([sorted(verify_certificate(E, tampered(cert, rng, E)))
                        for _ in range(60)])
        assert _sha(got) == GOLDEN["tamper_chord_fail_lines"]

    def test_single_vertex_cell(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        cert = decompose(E, 3)
        assert verify_certificate(E, cert) == []
