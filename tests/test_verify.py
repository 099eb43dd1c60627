import copy
import hashlib
import json
import subprocess
import sys
from ast import literal_eval
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedprod.assemble import (
    CertPart,
    decompose,
    parse_certificate,
    serialize_certificate,
    width_bound,
)
from framedprod.embedding import EmbeddedMultigraph, from_face_list
from framedprod.errors import DomainError
from framedprod.frontends import map_to_frame
from framedprod.generators import (
    SplitMix64,
    gen_framed,
    gen_labelled_map,
    gen_plane_triangulation,
    gen_toroidal_grid,
    triangulate_quads,
)
from framedprod.verify import (
    check_containment,
    check_part_structure,
    check_planarity,
    check_tree_decomposition,
    closure_pairs,
    derive_bags,
    rebuild_bfs,
    rebuild_closure,
    rebuild_faces,
    verify_certificate,
)
from test_nonorientable import klein_grid, projective_k4
from test_verify_fuzz import TIME_BOUND
from treewidth import (
    construction_bags,
    derived_bags,
    exact_treewidth,
    nx_planar,
    stated_decomposition,
)

# sha256 digests of the re-traced faces and closures, recorded from the
# verifier that kept its states in tuple-keyed dicts, and of the FAIL lines
# of TestTamper's edits of the parts, re-recorded when the p lines stopped
# stating each part's id, kind and creator (the verifier hangs bag i under
# its largest attachment, and the edit that once set a creator attaches a
# part to a later one), and again when a leg came to be stated by its two
# ends: the same edits then fail a reversed leg's climb in the BFS tree
# instead of giving "path break" lines; and again when a leg came to be
# stated by its bottom alone, which cannot state a reversed leg: that edit
# became a bottom that an earlier part holds and a bottom moved up its
# path, and the move to a far part takes an absorbed vertex or a bottom;
# and again when H came to be derived from the closure: an extra the
# closure shows (mode 4, once a dropped attachment) gives one "td bag ..
# extra .. is derived" line where containment gave "parts .. not adjacent"
# lines, an emptied part is also a second root, and a vertex moved to a far
# part (mode 0) now widens the derived bags instead of breaking containment
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


def h_edges(cert, E):
    return stated_decomposition(derived_bags(E, cert))[0]


def leg_paths(cert, parent):
    """Each part's legs as full paths, bottom first, climbed in ``parent``
    as the verifier climbs them."""
    held = [False] * cert.n
    out = []
    for part in cert.parts:
        paths = []
        for x in part.legs:
            path = []
            while x != -1 and not held[x]:
                held[x] = True
                path.append(x)
                x = parent[x]
            paths.append(path)
        for v in part.absorbed:
            held[v] = True
        out.append(paths)
    return out


def tampered(cert, rng, E):
    """One guaranteed-invalid edit of the parts of a valid certificate."""
    c = copy.deepcopy(cert)
    _tamper(c, rng, E)
    return c


def _tamper(c, rng, E):
    """Edit ``c`` in one of six ways, each one the verifier must catch."""
    parts = c.parts
    parent = rebuild_bfs(E, E.root or 0)[0]
    paths = leg_paths(c, parent)
    node = [None] * c.n
    for pid, part in enumerate(parts):
        for v in sum(paths[pid], part.absorbed):
            node[v] = pid
    edges = [(u, v) for u, v, _ in E.edges]
    mode = rng.below(5)
    if mode == 0:
        # move u, an absorbed vertex or a leg's bottom, into the absorbed
        # set of a part that is neither v's part nor adjacent to it in H:
        # at d = 3 no part may absorb a vertex; otherwise the edge uv adds
        # an edge to the derived H, which widens a bag or splits a node's
        # subtree, or a later leg climbs through u and u is in two parts
        hset = {(min(a, b), max(a, b)) for a, b in h_edges(c, E)}
        for u, v in edges + [(v, u) for u, v in edges]:
            a = node[v]
            old = parts[node[u]]
            if u not in old.legs + old.absorbed:
                continue
            choices = [p for p in range(c.num_parts)
                       if p != a and p != node[u]
                       and (min(p, a), max(p, a)) not in hset]
            if choices:
                if u in old.absorbed:
                    old.absorbed.remove(u)
                else:
                    # the leg goes on from the vertex above u, if it has one
                    i = old.legs.index(u)
                    path = paths[node[u]][i]
                    old.legs[i:i + 1] = path[1:2]
                parts[choices[rng.below(len(choices))]].absorbed.append(u)
                return
        mode = 5
    if mode == 1:
        # a leg's bottom is a vertex an earlier part holds
        legs = [(i, j) for i in range(1, c.num_parts)
                for j in range(len(parts[i].legs))]
        if legs:
            i, j = legs[rng.below(len(legs))]
            held = [v for v in range(c.n) if node[v] < i]
            parts[i].legs[j] = held[rng.below(len(held))]
            return
        mode = 5
    if mode == 2:
        # a leg's bottom moves one up its path, and no later climb reaches
        # the vertex it leaves, which is in no part
        stops = {parent[path[-1]] for ps in paths for path in ps}
        legs = [(i, j) for i, ps in enumerate(paths)
                for j, path in enumerate(ps)
                if len(path) > 1 and path[0] not in stops]
        if legs:
            i, j = legs[rng.below(len(legs))]
            parts[i].legs[j] = paths[i][j][1]
            return
        mode = 5
    if mode == 3:
        # an extra naming the part after it (for the last part, past the
        # last), which is out of its bag's range
        i = rng.below(c.num_parts)
        parts[i].extras.append(i + 1)
        return
    if mode == 4:
        # an extra the edge uv already shows: the closure derives it
        cut = [(u, v) for u, v in edges if node[u] != node[v]]
        if cut:
            u, v = cut[rng.below(len(cut))]
            a, b = sorted((node[u], node[v]))
            parts[b].extras.append(a)
            return
    c.ell -= 1


class TestPlanarity:
    """The stacking rule: no two parts attach to the same 3 parts."""

    def test_k4_planar(self):
        # a K4 chain: each part after the third on a triangle of its own
        parts = td_parts([[], [0], [0, 1], [0, 1, 2], [1, 2, 3], [1, 3, 4]])
        assert check_tree_decomposition(parts) == []
        assert check_planarity(parts) == []

    def test_k5_minus_an_edge_fails(self):
        # parts 3 and 4 on the triangle 0,1,2: H is K5 minus the edge 3-4,
        # which is planar, so the rule is stricter than planarity
        parts = td_parts([[], [0], [0, 1], [0, 1, 2], [2, 0, 1]])
        assert check_tree_decomposition(parts) == []
        assert check_planarity(parts) == [
            "FAIL planarity bag 4 attaches to 0,1,2 as bag 3 does"]
        assert nx_planar(5, stated_decomposition(parts)[0])

    def test_k33_not_planar(self):
        # parts 3, 4 and 5 on the triangle 0,1,2: H holds K3,3 with the
        # sides {0,1,2} and {3,4,5}
        parts = td_parts([[], [0], [0, 1], [0, 1, 2], [1, 0, 2], [0, 1, 2]])
        assert check_tree_decomposition(parts) == []
        assert check_planarity(parts) == [
            "FAIL planarity bag 4 attaches to 0,1,2 as bag 3 does",
            "FAIL planarity bag 5 attaches to 0,1,2 as bag 3 does"]
        assert not nx_planar(6, stated_decomposition(parts)[0])

    def test_never_raises_on_any_attachment_list(self):
        # a list of another length, with a repeat or with a part not before
        # its own is left to the tree decomposition check, and claims no
        # 3-set: part 10 is the first to state 1,2,6 in range
        parts = td_parts([[], [0], [0, 1], [0, 1, 2], [1, 2, 3], [1, 2, 6],
                          [0, 0, 1], [-1, 0, 1, 2], [], [1, 0, 0],
                          [6, 2, 1], [2, 0, 1]])
        assert check_tree_decomposition(parts)
        assert check_planarity(parts) == [
            "FAIL planarity bag 11 attaches to 0,1,2 as bag 3 does"]

    def test_large_planar_triangulation(self):
        # no 3-set twice among the bags of a 2000-vertex triangulation
        E = gen_plane_triangulation(2000, 3)
        bags = derived_bags(E, decompose(E, 3))
        assert check_tree_decomposition(bags) == []
        assert sum(len(b) == 3 for b in bags) > 100
        assert check_planarity(bags) == []


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
            adj = adj_from(cert.num_parts, h_edges(cert, E))
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

    def test_disconnected_graph(self):
        # two triangles, each on a sphere of its own: the Euler genus
        # 2 - n + m - f reads -2, and one part per triangle climbs its
        # three one-vertex legs; the rebuilt BFS misses the second
        E = from_face_list([[0, 1, 2], [2, 1, 0], [3, 4, 5], [5, 4, 3]], 6)
        cert = parse_certificate("cert 6 3 -2\nPARTS 2\n0 1 2\n"
                                 "3 4 5;;0\nELL 3\n")
        assert verify_certificate(E, cert) == [
            "FAIL shape vertex 3 is not reached from the root 0: the graph "
            "is disconnected"]

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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_dart_listed_away_from_its_tail(self, case, sign):
        # vertices 0 and 1 swap their first darts: still a permutation of
        # the darts, so only the tail test sees it, at the first dart
        rot = [list(r) for r in case[0].rot]
        a, b = rot[0][0], rot[1][0]
        rot[0][0], rot[1][0] = b, a
        edges = [(u, v, sign if e == 2 else 1)
                 for e, (u, v, _) in enumerate(case[0].edges)]
        assert self.run(case, edges=edges, rot=rot) == [
            f"FAIL shape dart {b} is listed at vertex 0, but its tail is 1"]

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


@st.composite
def stackings(draw):
    """Attachment lists of up to 18 parts.  Part ``i`` attaches to some
    nodes of an earlier bag (a clique of ``H`` when the bags before are a
    clean tree decomposition), to an earlier part's 3 attachments again,
    or to any earlier parts."""
    spec = [[]]
    for i in range(1, draw(st.integers(1, 18))):
        mode = draw(st.sampled_from(["bag", "bag", "bag", "again", "any"]))
        triples = [a for a in spec if len(a) == 3]
        if mode == "bag":
            j = draw(st.integers(0, i - 1))
            atts = draw(st.lists(st.sampled_from(spec[j] + [j]), min_size=1,
                                 max_size=3, unique=True))
        elif mode == "again" and triples:
            atts = draw(st.permutations(draw(st.sampled_from(triples))))
        else:
            atts = draw(st.lists(st.integers(0, i - 1), max_size=3,
                                 unique=True))
        spec.append(list(atts))
    return spec


class TestPlanarityOracle:
    """The two steps of ``check_planarity``'s proof against networkx."""

    @given(stackings())
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, spec):
        parts = td_parts(spec)
        if check_tree_decomposition(parts):
            return
        h = stated_decomposition(parts)[0]
        # (a) a clean tree decomposition makes every bag a clique
        hset = set(h)
        for atts in spec:
            assert all(p in hset for p in combinations(sorted(atts), 2))
        # (b) with no 3-set used twice, H is planar
        if not check_planarity(parts):
            assert nx_planar(len(parts), h), spec

    def test_pipeline_h_graphs(self):
        frames = [gen_plane_triangulation(300, 1), gen_toroidal_grid(8, 8),
                  gen_framed(150, 6, 2, 4), klein_grid(5)]
        for E, d in zip(frames, (3, 4, 6, 4)):
            cert = decompose(E, d)
            assert check_planarity(derived_bags(E, cert)) == []
            assert nx_planar(cert.num_parts, h_edges(cert, E))


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
        cert.genus = 6
        assert verify_certificate(E, cert) == ["FAIL genus stated 6 actual 0"]

    def test_editing_the_genus_moves_the_bound(self):
        cert = copy.deepcopy(decompose(gen_plane_triangulation(20, 1), 4))
        assert cert.bound == width_bound(0, 4) == 7
        cert.genus = 6
        assert cert.bound == width_bound(6, 4) == 24
        with pytest.raises(AttributeError):
            cert.bound = 7

    def test_lowered_genus_keeps_the_true_cap_and_bound(self):
        # the stated 0 would cap Z at 0 paths and ell at the genus-0 bound,
        # and this certificate exceeds both; the recomputed genus 2 holds
        # both
        E = triangulate_quads(gen_toroidal_grid(4, 4))
        cert = copy.deepcopy(decompose(E, 3))
        assert cert.ell > width_bound(0, cert.d)
        assert len(cert.parts[0].legs) > 0
        cert.genus = 0
        assert verify_certificate(E, cert) == ["FAIL genus stated 0 actual 2"]


def td_parts(spec):
    """The bags ``derive_bags`` would give: spec[i] for part i."""
    return [list(a) for a in spec]


class TestTreeDecompositionCheck:
    """Bag i is part i's earlier neighbours plus i, under the bag of the
    largest of them."""

    def test_k4_creator_chain(self):
        # bags {0}, {0,1}, {0,1,2}, {0,1,2,3}: H is K4
        assert check_tree_decomposition(
            td_parts([[], [0], [0, 1], [0, 1, 2]])) == []
        assert check_tree_decomposition([]) == ["FAIL td no bags"]

    def test_disconnected_subtree_detected(self):
        # node 0 is in bags 1 and 3 but not in bag 2 between them
        fails = check_tree_decomposition(td_parts([[], [0], [1], [0, 2]]))
        assert fails == ["FAIL td node 0 spans 2 subtrees"]

    def test_oversized_bag(self):
        fails = check_tree_decomposition(
            td_parts([[], [0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]))
        assert fails == ["FAIL td bag 4 has size 5"]

    def test_repeated_node(self):
        fails = check_tree_decomposition(td_parts([[], [0, 0], [1, 1]]))
        assert fails == ["FAIL td bag 1 repeats a node",
                         "FAIL td bag 2 repeats a node"]

    def test_node_out_of_range(self):
        # one line per bad node, in sorted order.  The range of bag i is
        # 0..i-1: itself and later parts are out
        fails = check_tree_decomposition(
            td_parts([[], [9, 0, 5], [1, -1, 2], [3, 0]]))
        assert fails == ["FAIL td bag 1 node 5 out of range",
                         "FAIL td bag 1 node 9 out of range",
                         "FAIL td bag 2 node -1 out of range",
                         "FAIL td bag 2 node 2 out of range",
                         "FAIL td bag 3 node 3 out of range"]

    def test_parent_out_of_range(self):
        # a largest node out of range is left out: bag 3 hangs under bag 0
        # and bag 4 under bag 1, so every node spans one subtree
        fails = check_tree_decomposition(
            td_parts([[], [0], [1], [0, 3], [1, 9]]))
        assert fails == ["FAIL td bag 3 node 3 out of range",
                         "FAIL td bag 4 node 9 out of range"]

    def test_two_roots(self):
        # a part after the first with no earlier neighbour is a second root
        fails = check_tree_decomposition(td_parts([[], [0], []]))
        assert fails == ["FAIL td 2 roots"]
        fails = check_tree_decomposition(td_parts([[], [], [0, 1]]))
        assert fails == ["FAIL td 2 roots", "FAIL td node 0 spans 2 subtrees"]

    def test_parent_cycle_fails_in_bounded_time(self):
        # the bags that once stated a cycle of bag parents: a later part is
        # out of range, so the bags derived from them form a tree
        fails = check_tree_decomposition(td_parts([[1], [0]]))
        assert fails == ["FAIL td bag 0 node 1 out of range"]
        fails = check_tree_decomposition(td_parts([[], [2, 0], [0, 1]]))
        assert fails == ["FAIL td bag 1 node 2 out of range"]


def sorted_bags(us, vs, node, extras):
    """``derive_bags``, each bag sorted."""
    fails, bags = derive_bags(us, vs, node, extras)
    return fails, [sorted(bag) for bag in bags]


class TestContainmentCheck:
    def test_parts_and_blocks_per_closure_edge(self):
        # a path 0-1-2-3: parts 0, 0, 1, 2 and blocks 0, 0, 2, 3.  H is
        # read from the same pairs, so its edges 0-1 and 1-2 hold the parts
        # of every pair, and only the blocks are tested
        us, vs = [0, 2, 2], [1, 1, 3]
        assert sorted_bags(us, vs, [0, 0, 1, 2], [[], [], []]) == (
            [], [[], [0], [1]])
        assert check_containment(us, vs, [0, 0, 2, 3]) == [
            "FAIL containment edge 1-2: layers 0,2"]
        assert check_containment(us, vs, [0, 0, 1, 2]) == []

    def test_vertex_in_no_part_skips_the_parts_test(self):
        # a pair with an end in no part gives H no edge
        assert sorted_bags([0, 1], [1, 2], [0, -1, 1], [[], []]) == (
            [], [[], []])
        assert check_containment([0, 1], [1, 2], [0, 0, 3]) == [
            "FAIL containment edge 1-2: layers 0,3"]

    def test_emptied_part_gives_the_parts_line_and_a_root(self):
        # part 82 of this certificate holds one vertex with 10 closure
        # edges, below which no later leg's climb stops.  Emptied, it
        # touches no part, so H derives no edge at it and its bag is a
        # second root; no closure pair gives a line of its own
        E = gen_plane_triangulation(2000, 1)
        cert = copy.deepcopy(decompose(E, 3))
        assert (cert.parts[82].legs, cert.parts[82].absorbed) == ([170], [])
        cert.parts[82].legs = []
        assert verify_certificate(E, cert) == [
            "FAIL parts 1 vertices in no part", "FAIL td 2 roots"]


    @staticmethod
    def pairs(faces, d):
        E = from_face_list(faces)
        return closure_pairs(E, d, rebuild_faces(E))

    def test_edge_that_is_also_a_chord_gives_one_line(self):
        # the quad 0-1-2-3 with its diagonal 0-2 drawn outside: 0-2 is an
        # edge of E and a chord of the quad face
        us, vs = self.pairs([[0, 1, 2, 3], [1, 0, 2], [3, 2, 0]], 4)
        assert sorted(zip(us, vs)).count((0, 2)) == 2
        assert check_containment(us, vs, [0, 1, 2, 1]) == [
            "FAIL containment edge 0-2: layers 0,2"]

    def test_chord_of_two_faces_gives_one_line(self):
        # a 4-cycle on the sphere: both faces have the chords 0-2 and 1-3
        us, vs = self.pairs([[0, 1, 2, 3], [3, 2, 1, 0]], 4)
        assert sorted(map(sorted, zip(us, vs))).count([0, 2]) == 2
        assert check_containment(us, vs, [0, 1, 2, 1]) == [
            "FAIL containment edge 0-2: layers 0,2"]

    def test_lines_in_ascending_pair_order(self):
        us, vs = self.pairs([[0, 1, 2, 3, 4, 5], [3, 2, 1, 0, 5, 4]], 6)
        fails = check_containment(us, vs, [0, 2, 4, 6, 8, 10])
        assert fails == [f"FAIL containment edge {u}-{v}: layers "
                         f"{2 * u},{2 * v}"
                         for u, v in combinations(range(6), 2)]


class TestDeriveBags:
    """H is the quotient of the closure under the parts, plus the extras."""

    # the path 0-1-2-3 with the chord 0-2: parts 0, 1, 2, 3
    US, VS = [0, 1, 2, 0], [1, 2, 3, 2]

    def test_quotient_gives_the_earlier_neighbours(self):
        assert sorted_bags(self.US, self.VS, [0, 1, 2, 3],
                           [[], [], [], []]) == ([], [[], [0], [0, 1], [2]])

    def test_extras_are_added_as_stated(self):
        # a repeat, itself and a later part are left to the td check
        fails, bags = derive_bags(self.US, self.VS, [0, 1, 2, 3],
                                  [[], [], [], [1, 1, 3, 4, -1]])
        assert fails == []
        assert bags[3] == [2, 1, 1, 3, 4, -1]
        assert check_tree_decomposition(bags) == [
            "FAIL td bag 3 has size 7", "FAIL td bag 3 repeats a node",
            "FAIL td bag 3 node -1 out of range",
            "FAIL td bag 3 node 3 out of range",
            "FAIL td bag 3 node 4 out of range"]

    def test_derived_extra_gives_one_line(self):
        fails, bags = sorted_bags(self.US, self.VS, [0, 1, 2, 3],
                                  [[], [], [1, 0], [0, 2]])
        assert fails == [
            "FAIL td bag 2 extra 1 is derived from the closure",
            "FAIL td bag 2 extra 0 is derived from the closure",
            "FAIL td bag 3 extra 2 is derived from the closure"]
        assert bags == [[], [0], [0, 1], [0, 2]]


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
    def reference_containment(closure_adj, layer):
        fails = []
        for u, nbrs in enumerate(closure_adj):
            lu = layer[u]
            for v in nbrs:
                if u < v and abs(lu - layer[v]) > 1:
                    fails.append(f"FAIL containment edge {u}-{v}: layers "
                                 f"{lu},{layer[v]}")
        return fails

    @staticmethod
    def reference_bags(closure_adj, node, k):
        """Each part's earlier neighbours in the quotient, sorted."""
        bags = [set() for _ in range(k)]
        for u, nbrs in enumerate(closure_adj):
            for v in nbrs:
                a, b = sorted((node[u], node[v]))
                if -1 < a < b:
                    bags[b].add(a)
        return [sorted(b) for b in bags]

    @staticmethod
    def line_key(line):
        u, v = line.split()[3].rstrip(":").split("-")
        return int(u), int(v)

    @staticmethod
    def assignments(rng, n):
        """A passing start (one part, one block), then a few vertices moved
        to random parts among ``k`` (-1 included) and blocks."""
        k = 1 + rng.below(5)
        node = [0] * n
        layer = [0] * n
        for _ in range(rng.below(4)):
            node[rng.below(n)] = rng.below(k + 1) - 1
        for _ in range(rng.below(4)):
            layer[rng.below(n)] = rng.below(5) - 2
        return k, node, layer

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
                    k, node, layer = self.assignments(rng, E.n)
                    assert sorted_bags(us, vs, node, [[]] * k) == (
                        [], self.reference_bags(ref, node, k))
                    got = check_containment(us, vs, layer)
                    want = self.reference_containment(ref, layer)
                    assert got == sorted(want, key=self.line_key)
                    passed += not got
                    failed += bool(got)
        assert passed > 100 and failed > 100


# the path 0-1-2-3-4 rooted at 0, as parent pointers
PATH_TREE = [-1, 0, 1, 2, 3]


def parts_of(*legs):
    """One part per list of legs, each attached to the part before."""
    return [CertPart(list(ls), [], [i - 1] if i else [])
            for i, ls in enumerate(legs)]


class TestPartStructureCheck:
    """A leg's path is climbed in the tree from its bottom while the vertex
    is in no part."""

    def test_out_of_range_vertices(self):
        parts = [CertPart([1, 5, 7], [-1], [])]
        fails, node = check_part_structure(parts, [-1, 0], 0, 4)
        assert fails == ["FAIL parts vertex 5 out of range",
                         "FAIL parts vertex 7 out of range",
                         "FAIL parts vertex -1 out of range"]
        assert node == [0, 0]

    def test_each_vertex_in_exactly_one_part(self):
        parts = [CertPart([1], [], []), CertPart([1], [], [0])]
        fails, node = check_part_structure(parts, [-1, 0, 1], 0, 4)
        assert fails == ["FAIL parts vertex 1 in two parts",
                         "FAIL parts 1 vertices in no part"]
        assert node == [0, 0, -1]

    def test_climb_fills_the_path(self):
        # up to the root, then up to the vertex below part 0's
        fails, node = check_part_structure(parts_of([4]), PATH_TREE, 0, 3)
        assert (fails, node) == ([], [0] * 5)
        fails, node = check_part_structure(parts_of([2], [4]),
                                           PATH_TREE, 0, 3)
        assert (fails, node) == ([], [0, 0, 0, 1, 1])

    def test_climb_stops_at_a_claimed_vertex(self):
        # an earlier leg of its own part, and an absorbed vertex given
        # after its part's climbs
        fails, node = check_part_structure(parts_of([2, 4]), PATH_TREE, 0, 3)
        assert (fails, node) == ([], [0] * 5)
        parts = [CertPart([2], [3], []), CertPart([4], [], [0])]
        fails, node = check_part_structure(parts, PATH_TREE, 0, 4)
        assert (fails, node) == ([], [0, 0, 0, 0, 1])
        # another part's vertex with no part above it: the climb stops below
        # it, so a leg never passes a vertex it does not take
        parts = [CertPart([], [2], []), CertPart([4], [], [0])]
        fails, node = check_part_structure(parts, PATH_TREE, 0, 4)
        assert fails == ["FAIL parts 2 vertices in no part"]
        assert node == [-1, -1, 0, 1, 1]

    def test_bottom_moved_up_leaves_vertices_in_no_part(self):
        fails, node = check_part_structure(parts_of([2], [3]),
                                           PATH_TREE, 0, 3)
        assert fails == ["FAIL parts 1 vertices in no part"]
        assert node == [0, 0, 0, 1, -1]

    def test_bottom_held_by_an_earlier_part(self):
        fails, node = check_part_structure(parts_of([2], [1]),
                                           PATH_TREE, 0, 3)
        assert fails == ["FAIL parts vertex 1 in two parts",
                         "FAIL parts 2 vertices in no part"]
        assert node == [0, 0, 0, -1, -1]

    def test_overlapping_legs_of_one_part(self):
        # a bottom on an earlier leg's path, a bottom stated twice, and an
        # absorbed vertex on a leg's path
        for legs, absorbed, v in (([3, 1], [], 1), ([3, 3], [], 3),
                                  ([3], [2], 2)):
            parts = [CertPart(legs, absorbed, []), CertPart([4], [], [0])]
            fails, node = check_part_structure(parts, PATH_TREE, 0, 4)
            assert fails == [f"FAIL parts part 0 holds vertex {v} twice"]
            assert node == [0, 0, 0, 0, 1]

    def test_deep_legs_climb_in_bounded_time(self, child_env):
        # 80,000 parts on the 3 x 600 torus grid, each with three legs
        # whose bottoms are among the 300 deepest vertices (depth 251 to
        # 301): every leg after the first's climb has a claimed bottom.  A climb that went on past claimed vertices would take
        # about 70 million steps.  A child process with capped memory
        # turns a hang into a failed test instead of a stalled suite.
        code = ("import resource, time\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from framedprod.assemble import parse_certificate\n"
                "from framedprod.generators import gen_toroidal_grid\n"
                "from framedprod.verify import rebuild_bfs, "
                "verify_certificate\n"
                "E = gen_toroidal_grid(3, 600)\n"
                "depth = rebuild_bfs(E, 0)[1]\n"
                "deep = sorted(range(E.n), key=depth.__getitem__)[-300:]\n"
                "legs = [str(deep[i % 300]) for i in range(240000)]\n"
                "lines = [' '.join(legs[i:i + 3])\n"
                "         for i in range(0, len(legs), 3)]\n"
                "cert = parse_certificate('\\n'.join(\n"
                "    [f'cert {E.n} 4 2', f'PARTS {len(lines)}', *lines, "
                "'ELL 1']))\n"
                "t0 = time.perf_counter()\n"
                "fails = verify_certificate(E, cert)\n"
                "print((time.perf_counter() - t0, fails[-2:],\n"
                "       all(f.startswith('FAIL ') for f in fails)))\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        seconds, last, all_fail = literal_eval(res.stdout)
        assert seconds < TIME_BOUND
        # the 99 parts after the first that hold a vertex touch an earlier
        # one in the closure; every other part is a root
        assert last == ["FAIL td 79901 roots", "FAIL ell stated 1 actual 8"]
        assert all_fail


class TestOutOfRangeFields:
    def test_h_edges_and_bag_nodes(self):
        E = gen_plane_triangulation(30, 1)
        cert = copy.deepcopy(decompose(E, 3))
        k = cert.num_parts
        cert.parts[0].extras.append(k + 5)
        cert.parts[1].extras.insert(0, -1)
        fails = verify_certificate(E, cert)
        # one line per bad extra; its H edge is left out, not reported
        assert [f for f in fails if "out of range" in f] == [
            f"FAIL td bag 0 node {k + 5} out of range",
            "FAIL td bag 1 node -1 out of range"]
        assert not [f for f in fails if f.startswith("FAIL planarity")]

    def test_d_below_three(self):
        E = gen_plane_triangulation(30, 1)
        cert = copy.deepcopy(decompose(E, 3))
        for d in (2, 1, 0, -4):
            cert.d = d
            assert verify_certificate(E, cert) == [
                f"FAIL shape certificate d {d} < 3"]


class TestStatedDecomposition:
    """H and the bags come from the closure and the part lines' extras; a bad
    extra gives FAIL lines, never an exception."""

    @pytest.fixture(scope="class")
    def case(self):
        E = gen_plane_triangulation(40, 3)
        return E, serialize_certificate(decompose(E, 3))

    def test_derived_from_the_parts(self, case):
        # a triangulation's part lines state no extra: H is the quotient, and
        # it is the H of the construction
        E, text = case
        cert = parse_certificate(text)
        assert not any(part.extras for part in cert.parts)
        bags = derived_bags(E, cert)
        assert bags == construction_bags(E, 3)
        edges, out, parent = stated_decomposition(bags)
        assert parent[0] == -1
        for i, bag in enumerate(bags):
            assert out[i] == sorted(bag) + [i]
            assert parent[i] == max(bag, default=-1)
        assert check_tree_decomposition(bags) == []

    def test_old_format_fails_once_per_derived_attachment(self):
        # a labelled map's frame, where some parts state extras: the text
        # of the format that listed every attachment gives one line per
        # attachment the closure shows, and no other line
        E = map_to_frame(gen_labelled_map(100, 4, 1), 4).frame
        cert = decompose(E, 4)
        atts = construction_bags(E, 4)
        assert sum(map(len, (p.extras for p in cert.parts))) == 28
        old = copy.deepcopy(cert)
        for part, a in zip(old.parts, atts):
            part.extras = a
        want = [f"FAIL td bag {i} extra {a} is derived from the closure"
                for i, part in enumerate(cert.parts)
                for a in atts[i] if a not in part.extras]
        assert len(want) == 190
        text = serialize_certificate(old)
        assert verify_certificate(E, parse_certificate(text)) == want

    @staticmethod
    def edit(text, pid, fn):
        """``text`` with the extras of part ``pid``'s line, line
        ``2 + pid``, replaced by ``fn(tokens)``."""
        lines = text.splitlines()
        fields = (lines[2 + pid].split(";") + ["", ""])[:3]
        fields[2] = " ".join(fn(fields[2].split()))
        lines[2 + pid] = ";".join(fields).rstrip(";")
        return "\n".join(lines) + "\n"

    # part 3's derived earlier neighbours are parts 0 and 2
    @pytest.mark.parametrize("pid,fn,want", [
        (3, lambda t: t + ["99"], "FAIL td bag 3 node 99 out of range"),
        (3, lambda t: t + ["-2"], "FAIL td bag 3 node -2 out of range"),
        (3, lambda t: t + ["1", "1"], "FAIL td bag 3 repeats a node"),
        (3, lambda t: t + ["3"], "FAIL td bag 3 node 3 out of range"),
        (3, lambda t: t + ["4"], "FAIL td bag 3 node 4 out of range"),
        (3, lambda t: t + ["2"],
         "FAIL td bag 3 extra 2 is derived from the closure"),
        # what once set a bag parent by its creator token: a part whose
        # only stated (here largest) node is negative, is itself, or, for
        # part 0, is part 1, which hangs under part 0
        (2, lambda t: ["-7"], "FAIL td bag 2 node -7 out of range"),
        (2, lambda t: ["2"], "FAIL td bag 2 node 2 out of range"),
        (0, lambda t: ["1"], "FAIL td bag 0 node 1 out of range"),
    ], ids=["attachment-past", "attachment-negative", "attachment-twice",
            "attachment-self", "attachment-later", "attachment-derived",
            "creator-negative", "creator-self", "creator-cycle"])
    def test_bad_creator_or_attachment(self, case, pid, fn, want):
        E, text = case
        cert = parse_certificate(self.edit(text, pid, fn))
        fails = verify_certificate(E, cert)
        assert fails.count(want) == 1
        assert sum("out of range" in f for f in fails) == (
            "out of range" in want)
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
