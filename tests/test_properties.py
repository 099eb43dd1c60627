"""Cross-cutting invariants checked over randomized instances."""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from framedprod.assemble import (
    build_partition,
    decompose,
    parse_certificate,
    serialize_certificate,
)
from framedprod.cut import attach_apex, build_Tplus, build_Z, cut_along
from framedprod.embedding import bfs_structure, euler_genus, trace_faces
from framedprod.frontends import (
    LAKE,
    NATION,
    LabelledMap,
    map_to_frame,
    oneplanar_to_frame,
)
from framedprod.generators import (
    gen_framed,
    gen_labelled_map,
    gen_oneplanar,
    gen_plane_triangulation,
    gen_toroidal_grid,
    triangulate_quads,
)
from framedprod.verify import (
    rebuild_bfs,
    rebuild_closure,
    verify_certificate,
)
from test_assemble import part_of, shuffled
from test_frame import simple_adjacency
from test_nonorientable import klein_grid
from test_verify import leg_paths
from treewidth import construction_bags, derived_bags, stated_decomposition

seeds = st.integers(0, 10_000)


@given(seeds, st.integers(5, 80))
@settings(max_examples=25, deadline=None)
def test_face_double_count(seed, n):
    E = gen_plane_triangulation(n, seed)
    fs = trace_faces(E)
    assert sum(len(w) for w in fs.faces) == 2 * E.m


@given(seeds, st.integers(12, 60), st.integers(4, 7))
@settings(max_examples=20, deadline=None)
def test_closure_edges_span_at_most_half_d(seed, n, d):
    E = gen_framed(n, d, 0, seed)
    adj = simple_adjacency(E)
    closure = rebuild_closure(E, d)
    for u, v in ((u, v) for u in range(E.n) for v in closure[u] if u < v):
        dist = {u: 0}
        q = deque([u])
        while q and v not in dist:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        assert dist[v] <= d // 2


@given(seeds, st.integers(10, 120))
@settings(max_examples=20, deadline=None)
def test_bfs_depths_match_brute_force(seed, n):
    E = gen_plane_triangulation(n, seed)
    root = seed % n
    T = bfs_structure(E, root)
    adj = simple_adjacency(E)
    depth = {root: 0}
    q = deque([root])
    while q:
        x = q.popleft()
        for y in sorted(adj[x]):
            if y not in depth:
                depth[y] = depth[x] + 1
                q.append(y)
    assert T.depth == [depth[v] for v in range(E.n)]


@given(seeds, st.integers(10, 90), st.sampled_from([3, 4, 5, 6]))
@settings(max_examples=15, deadline=None)
def test_decompose_random_planar_frames(seed, n, d):
    E = gen_framed(n, d, 0, seed)
    cert = decompose(E, d, self_verify=False)
    assert verify_certificate(E, cert) == []
    assert cert.ell <= cert.bound


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_decompose_deterministic(seed):
    E = gen_plane_triangulation(40 + seed % 40, seed)
    a = serialize_certificate(decompose(E, 3, self_verify=False))
    b = serialize_certificate(decompose(E, 3, self_verify=False))
    assert a == b


@st.composite
def frames(draw):
    """(frame, d): a plane triangulation, a toroidal grid with shuffled
    ids, a framed instance (one of d = 6 at a smaller d has faces longer
    than d), or the frame of a labelled map or a 1-plane drawing."""
    kind = draw(st.sampled_from(["tri", "torus", "framed", "fanned", "map",
                                 "oneplane"]))
    seed = draw(seeds)
    if kind == "tri":
        return gen_plane_triangulation(draw(st.integers(3, 120)), seed), 3
    if kind == "torus":
        mr, nc = draw(st.integers(3, 9)), draw(st.integers(3, 9))
        return shuffled(gen_toroidal_grid(mr, nc), seed), 4
    d = draw(st.integers(3, 6))
    n = draw(st.integers(12, 80))
    if kind in ("framed", "fanned"):
        g = draw(st.sampled_from([0, 2]))
        return gen_framed(n, 6 if kind == "fanned" else d, g, seed), d
    if kind == "map":
        return map_to_frame(gen_labelled_map(n, d, seed), d).frame, d
    return oneplanar_to_frame(gen_oneplanar(n, seed)).frame, 4


@given(frames())
@settings(max_examples=40, deadline=None)
def test_derived_h_is_the_construction_h(frame):
    """The verifier's H, the quotient of the closure plus the stated
    extras, is the H the construction built: each part's attachments."""
    E, d = frame
    cert = decompose(E, d)
    assert derived_bags(E, cert) == construction_bags(E, d)


@given(frames())
@settings(max_examples=40, deadline=None)
def test_legs_stated_by_their_bottoms(frame):
    """The text reads back as the same certificate, and the verifier's
    climb from each stated bottom is the construction's path."""
    E, d = frame
    cert = decompose(E, d)
    assert parse_certificate(serialize_certificate(cert)) == cert
    built = build_partition(E, d)[2]
    assert leg_paths(cert, rebuild_bfs(E, E.root or 0)[0]) == [
        [leg[::-1] for leg in p.legs] for p in built.parts]


@st.composite
def grids_and_framed(draw):
    """(frame, d): a framed instance, or a torus or Klein bottle grid,
    plain or with its quads split; the ids maybe shuffled."""
    kind = draw(st.sampled_from(["framed", "torus", "klein"]))
    seed = draw(seeds)
    if kind == "framed":
        d = draw(st.integers(3, 8))
        E = gen_framed(draw(st.integers(12, 80)), d,
                       draw(st.sampled_from([0, 2])), seed)
    else:
        E = (gen_toroidal_grid(draw(st.integers(3, 8)),
                               draw(st.integers(3, 8)))
             if kind == "torus" else klein_grid(draw(st.integers(3, 7))))
        d = 4
        if draw(st.booleans()):
            E, d = triangulate_quads(E), 3
    if draw(st.booleans()):
        E = shuffled(E, seed)
    return E, d


@given(grids_and_framed())
@settings(max_examples=40, deadline=None)
def test_verifier_derives_the_construction_partition(frame):
    """The part the verifier's climbs give each vertex is the one the
    construction gave it."""
    E, d = frame
    cert = decompose(E, d, self_verify=False)
    assert part_of(cert, E) == build_partition(E, d)[2].part_of


class TestTreePlusStructure:
    def test_maximal_vertical_paths_decompose(self):
        """Climbing from any leaf of the rebuilt tree crosses: a piece of
        the old forest, one bridge edge, a piece of the boundary path, and
        the apex edge."""
        for mr, nc, root in ((3, 3, 0), (4, 5, 3), (6, 4, 11)):
            E = gen_toroidal_grid(mr, nc)
            T = bfs_structure(E, root)
            C = build_Z(E, T)
            R, gt_faces = cut_along(E, C)
            Gplus, _ = attach_apex(R, gt_faces)
            parent, Pp = build_Tplus(Gplus, T, R)
            zp = set(R.zprime)
            children = [0] * Gplus.n
            for v in range(Gplus.n):
                if parent[v] >= 0:
                    children[parent[v]] += 1
            for leaf in range(Gplus.n):
                if children[leaf] or leaf == Gplus.n - 1:
                    continue
                phases = []
                x = leaf
                while x != -1:
                    if x == Gplus.n - 1:
                        kind = "apex"
                    elif x in zp:
                        kind = "boundary"
                    else:
                        kind = "forest"
                    if not phases or phases[-1] != kind:
                        phases.append(kind)
                    x = parent[x]
                assert phases in (["forest", "boundary", "apex"],
                                  ["boundary", "apex"]), phases

    def test_projection_keeps_quotient(self):
        """The part adjacencies induced by the original closure are the
        same set before and after collapsing the cut copies."""
        for mr, nc in ((3, 4), (5, 5)):
            E = gen_toroidal_grid(mr, nc)
            cert = decompose(E, 4, self_verify=False)
            closure = rebuild_closure(E, 4)
            node = part_of(cert, E)
            induced = set()
            for u in range(E.n):
                for v in closure[u]:
                    a, b = node[u], node[v]
                    if a != b:
                        induced.add((min(a, b), max(a, b)))
            declared = {(min(a, b), max(a, b)) for a, b in
                        stated_decomposition(construction_bags(E, 4))[0]}
            assert induced <= declared


class TestToroidalMaps:
    def test_checkerboard_torus_map(self):
        E = gen_toroidal_grid(4, 4)
        fs = trace_faces(E)
        labels = [NATION if i % 2 == 0 else LAKE for i in range(fs.f)]
        LM = LabelledMap(G0=E, labels=labels)
        res = map_to_frame(LM, 6)
        assert euler_genus(res.frame) == 2
        closure = rebuild_closure(res.frame, 6)
        for a, b in res.map_edges:
            assert res.nation_vertex[b] in closure[res.nation_vertex[a]]
        cert = decompose(res.frame, 6, self_verify=False)
        assert verify_certificate(res.frame, cert) == []
        assert cert.ell <= cert.bound

    def test_all_nations_torus(self):
        E = gen_toroidal_grid(3, 3)
        fs = trace_faces(E)
        LM = LabelledMap(G0=E, labels=[NATION] * fs.f)
        res = map_to_frame(LM, 4)   # every vertex meets 4 nations
        cert = decompose(res.frame, 4, self_verify=False)
        assert verify_certificate(res.frame, cert) == []
