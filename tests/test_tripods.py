from collections import Counter, deque

import pytest

from framedprod import assemble, tripods
from framedprod.assemble import decompose
from framedprod.embedding import bfs_structure, from_face_list, trace_faces
from framedprod.errors import ContractViolation
from framedprod.generators import (
    gen_framed,
    gen_plane_triangulation,
    gen_toroidal_grid,
)
from framedprod.tripods import UNASSIGNED, triangulate_long_faces
from framedprod.verify import (
    check_planarity,
    rebuild_closure,
)
from test_frame import simple_adjacency
from treewidth import exact_treewidth, stated_decomposition


def octahedron():
    return from_face_list([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1],
                           [5, 2, 1], [5, 3, 2], [5, 4, 3], [5, 1, 4]])


def icosahedron():
    return from_face_list([
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 1],
        [1, 6, 2], [2, 6, 7], [2, 7, 3], [3, 7, 8], [3, 8, 4],
        [4, 8, 9], [4, 9, 5], [5, 9, 10], [5, 10, 1], [1, 10, 6],
        [11, 7, 6], [11, 8, 7], [11, 9, 8], [11, 10, 9], [11, 6, 10],
    ])


def run_partition(E, d, root=0):
    fs = trace_faces(E)
    T = bfs_structure(E, root)
    world = triangulate_long_faces(E, d, fs)
    return T, tripods.tripod_partition(world, T.parent)


class TestTriangulateLongFaces:
    def test_identity_when_faces_short(self):
        E = gen_plane_triangulation(20, 1)
        world = triangulate_long_faces(E, 3)
        assert world.cells == trace_faces(E).vertex_walks(E)

    def test_six_face_fanned_for_d4(self):
        E = from_face_list([[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]])
        world = triangulate_long_faces(E, 4)
        # each hexagon becomes 4 triangles via 3 chords from vertex 0
        assert len(world.cells) == 8
        assert all(len(c) == 3 for c in world.cells)
        # the fan apex leads every triangle; each face gains 3 chords, each
        # a side of two of its triangles
        assert all(c[0] == 0 for c in world.cells)
        adj = simple_adjacency(E)
        sides = [(c[i], c[(i + 1) % 3]) for c in world.cells for i in range(3)]
        assert sum(1 for u, v in sides if v not in adj[u]) == 2 * 6

    def test_short_faces_kept_whole(self):
        E = from_face_list([[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]])
        world = triangulate_long_faces(E, 5)
        assert sorted(len(c) for c in world.cells) == [5, 5]

    def test_neighbour_structure_consistent(self):
        E = gen_framed(40, 6, 0, 5)
        world = triangulate_long_faces(E, 4)
        for c, spokes in enumerate(world.spokes):
            cyc = world.cells[c]
            assert [v for v, _, _ in spokes] == cyc
            for i, (v, nb, entering) in enumerate(spokes):
                # the edge entering v is the edge leaving its predecessor
                assert entering == spokes[i - 1][1]
                u, w = cyc[i], cyc[(i + 1) % len(cyc)]
                other = world.cells[nb]
                pairs = [{other[j], other[(j + 1) % len(other)]}
                         for j in range(len(other))]
                assert {u, w} in pairs
                assert c in [n1 for _, n1, _ in world.spokes[nb]]


def deque_flood(world, part_of, stamp, cur, seed):
    """Reference flood: a deque, an open-corner flag per cell and a separate
    candidate list, over neighbour lists rebuilt from the spokes."""
    cells = world.cells
    rparts = set()
    candidates = []
    stamp[seed] = cur
    q = deque([seed])
    while q:
        c = q.popleft()
        nb = [n1 for _, n1, _ in world.spokes[c]]
        open_corner = False
        for i, v in enumerate(cells[c]):
            p = part_of[v]
            if p == UNASSIGNED:
                open_corner = True
                for n in (nb[i], nb[i - 1]):
                    if stamp[n] != cur:
                        stamp[n] = cur
                        q.append(n)
            elif p >= 0:
                rparts.add(p)
        if open_corner:
            candidates.append(c)
    return rparts, candidates


def first_meeting_cell(world, part_of, parent, rparts, candidates):
    """The selection rule: the first candidate whose boundary meets every
    part of the region.  Two parts must meet across one of its edges; with
    three, an unassigned corner counts as the part its tree ancestors
    reach.  A region of at most one part takes its first candidate."""
    def color(v):
        while part_of[v] == UNASSIGNED:
            v = parent[v]
        return part_of[v]

    for c in candidates:
        cyc = world.cells[c]
        if len(rparts) <= 1:
            return c
        if len(rparts) == 2:
            sides = {frozenset((part_of[u], part_of[v]))
                     for u, v in zip(cyc[-1:] + cyc[:-1], cyc)}
            if frozenset(rparts) in sides:
                return c
        elif {color(v) for v in cyc} >= rparts:
            return c
    return None


PHANTOM = 10 ** 6               # a part id no partition reaches


class TestFloodOracle:
    """Every call of the flood during whole partitions returns the parts
    the full deque flood finds and the first of its candidates the
    selection rule accepts; every seed it gets has an unassigned corner,
    the region's parts lie in the bag it is given, and a bag lacking one
    of them is a contract violation."""

    @pytest.fixture
    def checked_flood(self, monkeypatch):
        flood = tripods._flood
        partition = tripods.tripod_partition
        trees = []
        calls = []

        def recording(world, parent, *args, **kwargs):
            trees.append(parent)
            return partition(world, parent, *args, **kwargs)

        def checked(world, part_of, stamp, cur, seed, bag, meets):
            assert any(part_of[v] == UNASSIGNED for v in world.cells[seed])
            want, candidates = deque_flood(world, part_of, list(stamp), cur,
                                           seed)
            assert want <= set(bag)
            # the phantom keeps the bag from filling, so the flood cannot
            # settle before it meets p
            for p in want:
                with pytest.raises(ContractViolation, match=f"part {p} out"):
                    flood(world, part_of, list(stamp), cur, seed,
                          set(bag) - {p} | {PHANTOM}, meets)
            got = flood(world, part_of, stamp, cur, seed, bag, meets)
            assert got == (want, first_meeting_cell(
                world, part_of, trees[-1], want, candidates))
            calls.append((stamp.count(cur), len(candidates)))
            return got
        monkeypatch.setattr(tripods, "_flood", checked)
        monkeypatch.setattr(tripods, "tripod_partition", recording)
        monkeypatch.setattr(assemble, "tripod_partition", recording)
        return calls

    @pytest.mark.parametrize("n,seed", [(30, 0), (200, 1), (600, 2)])
    def test_triangulations(self, checked_flood, n, seed):
        _, R = run_partition(gen_plane_triangulation(n, seed), 3)
        assert len(checked_flood) == len(R.parts)
        # the floods stop early: they visit well under the full regions
        visited, full = map(sum, zip(*checked_flood))
        assert visited < 0.75 * full

    def test_torus_apex_graph(self, checked_flood):
        # positive genus: the flood runs on G+ with the cut boundary
        # pre-assigned and the apex blocked
        cert = decompose(gen_toroidal_grid(9, 11), 4, self_verify=False)
        assert len(checked_flood) == cert.num_parts - 1

    @pytest.mark.parametrize("g", [0, 2])
    @pytest.mark.parametrize("d", [6, 4])
    def test_framed_d6(self, checked_flood, g, d):
        # at d = 4 the 5- and 6-faces are fanned into triangles
        decompose(gen_framed(300, 6, g, 4), d, self_verify=False)
        assert checked_flood


class TestTripodPartition:
    def test_single_triangle(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        T, R = run_partition(E, 3)
        assert len(R.parts) == 1
        assert sorted(R.parts[0].vertices()) == [0, 1, 2]

    def test_octahedron_contract(self):
        E = octahedron()
        T, R = run_partition(E, 3)
        assert all(not p.absorbed for p in R.parts)
        assert all(len(p.legs) <= 3 for p in R.parts)
        h_edges = stated_decomposition(R.parts)[0]
        assert check_planarity(len(R.parts), h_edges)
        if len(R.parts) <= 12:
            adj = [set() for _ in range(len(R.parts))]
            for a, b in h_edges:
                adj[a].add(b)
                adj[b].add(a)
            assert exact_treewidth(adj) <= 3

    def test_icosahedron_layer_width(self):
        E = icosahedron()
        T, R = run_partition(E, 3)
        cnt = Counter()
        for v in range(E.n):
            cnt[(R.part_of[v], T.depth[v])] += 1
        assert max(cnt.values()) <= 3

    @pytest.mark.parametrize("n,seed", [(30, 0), (80, 1), (200, 2)])
    def test_partition_properties_triangulations(self, n, seed):
        E = gen_plane_triangulation(n, seed)
        T, R = run_partition(E, 3)
        # every real edge joins same or H-adjacent parts
        he, bags, _ = stated_decomposition(R.parts)
        he = set(he)
        for u, v, _ in E.edges:
            a, b = R.part_of[u], R.part_of[v]
            assert a == b or (min(a, b), max(a, b)) in he
        # legs vertical in the BFS tree, pairwise disjoint
        for part in R.parts:
            seen = set()
            for leg in part.legs:
                assert not (seen & set(leg))
                seen.update(leg)
                for a, b in zip(leg, leg[1:]):
                    assert T.parent[b] == a
        assert max(len(b) for b in bags) <= 4

    @pytest.mark.parametrize("d,seed", [(4, 3), (5, 4), (6, 5)])
    def test_closure_chords_covered(self, d, seed):
        E = gen_framed(60, d, 0, seed)
        T, R = run_partition(E, d)
        he = set(stated_decomposition(R.parts)[0])
        for u, nbrs in enumerate(rebuild_closure(E, d)):
            for v in nbrs:
                a, b = R.part_of[u], R.part_of[v]
                assert a == b or (min(a, b), max(a, b)) in he
        for part in R.parts:
            assert len(part.absorbed) <= d - 3

    def test_no_fallback_on_triangulations(self):
        # a region with no cell meeting all its parts is a ContractViolation
        for seed in range(10):
            E = gen_plane_triangulation(100, seed)
            _, R = run_partition(E, 3)
            assert all(p != UNASSIGNED for p in R.part_of)

    def test_region_without_a_meeting_cell_is_a_contract_violation(
            self, monkeypatch):
        # when no cell of a region of two or more parts passes the
        # selection test, the step raises instead of guessing a cell
        flood = tripods._flood

        def never_meets(world, part_of, stamp, cur, seed, bag, meets):
            return flood(world, part_of, stamp, cur, seed, bag,
                         lambda c, rparts: len(rparts) < 2)
        monkeypatch.setattr(tripods, "_flood", never_meets)
        with pytest.raises(ContractViolation,
                           match=r"no cell .* parts \[\d+, \d+"):
            run_partition(gen_plane_triangulation(30, 1), 3)

    def test_region_meeting_a_part_outside_its_bag_is_a_contract_violation(
            self, monkeypatch):
        # a bag without the creator's smallest part: the phantom keeps it
        # from filling, so the flood meets that part before it can stop
        flood = tripods._flood

        def shrunk_bag(world, part_of, stamp, cur, seed, bag, meets):
            if bag:
                bag = set(bag) - {min(bag)} | {PHANTOM}
            return flood(world, part_of, stamp, cur, seed, bag, meets)
        monkeypatch.setattr(tripods, "_flood", shrunk_bag)
        with pytest.raises(ContractViolation, match="outside its creator's"):
            run_partition(gen_plane_triangulation(30, 1), 3)

    def test_td_bags_form_tree(self):
        E = gen_plane_triangulation(60, 8)
        _, R = run_partition(E, 3)
        bag_parent = stated_decomposition(R.parts)[2]
        roots = [i for i, p in enumerate(bag_parent) if p == -1]
        assert len(roots) == 1
        for i, p in enumerate(bag_parent):
            assert p == -1 or p < i
