import os
import random
import subprocess
import sys
from ast import literal_eval
from collections import Counter, deque

import pytest

from framedprod import assemble, tripods
from framedprod.assemble import decompose, serialize_certificate
from framedprod.embedding import (
    EmbeddedMultigraph,
    bfs_structure,
    from_face_list,
    trace_faces,
)
from framedprod.errors import ContractViolation
from framedprod.generators import (
    gen_framed,
    gen_plane_triangulation,
    gen_toroidal_grid,
)
from framedprod.tripods import UNASSIGNED, triangulate_long_faces
from framedprod.verify import rebuild_closure
from test_frame import simple_adjacency
from treewidth import exact_treewidth, nx_planar, stated_decomposition


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


def relabelled(E, rng):
    """The same embedded graph with vertex and edge ids shuffled and every
    rotation started at a random dart."""
    vid = list(range(E.n))
    rng.shuffle(vid)
    eid = list(range(E.m))
    rng.shuffle(eid)
    edges = [None] * E.m
    for e, (u, v, s) in enumerate(E.edges):
        edges[eid[e]] = (vid[u], vid[v], s)
    rot = [None] * E.n
    for v, darts in enumerate(E.rot):
        darts = [2 * eid[d >> 1] + (d & 1) for d in darts]
        k = rng.randrange(len(darts))
        rot[vid[v]] = darts[k:] + darts[:k]
    return EmbeddedMultigraph(E.n, edges, rot)


def wheel(k):
    """The wheel with rim 0..k-1 and hub k, as a triangulated world."""
    faces = [[k, i, (i + 1) % k] for i in range(k)]
    return triangulate_long_faces(from_face_list(faces + [
        list(range(k - 1, -1, -1))]), 3)


def spoke_cell(world, k, i):
    """The cell of the wheel on rim vertices i and i + 1."""
    return world.cells.index(next(c for c in world.cells
                                  if set(c) == {k, i, (i + 1) % k}))


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


def selection_rule(world, part_of, parent):
    """(meets, colour) for a crafted region, as the partition defines them:
    a cell meets the parts when the selection rule accepts it."""
    def meets(c, rparts):
        return first_meeting_cell(world, part_of, parent, rparts, [c]) == c

    def colour(v):
        while part_of[v] == UNASSIGNED:
            v = parent[v]
        return part_of[v]
    return meets, colour


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

        def checked(world, part_of, stamp, cur, seed, bag, meets, color_of):
            assert any(part_of[v] == UNASSIGNED for v in world.cells[seed])
            want, candidates = deque_flood(world, part_of, list(stamp), cur,
                                           seed)
            assert want <= set(bag)
            # the phantom keeps the bag from filling, so the flood cannot
            # settle before it meets p
            for p in want:
                with pytest.raises(ContractViolation, match=f"part {p} out"):
                    flood(world, part_of, list(stamp), cur, seed,
                          set(bag) - {p} | {PHANTOM}, meets, color_of)
            got = flood(world, part_of, stamp, cur, seed, bag, meets,
                        color_of)
            assert got[:2] == (want, first_meeting_cell(
                world, part_of, trees[-1], want, candidates))
            # only a region of three parts walks, so only one falls back
            assert got[2] is False or len(want) == 3
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

    def test_relabelled_torus_grid(self, checked_flood):
        # shuffled vertex and edge ids and rotation starts change the tree,
        # the cells' corner order and so where every walk starts
        E = relabelled(gen_toroidal_grid(16, 16), random.Random(7))
        cert = decompose(E, 4, self_verify=False)
        assert len(checked_flood) == cert.num_parts - 1

    def test_relabelled_triangulation(self, checked_flood):
        E = relabelled(gen_plane_triangulation(600, 5), random.Random(8))
        _, R = run_partition(E, 3)
        assert len(checked_flood) == len(R.parts)


class TestTripodPartition:
    def test_single_triangle(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        T, R = run_partition(E, 3)
        assert len(R.parts) == 1
        part = R.parts[0]
        assert sorted(sum(part.legs, part.absorbed)) == [0, 1, 2]

    def test_octahedron_contract(self):
        E = octahedron()
        T, R = run_partition(E, 3)
        assert all(not p.absorbed for p in R.parts)
        assert all(len(p.legs) <= 3 for p in R.parts)
        h_edges = stated_decomposition([p.attachments for p in R.parts])[0]
        assert nx_planar(len(R.parts), h_edges)
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
        he, bags, _ = stated_decomposition([p.attachments for p in R.parts])
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
        he = set(stated_decomposition([p.attachments for p in R.parts])[0])
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

        def never_meets(world, part_of, stamp, cur, seed, bag, meets,
                        color_of):
            return flood(world, part_of, stamp, cur, seed, bag,
                         lambda c, rparts: len(rparts) < 2, color_of)
        monkeypatch.setattr(tripods, "_flood", never_meets)
        with pytest.raises(ContractViolation,
                           match=r"no cell .* parts \[\d+, \d+"):
            run_partition(gen_plane_triangulation(30, 1), 3)

    def test_region_meeting_a_part_outside_its_bag_is_a_contract_violation(
            self, monkeypatch):
        # a bag without the creator's smallest part: the phantom keeps it
        # from filling, so the flood meets that part before it can stop
        flood = tripods._flood

        def shrunk_bag(world, part_of, stamp, cur, seed, bag, *rest):
            if bag:
                bag = set(bag) - {min(bag)} | {PHANTOM}
            return flood(world, part_of, stamp, cur, seed, bag, *rest)
        monkeypatch.setattr(tripods, "_flood", shrunk_bag)
        with pytest.raises(ContractViolation, match="outside its creator's"):
            run_partition(gen_plane_triangulation(30, 1), 3)

    def test_region_not_naming_its_creator_is_a_contract_violation(
            self, monkeypatch):
        # the creator, the largest part of its bag, becomes the new part's
        # largest attachment, the bag parent the verifier derives; a flood
        # that loses it raises at that step
        flood = tripods._flood

        def forgetful(world, part_of, stamp, cur, seed, bag, *rest):
            rparts, *out = flood(world, part_of, stamp, cur, seed, bag, *rest)
            return (rparts - {max(bag)} if bag else rparts, *out)
        monkeypatch.setattr(tripods, "_flood", forgetful)
        with pytest.raises(ContractViolation,
                           match=r"region of part 0's step does not meet it"):
            run_partition(gen_plane_triangulation(30, 1), 3)

    def test_td_bags_form_tree(self):
        E = gen_plane_triangulation(60, 8)
        _, R = run_partition(E, 3)
        bag_parent = stated_decomposition([p.attachments for p in R.parts])[2]
        roots = [i for i, p in enumerate(bag_parent) if p == -1]
        assert len(roots) == 1
        for i, p in enumerate(bag_parent):
            assert p == -1 or p < i


def partitions(monkeypatch, E, d):
    """(the certificate text of E at d, the partition results it made)."""
    results = []
    partition = tripods.tripod_partition

    def recording(*args, **kwargs):
        results.append(partition(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(assemble, "tripod_partition", recording)
    return serialize_certificate(decompose(E, d)), results


WALK_CASES = [(lambda: gen_plane_triangulation(400, 3), 3),
              (lambda: gen_toroidal_grid(9, 11), 4),
              (lambda: gen_framed(300, 6, 0, 4), 6),
              (lambda: gen_framed(300, 6, 2, 4), 4)]


class TestWalk:
    """The door walk finds the cell the breadth-first scan would; when it
    ends without one, the boundary walk settles the region's parts and the
    scan stays as the fallback; walks that cannot end stop."""

    @pytest.mark.parametrize("make,d", WALK_CASES)
    def test_every_walk_failing_falls_back_to_the_same_certificate(
            self, monkeypatch, make, d):
        E = make()
        text, results = partitions(monkeypatch, E, d)
        monkeypatch.setattr(tripods, "_walk", lambda *args: None)
        fallback_text, fallback_results = partitions(monkeypatch, E, d)
        assert fallback_text == text
        (hpr,), (fallback_hpr,) = results, fallback_results
        # a part's attachments are the parts its region saw
        three = sum(len(p.attachments) == 3 for p in hpr.parts)
        assert three > 0
        assert fallback_hpr.fallback_steps == three
        assert hpr.fallback_steps < three

    def test_fallback_count_repeats(self, monkeypatch):
        E = gen_toroidal_grid(12, 12)
        counts = [partitions(monkeypatch, E, 4)[1][0].fallback_steps
                  for _ in range(2)]
        assert counts[0] == counts[1]

    def test_three_part_region_without_a_meeting_cell_is_a_violation(
            self, monkeypatch):
        # only 3-part regions fail the test: they walk, fall back to the
        # scan, and then raise
        flood = tripods._flood

        def never_meets_three(world, part_of, stamp, cur, seed, bag, meets,
                              color_of):
            return flood(world, part_of, stamp, cur, seed, bag,
                         lambda c, rparts: len(rparts) < 3
                         and meets(c, rparts), color_of)
        monkeypatch.setattr(tripods, "_flood", never_meets_three)
        with pytest.raises(ContractViolation,
                           match=r"no cell .* parts \[\d+, \d+, \d+\]"):
            run_partition(gen_plane_triangulation(60, 1), 3)

    def test_walk_stays_in_the_region(self):
        # pentagon R = 0 1 3 4 5 coloured a b b b a, with 3 the one
        # unassigned corner; triangle X = 5 4 2 across R's edge 4-5 has all
        # three parts but no unassigned corner, so it is outside R's region,
        # which is R and the outer face 0 5 2 4 3 1.  From R's door 0 -> 1
        # the exit is 4 -> 5, with both ends assigned: the walk must stop
        # there.  The boundary walk then names part 2 at the outer face's
        # corner 2, and the scan takes the outer face, the region's only
        # meeting cell.  Work: 2 cells stamped, 1 walked, 9 boundary corners
        E = from_face_list([[0, 1, 3, 4, 5], [5, 4, 2], [0, 5, 2, 4, 3, 1]])
        world = triangulate_long_faces(E, 6)
        part_of = [0, 1, 2, UNASSIGNED, 1, 0]
        colour = {3: 1}.__getitem__

        def meets(c, rparts):
            return {colour(v) if part_of[v] == UNASSIGNED else part_of[v]
                    for v in world.cells[c]} >= rparts
        pentagon = world.cells.index([0, 1, 3, 4, 5])
        outer = world.cells.index([1, 0, 5, 2, 4, 3])
        assert tripods._flood(world, part_of, [0] * world.num_cells, 1,
                              pentagon, {0, 1, 2}, meets, colour) == (
            {0, 1, 2}, outer, True, 12)

    def test_walk_leaves_by_the_first_exit(self):
        # pentagon R = 0 1 3 4 5 coloured a b a b a, with 3 unassigned;
        # entered by its door 0 -> 1, its exits are 1 -> 3 and then 4 -> 5.
        # The first leads into triangle Y = 3 1 6, where the unassigned 6
        # has colour c, so Y meets the parts; the second has both ends
        # assigned.  The outer face 0 5 4 3 6 2 meets them too and comes
        # first in breadth-first order, so the walk picks another cell
        # than the scan would
        E = from_face_list([[0, 1, 3, 4, 5], [3, 1, 6], [6, 1, 0, 2],
                            [0, 5, 4, 3, 6, 2]])
        world = triangulate_long_faces(E, 6)
        part_of = [0, 1, 2, UNASSIGNED, 1, 0, UNASSIGNED]
        colour = {3: 0, 6: 2}.__getitem__

        def meets(c, rparts):
            return {colour(v) if part_of[v] == UNASSIGNED else part_of[v]
                    for v in world.cells[c]} >= rparts
        pentagon = world.cells.index([0, 1, 3, 4, 5])
        triangle = world.cells.index([3, 1, 6])
        assert tripods._flood(world, part_of, [0] * world.num_cells, 1,
                              pentagon, {0, 1, 2}, meets, colour)[:3] == (
            {0, 1, 2}, triangle, False)

    def test_door_cycle_stops_in_bounded_time(self, child_env):
        # hexagon H = 0..5 coloured a b c a b a, triangle N = 5 4 3 across
        # H's edges 3-4 and 4-5, outer face 0 5 3 2 1.  Vertex 4 is
        # unassigned with colour b and 5 unassigned with colour a.  From
        # H's door 0 -> 1 the walk leaves H across 4 -> 5 into N, leaves N
        # across 4 -> 3 back into H, whose next b-to-a door is 4 -> 5 again.
        # With no cell meeting the parts the flood must return none, which
        # the step reports as a contract violation; a child process turns
        # a hang into a failed test.
        code = ("from framedprod.embedding import from_face_list\n"
                "from framedprod.tripods import (UNASSIGNED, _flood, "
                "triangulate_long_faces)\n"
                "E = from_face_list([[0, 1, 2, 3, 4, 5], [5, 4, 3], "
                "[0, 5, 3, 2, 1]])\n"
                "world = triangulate_long_faces(E, 6)\n"
                "hexagon = world.cells.index([0, 1, 2, 3, 4, 5])\n"
                "part_of = [0, 1, 2, 0, UNASSIGNED, UNASSIGNED]\n"
                "print(_flood(world, part_of, [0] * world.num_cells, 1, "
                "hexagon, {0, 1, 2}, lambda c, rparts: False, "
                "{4: 1, 5: 0}.__getitem__)[:3])\n")
        res = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert literal_eval(res.stdout) == ({0, 1, 2}, None, True)

    def test_two_part_region_is_settled_by_the_boundary_walk(self):
        # a wheel of 16: rim 0..3 in part 0, 4..15 in part 1, the hub
        # unassigned, so the region is the 16 spoke cells and sees 2 parts
        # of a 4-part bag.  The flood from the cell on 8 and 9 meets part 0
        # at the cell on 3 and 4, whose edge 3 -> 4 is the first door; the
        # walk from it leaves the region at the other door 15 -> 0, and the
        # boundary walk settles the parts, so the flood stops short of the
        # region with the deque flood's parts and first meeting cell
        k = 16
        world = wheel(k)
        part_of = [0] * 4 + [1] * 12 + [UNASSIGNED]
        parent = [-1] * k + [8]
        meets, colour = selection_rule(world, part_of, parent)
        seed = spoke_cell(world, k, 8)
        want, candidates = deque_flood(world, part_of, [0] * world.num_cells,
                                       1, seed)
        stamp = [0] * world.num_cells
        got = tripods._flood(world, part_of, stamp, 1, seed, {0, 1, 2, 3},
                             meets, colour)
        assert got[:3] == (want, first_meeting_cell(
            world, part_of, parent, want, candidates), False)
        assert want == {0, 1} and got[1] == spoke_cell(world, k, 3)
        assert stamp.count(1) < len(candidates) == k

    def test_bag_violation_named_by_the_walk(self):
        # a wheel of 12: rim 0 in part 0, 1..5 in part 1, 6..11 in part 2,
        # and the hub's tree parent is 6.  The seed, the cell on 0 and 1,
        # holds the door 0 -> 1 and the hub, coloured 2: the walk names
        # part 2 in its first cell, before the flood has met a corner of
        # it, and part 2 is outside the bag
        k = 12
        world = wheel(k)
        part_of = [0] + [1] * 5 + [2] * 6 + [UNASSIGNED]
        meets, colour = selection_rule(world, part_of, [-1] * k + [6])
        with pytest.raises(ContractViolation,
                           match="part 2 outside its creator's") as err:
            tripods._flood(world, part_of, [0] * world.num_cells, 1,
                           spoke_cell(world, k, 0), {0, 1, PHANTOM}, meets,
                           colour)
        assert "_walk" in [entry.name for entry in err.traceback]

    def test_boundary_walk_that_does_not_close_raises(self, child_env):
        # a wheel of 6 with every rim vertex assigned; the cell on 2 and 3
        # is made to lie across its own edge 3 -> hub, so the boundary walk
        # from the cell on 0 and 1 turns round 3 on the spot for ever
        # without coming back to its start.  It must raise, and a child
        # process turns a hang into a failed test
        code = ("from framedprod.errors import ContractViolation\n"
                "from framedprod.tripods import UNASSIGNED, _boundary\n"
                "from test_tripods import spoke_cell, wheel\n"
                "world = wheel(6)\n"
                "c = spoke_cell(world, 6, 2)\n"
                "world.spokes[c] = tuple((v, c if v == 3 else n1, n2) "
                "for v, n1, n2 in world.spokes[c])\n"
                "start = spoke_cell(world, 6, 0)\n"
                "try:\n"
                "    _boundary(world, [0, 0, 0, 1, 1, 1, UNASSIGNED], set(),"
                " {0, 1}, start, world.cells[start].index(0))\n"
                "except ContractViolation as err:\n"
                "    print(repr(str(err)))\n")
        env = dict(child_env, PYTHONPATH=child_env["PYTHONPATH"]
                   + os.pathsep + os.path.dirname(__file__))
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert literal_eval(res.stdout) == (
            f"the boundary walk from cell {spoke_cell(wheel(6), 6, 0)} "
            "does not close")


def partition_work(monkeypatch, E, d):
    """(cells of the working graph, the partition's and the projected
    partition's cells_scanned) as decompose makes them for E at d."""
    worlds, results = [], []
    partition, project = tripods.tripod_partition, tripods.project_partition

    def recording(world, *args, **kwargs):
        worlds.append(world)
        results.append(partition(world, *args, **kwargs))
        return results[-1]

    def projecting(*args):
        results.append(project(*args))
        return results[-1]
    monkeypatch.setattr(assemble, "tripod_partition", recording)
    monkeypatch.setattr(assemble, "project_partition", projecting)
    decompose(E, d, self_verify=False)
    (world,) = worlds
    return (world.num_cells, *(r.cells_scanned for r in results))


class TestCellsScanned:
    """The exact work counter: cells the floods stamped, cells the door
    walks entered and corners the boundary walks passed.  Per cell it stays
    flat as the regions grow, where re-flooding each region grew with
    them."""

    def test_flat_on_shuffled_tori(self, monkeypatch):
        per_cell = []
        for side in (20, 40, 80):
            E = relabelled(gen_toroidal_grid(side, side), random.Random(side))
            cells, scanned, projected = partition_work(monkeypatch, E, 4)
            assert projected == scanned
            per_cell.append(scanned / cells)
        assert max(per_cell[1:]) <= 1.2 * per_cell[0], per_cell

    @pytest.mark.parametrize("n", [500, 2000])
    def test_bounded_on_triangulations(self, monkeypatch, n):
        cells, scanned = partition_work(
            monkeypatch, gen_plane_triangulation(n, 9), 3)
        # about 4 at these sizes; a flood of each region until its parts
        # are settled scanned more than 8
        assert scanned < 6 * cells

    def test_count_repeats(self, monkeypatch):
        E = gen_framed(300, 6, 2, 4)
        counts = [partition_work(monkeypatch, E, 4) for _ in range(2)]
        assert counts[0] == counts[1]
        assert counts[0][1] > 0
