"""Partition a plane framed graph into boundary-anchored tripods.

The working graph is a plane multigraph whose faces all have length in
{3..d} after fanning longer faces with auxiliary chords.  Faces are kept as
polygonal cells; a step consumes one cell: up to three tree chains climb
from its corners until they hit assigned territory, the cell's leftover
corners are absorbed alongside (at most d-3 of them), and the remaining
cells fall apart into pockets that each see at most three parts.  Every
part therefore splits into at most three vertical tree paths plus a small
absorbed set, the quotient stays planar, and the bag of a step (the new
part plus the region's parts) witnesses treewidth at most 3.

A step's cell meets every part of its region.  The region is not flooded
whole: once a breadth-first flood from the seed knows two of its parts
and the bag of the step that made the region holds more, a walk as in the
Sperner argument of Dujmovic, Joret, Micek, Morin, Ueckerdt and Wood
(J. ACM 2020) colours each unassigned corner by the part its tree
ancestors reach and crosses the cells' doors, the edges coloured with the
two parts, from the first door the flood met; a cell with a third colour
names the region's third part and is the step's cell.  When the walk ends
without one, a walk round the region's boundary, a disk's, settles its
parts, and the step takes the first cell in breadth-first order from its
seed that meets them.  In every 3-part region of the benchmark workloads
exactly one cell meets all three parts, so the two rules pick the same
cell.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, repeat

from .embedding import EmbeddedMultigraph, FaceSet, trace_faces
from .errors import ContractViolation, DomainError

UNASSIGNED = -1
BLOCKED = -2          # apex vertices: walls for the flood, never in a part


@dataclass
class TriWorld:
    """Cell complex of the triangulated working graph."""

    nv: int
    d: int
    cells: list                 # vertex cycles, each of length 3..d
    spokes: list                # per corner v: (v, cells across out/in edge)
    cells_at: list              # per vertex: incident cell ids

    @property
    def num_cells(self):
        return len(self.cells)


def triangulate_long_faces(E: EmbeddedMultigraph, d: int,
                           faces: FaceSet = None) -> TriWorld:
    """Fan every face longer than d from its smallest vertex.

    Faces of length at most d survive as whole polygonal cells; the fan
    chords are auxiliary and never enter the closure.  Each edge occurs
    twice in the face walks; the cell and corner its first occurrence leaves
    are kept per edge and paired with the second.  A cell's spokes list its
    corners v with the cells across the edges leaving and entering v.

    Every face must be a cycle: ``check_frame`` tests a plane frame's, and
    G+ has the frame's faces plus apex triangles over the slit cycle, which
    ``cut_along`` tests.  Here only a face shorter than 3 is refused.
    """
    if faces is None:
        faces = trace_faces(E)
    # per corner, numbered cell by cell: the cell across the edge leaving it
    out_nbr = [-1] * sum(k if k <= d else 3 * k - 6
                         for k in map(len, faces.faces))
    cells, o = [], 0             # o: first corner of the face's cells
    at_cell = [-1] * E.m         # per edge: cell and corner of the
    at_corner = [0] * E.m        # occurrence met first
    for fi, (darts, walk) in enumerate(zip(faces.faces,
                                           faces.vertex_walks(E))):
        k = len(walk)
        if k < 3:
            raise DomainError(f"face {fi} is not bounded by a cycle")
        base = len(cells)
        if k <= d:
            cells.append(walk)
            land_cell, land_corner = repeat(base, k), range(o, o + k)
            o += k
        else:
            a = walk.index(min(walk))
            rw = walk[a:] + walk[:a]           # rw[0] is the fan apex
            cells.extend([rw[0], rw[j], rw[j + 1]] for j in range(1, k - 1))
            # fan triangles t and t+1 share a chord: side 2 of t, side 0 of t+1
            out_nbr[o + 2:o + 3 * k - 7:3] = range(base + 1, base + k - 2)
            out_nbr[o + 3:o + 3 * k - 6:3] = range(base, base + k - 3)
            # walk position i is the edge rw[i'] rw[i'+1], i' = (i - a) mod k:
            # side 0 of the first triangle, side 2 of the last, else side 1
            # of triangle i' - 1
            ips = list(chain(range(k - a, k), range(k - a)))
            land_cell = [base + min(max(ip - 1, 0), k - 3) for ip in ips]
            land_corner = [o + (0 if ip == 0 else 3 * k - 7 if ip == k - 1
                                else 3 * ip - 2) for ip in ips]
            o += 3 * k - 6
        for dart, c, x in zip(darts, land_cell, land_corner):
            e = dart >> 1
            c2 = at_cell[e]
            if c2 < 0:
                at_cell[e] = c
                at_corner[e] = x
            elif c2 >= base:
                raise ContractViolation("edge repeats inside one disk face")
            else:
                out_nbr[x] = c2
                out_nbr[at_corner[e]] = c
    ends = list(accumulate(map(len, cells)))
    if -1 in out_nbr:
        c = bisect_right(ends, out_nbr.index(-1))
        raise ContractViolation(f"cell {c} has an unmatched boundary edge")
    # the edge entering a corner leaves the corner before it in its cell
    in_nbr = [-1] + out_nbr[:-1]
    for x, y in zip(chain((0,), ends), ends):
        in_nbr[x] = out_nbr[y - 1]
    corners = tuple(zip(chain.from_iterable(cells), out_nbr, in_nbr))
    spokes = list(map(corners.__getitem__,
                      map(slice, chain((0,), ends), ends)))

    cells_at = [[] for _ in range(E.n)]
    for ci, cyc in enumerate(cells):
        for v in cyc:
            cells_at[v].append(ci)
    return TriWorld(nv=E.n, d=d, cells=cells, spokes=spokes,
                    cells_at=cells_at)


@dataclass
class Part:
    pid: int
    kind: str                   # "boundary" or "tripod"
    legs: list                  # vertical paths, topmost vertex first
    absorbed: list              # the small leftover set (size <= d-3)
    creator: int                # the part whose step made this part's
                                # region (-1 for the first part)
    attachments: list           # the <= 3 earlier parts the region saw

    def vertices(self):
        out = []
        for leg in self.legs:
            out.extend(leg)
        out.extend(self.absorbed)
        return out


@dataclass
class HPartitionResult:
    parts: list
    part_of: list               # per vertex; BLOCKED for the apex
    boundary_part: int          # id of the distinguished part, or -1
    fallback_steps: int = 0     # 3-part regions whose cell no walk found
    cells_scanned: int = 0      # flood stamps, walk cells, boundary corners


def tripod_partition(world: TriWorld, parent: list,
                     boundary: list = None, blocked: tuple = ()) -> HPartitionResult:
    """Partition the working graph; every region sees at most 3 parts.

    ``parent``: a spanning tree of the working graph as parent pointers
    (-1 at the root); the legs of every part are vertical paths in it.
    ``boundary``: optional vertex path pre-assigned as the distinguished
    part (the cut boundary).  ``blocked`` vertices (the apex) belong to no
    part and fence the flood.
    """
    nv = world.nv
    cells = world.cells

    part_of = [UNASSIGNED] * nv
    for v in blocked:
        part_of[v] = BLOCKED
    parts = []
    boundary_part = -1

    if boundary is not None:
        parts.append(Part(pid=0, kind="boundary", legs=[list(boundary)],
                          absorbed=[], creator=-1, attachments=[]))
        for v in boundary:
            part_of[v] = 0
        boundary_part = 0

    stamp = [0] * world.num_cells
    cur = 0
    fallback_steps = cells_scanned = 0
    open_corners = [len(cyc) for cyc in cells]  # a cell at 0 seeds no region
    for v in set(blocked).union(boundary or ()):
        for c in world.cells_at[v]:
            open_corners[c] -= 1

    # region work-stack: (seed cell, the part whose step left the region)
    root = 0 if boundary is not None else -1
    stack = [(c, root) for c in range(world.num_cells - 1, -1, -1)]

    colors = {}             # per region: vertex -> its tree ancestors' part

    def color_of(v):
        got = colors.get(v)
        if got is not None:
            return got
        chain = []
        x = v
        while part_of[x] == UNASSIGNED:
            got = colors.get(x)
            if got is not None:
                break
            chain.append(x)
            x = parent[x]
            if x < 0:
                raise ContractViolation("ancestor chain left the graph")
        if part_of[x] == BLOCKED:
            raise ContractViolation("ancestor chain reached the apex")
        c = got if got is not None else part_of[x]
        for y in chain:
            colors[y] = c
        return c

    def meets(c, rparts):
        """Does cell c's boundary meet every part of the region?  Two parts
        must meet across one of its edges; with three, an unassigned corner
        counts as the part its tree ancestors reach."""
        if len(rparts) <= 1:
            return True
        cyc = cells[c]
        if len(rparts) == 2:
            a, b = rparts
            q = part_of[cyc[-1]]
            for v in cyc:
                p = part_of[v]
                if p == a and q == b or p == b and q == a:
                    return True
                q = p
            return False
        got = set()
        for v in cyc:
            p = part_of[v]
            got.add(p if p != UNASSIGNED else color_of(v))
        return got >= rparts

    while stack:
        seed, creator = stack.pop()
        if not open_corners[seed]:
            continue
        cur += 1
        colors.clear()
        # the stack is LIFO and a step assigns only inside its region, so
        # the seed opens an untouched pocket of its creator's step, whose
        # parts are the creator and the parts the creator's region saw
        bag = ({creator, *parts[creator].attachments} if creator >= 0
               else frozenset())
        rparts, tau, fell_back, scanned = _flood(
            world, part_of, stamp, cur, seed, bag, meets, color_of)
        fallback_steps += fell_back
        cells_scanned += scanned
        # Sperner: a region bounded by 2 (3) parts holds a cell whose
        # boundary meets both (all three)
        if tau is None:
            raise ContractViolation(
                f"no cell of the region meets all of parts {sorted(rparts)}")

        new_vertices = _consume(world, part_of, parent, parts, tau,
                                rparts, color_of, creator)
        pid = parts[-1].pid

        # every pocket is fenced off by a wall with a newly assigned
        # endpoint, so the open cells around the new part reach them all
        around = [c for v in new_vertices for c in world.cells_at[v]]
        for c in around:
            open_corners[c] -= 1
        stack.extend((c, pid) for c in reversed(dict.fromkeys(around))
                     if open_corners[c])

    if UNASSIGNED in part_of:
        raise ContractViolation(
            f"{part_of.count(UNASSIGNED)} vertices left unassigned")

    return HPartitionResult(parts=parts, part_of=part_of,
                            boundary_part=boundary_part,
                            fallback_steps=fallback_steps,
                            cells_scanned=cells_scanned)


def _flood(world, part_of, stamp, cur, seed, bag, meets, color_of):
    """Find the parts of the seed's region and the step's cell; return (the
    parts, a cell that ``meets`` them or None, whether a region of three
    parts fell back to the scan, the cells and corners scanned).

    The region is the cells joined by not-fully-assigned edges; a cell is
    entered only across an edge with an unassigned end, one of its corners,
    so every cell of the region is a candidate.  The assigned vertices, the
    apex included, form one connected set: the parts are joined through the
    steps' cells and tree paths, and the boundary part and the apex through
    the apex triangles.  So the region, a connected component of the rest
    of the sphere, is a disk, and one closed walk (``_boundary``) passes
    every assigned corner of its cells.  Every part the region meets must
    lie in ``bag`` and there are at most 3 of them, so the set is settled
    once it holds 3 or the whole bag.

    The flood goes breadth-first from the seed.  Once it knows two parts
    and the bag holds more, it walks (``_walk``) from the first door it
    meets, an edge joining two of the known parts; a cell with a third
    colour names the third part and is the step's cell.  If the walk ends
    without a cell and the parts are still two, the boundary walk settles
    them.  With the parts settled the cells are tested in the order the
    flood appended them, and the flood goes on only while none has passed;
    a full flood appends them in that order.  A walk accepts a cell only
    through ``meets``, so both return the only meeting cell of a region
    that has one, and the scan returns the first in breadth-first order.
    The cells and corners scanned are the cells the flood stamped, the
    cells the walk entered and the corners the boundary walk passed.
    """
    cells, spokes = world.cells, world.spokes
    rparts = set()
    stamp[seed] = cur
    region = [seed]
    push = region.append
    settled = not bag
    due = len(bag) > 2          # the walk is due at the first door
    walked = set()              # the cells the walk entered
    corners = 0                 # the corners the boundary walk passed
    tested = 0                  # no cell of region[:tested] passes
    for c in region:
        if settled and not due:
            while tested < len(region) and not meets(region[tested], rparts):
                tested += 1
            if tested < len(region):
                break
        for v, n1, n2 in spokes[c]:
            p = part_of[v]
            if p == UNASSIGNED:
                if stamp[n1] != cur:
                    stamp[n1] = cur
                    push(n1)
                if stamp[n2] != cur:
                    stamp[n2] = cur
                    push(n2)
            elif p >= 0 and p not in rparts:
                _name(rparts, p, bag)
                settled = len(rparts) == 3 or len(rparts) == len(bag)
        if due and len(rparts) >= 2:
            cyc = cells[c]
            for i, v in enumerate(cyc):
                a, b = part_of[v], part_of[cyc[i + 1 - len(cyc)]]
                if a != b and a in rparts and b in rparts:
                    due = False
                    tau = _walk(world, part_of, rparts, bag, c, i, meets,
                                color_of, walked)
                    if tau is not None:
                        return rparts, tau, False, len(region) + len(walked)
                    if len(rparts) < 3:
                        corners = _boundary(world, part_of, rparts, bag, c, i)
                    settled = True
                    break
    else:
        while tested < len(region) and not meets(region[tested], rparts):
            tested += 1
    tau = region[tested] if tested < len(region) else None
    return rparts, tau, len(rparts) == 3, len(region) + len(walked) + corners


def _name(rparts, p, bag):
    """Add part ``p`` to the region's parts: it must lie in the bag, and a
    region sees at most 3 parts."""
    if p not in bag:
        raise ContractViolation(
            f"region meets part {p} outside its creator's bag {sorted(bag)}")
    rparts.add(p)
    if len(rparts) > 3:
        raise ContractViolation(
            f"region sees {len(rparts)} parts: {sorted(rparts)}")


def _walk(world, part_of, rparts, bag, c, i, meets, color_of, seen):
    """Walk doors from the edge leaving corner ``i`` of cell ``c`` to a cell
    that ``meets`` the region's parts; return it, or None.  The cells the
    walk enters are added to ``seen``.

    A corner's colour is its part, or for an unassigned corner the part
    its tree ancestors reach (``color_of``).  Cells run the same way round,
    so an edge goes from colour a to colour b in one of its cells and from
    b to a in the other.  The walk starts at the edge, whose ends are
    assigned to two region parts a and b, as if it had just entered the
    cell across it.  From a cell that does not meet the parts it leaves
    across the first b-to-a edge after the one it came in by, into the
    cell beyond, which it enters across an a-to-b edge.  In a cell
    coloured a and b only, the a-to-b and b-to-a edges alternate, so the
    walk could be retraced; by the Sperner argument it ends at a cell with
    a third colour unless it leaves the region.  That colour is a part of
    the region, since an unassigned corner's tree ancestors stay inside it
    up to the assigned one they reach, so a colour new to ``rparts`` joins
    it.  Only a cell with a third colour can meet the parts, so only it is
    tested.  The walk stops without a cell at an exit with both ends
    assigned (the cell beyond is outside the region), at a cell with no
    exit, or at a cell it entered before, so it takes at most as many steps
    as the region has cells.
    """
    cells, spokes = world.cells, world.spokes
    cyc = cells[c]
    a, b = part_of[cyc[i]], part_of[cyc[i + 1 - len(cyc)]]
    while c not in seen:
        seen.add(c)
        # the corners after the entry door, from the one past its b end
        # round to its a end: the exit is the first b-to-a edge, and only a
        # third colour can make the cell meet
        cyc = cells[c]
        q, out, third = b, None, False
        for j in range(i + 2 - len(cyc), i + 1):
            w = cyc[j]
            p = part_of[w]
            if p == UNASSIGNED:
                p = color_of(w)
            if p == a:
                if q == b and out is None:
                    out = j
            elif p != b:
                third = True
                if p not in rparts:
                    _name(rparts, p, bag)
            q = p
        if third and meets(c, rparts):
            return c
        if out is None or (part_of[cyc[out - 1]] != UNASSIGNED
                           and part_of[cyc[out]] != UNASSIGNED):
            return None
        # a cell is a cycle, so the exit's a end occurs in the cell beyond
        # once, at its entry
        c = spokes[c][out - 1][1]
        i = cells[c].index(cyc[out])
    return None


def _boundary(world, part_of, rparts, bag, c, i):
    """Walk the region's boundary once from the assigned corner ``i`` of its
    cell ``c``, adding to ``rparts`` the part of each corner it steps to
    along an edge; return the number of corners passed.

    From an assigned corner v the walk follows the edge leaving v in the
    cell when that edge's other end is assigned too: the edge bounds the
    region, and the walk goes on at the next corner of the same cell.
    Otherwise the edge is a way into the cell across it, which the region
    holds, and the walk turns round v into that cell.  Each corner has
    one successor and one predecessor this way, so the walk permutes the
    region's assigned corners and comes back to its start; as the region
    is a disk, it passes every one of them once.  A walk that has not
    closed after as many steps as the world has corners (at most ``d`` per
    cell) cannot be a boundary and raises.
    """
    cells, spokes = world.cells, world.spokes
    c0, i0 = c, i
    cyc = cells[c]
    for steps in range(1, world.d * len(cells) + 1):
        j = i + 1 if i + 1 < len(cyc) else 0
        p = part_of[cyc[j]]
        if p == UNASSIGNED:
            v = cyc[i]
            c = spokes[c][i][1]
            cyc = cells[c]
            i = cyc.index(v)
        else:
            if p >= 0 and p not in rparts:
                _name(rparts, p, bag)
            i = j
        if i == i0 and c == c0:
            return steps
    raise ContractViolation(
        f"the boundary walk from cell {c0} does not close")


def _consume(world, part_of, parent, parts, tau, rparts, color_of, creator):
    """Create one part from cell ``tau``: legs from up to three corners,
    the remaining unassigned corners absorbed; it attaches to the region's
    parts ``rparts``."""
    cyc = world.cells[tau]
    k = len(cyc)
    anchor = min(range(k), key=lambda i: cyc[i])
    ordered = cyc[anchor:] + cyc[:anchor]

    assigned = [v for v in ordered if part_of[v] >= 0]
    unassigned = [v for v in ordered if part_of[v] == UNASSIGNED]

    sources = []
    if rparts and unassigned:
        seen_colors = {part_of[v] for v in assigned}
        for v in unassigned:
            c = color_of(v)
            if c not in seen_colors:
                seen_colors.add(c)
                sources.append(v)
    need = 3 - len(assigned)
    for v in unassigned:
        if len(sources) >= need:
            break
        if v not in sources:
            sources.append(v)

    pid = len(parts)
    legs = []
    for u in sources:
        if part_of[u] != UNASSIGNED:
            continue
        chain = []
        x = u
        while x >= 0 and part_of[x] == UNASSIGNED:
            part_of[x] = pid
            chain.append(x)
            x = parent[x]
        chain.reverse()
        legs.append(chain)
    absorbed = []
    for v in unassigned:
        if part_of[v] == UNASSIGNED:
            part_of[v] = pid
            absorbed.append(v)
    if len(legs) > 3:
        raise ContractViolation("more than three legs in one part")
    if len(absorbed) > world.d - 3:
        raise ContractViolation(
            f"absorbed set has {len(absorbed)} vertices, cap is {world.d - 3}")
    if not legs and not absorbed:
        raise ContractViolation("step created an empty part")
    parts.append(Part(pid=pid, kind="tripod", legs=legs, absorbed=absorbed,
                      creator=creator, attachments=sorted(rparts)))
    new_vertices = [v for leg in legs for v in leg]
    new_vertices.extend(absorbed)
    return new_vertices


def project_partition(HPR: HPartitionResult, cut_result, cut_system,
                      n_original: int) -> HPartitionResult:
    """Collapse the cut-boundary copies back onto Z.

    The distinguished part keeps its id; its legs become the vertical path
    decomposition of Z in the original tree.  Every other part maps through
    the provenance bijection; containing a copy is an internal error.
    """
    prov = cut_result.provenance
    zp = set(cut_result.zprime)
    parts = []
    for part in HPR.parts:
        if part.pid == HPR.boundary_part:
            parts.append(Part(pid=part.pid, kind="boundary",
                              legs=[list(p) for p in cut_system.paths],
                              absorbed=[], creator=part.creator,
                              attachments=part.attachments))
            continue
        legs = []
        for leg in part.legs:
            if any(x in zp for x in leg):
                raise ContractViolation(
                    f"part {part.pid} contains a cut-boundary copy")
            legs.append([prov[x] for x in leg])
        absorbed = [prov[x] for x in part.absorbed]
        parts.append(Part(pid=part.pid, kind="tripod", legs=legs,
                          absorbed=absorbed, creator=part.creator,
                          attachments=part.attachments))
    part_of = [None] * n_original
    for new_id, old_id in enumerate(prov):
        p = HPR.part_of[new_id]
        if p == BLOCKED:
            raise ContractViolation("a surviving vertex maps to the apex")
        part_of[old_id] = HPR.boundary_part if new_id in zp else p
    if any(p is None for p in part_of):
        raise ContractViolation("projection left a vertex unmapped")
    return HPartitionResult(parts=parts, part_of=part_of,
                            boundary_part=HPR.boundary_part,
                            fallback_steps=HPR.fallback_steps,
                            cells_scanned=HPR.cells_scanned)
