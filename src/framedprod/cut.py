"""Surface cutting: turn a positive-genus embedding into a plane one.

Pipeline pieces: pick g non-dual-tree edges Q, take the union Z of their
root paths plus Q itself, slit the surface along Z (doubling Z-edges and
splitting Z-vertices into corner copies), attach an apex inside the new
face, and rebuild a rooted spanning tree whose vertical paths away from the
cut are vertical in the original tree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .embedding import (
    BfsStructure,
    EmbeddedMultigraph,
    FaceSet,
    stellate,
    trace_faces,
)
from .errors import ContractViolation, DomainError


@dataclass
class CutSystem:
    """The cut subgraph Z: g extra edges plus tree paths to their ends."""

    Q: list                  # g edge ids, ascending
    z_vertices: list         # sorted vertex list of Z
    z_edges: set             # edge ids of Z (tree paths + Q)
    paths: list              # disjoint vertical paths of T covering V(Z)
    genus: int

    @property
    def p(self):
        return len(self.z_vertices)

    @property
    def q(self):
        return len(self.z_edges)


def _dual_cotree(E: EmbeddedMultigraph, T: BfsStructure,
                 faces: FaceSet) -> list:
    """Non-tree edges left out of a spanning tree of the non-tree dual.

    The non-tree dual has one vertex per face and one edge per edge of E
    outside T.  Its spanning tree is the BFS tree from face 0 that scans
    edges in ascending id order; the edges it leaves out come back
    ascending.
    """
    in_tree = bytearray(E.m)
    for e in T.parent_edge:
        if e >= 0:
            in_tree[e] = 1
    nontree = [e for e in range(E.m) if not in_tree[e]]
    if len(nontree) != E.m - (E.n - 1):
        raise ContractViolation("dual edge count != m - (n-1)")
    slot_face = faces.slot_face
    adj = [[] for _ in range(faces.f)]
    for e in nontree:
        a, b = slot_face[2 * e], slot_face[2 * e + 1]
        adj[a].append((e, b))
        adj[b].append((e, a))
    seen = bytearray(faces.f)
    seen[0] = 1
    reached = 1
    q = deque([0])
    while q:
        for e, y in adj[q.popleft()]:
            if not seen[y]:
                seen[y] = 1
                reached += 1
                in_tree[e] = 1        # now marks the dual tree edges too
                q.append(y)
    if reached != faces.f:
        raise ContractViolation("non-tree dual is disconnected")
    return [e for e in nontree if not in_tree[e]]


def build_Z(E: EmbeddedMultigraph, T: BfsStructure,
            faces: FaceSet = None) -> CutSystem:
    """Cut system from a dual spanning tree; empty when the genus is 0."""
    if faces is None:
        faces = trace_faces(E)
    # Euler's formula; T spans E, so E is connected
    g = 2 - E.n + E.m - faces.f
    if g == 0:
        return CutSystem(Q=[], z_vertices=[], z_edges=set(), paths=[], genus=0)
    Q = _dual_cotree(E, T, faces)
    if len(Q) != g:
        raise ContractViolation(f"|Q| = {len(Q)} but genus is {g}")

    z_edges = set(Q)
    covered = set()
    paths = []
    for e in Q:
        for x in E.edges[e][:2]:
            # the still-uncovered part of x's root path in T: a new vertical
            # path, and new vertices and tree edges of Z
            chain = []
            while x != -1 and x not in covered:
                chain.append(x)
                x = T.parent[x]
            if chain:
                chain.reverse()   # topmost vertex first
                paths.append(chain)
                covered.update(chain)
                z_edges.update(T.parent_edge[v] for v in chain)
    z_edges.discard(-1)       # the root has no tree edge
    if len(paths) > 2 * g:
        raise ContractViolation("more than 2g vertical paths in Z")
    C = CutSystem(Q=Q, z_vertices=sorted(covered), z_edges=z_edges,
                  paths=paths, genus=g)
    if C.q != C.p - 1 + g:
        raise ContractViolation(f"q = {C.q} != p - 1 + g = {C.p - 1 + g}")
    return C


@dataclass
class CutResult:
    """Plane multigraph obtained by slitting the surface along Z."""

    Gt: EmbeddedMultigraph
    provenance: list          # new vertex -> original vertex
    zprime: list              # the copy vertices, ascending
    cf_cycle: list            # vertex cycle of the new face
    vertex_map: list          # original vertex -> new id, -1 if split
    edge_map: list            # original edge -> new id, -1 on Z
    new_face_index: int


def cut_along(E: EmbeddedMultigraph, C: CutSystem,
              faces: FaceSet = None) -> tuple:
    """Slit the surface along Z; the result is plane with one new face.

    The unsplit vertices come first, ascending, then the corner copies of
    each Z-vertex: copy t takes the corner after the t-th Z-dart of its
    rotation.  The ns surviving edges keep their order; the i-th Z-edge,
    ascending, becomes the banks A = ns + 2i and B = ns + 2i + 1.

    Returns ``(R, gt_faces)``: the cut result and the faces of ``R.Gt``.
    """
    if C.genus < 1:
        raise DomainError("cut_along needs genus >= 1")
    if faces is None:
        faces = trace_faces(E)
    z_sorted = sorted(C.z_edges)
    z_rank = [-1] * E.m
    for i, e in enumerate(z_sorted):
        z_rank[e] = i
    edge_map = [-1] * E.m
    signs = []                # per new edge
    for e, (_, _, s) in enumerate(E.edges):
        if z_rank[e] < 0:
            edge_map[e] = len(signs)
            signs.append(s)
    ns = len(signs)
    for e in z_sorted:
        signs += [E.edges[e][2]] * 2     # banks A and B

    # consistent local frames: a side of a +1 edge flanks "after" at one end
    # and "before" at the other; the reflection along a -1 edge swaps the
    # far end's flanks
    def after_dart(d):
        a = 2 * ns + 4 * z_rank[d >> 1]      # dart 2A; 2B is a + 2
        if E.edges[d >> 1][2] == 1:
            return a + 2 * (d & 1)           # 2A, 2B
        return a + (d & 1)                   # 2A, 2A + 1

    def before_dart(d):
        a = 2 * ns + 4 * z_rank[d >> 1]
        if E.edges[d >> 1][2] == 1:
            return a + 3 - 2 * (d & 1)       # 2B + 1, 2A + 1
        return a + 2 + (d & 1)               # 2B, 2B + 1

    vertex_map = [0] * E.n
    for v in C.z_vertices:
        vertex_map[v] = -1
    provenance = [v for v in range(E.n) if vertex_map[v] == 0]
    for i, v in enumerate(provenance):
        vertex_map[v] = i
    nrot = [[2 * edge_map[d >> 1] + (d & 1) for d in E.rot[v]]
            for v in provenance]
    nu = len(provenance)
    for v in C.z_vertices:
        # the darts ahead of the first Z-dart close the last copy's sector
        cyc = head = []
        for d in E.rot[v]:
            if z_rank[d >> 1] < 0:
                cyc.append(2 * edge_map[d >> 1] + (d & 1))
                continue
            if cyc is head:
                first = d
            else:
                cyc.append(before_dart(d))
            cyc = [after_dart(d)]
            nrot.append(cyc)
            provenance.append(v)
        if cyc is head:
            raise ContractViolation(f"Z-vertex {v} has no Z-dart")
        cyc += head
        cyc.append(before_dart(first))
    owner = [0] * (2 * len(signs))           # new dart -> its tail
    for x, r in enumerate(nrot):
        for d in r:
            owner[d] = x
    new_edges = [(owner[2 * i], owner[2 * i + 1], s)
                 for i, s in enumerate(signs)]
    zprime = list(range(nu, len(provenance)))

    Gt = EmbeddedMultigraph(len(provenance), new_edges, nrot)
    if not Gt.is_connected():
        raise ContractViolation("cut graph is disconnected")

    # signatures of a genus-0 scheme are removable; normalise them away
    if any(s == -1 for (_, _, s) in Gt.edges):
        Gt = _normalize_signs(Gt)

    fs2 = trace_faces(Gt)
    g2 = 2 - Gt.n + Gt.m - fs2.f       # Gt is connected
    if g2 != 0:
        raise ContractViolation(f"cut graph has genus {g2}, expected 0")
    if fs2.f != faces.f + 1:
        raise ContractViolation(
            f"cutting created {fs2.f - faces.f} new faces, expected 1")

    # the slit face turns through the first copy's corner between the last
    # and the first dart of its rotation (reversed if the signatures' removal
    # flipped the copy), leaving along the first; it walks along every bank
    # edge, where an old disk face only ever sees one side of each Z-edge
    new_face = fs2.slot_face[Gt.rot[nu][0]]
    cf_darts = fs2.faces[new_face]
    if (len(cf_darts) != 2 * C.q
            or {d >> 1 for d in cf_darts} != set(range(ns, Gt.m))):
        raise ContractViolation("slit face not found")
    t2 = Gt.tails()
    cf_cycle = [t2[d] for d in cf_darts]
    if sorted(cf_cycle) != zprime:
        raise ContractViolation("new face is not bounded by exactly Z'")
    if len(set(cf_cycle)) != len(cf_cycle):
        raise ContractViolation("new face repeats a vertex")

    R = CutResult(Gt=Gt, provenance=provenance, zprime=zprime,
                  cf_cycle=cf_cycle, vertex_map=vertex_map,
                  edge_map=edge_map, new_face_index=new_face)
    p, q, g = C.p, C.q, C.genus
    if Gt.n != E.n + p - 2 + 2 * g:
        raise ContractViolation("n' != n + p - 2 + 2g")
    if Gt.m != E.m + p - 1 + g:
        raise ContractViolation("m' != m + p - 1 + g")
    return R, fs2


def _normalize_signs(E: EmbeddedMultigraph) -> EmbeddedMultigraph:
    """Flip vertices so every signature becomes +1 (genus-0 schemes only)."""
    flip = [False] * E.n
    seen = [False] * E.n
    seen[0] = True
    tails = E.tails()
    stack = [0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for d in E.rot[v]:
            s = E.edges[d >> 1][2]
            other = tails[d ^ 1]
            if not seen[other]:
                seen[other] = True
                flip[other] = flip[v] ^ (s == -1)
                stack.append(other)
    edges = []
    for u, v, s in E.edges:
        eff = (s == -1) ^ flip[u] ^ flip[v] if u != v else (s == -1)
        if eff:
            raise ContractViolation("signatures are not removable (genus > 0?)")
        edges.append((u, v, 1))
    rot = [list(reversed(r)) if flip[v] else list(r)
           for v, r in enumerate(E.rot)]
    return EmbeddedMultigraph(E.n, edges, rot, root=E.root)


def attach_apex(R: CutResult, gt_faces: FaceSet) -> tuple:
    """Add an apex inside the new face, joined to every boundary copy: the
    slit face stellated.

    ``gt_faces`` are the faces of ``R.Gt`` that ``cut_along`` returned.
    Returns ``(Gplus, gplus_faces)``: the apexed graph, whose last vertex
    ``Gplus.n - 1`` is the apex, and its faces.
    """
    Gplus = stellate(R.Gt, [gt_faces.faces[R.new_face_index]])
    fs = trace_faces(Gplus)
    if 2 - Gplus.n + Gplus.m - fs.f != 0:    # connected: Gt is, plus spokes
        raise ContractViolation("apex insertion broke planarity")
    if fs.f != len(R.cf_cycle) + gt_faces.f - 1:
        raise ContractViolation("apex wheel face count is off")
    return Gplus, fs


def build_Tplus(Gplus: EmbeddedMultigraph, T: BfsStructure,
                R: CutResult) -> tuple:
    """Spanning tree of the apexed graph: boundary path + old forest.

    Returns (parent, P_plus): the tree as parent pointers rooted at the
    apex ``Gplus.n - 1`` (which has parent -1), and P_plus, the boundary
    cycle minus the edge between the two smallest copy ids, rooted below
    the apex.
    """
    n = Gplus.n
    rplus = n - 1
    parent = [-1] * n
    cyc = R.cf_cycle
    k = len(cyc)
    # remove the boundary edge with lexicographically smallest endpoints
    best = min(range(k), key=lambda i: (min(cyc[i], cyc[(i + 1) % k]),
                                        max(cyc[i], cyc[(i + 1) % k])))
    a, b = cyc[best], cyc[(best + 1) % k]
    vplus = min(a, b)
    if vplus == a:
        path = [cyc[(best - j) % k] for j in range(k)]
    else:
        path = [cyc[(best + 1 + j) % k] for j in range(k)]
    parent[vplus] = rplus
    for i in range(1, k):
        parent[path[i]] = path[i - 1]
    # forest T - V(Z) survives; each component hangs off the copy that kept
    # the dart of its topmost vertex's old tree edge
    vertex_map = R.vertex_map
    for w, pv in enumerate(T.parent):
        wn = vertex_map[w]
        if wn == -1 or pv == -1:
            continue
        pn = vertex_map[pv]
        if pn == -1:
            # the surviving copy of w's old tree edge ends at exactly one
            # corner copy
            u2, v2, _ = R.Gt.edges[R.edge_map[T.parent_edge[w]]]
            parent[wn] = u2 if v2 == wn else v2
        else:
            parent[wn] = pn
    _check_spanning(parent, rplus)
    return parent, path


def _check_spanning(parent: list, root: int):
    """Raise unless ``parent`` is a tree on all its vertices with one root,
    ``root``."""
    if parent.count(-1) != 1 or parent[root] != -1:
        raise ContractViolation(f"the tree must have one root, {root}")
    children = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p != -1:
            children[p].append(v)
    reached = 0
    stack = [root]
    while stack:
        reached += 1
        stack.extend(children[stack.pop()])
    if reached != len(parent):
        raise ContractViolation("parent pointers contain a cycle")
