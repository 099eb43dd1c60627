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

from .embedding import BfsStructure, EmbeddedMultigraph, FaceSet, trace_faces
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
    z_vertices = set()
    covered = set()
    paths = []
    endpoints = []
    for e in Q:
        u, v, _ = E.edges[e]
        endpoints.extend((u, v))
    for x in endpoints:
        # root path of x in T; keep the still-uncovered deepest segment
        chain = []
        v = x
        while v != -1 and v not in covered:
            chain.append(v)
            v = T.parent[v]
        if chain:
            chain.reverse()   # topmost vertex first: a vertical path
            paths.append(chain)
            covered.update(chain)
        v = x
        while v != -1:
            z_vertices.add(v)
            pe = T.parent_edge[v]
            if pe != -1:
                z_edges.add(pe)
            v = T.parent[v]
    if covered != z_vertices:
        raise ContractViolation("vertical paths do not cover V(Z)")
    if len(paths) > 2 * g:
        raise ContractViolation("more than 2g vertical paths in Z")
    C = CutSystem(Q=Q, z_vertices=sorted(z_vertices), z_edges=z_edges,
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
    vertex_map: dict          # unsplit original vertex -> new id
    edge_map: dict            # surviving original edge -> new id
    new_face_index: int


def cut_along(E: EmbeddedMultigraph, C: CutSystem,
              faces: FaceSet = None) -> tuple:
    """Slit the surface along Z; the result is plane with one new face.

    Returns ``(R, gt_faces)``: the cut result and the faces of ``R.Gt``.
    """
    if C.genus < 1:
        raise DomainError("cut_along needs genus >= 1")
    if faces is None:
        faces = trace_faces(E)
    zset = set(C.z_vertices)
    tails = E.tails()

    # new vertex ids: unsplit originals first (ascending), then corner copies
    vertex_map = {}
    provenance = []
    for v in range(E.n):
        if v not in zset:
            vertex_map[v] = len(provenance)
            provenance.append(v)
    copy_id = {}              # (vertex, corner index) -> new id
    corner_of = {}            # original z-dart -> its corner index at tail
    z_darts_at = {}
    for v in C.z_vertices:
        zd = [d for d in E.rot[v] if (d >> 1) in C.z_edges]
        if not zd:
            raise ContractViolation(f"Z-vertex {v} has no Z-dart")
        z_darts_at[v] = zd
        for t, d in enumerate(zd):
            corner_of[d] = t
        for t in range(len(zd)):
            copy_id[(v, t)] = len(provenance)
            provenance.append(v)
    zprime = [i for i in range(len(provenance)) if provenance[i] in zset]

    def owner_of_corner(v, t):
        return copy_id[(v, len(z_darts_at[v]) + t) if t < 0 else (v, t)]

    # owner of every original dart: corner copies for split vertices
    dart_owner = {}
    for v in C.z_vertices:
        rot = E.rot[v]
        k = len(rot)
        zpos = [i for i, d in enumerate(rot) if (d >> 1) in C.z_edges]
        for idx in range(len(zpos)):
            start = zpos[idx]
            end = zpos[(idx + 1) % len(zpos)]
            cid = copy_id[(v, idx)]
            j = (start + 1) % k
            while j != end:
                dart_owner[rot[j]] = cid
                j = (j + 1) % k
            dart_owner[rot[start]] = cid   # z-dart keyed to its after-corner

    def owner_vertex(d):
        t = tails[d]
        if t in zset:
            return dart_owner[d]
        return vertex_map[t]

    # surviving edges keep their relative order; banks appended after
    new_edges = []
    edge_map = {}
    for e, (u, v, s) in enumerate(E.edges):
        if e in C.z_edges:
            continue
        edge_map[e] = len(new_edges)
        new_edges.append((owner_vertex(2 * e), owner_vertex(2 * e + 1), s))
    bankA = {}
    bankB = {}
    for e in sorted(C.z_edges):
        d1, d2 = 2 * e, 2 * e + 1
        v1, t1 = tails[d1], corner_of[d1]
        v2, t2 = tails[d2], corner_of[d2]
        s = E.edges[e][2]
        bankA[e] = len(new_edges)
        bankB[e] = len(new_edges) + 1
        if s == 1:
            # consistent local frames: a side flanks "after" at one end
            # and "before" at the other
            new_edges.append((copy_id[(v1, t1)], owner_of_corner(v2, t2 - 1), 1))
            new_edges.append((copy_id[(v2, t2)], owner_of_corner(v1, t1 - 1), 1))
        else:
            # the reflection along a -1 edge swaps the far end's flanks
            new_edges.append((copy_id[(v1, t1)], copy_id[(v2, t2)], -1))
            new_edges.append((owner_of_corner(v1, t1 - 1),
                              owner_of_corner(v2, t2 - 1), -1))

    def after_dart(d):
        e = d >> 1
        if E.edges[e][2] == 1:
            return 2 * bankA[e] if (d & 1) == 0 else 2 * bankB[e]
        return 2 * bankA[e] if (d & 1) == 0 else 2 * bankA[e] + 1

    def before_dart(d):
        e = d >> 1
        if E.edges[e][2] == 1:
            return 2 * bankB[e] + 1 if (d & 1) == 0 else 2 * bankA[e] + 1
        return 2 * bankB[e] if (d & 1) == 0 else 2 * bankB[e] + 1

    def remap_dart(d):
        return 2 * edge_map[d >> 1] + (d & 1)

    nrot = [None] * len(provenance)
    for v in range(E.n):
        if v not in zset:
            nrot[vertex_map[v]] = [remap_dart(d) for d in E.rot[v]]
    for v in C.z_vertices:
        rot = E.rot[v]
        k = len(rot)
        zd = z_darts_at[v]
        zpos = [i for i, d in enumerate(rot) if (d >> 1) in C.z_edges]
        for t in range(len(zd)):
            start, end = zpos[t], zpos[(t + 1) % len(zd)]
            sector = []
            j = (start + 1) % k
            while j != end:
                sector.append(remap_dart(rot[j]))
                j = (j + 1) % k
            cyc = [after_dart(rot[start])] + sector + [before_dart(rot[end])]
            nrot[copy_id[(v, t)]] = cyc

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

    # the slit face walks along every bank edge; an old disk face only ever
    # sees one side of each Z-edge.  Non-disk old faces can tie (bouquets):
    # the corner glued after a Z-dart then decides.
    bank_ids = set(bankA.values()) | set(bankB.values())
    candidates = [i for i, walk in enumerate(fs2.faces)
                  if len(walk) == 2 * C.q and {d >> 1 for d in walk} == bank_ids]
    if len(candidates) == 1:
        new_face = candidates[0]
    else:
        v0 = C.z_vertices[0]
        probe = after_dart(z_darts_at[v0][0])
        new_face = fs2.face_of_state[2 * probe]
        if new_face not in candidates:
            raise ContractViolation("slit face not found")
    cf_darts = fs2.faces[new_face]
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


@dataclass
class ApexResult:
    Gplus: EmbeddedMultigraph
    rplus: int


def attach_apex(R: CutResult, gt_faces: FaceSet) -> tuple:
    """Add an apex inside the new face, joined to every boundary copy.

    ``gt_faces`` are the faces of ``R.Gt`` that ``cut_along`` returned.
    Returns ``(A, gplus_faces)``: the apex result and the faces of
    ``A.Gplus``.
    """
    Gt = R.Gt
    cyc = R.cf_cycle
    cf_darts = gt_faces.faces[R.new_face_index]
    rplus = Gt.n
    edges = list(Gt.edges)
    rot = list(Gt.rot)        # a rotation is copied before it changes
    spoke_darts = []          # the apex end of each spoke
    for c in cyc:
        spoke_darts.append(2 * len(edges))
        edges.append((rplus, c, 1))
    # at each cycle vertex the spoke sits in the slit corner: right before
    # the outgoing boundary dart of the new face
    for i, c in enumerate(cyc):
        out = cf_darts[i]
        r = rot[c] = list(rot[c])
        r.insert(r.index(out), spoke_darts[i] + 1)
    rot.append(list(reversed(spoke_darts)))
    Gplus = EmbeddedMultigraph(Gt.n + 1, edges, rot)
    fs = trace_faces(Gplus)
    if 2 - Gplus.n + Gplus.m - fs.f != 0:    # connected: Gt is, plus spokes
        raise ContractViolation("apex insertion broke planarity")
    if fs.f != len(cyc) + gt_faces.f - 1:
        raise ContractViolation("apex wheel face count is off")
    return ApexResult(Gplus=Gplus, rplus=rplus), fs


def build_Tplus(A: ApexResult, T: BfsStructure, R: CutResult,
                C: CutSystem) -> tuple:
    """Spanning tree of the apexed graph: boundary path + old forest.

    Returns (parent, P_plus): the tree as parent pointers rooted at the
    apex (which has parent -1), and P_plus, the boundary cycle minus the
    edge between the two smallest copy ids, rooted below the apex.
    """
    n = A.Gplus.n
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
    parent[vplus] = A.rplus
    for i in range(1, k):
        parent[path[i]] = path[i - 1]
    # forest T - V(Z) survives; each component hangs off the copy that kept
    # the dart of its topmost vertex's old tree edge
    zset = set(C.z_vertices)
    for w in range(len(T.parent)):
        if w in zset:
            continue
        wn = R.vertex_map[w]
        pv = T.parent[w]
        if pv in zset:
            # the surviving copy of w's old tree edge ends at exactly one
            # corner copy
            u2, v2, _ = R.Gt.edges[R.edge_map[T.parent_edge[w]]]
            parent[wn] = u2 if v2 == wn else v2
        elif pv != -1:
            parent[wn] = R.vertex_map[pv]
    _check_spanning(parent, A.rplus, n)
    return parent, path


def _check_spanning(parent: list, root: int, n: int):
    count = 0
    for v in range(n):
        if parent[v] == -1:
            if v != root:
                raise ContractViolation(f"vertex {v} detached from the tree")
        else:
            count += 1
    # acyclicity via depth computation (raises on cycles implicitly)
    depth = [-1] * n
    depth[root] = 0
    for v in range(n):
        chain = []
        x = v
        while depth[x] == -1:
            chain.append(x)
            x = parent[x]
            if len(chain) > n:
                raise ContractViolation("parent pointers contain a cycle")
        d = depth[x]
        for y in reversed(chain):
            d += 1
            depth[y] = d
    if count != n - 1:
        raise ContractViolation("tree edge count != n - 1")
