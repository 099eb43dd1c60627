"""Independent certificate verification.

Nothing here reuses the construction pipeline's face walker or BFS: the
closure and distances are rebuilt from the embedding with separate code, so
a bug upstream cannot silently vouch for itself.  The certificate states
only its parts; the mapping into ``H x P x K_ell``, ``H`` and the tree
decomposition are derived from them here.  Failures are returned as
machine-readable ``FAIL <check> <detail>`` strings.
"""

from __future__ import annotations

import gc
from collections import Counter, deque
from itertools import chain
from operator import itemgetter, sub

from .errors import DomainError


# ---------------------------------------------------------------------------
# independent reconstruction of faces, closure, distances
# ---------------------------------------------------------------------------

def rebuild_faces(E):
    """Face vertex walks recomputed from scratch.

    All +1 signatures: the walks are the cycles of one dart permutation
    (``_orientable_walks``).  Any -1 edge: signed corner walking
    (``_signed_walks``).  Both list the faces in the same order.

    Raises ``DomainError`` on a graph the walks cannot index: a rotation
    count other than ``n``, an edge end that is not a vertex, a signature
    other than +1 or -1, a dart out of range, or rotations that are not a
    permutation of the darts.  A permutation makes every walk a cycle that
    closes at its start.
    """
    if len(E.rot) != E.n:
        raise DomainError(f"{len(E.rot)} rotations for {E.n} vertices")
    tail = [0] * (2 * E.m)
    tail[0::2] = [u for u, _, _ in E.edges]
    tail[1::2] = [v for _, v, _ in E.edges]
    if tail and (min(tail) < 0 or max(tail) >= E.n):
        raise DomainError("an edge end is not a vertex")
    if sum(map(len, E.rot)) != 2 * E.m:
        raise DomainError(_NOT_A_PERMUTATION)
    sign = [sgn for _, _, sgn in E.edges]
    plus = sign.count(1)
    if plus == E.m:
        return _orientable_walks(E, tail)
    if plus + sign.count(-1) != E.m:
        raise DomainError("an edge signature is not +1 or -1")
    return _signed_walks(E, tail)


_DART_RANGE = "a rotation lists a dart out of range"
_NOT_A_PERMUTATION = ("a face walk closes away from its start: the rotations "
                      "are not a permutation of the darts")


def _check_permutation(E, table):
    """Raise unless ``table``, filled with -1 and then written once per
    listed dart, is a permutation.  The rotations list ``2m`` darts, so
    every slot is written iff no two darts share one, and a negative dart
    past the other tests shows as a negative value."""
    if table and min(table) < 0:
        if min(map(min, filter(None, E.rot))) < 0:
            raise DomainError(_DART_RANGE)
        raise DomainError(_NOT_A_PERMUTATION)


def _orientable_walks(E, tail):
    """Face walks of an all-+1 scheme: a walk goes on from dart ``d`` to
    ``turn[d]``, the dart after ``d ^ 1`` in the rotation at ``d``'s head.
    A walk starts at each dart no earlier walk took, in ascending order.
    A dart past the last one fails the index into ``turn``."""
    nd = len(tail)
    turn = [-1] * nd
    try:
        for r in E.rot:
            prev = r[-1] if r else 0
            for d in r:
                turn[prev ^ 1] = d
                prev = d
    except IndexError:
        raise DomainError(_DART_RANGE) from None
    _check_permutation(E, turn)
    seen = bytearray(nd)
    walks = []
    for start in range(nd):
        if seen[start]:
            continue
        walk = []
        d = start
        while True:
            seen[d] = 1
            walk.append(tail[d])
            d = turn[d]
            if d == start:
                break
        walks.append(walk)
    return walks


def _signed_walks(E, tail):
    """Face vertex walks by signed corner walking.

    A state is a dart ``d`` walked with sign ``s``, stored as the integer
    ``2*d + (s == -1)``.  A step leaves along ``d``, multiplies the sign by
    the edge's signature and turns to the next dart around the head (the
    previous one when the sign is -1).  With ``succ`` a permutation, so is
    the step, and each walk closes at its start.  Each walk also marks the
    reverse states of its orbit, which trace the same face the other way
    round.  States are tried in the order (d, +1) for every dart, then
    (d, -1), skipping every state marked.
    """
    nd = 2 * E.m
    succ = [-1] * nd
    pred = [-1] * nd
    try:
        for r in E.rot:
            for a, b in zip(r, r[1:] + r[:1]):
                succ[a] = b
                pred[b] = a
    except IndexError:
        raise DomainError(_DART_RANGE) from None
    # pred is written at the same darts as succ, with the same values
    _check_permutation(E, succ)
    # nxt: state -> next state of its walk; rev: (d, s) -> (d ^ 1, -s * sign).
    # Across a +1 edge, (d, +1) goes on to (succ[d ^ 1], +1) and (d, -1) to
    # (pred[d ^ 1], -1); a -1 edge flips the sign, which swaps the two.
    # States 4e..4e+3 are (2e, +1), (2e, -1), (2e+1, +1), (2e+1, -1).
    ns = 2 * nd
    nxt = [0] * ns
    nxt[0::4] = [2 * x for x in succ[1::2]]
    nxt[1::4] = [2 * x + 1 for x in pred[1::2]]
    nxt[2::4] = [2 * x for x in succ[0::2]]
    nxt[3::4] = [2 * x + 1 for x in pred[0::2]]
    rev = [x ^ 3 for x in range(ns)]
    for e, (_, _, sgn) in enumerate(E.edges):
        if sgn == -1:
            for x in (4 * e, 4 * e + 2):
                nxt[x], nxt[x + 1] = nxt[x + 1], nxt[x]
                rev[x] ^= 1
                rev[x + 1] ^= 1
    seen = bytearray(ns)            # taken by a walk or the reverse of one
    walks = []
    for start in chain(range(0, ns, 2), range(1, ns, 2)):
        if seen[start]:
            continue
        walk = []
        state = start
        while True:
            seen[state] = seen[rev[state]] = 1
            walk.append(tail[state >> 1])
            state = nxt[state]
            if state == start:
                break
        walks.append(walk)
    return walks


def closure_pairs(E, d, walks):
    """The closure ``G^(d)`` as two vertex columns ``(us, vs)``.

    ``walks`` are the face walks ``rebuild_faces(E)`` returns.  The columns
    hold ``E``'s edges in edge order, then, face length by face length from
    4 to ``d``, the non-consecutive vertex pairs of every facial cycle of
    that length with no repeated vertex.  A cycle's consecutive pairs are
    edges of ``E`` already, so a facial triangle adds nothing.  A pair may
    repeat, in either orientation, and a loop of ``E`` stays in.
    """
    us = list(map(itemgetter(0), E.edges))
    vs = list(map(itemgetter(1), E.edges))
    cycles = {}
    for walk in walks:
        k = len(walk)
        if 4 <= k <= d and len(set(walk)) == k:
            cycles.setdefault(k, []).append(walk)
    for k in sorted(cycles):
        group = cycles[k]
        for i in range(k - 2):
            for j in range(i + 2, k - (i == 0)):
                us += map(itemgetter(i), group)
                vs += map(itemgetter(j), group)
    return us, vs


def rebuild_closure(E, d):
    """Closure adjacency sets: the pairs of ``closure_pairs`` without
    loops, for the callers that look up neighbours."""
    adj = [set() for _ in range(E.n)]
    for u, v in zip(*closure_pairs(E, d, rebuild_faces(E))):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def rebuild_bfs(E, root):
    """Deterministic BFS (ascending dart order), written independently."""
    nbr = [[] for _ in range(E.n)]
    for u, v, _ in E.edges:         # edge by edge is ascending dart order
        nbr[u].append(v)
        nbr[v].append(u)
    parent = [-1] * E.n
    depth = [-1] * E.n
    depth[root] = 0
    q = deque([root])
    while q:
        x = q.popleft()
        for y in nbr[x]:
            if depth[y] == -1:
                depth[y] = depth[x] + 1
                parent[y] = x
                q.append(y)
    return parent, depth


# ---------------------------------------------------------------------------
# certificate checks
# ---------------------------------------------------------------------------

def check_containment(us, vs, node, layer, h_edges):
    """The product-adjacency test over the closure pairs ``us[i]-vs[i]``:
    the parts of a pair's ends are equal or adjacent in ``H``, their blocks
    at most one apart.  A pair with an end in no part (-1) skips the parts
    test.

    A pass is settled in bulk: every pair's part pair lies in ``hset`` (the
    ``H`` edges both ways and every equal pair), and the largest block gap
    is at most 1.  Only a failure, or an end in no part, walks the distinct
    closure pairs, in ascending order, and gives each one line per failed
    test, the parts line first.
    """
    hset = set(h_edges)
    hset.update([(b, a) for a, b in h_edges])
    hset.update(zip(node, node))
    part_of = node.__getitem__
    layer_of = layer.__getitem__
    parts_ok = all(map(hset.__contains__,
                       zip(map(part_of, us), map(part_of, vs))))
    if parts_ok and max(map(abs, map(sub, map(layer_of, us),
                                      map(layer_of, vs))), default=0) <= 1:
        return []
    fails = []
    for u, v in sorted({(u, v) if u < v else (v, u)
                        for u, v in zip(us, vs) if u != v}):
        a = node[u]
        b = node[v]
        if (a, b) not in hset and a != -1 and b != -1:
            fails.append(f"FAIL containment edge {u}-{v}: parts {a},{b} "
                         "not adjacent in H")
        if abs(layer[u] - layer[v]) > 1:
            fails.append(f"FAIL containment edge {u}-{v}: layers "
                         f"{layer[u]},{layer[v]}")
    return fails


def check_tree_decomposition(parts):
    """The tree decomposition of ``H`` that the parts state: width at most
    3, no node twice in a bag, one tree and the subtree property.

    Bag ``i`` is ``parts[i].attachments`` plus ``i`` and hangs under the
    bag of part ``i``'s creator; ``H`` has the edges ``a-i``, each inside
    bag ``i``.  -> (FAIL lines, the ``H`` edges with both ends in range).
    """
    k = len(parts)
    if not k:
        return ["FAIL td no bags"], []
    fails = []
    h_edges = []
    bag_sets = []
    for i, part in enumerate(parts):
        atts = part.attachments
        bag = set(atts)
        bag.add(i)
        bag_sets.append(bag)
        if len(atts) > 3:
            fails.append(f"FAIL td bag {i} has size {len(atts) + 1}")
        if len(bag) <= len(atts):
            fails.append(f"FAIL td bag {i} repeats a node")
        for a in sorted(atts):
            if 0 <= a < k:
                h_edges.append((a, i))
            else:
                bag.discard(a)
                fails.append(f"FAIL td bag {i} node {a} out of range")
    creators = [part.creator for part in parts]
    roots = creators.count(-1)
    if roots != 1:
        fails.append(f"FAIL td {roots} roots")
    for i, p in enumerate(creators):
        if p != -1 and not (0 <= p < k):
            fails.append(f"FAIL td bag {i} parent {p} out of range")
            return fails, h_edges
    # a tree decomposition hangs from one root with acyclic parent pointers
    state = [0] * k                # 0 unseen, 1 on the current walk, 2 done
    for i in range(k):
        walk = []
        j = i
        while j != -1 and state[j] == 0:
            state[j] = 1
            walk.append(j)
            j = creators[j]
        if j != -1 and state[j] == 1:
            fails.append("FAIL td bag_parent has a cycle")
            return fails, h_edges
        for j in walk:
            state[j] = 2
    # the bags holding x form one subtree iff exactly one of them is the
    # top of its run: the root, or a bag whose parent does not hold x
    tops = [0] * k
    for bag, p in zip(bag_sets, creators):
        up = bag_sets[p] if p != -1 else ()
        for x in bag:
            if x not in up:
                tops[x] += 1
    for x, t in enumerate(tops):
        if t != 1:
            fails.append(f"FAIL td node {x} spans {t} subtrees")
    return fails, h_edges


def check_part_structure(parts, tree_parent, g, d, boundary_part):
    """Every vertex in exactly one part; Z splits into <= 2g vertical tree
    paths, other parts are tripods.  -> (FAIL lines, the part of each
    vertex, -1 where none)."""
    fails = []
    n = len(tree_parent)
    node = [-1] * n
    for part in parts:
        pid = part.pid
        for v in part.vertices():
            if not (0 <= v < n):
                fails.append(f"FAIL parts vertex {v} out of range")
            elif node[v] != -1:
                fails.append(f"FAIL parts vertex {v} in two parts")
            else:
                node[v] = pid
        limit = 2 * g if part.pid == boundary_part else 3
        if len(part.legs) > limit:
            fails.append(f"FAIL parts part {part.pid} has {len(part.legs)} "
                         f"paths, cap {limit}")
        if part.pid == boundary_part:
            if part.absorbed:
                fails.append("FAIL parts Z part carries an absorbed set")
        elif len(part.absorbed) > d - 3:
            fails.append(f"FAIL parts part {part.pid} absorbed "
                         f"{len(part.absorbed)} > d-3")
        claimed = set()
        for leg in part.legs:
            if not leg:
                fails.append(f"FAIL parts part {part.pid} has an empty path")
                continue
            for a, b in zip(leg, leg[1:]):
                if 0 <= b < n and tree_parent[b] != a:
                    fails.append(f"FAIL parts part {part.pid} path break "
                                 f"{a}->{b}")
            if claimed & set(leg):
                fails.append(f"FAIL parts part {part.pid} paths overlap")
            claimed.update(leg)
    missing = node.count(-1)
    if missing:
        fails.append(f"FAIL parts {missing} vertices in no part")
    return fails, node


# ---------------------------------------------------------------------------
# planarity: the left-right criterion, iterative throughout
# ---------------------------------------------------------------------------

class _NotPlanar(Exception):
    pass


class _LRTest:
    """Brandes' left-right test on edge ids.

    ``adj[v]`` lists ``(w, e)`` with ``e`` the id of the simple edge vw.
    Every per-edge table is a list indexed by edge id; ``src``/``dst`` hold
    the orientation the first DFS gives each edge.
    """

    def __init__(self, n, adj, m):
        self.n = n
        self.adj = adj
        self.height = [-1] * n
        self.parent_edge = [None] * n
        self.oriented = bytearray(m)
        self.src = [0] * m
        self.dst = [0] * m
        self.lowpt = [0] * m
        self.lowpt2 = [0] * m
        self.nesting = [0] * m
        self.out_edges = [[] for _ in range(n)]
        self.ordered = None
        self.S = []
        self.stack_bottom = [None] * m
        self.lowpt_edge = [None] * m
        self.ref = [None] * m

    # -- phase 1: orientation ------------------------------------------
    def orient(self):
        for r in range(self.n):
            if self.height[r] == -1:
                self.height[r] = 0
                self._dfs1(r)
        key = self.nesting.__getitem__
        self.ordered = [sorted(out, key=key) for out in self.out_edges]

    def _dfs1(self, root):
        # finishing an edge e out of v sets its nesting depth and folds its
        # low points into v's parent edge; a back edge finishes at once, a
        # tree edge when its head is popped
        adj = self.adj
        height = self.height
        parent_edge = self.parent_edge
        oriented = self.oriented
        src = self.src
        dst = self.dst
        lowpt = self.lowpt
        lowpt2 = self.lowpt2
        nesting = self.nesting
        out_edges = self.out_edges
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            hv = height[v]
            pe = parent_edge[v]
            for w, e in it:
                if oriented[e]:
                    continue
                oriented[e] = 1
                src[e] = v
                dst[e] = w
                out_edges[v].append(e)
                hw = height[w]
                if hw == -1:
                    parent_edge[w] = e
                    height[w] = hv + 1
                    lowpt[e] = hv
                    lowpt2[e] = hv
                    stack.append((w, iter(adj[w])))
                    break
                # a back edge: lowpt hw, lowpt2 hv, so its nesting is 2 hw
                lowpt[e] = hw
                lowpt2[e] = hv
                nesting[e] = 2 * hw
                if pe is not None:
                    lp = lowpt[pe]
                    if hw < lp:
                        lowpt2[pe] = lp if lp < hv else hv
                        lowpt[pe] = hw
                    elif hw > lp:
                        if hw < lowpt2[pe]:
                            lowpt2[pe] = hw
                    elif hv < lowpt2[pe]:
                        lowpt2[pe] = hv
            else:
                stack.pop()
                if pe is None:
                    continue
                # finish the tree edge pe out of v's parent, at height hv - 1
                low = lowpt[pe]
                low2 = lowpt2[pe]
                nesting[pe] = 2 * low + (low2 < hv - 1)
                ppe = parent_edge[src[pe]]
                if ppe is not None:
                    lp = lowpt[ppe]
                    if low < lp:
                        lowpt2[ppe] = lp if lp < low2 else low2
                        lowpt[ppe] = low
                    elif low > lp:
                        if low < lowpt2[ppe]:
                            lowpt2[ppe] = low
                    elif low2 < lowpt2[ppe]:
                        lowpt2[ppe] = low2

    # -- phase 2: testing ------------------------------------------------
    # A conflict pair is a list [L.low, L.high, R.low, R.high] of edge ids;
    # an interval is empty when both its ends are None.
    def test(self):
        try:
            for r in range(self.n):
                if self.parent_edge[r] is None and self.out_edges[r]:
                    self._dfs2(r)
        except _NotPlanar:
            return False
        return True

    def _dfs2(self, root):
        S = self.S
        ordered = self.ordered
        dst = self.dst
        height = self.height
        lowpt = self.lowpt
        lowpt_edge = self.lowpt_edge
        parent_edge = self.parent_edge
        stack_bottom = self.stack_bottom
        frames = [(root, 0)]
        while frames:
            v, i = frames.pop()
            edges_v = ordered[v]
            if i > 0:
                ei = edges_v[i - 1]
                if lowpt[ei] < height[v]:       # ei has a return edge
                    if i == 1:
                        lowpt_edge[parent_edge[v]] = lowpt_edge[ei]
                    else:
                        self._add_constraints(ei, parent_edge[v])
            if i < len(edges_v):
                frames.append((v, i + 1))
                ei = edges_v[i]
                stack_bottom[ei] = S[-1] if S else None
                if ei == parent_edge[dst[ei]]:
                    frames.append((dst[ei], 0))
                else:
                    lowpt_edge[ei] = ei
                    S.append([None, None, ei, ei])
                continue
            # all outgoing edges of v processed
            pe = parent_edge[v]
            if pe is not None:
                self._remove_back_edges(pe)

    def _add_constraints(self, ei, e):
        S = self.S
        lowpt = self.lowpt
        ref = self.ref
        P = [None, None, None, None]
        bottom = self.stack_bottom[ei]
        # merge return edges of ei into P.R
        while S and S[-1] is not bottom:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
                if Q[0] is not None or Q[1] is not None:
                    raise _NotPlanar
            if Q[2] is not None and lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:
                ref[Q[2]] = self.lowpt_edge[e]
        # merge conflicting return edges of earlier siblings into P.L
        low = lowpt[ei]
        while S:
            Q = S[-1]
            if Q[3] is not None and lowpt[Q[3]] > low:          # R conflicts
                Q[:] = Q[2], Q[3], Q[0], Q[1]
                if Q[3] is not None and lowpt[Q[3]] > low:
                    raise _NotPlanar
            elif Q[1] is None or lowpt[Q[1]] <= low:           # L does not
                break
            S.pop()
            if P[2] is not None:
                ref[P[2]] = Q[3]
            elif P[3] is None:
                P[3] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if P[0] is not None or P[1] is not None or P[2] is not None \
                or P[3] is not None:
            S.append(P)

    def _remove_back_edges(self, e):
        S = self.S
        u = self.src[e]
        dst = self.dst
        lowpt = self.lowpt
        ref = self.ref
        hu = self.height[u]
        # drop the conflict pairs whose lowest return edge ends at u
        while S:
            P = S[-1]
            if P[0] is None and P[1] is None:
                low = lowpt[P[2]]
            elif P[2] is None and P[3] is None:
                low = lowpt[P[0]]
            else:
                low = min(lowpt[P[0]], lowpt[P[2]])
            if low != hu:
                break
            S.pop()
        if S:
            P = S[-1]
            while P[1] is not None and dst[P[1]] == u:
                P[1] = ref[P[1]]
            if P[1] is None and P[0] is not None:
                ref[P[0]] = P[2]
                P[0] = None
            while P[3] is not None and dst[P[3]] == u:
                P[3] = ref[P[3]]
            if P[3] is None and P[2] is not None:
                ref[P[2]] = P[0]
                P[2] = None
        if lowpt[e] < hu and S:
            hl = S[-1][1]
            hr = S[-1][3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr


def check_planarity(num_nodes, edges) -> bool:
    """Sound planarity verdict for a simple graph on nodes 0..num_nodes-1."""
    # edge ab as the key a*N + b with a < b: ascending keys are the pairs in
    # lexicographic order
    N = num_nodes
    for a, b in edges:
        if not (0 <= a < N and 0 <= b < N):
            raise DomainError(f"edge {a}-{b} leaves the nodes 0..{N - 1}")
    keys = sorted({a * N + b if a < b else b * N + a
                   for a, b in edges if a != b})
    m = len(keys)
    if N >= 3 and m > 3 * N - 6:
        return False
    adj = [[] for _ in range(N)]
    for e, key in enumerate(keys):
        a, b = divmod(key, N)
        adj[a].append((b, e))
        adj[b].append((a, e))
    lr = _LRTest(N, adj, m)
    lr.orient()
    return lr.test()


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------

def verify_certificate(E, cert) -> list:
    """Run every check against the embedding; returns FAIL lines.

    A vertex maps to the part that lists it, the block ``depth // (d // 2)``
    of its depth in the rebuilt BFS, and a rank in that (part, block) cell,
    so ``ell`` is the size of the largest cell.  ``H`` and the tree
    decomposition are read from the parts by ``check_tree_decomposition``.

    The cyclic garbage collector is paused for the run, as in the
    construction's bulk stages, and its state on entry restored after.
    """
    if not gc.isenabled():
        return _verify_certificate(E, cert)
    gc.disable()
    try:
        return _verify_certificate(E, cert)
    finally:
        gc.enable()


def _verify_certificate(E, cert) -> list:
    fails = []
    if cert.n != E.n:
        return [f"FAIL shape certificate n {cert.n} != graph n {E.n}"]
    if cert.d < 3:
        return [f"FAIL shape certificate d {cert.d} < 3"]
    root = E.root if E.root is not None else 0
    if not 0 <= root < E.n:
        return [f"FAIL shape root {root} is not a vertex"]
    try:
        walks = rebuild_faces(E)
    except DomainError as ex:
        return [f"FAIL shape {ex}"]
    # Euler genus from the re-traced faces; the stated one is only compared.
    # A vertex with no darts is a face of its own that no walk traces.
    g = 2 - E.n + E.m - len(walks) - E.rot.count([])
    if cert.genus != g:
        fails.append(f"FAIL genus stated {cert.genus} actual {g}")
    us, vs = closure_pairs(E, cert.d, walks)
    del walks
    parent, depth = rebuild_bfs(E, root)
    part_fails, node = check_part_structure(cert.parts, parent, g, cert.d,
                                            cert.boundary_part)
    fails += part_fails
    h = cert.d // 2
    layer = [x // h for x in depth]
    td_fails, h_edges = check_tree_decomposition(cert.parts)
    fails += check_containment(us, vs, node, layer, h_edges)
    fails += td_fails
    if not check_planarity(cert.num_parts, h_edges):
        fails.append("FAIL planarity H is not planar")
    real_ell = max(Counter(zip(node, layer)).values())
    if real_ell != cert.ell:
        fails.append(f"FAIL ell stated {cert.ell} actual {real_ell}")
    bound = max(2 * g * h, cert.d + 3 * h - 3)     # the paper's width bound
    if cert.ell > bound:
        fails.append(f"FAIL bound ell {cert.ell} > {bound}")
    return fails
