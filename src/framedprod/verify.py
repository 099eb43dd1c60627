"""Independent certificate verification and small-graph oracles.

Nothing here reuses the construction pipeline's face walker or BFS: the
closure and distances are rebuilt from the embedding with separate code, so
a bug upstream cannot silently vouch for itself.  Failures are returned as
machine-readable ``FAIL <check> <detail>`` strings.
"""

from __future__ import annotations

from collections import deque

from .errors import DomainError


# ---------------------------------------------------------------------------
# independent reconstruction of faces, closure, distances
# ---------------------------------------------------------------------------

def rebuild_faces(E):
    """Face vertex walks recomputed from scratch (signed corner walking)."""
    succ = {}
    pred = {}
    for v in range(E.n):
        r = E.rot[v]
        for i, dd in enumerate(r):
            succ[dd] = r[(i + 1) % len(r)]
            pred[dd] = r[(i - 1) % len(r)]
    sign = {e: s for e, (_, _, s) in enumerate(E.edges)}
    tail = {}
    for e, (u, v, _) in enumerate(E.edges):
        tail[2 * e] = u
        tail[2 * e + 1] = v

    def step(state):
        d, s = state
        s2 = s * sign[d >> 1]
        t = d ^ 1
        nd = succ[t] if s2 == 1 else pred[t]
        return (nd, s2)

    walks = []
    visited = set()
    order = [(d, 1) for d in range(2 * E.m)] + [(d, -1) for d in range(2 * E.m)]
    for start in order:
        if start in visited:
            continue
        walk = []
        orbit = []
        state = start
        while True:
            visited.add(state)
            orbit.append(state)
            walk.append(tail[state[0]])
            state = step(state)
            if state == start:
                break
        for d, s in orbit:
            visited.add((d ^ 1, -s * sign[d >> 1]))
        walks.append(walk)
    return walks


def rebuild_closure(E, d):
    """Closure adjacency sets recomputed from re-traced faces."""
    adj = [set() for _ in range(E.n)]
    for u, v, _ in E.edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for walk in rebuild_faces(E):
        if 3 <= len(walk) <= d and len(set(walk)) == len(walk):
            for i, u in enumerate(walk):
                for v in walk[i + 1:]:
                    if u != v:
                        adj[u].add(v)
                        adj[v].add(u)
    return adj


def rebuild_bfs(E, root):
    """Deterministic BFS (ascending dart order), written independently."""
    nbr = [[] for _ in range(E.n)]
    for e, (u, v, _) in enumerate(E.edges):
        nbr[u].append((2 * e, v))
        nbr[v].append((2 * e + 1, u))
    for lst in nbr:
        lst.sort()
    parent = [-1] * E.n
    depth = [-1] * E.n
    depth[root] = 0
    q = deque([root])
    while q:
        x = q.popleft()
        for _, y in nbr[x]:
            if depth[y] == -1:
                depth[y] = depth[x] + 1
                parent[y] = x
                q.append(y)
    return parent, depth


# ---------------------------------------------------------------------------
# certificate checks
# ---------------------------------------------------------------------------

def check_containment(closure_adj, mapping, h_edges, num_parts):
    """Injectivity plus the product-adjacency test, edge by edge."""
    fails = []
    n = len(closure_adj)
    triples = {}
    for v in range(n):
        t = (mapping.node[v], mapping.layer[v], mapping.copy[v])
        if not (0 <= t[0] < num_parts):
            fails.append(f"FAIL containment vertex {v} node {t[0]} out of range")
        if not (0 <= t[2] < mapping.ell):
            fails.append(f"FAIL containment vertex {v} copy {t[2]} >= ell")
        if t in triples:
            fails.append(f"FAIL containment vertices {triples[t]} and {v} "
                         f"share triple {t}")
        triples[t] = v
    hset = {(min(a, b), max(a, b)) for a, b in h_edges}
    for u in range(n):
        for v in closure_adj[u]:
            if u >= v:
                continue
            a, b = mapping.node[u], mapping.node[v]
            if a != b and (min(a, b), max(a, b)) not in hset:
                fails.append(f"FAIL containment edge {u}-{v}: parts {a},{b} "
                             "not adjacent in H")
            if abs(mapping.layer[u] - mapping.layer[v]) > 1:
                fails.append(f"FAIL containment edge {u}-{v}: layers "
                             f"{mapping.layer[u]},{mapping.layer[v]}")
    return fails


def check_tree_decomposition(num_nodes, h_edges, bags, bag_parent):
    """Edge coverage, subtree connectivity, and width at most 3."""
    fails = []
    if not bags:
        return ["FAIL td no bags"]
    for i, bag in enumerate(bags):
        if len(bag) > 4:
            fails.append(f"FAIL td bag {i} has size {len(bag)}")
    roots = [i for i, p in enumerate(bag_parent) if p == -1]
    if len(roots) != 1:
        fails.append(f"FAIL td {len(roots)} roots")
    for i, p in enumerate(bag_parent):
        if p != -1 and not (0 <= p < len(bags)):
            fails.append(f"FAIL td bag {i} parent {p} out of range")
            return fails
    # the anchor walk below follows parent pointers, so they must be acyclic
    state = [0] * len(bags)        # 0 unseen, 1 on the current walk, 2 done
    for i in range(len(bags)):
        walk = []
        j = i
        while j != -1 and state[j] == 0:
            state[j] = 1
            walk.append(j)
            j = bag_parent[j]
        if j != -1 and state[j] == 1:
            fails.append("FAIL td bag_parent has a cycle")
            return fails
        for j in walk:
            state[j] = 2
    bag_sets = [set(b) for b in bags]
    holding = {}
    for i, s in enumerate(bag_sets):
        for x in s:
            holding.setdefault(x, []).append(i)
    holding_sets = {x: set(lst) for x, lst in holding.items()}
    for a, b in h_edges:
        ha = holding_sets.get(a)
        hb = holding_sets.get(b)
        if not ha or not hb or not (ha & hb):
            fails.append(f"FAIL td edge {a}-{b} not inside any bag")
    for x in range(num_nodes):
        lst = holding.get(x)
        if not lst:
            fails.append(f"FAIL td node {x} in no bag")
            continue
        anchors = set()
        for i in lst:
            j = i
            while bag_parent[j] != -1 and x in bag_sets[bag_parent[j]]:
                j = bag_parent[j]
            anchors.add(j)
        if len(anchors) != 1:
            fails.append(f"FAIL td node {x} spans {len(anchors)} subtrees")
    return fails


def check_part_structure(parts, part_of, tree_parent, g, d, boundary_part):
    """Z splits into <= 2g vertical tree paths; other parts are tripods."""
    fails = []
    n = len(part_of)
    seen = [False] * n
    for part in parts:
        verts = part.vertices()
        for v in verts:
            if not (0 <= v < n):
                fails.append(f"FAIL parts vertex {v} out of range")
                continue
            if seen[v]:
                fails.append(f"FAIL parts vertex {v} in two parts")
            seen[v] = True
            if part_of[v] != part.pid:
                fails.append(f"FAIL parts vertex {v} labelled {part_of[v]} "
                             f"but listed in part {part.pid}")
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
    missing = seen.count(False)
    if missing:
        fails.append(f"FAIL parts {missing} vertices in no part")
    return fails


# ---------------------------------------------------------------------------
# planarity: the left-right criterion, iterative throughout
# ---------------------------------------------------------------------------

class _Interval:
    __slots__ = ("low", "high")

    def __init__(self, low=None, high=None):
        self.low = low
        self.high = high

    def empty(self):
        return self.low is None and self.high is None


class _Pair:
    __slots__ = ("L", "R")

    def __init__(self):
        self.L = _Interval()
        self.R = _Interval()

    def swap(self):
        self.L, self.R = self.R, self.L


class _NotPlanar(Exception):
    pass


class _LRTest:
    def __init__(self, n, adj):
        self.n = n
        self.adj = adj
        self.height = [-1] * n
        self.parent_edge = [None] * n
        self.lowpt = {}
        self.lowpt2 = {}
        self.nesting = {}
        self.out_edges = [[] for _ in range(n)]
        self.ordered = None
        self.S = []
        self.stack_bottom = {}
        self.lowpt_edge = {}
        self.ref = {}
        self.side = {}

    # -- phase 1: orientation ------------------------------------------
    def orient(self):
        for r in range(self.n):
            if self.height[r] == -1:
                self.height[r] = 0
                self._dfs1(r)
        self.ordered = [sorted(self.out_edges[v],
                               key=lambda e: self.nesting[e])
                        for v in range(self.n)]

    def _dfs1(self, root):
        stack = [(root, iter(self.adj[root]))]
        while stack:
            v, it = stack[-1]
            descended = False
            for w in it:
                if (v, w) in self.lowpt or (w, v) in self.lowpt:
                    continue
                e = (v, w)
                self.lowpt[e] = self.height[v]
                self.lowpt2[e] = self.height[v]
                self.out_edges[v].append(e)
                if self.height[w] == -1:
                    self.parent_edge[w] = e
                    self.height[w] = self.height[v] + 1
                    stack.append((w, iter(self.adj[w])))
                    descended = True
                    break
                self.lowpt[e] = self.height[w]
                self._finish(e, v)
            if not descended:
                stack.pop()
                pe = self.parent_edge[v]
                if pe is not None:
                    self._finish(pe, pe[0])

    def _finish(self, e, v):
        self.nesting[e] = 2 * self.lowpt[e]
        if self.lowpt2[e] < self.height[v]:
            self.nesting[e] += 1
        pe = self.parent_edge[v]
        if pe is not None:
            if self.lowpt[e] < self.lowpt[pe]:
                self.lowpt2[pe] = min(self.lowpt[pe], self.lowpt2[e])
                self.lowpt[pe] = self.lowpt[e]
            elif self.lowpt[e] > self.lowpt[pe]:
                self.lowpt2[pe] = min(self.lowpt2[pe], self.lowpt[e])
            else:
                self.lowpt2[pe] = min(self.lowpt2[pe], self.lowpt2[e])

    # -- phase 2: testing ------------------------------------------------
    def test(self):
        try:
            for r in range(self.n):
                if self.parent_edge[r] is None and self.out_edges[r]:
                    self._dfs2(r)
        except _NotPlanar:
            return False
        return True

    def _top(self):
        return self.S[-1] if self.S else None

    def _dfs2(self, root):
        frames = [(root, 0)]
        while frames:
            v, i = frames.pop()
            edges_v = self.ordered[v]
            if i > 0:
                self._integrate(v, edges_v[i - 1], i - 1)
            if i < len(edges_v):
                frames.append((v, i + 1))
                w = edges_v[i][1]
                ei = edges_v[i]
                self.stack_bottom[ei] = self._top()
                if ei == self.parent_edge[w]:
                    frames.append((w, 0))
                else:
                    self.lowpt_edge[ei] = ei
                    P = _Pair()
                    P.R.low = P.R.high = ei
                    self.S.append(P)
                continue
            # all outgoing edges of v processed
            pe = self.parent_edge[v]
            if pe is not None:
                self._remove_back_edges(pe)

    def _integrate(self, v, ei, idx):
        pe = self.parent_edge[v]
        if self.lowpt[ei] < self.height[v]:       # ei has a return edge
            if idx == 0:
                self.lowpt_edge[pe] = self.lowpt_edge[ei]
            else:
                self._add_constraints(ei, pe)

    def _add_constraints(self, ei, e):
        P = _Pair()
        bottom = self.stack_bottom[ei]
        # merge return edges of ei into P.R
        while self.S and self._top() is not bottom:
            Q = self.S.pop()
            if not Q.L.empty():
                Q.swap()
            if not Q.L.empty():
                raise _NotPlanar
            if Q.R.low is not None and \
                    self.lowpt[Q.R.low] > self.lowpt[e]:
                if P.R.empty():
                    P.R.high = Q.R.high
                else:
                    self.ref[P.R.low] = Q.R.high
                P.R.low = Q.R.low
            else:
                self.ref[Q.R.low] = self.lowpt_edge[e]
        # merge conflicting return edges of earlier siblings into P.L
        while self.S and (self._conflicting(self._top().L, ei) or
                          self._conflicting(self._top().R, ei)):
            Q = self.S.pop()
            if self._conflicting(Q.R, ei):
                Q.swap()
            if self._conflicting(Q.R, ei):
                raise _NotPlanar
            if P.R.low is not None:
                self.ref[P.R.low] = Q.R.high
            elif P.R.high is None:
                P.R.high = Q.R.high
            if Q.R.low is not None:
                P.R.low = Q.R.low
            if P.L.empty():
                P.L.high = Q.L.high
            else:
                self.ref[P.L.low] = Q.L.high
            P.L.low = Q.L.low
        if not (P.L.empty() and P.R.empty()):
            self.S.append(P)

    def _conflicting(self, I, b):
        return (not I.empty()) and self.lowpt[I.high] > self.lowpt[b]

    def _lowest(self, P):
        if P.L.empty():
            return self.lowpt[P.R.low]
        if P.R.empty():
            return self.lowpt[P.L.low]
        return min(self.lowpt[P.L.low], self.lowpt[P.R.low])

    def _remove_back_edges(self, e):
        u = e[0]
        while self.S and self._lowest(self._top()) == self.height[u]:
            P = self.S.pop()
            if P.L.low is not None:
                self.side[P.L.low] = -1
        if self.S:
            P = self.S.pop()
            while P.L.high is not None and P.L.high[1] == u:
                P.L.high = self.ref.get(P.L.high)
            if P.L.high is None and P.L.low is not None:
                self.ref[P.L.low] = P.R.low
                self.side[P.L.low] = -1
                P.L.low = None
            while P.R.high is not None and P.R.high[1] == u:
                P.R.high = self.ref.get(P.R.high)
            if P.R.high is None and P.R.low is not None:
                self.ref[P.R.low] = P.L.low
                self.side[P.R.low] = -1
                P.R.low = None
            self.S.append(P)
        if self.lowpt[e] < self.height[u] and self.S:
            hl = self._top().L.high
            hr = self._top().R.high
            if hl is not None and (hr is None or
                                   self.lowpt[hl] > self.lowpt[hr]):
                self.ref[e] = hl
            else:
                self.ref[e] = hr


def check_planarity(num_nodes, edges) -> bool:
    """Sound planarity verdict for a simple graph."""
    simple = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    if num_nodes >= 3 and len(simple) > 3 * num_nodes - 6:
        return False
    adj = [[] for _ in range(num_nodes)]
    for a, b in sorted(simple):
        adj[a].append(b)
        adj[b].append(a)
    lr = _LRTest(num_nodes, adj)
    lr.orient()
    return lr.test()


# ---------------------------------------------------------------------------
# exact treewidth for small graphs
# ---------------------------------------------------------------------------

def exact_treewidth(adj_sets, cap: int = 12) -> int:
    """Exhaustive treewidth via the elimination-ordering subset DP."""
    n = len(adj_sets)
    if n > cap:
        raise DomainError(f"exact treewidth capped at {cap} vertices")
    if n == 0:
        return -1
    masks = [0] * n
    for v, s in enumerate(adj_sets):
        for w in s:
            if w != v:
                masks[v] |= 1 << w
    full = (1 << n) - 1

    def elim_degree(R, v):
        # neighbours of v outside R, reachable through eliminated R vertices
        comp = 1 << v
        frontier = comp
        nbrs = 0
        while frontier:
            reach = 0
            f = frontier
            while f:
                x = (f & -f).bit_length() - 1
                f &= f - 1
                reach |= masks[x]
            nbrs |= reach
            grow = reach & R & ~comp
            comp |= grow
            frontier = grow
        return bin(nbrs & ~R & ~(1 << v)).count("1")

    memo = [0] * (1 << n)
    memo[0] = -1
    order = sorted(range(1, 1 << n), key=lambda s: bin(s).count("1"))
    for S in order:
        best = n
        s = S
        while s:
            v = (s & -s).bit_length() - 1
            s &= s - 1
            R = S & ~(1 << v)
            cand = memo[R]
            fd = elim_degree(R, v)
            if fd > cand:
                cand = fd
            if cand < best:
                best = cand
        memo[S] = best
    return memo[full]


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------

def verify_certificate(E, cert) -> list:
    """Run every check against the embedding; returns FAIL lines."""
    fails = []
    if cert.n != E.n:
        return [f"FAIL shape certificate n {cert.n} != graph n {E.n}"]
    closure = rebuild_closure(E, cert.d)
    fails += check_containment(closure, cert.mapping, cert.h_edges,
                               cert.num_parts)
    fails += check_tree_decomposition(cert.num_parts, cert.h_edges,
                                      cert.bags, cert.bag_parent)
    if not check_planarity(cert.num_parts, cert.h_edges):
        fails.append("FAIL planarity H is not planar")
    root = E.root if E.root is not None else 0
    parent, depth = rebuild_bfs(E, root)
    fails += check_part_structure(cert.parts, cert.part_of, parent,
                                  cert.genus, cert.d, cert.boundary_part)
    h = cert.d // 2
    for v in range(E.n):
        if cert.mapping.layer[v] != depth[v] // h:
            fails.append(f"FAIL layering vertex {v} block "
                         f"{cert.mapping.layer[v]} != depth//h")
            break
    counts = {}
    for v in range(E.n):
        key = (cert.mapping.node[v], cert.mapping.layer[v])
        counts[key] = counts.get(key, 0) + 1
    real_ell = max(counts.values()) if counts else 1
    if real_ell != cert.ell:
        fails.append(f"FAIL ell stated {cert.ell} actual {real_ell}")
    if cert.ell > cert.bound:
        fails.append(f"FAIL bound ell {cert.ell} > {cert.bound}")
    return fails
