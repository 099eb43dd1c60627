"""Independent certificate verification.

Nothing here reuses the construction pipeline's face walker or BFS: the
closure and distances are rebuilt from the embedding with separate code, so
a bug upstream cannot silently vouch for itself.  The certificate states
only its parts and the extra ``H`` edges the closure does not show; the
mapping into ``H x P x K_ell``, ``H`` and the tree decomposition are
derived from them here.  Failures are returned as
machine-readable ``FAIL <check> <detail>`` strings.
"""

from __future__ import annotations

import gc
from collections import Counter, deque
from itertools import chain, repeat
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
    closes at its start.  Raises it too when a dart is listed away from its
    tail, the end of its edge it leaves from.
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


def _check_permutation(E, table, tail):
    """Raise unless ``table``, filled with -1 and then written once per
    listed dart, is a permutation, and every dart is listed at its tail.
    The rotations list ``2m`` darts, so every slot is written iff no two
    darts share one, and a negative dart past the other tests shows as a
    negative value."""
    if table and min(table) < 0:
        if min(map(min, filter(None, E.rot))) < 0:
            raise DomainError(_DART_RANGE)
        raise DomainError(_NOT_A_PERMUTATION)
    darts = list(chain.from_iterable(E.rot))
    at = list(chain.from_iterable(map(repeat, range(E.n), map(len, E.rot))))
    if list(map(tail.__getitem__, darts)) != at:
        d, v = next((d, v) for d, v in zip(darts, at) if tail[d] != v)
        raise DomainError(f"dart {d} is listed at vertex {v}, but its tail "
                          f"is {tail[d]}")


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
    _check_permutation(E, turn, tail)
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
    _check_permutation(E, succ, tail)
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

def derive_bags(us, vs, node, extras):
    """Each part's bag of earlier parts: those the closure pairs
    ``us[i]-vs[i]`` show it touching, then its stated ``extras``.

    The touching parts are part ``i``'s earlier neighbours in the quotient
    of ``G^(d)``, each part contracted to one node; a pair with an end in
    no part (-1) shows none.  An extra the quotient already shows gives
    ``FAIL td bag <i> extra <a> is derived from the closure`` and is left
    out, so each ``H`` has one text.  Any other extra is kept as stated,
    for ``check_tree_decomposition`` to test its range and repeats.  The
    derived parts come in no set order; every reader sorts a bag.
    -> (FAIL lines, the bags)."""
    part_of = node.__getitem__
    pairs = set(zip(map(part_of, us), map(part_of, vs)))
    bags = [[] for _ in extras]
    for a, b in pairs:
        if a < b:
            if a != -1:
                bags[b].append(a)
        elif b < a and b != -1 and (b, a) not in pairs:
            bags[a].append(b)
    fails = []
    for i, stated in enumerate(extras):
        if stated:
            bag = bags[i]
            derived = set(bag)
            for a in stated:
                if a in derived:
                    fails.append(f"FAIL td bag {i} extra {a} is derived "
                                 "from the closure")
                else:
                    bag.append(a)
    return fails, bags


def check_containment(us, vs, layer):
    """The product-adjacency test over the closure pairs ``us[i]-vs[i]``:
    the blocks of a pair's ends are at most one apart.  Their parts are
    equal or adjacent in ``H`` by construction, as ``derive_bags`` reads
    ``H`` from the same pairs.

    A pass is settled in bulk: the largest block gap is at most 1.  Only a
    failure walks the distinct closure pairs, in ascending order, and gives
    each one with a larger gap one line.
    """
    layer_of = layer.__getitem__
    if max(map(abs, map(sub, map(layer_of, us), map(layer_of, vs))),
           default=0) <= 1:
        return []
    return [f"FAIL containment edge {u}-{v}: layers {layer[u]},{layer[v]}"
            for u, v in sorted({(u, v) if u < v else (v, u)
                                for u, v in zip(us, vs)})
            if abs(layer[u] - layer[v]) > 1]


def check_tree_decomposition(bags):
    """The tree decomposition of ``H`` that ``derive_bags`` reads: width
    at most 3, no node twice in a bag, one tree and the subtree property.

    ``bags[i]`` lists bag ``i``'s nodes other than ``i``, each an earlier
    part: part ``i``'s earlier neighbours in ``H``.  Bag ``i`` hangs under
    the bag of its largest node, and one with none is a root.  ``H`` has
    the edges ``a-i``, each inside bag ``i``.  Every parent is an earlier
    bag, so the bags cannot form a cycle.  -> FAIL lines.
    """
    k = len(bags)
    if not k:
        return ["FAIL td no bags"]
    fails = []
    bag_sets = []
    parents = []
    for i, atts in enumerate(bags):
        if len(atts) > 3:
            fails.append(f"FAIL td bag {i} has size {len(atts) + 1}")
        if len(set(atts)) < len(atts):
            fails.append(f"FAIL td bag {i} repeats a node")
        bag = {i}
        parent = -1                   # the largest node in range
        for a in sorted(atts):
            if 0 <= a < i:
                bag.add(a)
                parent = a
            else:
                fails.append(f"FAIL td bag {i} node {a} out of range")
        bag_sets.append(bag)
        parents.append(parent)
    roots = parents.count(-1)
    if roots != 1:
        fails.append(f"FAIL td {roots} roots")
    # the bags holding x form one subtree iff exactly one of them is the
    # top of its run: the root, or a bag whose parent does not hold x
    tops = [0] * k
    for bag, p in zip(bag_sets, parents):
        up = bag_sets[p] if p != -1 else ()
        for x in bag:
            if x not in up:
                tops[x] += 1
    for x, t in enumerate(tops):
        if t != 1:
            fails.append(f"FAIL td node {x} spans {t} subtrees")
    return fails


def check_part_structure(parts, tree_parent, g, d):
    """Every vertex in exactly one part; Z, part 0 when ``g > 0``, splits
    into <= 2g vertical tree paths, other parts are tripods.  Part ``i`` is
    ``parts[i]``; a leg is its bottom vertex.

    The parts are taken in order, and each part's legs in their stated
    order and then its absorbed set, as the construction made them.  A
    leg's path is climbed in ``tree_parent`` from its bottom while the
    vertex is in no part, each vertex going to the part as it is climbed:
    the construction's leg stops where an earlier part, or an earlier leg
    of its own part, holds the next vertex, or at the root.  A bottom or
    absorbed vertex out of range gives ``FAIL parts vertex <v> out of
    range``; one already in a part gives ``FAIL parts vertex <v> in two
    parts``, or ``FAIL parts part <i> holds vertex <v> twice`` when that
    part is its own.  So no vertex is climbed twice, and the work is
    O(n + legs) on any parts.
    -> (FAIL lines, the part of each vertex, -1 where none)."""
    fails = []
    n = len(tree_parent)
    node = [-1] * n
    for pid, part in enumerate(parts):
        legs = part.legs
        absorbed = part.absorbed
        if pid or g <= 0:
            if len(legs) > 3:
                fails.append(f"FAIL parts part {pid} has {len(legs)} "
                             "paths, cap 3")
            if len(absorbed) > d - 3:
                fails.append(f"FAIL parts part {pid} absorbed "
                             f"{len(absorbed)} > d-3")
        else:                         # Z
            if len(legs) > 2 * g:
                fails.append(f"FAIL parts part 0 has {len(legs)} paths, "
                             f"cap {2 * g}")
            if absorbed:
                fails.append("FAIL parts Z part carries an absorbed set")
        climbs = len(legs)
        for i, x in enumerate(legs + absorbed):
            if not 0 <= x < n:
                fails.append(f"FAIL parts vertex {x} out of range")
            elif node[x] != -1:
                fails.append(f"FAIL parts part {pid} holds vertex {x} twice"
                             if node[x] == pid else
                             f"FAIL parts vertex {x} in two parts")
            elif i < climbs:
                while x != -1 and node[x] == -1:
                    node[x] = pid
                    x = tree_parent[x]
            else:
                node[x] = pid
    missing = node.count(-1)
    if missing:
        fails.append(f"FAIL parts {missing} vertices in no part")
    return fails, node


# ---------------------------------------------------------------------------
# planarity from the stacking order
# ---------------------------------------------------------------------------

def check_planarity(bags):
    """``H`` is planar by its stacking order: no two bags of ``H``'s tree
    decomposition, as ``derive_bags`` reads them, hold the same 3 earlier
    parts.  Part ``i`` whose bag holds 3 distinct earlier parts, a sorted
    set an earlier part ``j`` used first, gives ``FAIL planarity bag i
    attaches to a,b,c as bag j does``.  Any other bag, of another size,
    with a repeat or with a part not before ``i``, is left to
    ``check_tree_decomposition``.

    ``H`` is the quotient of ``G^(d)``, each part contracted to one node,
    plus the stated extras: ``bags[i]`` is part ``i``'s earlier neighbours
    in it, and ``H`` has the edges ``a-i`` for ``a`` in ``bags[i]``.  So
    the ends of every closure pair lie in equal or adjacent parts by
    construction.  The rule is sound only together with a clean
    ``check_tree_decomposition`` of these bags, in two steps.

    1. Every ``bags[i]`` is a clique of ``H``.  Let it hold ``a < b``.
       Only bags ``>= b`` can hold ``b``, so bag ``b`` is the one top of
       ``b``'s subtree, and as bag parents strictly decrease, the chain up
       from bag ``i`` stays in bags holding ``b`` until it reaches bag
       ``b``.  It also stays in bags holding ``a`` until bag ``a``, and
       since ``a < b`` it meets bag ``b`` first.  So bag ``b`` holds ``a``,
       and ``a-b`` is an edge of ``H``.
    2. Adding the parts in order, each joined to a clique of at most 3
       earlier ones, with no 3-set used twice, keeps ``H`` planar.  By
       induction every triangle not yet used lies on one face.  A part
       with 1 or 2 earlier neighbours goes into a face next to its node or
       edge: every face keeps its nodes, and a new triangle bounds a face
       of its own.  A part on the triangle ``abc`` goes into the face
       holding it, which splits into three arcs ``a..b``, ``b..c`` and
       ``c..a``, each closed by the new part.  Any other unused triangle
       on that face lies within one arc: an edge of it between two arcs
       would interlace with ``ab``, ``bc`` or ``ca`` around the face, and
       the two would cross.  The new triangles each lie on the face of
       their arc.

    The rule is stricter than planarity: two parts on one triangle make
    ``K5`` minus an edge, which is planar, yet fail.
    """
    fails = []
    first = {}
    for i, atts in enumerate(bags):
        if len(atts) != 3:
            continue
        a, b, c = key = tuple(sorted(atts))
        if not 0 <= a < b < c < i:
            continue
        j = first.setdefault(key, i)
        if j != i:
            fails.append(f"FAIL planarity bag {i} attaches to {a},{b},{c} "
                         f"as bag {j} does")
    return fails


# ---------------------------------------------------------------------------
# the full suite
# ---------------------------------------------------------------------------

def verify_certificate(E, cert) -> list:
    """Run every check against the embedding; returns FAIL lines.

    A vertex maps to the part that lists it, the block ``depth // (d // 2)``
    of its depth in the rebuilt BFS, and a rank in that (part, block) cell,
    so ``ell`` is the size of the largest cell.  ``H`` and the tree
    decomposition are read by ``derive_bags``: the quotient of the closure
    under the parts, plus each part's stated extras.

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
    parent, depth = rebuild_bfs(E, root)
    if -1 in depth:
        return [f"FAIL shape vertex {depth.index(-1)} is not reached from "
                f"the root {root}: the graph is disconnected"]
    # Euler genus from the re-traced faces; the stated one is only compared.
    # A vertex with no darts is a face of its own that no walk traces.
    g = 2 - E.n + E.m - len(walks) - E.rot.count([])
    if cert.genus != g:
        fails.append(f"FAIL genus stated {cert.genus} actual {g}")
    us, vs = closure_pairs(E, cert.d, walks)
    del walks
    part_fails, node = check_part_structure(cert.parts, parent, g, cert.d)
    fails += part_fails
    h = cert.d // 2
    layer = [x // h for x in depth]
    h_fails, bags = derive_bags(us, vs, node,
                                [part.extras for part in cert.parts])
    fails += h_fails
    fails += check_containment(us, vs, layer)
    fails += check_tree_decomposition(bags)
    fails += check_planarity(bags)
    real_ell = max(Counter(zip(node, layer)).values())
    if real_ell != cert.ell:
        fails.append(f"FAIL ell stated {cert.ell} actual {real_ell}")
    bound = max(2 * g * h, cert.d + 3 * h - 3)     # the paper's width bound
    if cert.ell > bound:
        fails.append(f"FAIL bound ell {cert.ell} > {bound}")
    return fails
