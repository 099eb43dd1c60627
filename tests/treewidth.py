"""Test oracles for the width-3 and planarity claims: the tree
decomposition of ``H``, the exact treewidth of small graphs, and
networkx's planarity verdict."""

import pytest

from framedprod.assemble import build_partition
from framedprod.errors import DomainError
from framedprod.verify import (
    check_part_structure,
    closure_pairs,
    derive_bags,
    rebuild_bfs,
    rebuild_faces,
)


def derived_bags(E, cert):
    """Each part's earlier neighbours in the ``H`` the verifier reads from
    ``cert`` on ``E``, sorted: those the closure pairs show it touching,
    plus its stated extras."""
    us, vs = closure_pairs(E, cert.d, rebuild_faces(E))
    parent = rebuild_bfs(E, E.root or 0)[0]
    node = check_part_structure(cert.parts, parent, cert.genus, cert.d)[1]
    bags = derive_bags(us, vs, node, [p.extras for p in cert.parts])[1]
    return [sorted(bag) for bag in bags]


def construction_bags(E, d):
    """Each part's earlier neighbours in the ``H`` the construction built,
    sorted: the attachments of its partition's parts."""
    return [sorted(p.attachments) for p in build_partition(E, d)[2].parts]


def stated_decomposition(bags):
    """``H``'s edges, the bags and the bag parents that ``bags`` state.

    ``bags[i]``, part ``i``'s earlier neighbours ``A``, gives the edges
    ``a-i`` for ``a`` in ``A``, and bag ``i``, ``sorted(A) + [i]``, whose
    parent is bag ``max(A)`` (-1, a root, when ``A`` is empty).  The
    construction's ``bags`` are its parts' attachments, the verifier's are
    ``derived_bags``.
    """
    h_edges = []
    out = []
    bag_parent = []
    for i, atts in enumerate(bags):
        atts = sorted(atts)
        h_edges += [(a, i) for a in atts]
        out.append(atts + [i])
        bag_parent.append(atts[-1] if atts else -1)
    return h_edges, out, bag_parent


def nx_planar(num_nodes, edges) -> bool:
    """networkx's planarity verdict on the graph with nodes
    ``0..num_nodes-1`` and the given edges; skips the test when networkx
    is missing."""
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(range(num_nodes))
    G.add_edges_from(edges)
    return nx.check_planarity(G)[0]


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
