"""Test oracles for the width-3 and planarity claims: the tree
decomposition the parts state, the exact treewidth of small graphs, and
networkx's planarity verdict."""

import pytest

from framedprod.errors import DomainError


def stated_decomposition(parts):
    """``H``'s edges, the bags and the bag parents that the parts state.

    Part ``i`` with attachments ``A`` gives the edges ``a-i`` for ``a`` in
    ``A``, and bag ``i``, ``sorted(A) + [i]``, whose parent is bag
    ``max(A)`` (-1, a root, when ``A`` is empty).
    """
    h_edges = []
    bags = []
    bag_parent = []
    for i, part in enumerate(parts):
        atts = sorted(part.attachments)
        h_edges += [(a, i) for a in part.attachments]
        bags.append(atts + [i])
        bag_parent.append(atts[-1] if atts else -1)
    return h_edges, bags, bag_parent


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
