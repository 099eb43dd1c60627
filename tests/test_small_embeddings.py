"""Every orientable embedding of five small graphs as a test oracle.

Each rotation system of K4, K3,3, Q3, the Petersen graph and K5, 9,136 in
all of Euler genus 0 to 6, is stellated, a new vertex in each face joined
to its corners, and certified at ``d = 3``.  The 134 whose faces are
already cycles are frames as they stand, and are certified too, at ``d``
their longest face.  Rotation systems of K6, K7 and K4,4, of Euler genus
up to 14, are sampled and stellated the same way.  Each certificate is
written and read back before the verifier sees it, and ``H`` is checked
against networkx and the exact treewidth.
"""

from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedprod.assemble import (
    decompose,
    parse_certificate,
    serialize_certificate,
)
from framedprod.embedding import EmbeddedMultigraph, stellate, trace_faces
from framedprod.verify import verify_certificate
from treewidth import (
    derived_bags,
    exact_treewidth,
    nx_planar,
    stated_decomposition,
)

# name -> (vertices, edges, rotation systems, those whose faces are
# cycles, their Euler genera)
GRAPHS = {
    "K4": (4, list(combinations(range(4), 2)), 16, 2, {0, 2}),
    "K33": (6, [(a, b) for a in range(3) for b in range(3, 6)], 64, 4,
            {2, 4}),
    "Q3": (8, [(a, a | 1 << i) for a in range(8) for i in range(3)
               if not a >> i & 1], 256, 16, {0, 2, 4}),
    "Petersen": (10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)], 1024, 40,
                 {2, 4, 6}),
    "K5": (5, list(combinations(range(5), 2)), 7776, 72, {2, 4, 6}),
}


# name -> (vertices, edges) of the graphs whose rotation systems are
# sampled: K6 has (4!)^6, K7 (5!)^7 and K4,4 (3!)^8
SAMPLED = {
    "K6": (6, list(combinations(range(6), 2))),
    "K7": (7, list(combinations(range(7), 2))),
    "K44": (8, [(a, b) for a in range(4) for b in range(4, 8)]),
}


def vertex_darts(n, pairs):
    """Each vertex's darts in ``pairs``' edge order."""
    darts = [[] for _ in range(n)]
    for e, (u, v) in enumerate(pairs):
        darts[u].append(2 * e)
        darts[v].append(2 * e + 1)
    return darts


def rotation_systems(n, pairs):
    """Every all-+1 embedding of the simple graph on ``0..n-1`` with edges
    ``pairs``: each vertex's darts in every cyclic order."""
    edges = [(u, v, 1) for u, v in pairs]
    orders = [[[ds[0], *rest] for rest in permutations(ds[1:])]
              for ds in vertex_darts(n, pairs)]
    for rot in product(*orders):
        yield EmbeddedMultigraph(n, edges, [list(r) for r in rot])


@st.composite
def sampled_systems(draw):
    """An all-+1 embedding of a graph of ``SAMPLED``: each vertex's darts
    in a drawn cyclic order."""
    n, pairs = SAMPLED[draw(st.sampled_from(sorted(SAMPLED)))]
    rot = [[ds[0], *draw(st.permutations(ds[1:]))]
           for ds in vertex_darts(n, pairs)]
    return EmbeddedMultigraph(n, [(u, v, 1) for u, v in pairs], rot)


def certified(E, d):
    """``E``'s certificate at ``d``, read back from its text, after
    checking it against the paper's claims; -> its Euler genus."""
    cert = parse_certificate(serialize_certificate(
        decompose(E, d, self_verify=False)))
    assert verify_certificate(E, cert) == []
    assert cert.ell <= cert.bound
    if cert.genus > 0:
        assert len(cert.parts[0].legs) <= 2 * cert.genus
    h_edges, bags, _ = stated_decomposition(derived_bags(E, cert))
    assert nx_planar(cert.num_parts, h_edges)
    adj = [set() for _ in bags]
    for a, b in h_edges:
        adj[a].add(b)
        adj[b].add(a)
    assert exact_treewidth(adj) <= 3
    return cert.genus


@pytest.mark.parametrize("name", GRAPHS)
def test_every_orientable_embedding(name):
    n, pairs, systems, frames, genera = GRAPHS[name]
    seen = []
    framed = 0
    for E in rotation_systems(n, pairs):
        faces = trace_faces(E)
        seen.append(certified(stellate(E, faces.faces), 3))
        walks = faces.vertex_walks(E)
        if all(len(set(w)) == len(w) for w in walks):
            framed += 1
            assert certified(E, max(map(len, walks))) == seen[-1]
    assert (len(seen), framed, set(seen)) == (systems, frames, genera)


@given(sampled_systems())
@settings(max_examples=600, deadline=None)
def test_sampled_larger_embeddings(E):
    # stellated, the high-genus faces give G+ many apex triangles and long
    # slit cycles
    faces = trace_faces(E)
    assert certified(stellate(E, faces.faces), 3) == 2 - E.n + E.m - faces.f
