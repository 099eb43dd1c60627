"""Totality of the certificate parser and verifier on mutated text.

Every mutation of a valid certificate's text is either rejected by
``parse_certificate`` with a ``FormatError`` or parsed into a certificate
that ``verify_certificate`` checks, returning ``FAIL`` lines (or none) in
bounded time.  Any other exception is a fault.
"""

import re
import time
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from framedprod.assemble import (
    decompose,
    parse_certificate,
    serialize_certificate,
)
from framedprod.errors import FormatError
from framedprod.frontends import map_to_frame
from framedprod.generators import (
    gen_framed,
    gen_labelled_map,
    gen_plane_triangulation,
    gen_toroidal_grid,
)
from framedprod.verify import (
    check_part_structure,
    rebuild_bfs,
    verify_certificate,
)
from treewidth import derived_bags

# seconds per verify call; each corpus certificate verifies in milliseconds
TIME_BOUND = 2.0

# a whole whitespace-delimited integer token
INT_TOKEN = re.compile(r"(?<!\S)-?\d+(?!\S)")


@cache
def corpus():
    """Small valid certificates: plane, torus, framed g = 2, and the frame
    of a labelled map, whose p lines state extras."""
    out = {}
    for name, E, d in (("tri", gen_plane_triangulation(12, 1), 3),
                       ("torus", gen_toroidal_grid(4, 4), 4),
                       ("framed", gen_framed(30, 5, 2, 3), 5),
                       ("map", map_to_frame(gen_labelled_map(20, 3, 0), 3)
                        .frame, 3)):
        out[name] = (E, serialize_certificate(decompose(E, d)))
    return out


# (kind, where, new integer): where picks a line or an integer token
mutations = st.tuples(st.sampled_from(("drop", "dup", "token")),
                      st.integers(0, 10 ** 6), st.integers(-3, 40))


def mutate(text, ops, token=INT_TOKEN):
    """``text`` with each op applied: drop a line, duplicate one, or put an
    integer in place of a ``token`` match."""
    lines = text.splitlines()
    for kind, at, value in ops:
        if not lines:
            break
        i = at % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        else:
            joined = "\n".join(lines)
            spots = list(token.finditer(joined))
            if spots:
                s = spots[at % len(spots)]
                joined = joined[:s.start()] + str(value) + joined[s.end():]
                lines = joined.split("\n")
    return "\n".join(lines) + "\n"


def test_corpus_certificates_verify():
    for E, text in corpus().values():
        assert verify_certificate(E, parse_certificate(text)) == []


@given(st.sampled_from(("tri", "torus", "framed")),
       st.lists(mutations, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_mutated_certificate_is_rejected_or_checked(name, ops):
    E, text = corpus()[name]
    try:
        cert = parse_certificate(mutate(text, ops))
    except FormatError:
        return
    t0 = time.perf_counter()
    report = verify_certificate(E, cert)
    assert time.perf_counter() - t0 < TIME_BOUND
    assert isinstance(report, list)
    assert all(isinstance(x, str) and x.startswith("FAIL") for x in report)


# (part, kind, value): a bottom put in place of a leg of the part, or
# after its legs
bottom_edits = st.tuples(
    st.integers(0, 10 ** 6),
    st.sampled_from(("negative", "past", "repeat", "held", "root",
                     "ancestor")),
    st.integers(0, 10 ** 6))


def edit_bottoms(E, cert, edits):
    """``cert`` with each edit's bottom in place of a leg of its part (an
    even value) or after the part's legs (an odd one): a negative vertex,
    one past the last, a bottom stated before, a vertex an earlier part
    holds, the root, or an ancestor of a bottom stated before."""
    root = E.root or 0
    parent = rebuild_bfs(E, root)[0]
    node = check_part_structure(cert.parts, parent, cert.genus, cert.d)[1]
    k = len(cert.parts)
    for at, kind, value in edits:
        i = at % k
        before = [x for part in cert.parts[:i + 1] for x in part.legs
                  if 0 <= x < E.n]
        held = [v for v in range(E.n) if node[v] < i] or [root]
        if kind == "negative":
            x = -1 - value % 5
        elif kind == "past":
            x = E.n + value % 5
        elif kind == "repeat":
            x = before[value % len(before)] if before else root
        elif kind == "held":
            x = held[value % len(held)]
        elif kind == "root":
            x = root
        else:
            x = before[value % len(before)] if before else root
            for _ in range(1 + value % 4):
                x = parent[x] if parent[x] != -1 else x
        legs = cert.parts[i].legs
        if value % 2 == 0 and legs:
            legs[value // 2 % len(legs)] = x
        else:
            legs.append(x)
    return cert


@given(st.sampled_from(("tri", "torus", "framed")),
       st.lists(bottom_edits, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_any_bottoms_give_only_fail_lines(name, edits):
    E, text = corpus()[name]
    cert = edit_bottoms(E, parse_certificate(text), edits)
    # any integer bottom reads back from the text the serializer writes
    assert parse_certificate(serialize_certificate(cert)) == cert
    t0 = time.perf_counter()
    report = verify_certificate(E, cert)
    assert time.perf_counter() - t0 < TIME_BOUND
    assert all(isinstance(x, str) and x.startswith("FAIL ") for x in report)


# (part, kind, value): extras added to the p line of a part
extra_edits = st.tuples(
    st.integers(0, 10 ** 6),
    st.sampled_from(("derived", "later", "self", "negative", "repeat",
                     "four")),
    st.integers(0, 10 ** 6))


def edit_extras(E, cert, edits):
    """``cert`` with each edit's extras after those of its part: a part the
    closure already joins to it, a later part, itself, a negative id, an
    earlier part stated twice, or four parts, earlier ones the part does
    not touch first.  Each gives at least one ``FAIL`` line."""
    bags = derived_bags(E, cert)
    k = len(cert.parts)
    for at, kind, value in edits:
        i = at % k
        extras = cert.parts[i].extras
        shown = [a for a in bags[i] if a not in extras]
        if kind == "derived":
            touching = [j for j in range(k) if len(bags[j]) > len(
                cert.parts[j].extras)]
            i = touching[at % len(touching)]
            extras = cert.parts[i].extras
            shown = [a for a in bags[i] if a not in extras]
            new = [shown[value % len(shown)]]
        elif kind == "later":
            new = [i + 1 + value % 5]
        elif kind == "self":
            new = [i]
        elif kind == "negative":
            new = [-1 - value % 5]
        else:
            free = [a for a in range(i) if a not in bags[i]]
            if kind == "repeat":
                pick = free or shown or [i]
                new = [pick[value % len(pick)]] * 2
            else:
                new = (free + list(range(i + 1, i + 5)))[:4]
        extras += new
    return cert


@given(st.sampled_from(("tri", "torus", "framed", "map")),
       st.lists(extra_edits, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_any_extras_give_fail_lines(name, edits):
    E, text = corpus()[name]
    cert = edit_extras(E, parse_certificate(text), edits)
    cert = parse_certificate(serialize_certificate(cert))
    t0 = time.perf_counter()
    report = verify_certificate(E, cert)
    assert time.perf_counter() - t0 < TIME_BOUND
    assert report
    assert all(isinstance(x, str) and x.startswith("FAIL ") for x in report)


def test_huge_vertex_count_is_rejected_before_allocating():
    # the parser keeps nothing per vertex; the verifier compares the count
    # with the graph's before it builds a per-vertex list
    text = "cert 1000000000000000 3 0\nPARTS 1\np x:  y: 0\nELL 1\n"
    cert = parse_certificate(text)
    E = gen_plane_triangulation(12, 1)
    assert verify_certificate(E, cert) == [
        "FAIL shape certificate n 1000000000000000 != graph n 12"]
