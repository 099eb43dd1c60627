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
from framedprod.generators import (
    gen_framed,
    gen_plane_triangulation,
    gen_toroidal_grid,
)
from framedprod.verify import verify_certificate

# seconds per verify call; each corpus certificate verifies in milliseconds
TIME_BOUND = 2.0

# a whole whitespace-delimited integer token
INT_TOKEN = re.compile(r"(?<!\S)-?\d+(?!\S)")


@cache
def corpus():
    """Small valid certificates: plane, torus and framed g = 2."""
    out = {}
    for name, E, d in (("tri", gen_plane_triangulation(12, 1), 3),
                       ("torus", gen_toroidal_grid(4, 4), 4),
                       ("framed", gen_framed(30, 5, 2, 3), 5)):
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


def test_huge_vertex_count_is_rejected_before_allocating():
    # the parser keeps nothing per vertex; the verifier compares the count
    # with the graph's before it builds a per-vertex list
    text = "cert 1000000000000000 3 0\nPARTS 1\np x:  y: 0\nELL 1\n"
    cert = parse_certificate(text)
    E = gen_plane_triangulation(12, 1)
    assert verify_certificate(E, cert) == [
        "FAIL shape certificate n 1000000000000000 != graph n 12"]
