"""Totality of the certificate parser and verifier on mutated text.

Every mutation of a valid certificate's text is either rejected by
``parse_certificate`` with a ``FormatError`` or parsed into a certificate
that ``verify_certificate`` checks, returning ``FAIL`` lines (or none) in
bounded time.  Any other exception is a fault.  So is anything but
``FAIL`` lines from the verifier on a frame built with ``validate=False``
and broken: a bad edge end or signature, or rotations that do not list
each dart once at its tail.
"""

import re
import subprocess
import sys
import time
from functools import cache

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framedprod.assemble import (
    decompose,
    parse_certificate,
    serialize_certificate,
)
from framedprod.embedding import EmbeddedMultigraph
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

# a whole integer token, delimited by whitespace or the ";" of a part line
INT_TOKEN = re.compile(r"(?<![^\s;])-?\d+(?![^\s;])")


@cache
def corpus():
    """Small valid certificates: plane, torus, framed g = 2, and the frame
    of a labelled map, whose part lines state extras."""
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


# (part, kind, value): extras added to the line of a part
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
    text = "cert 1000000000000000 3 0\nPARTS 1\n0\nELL 1\n"
    cert = parse_certificate(text)
    E = gen_plane_triangulation(12, 1)
    assert verify_certificate(E, cert) == [
        "FAIL shape certificate n 1000000000000000 != graph n 12"]


# (kind, line, where): a separator edit of one part line
separator_edits = st.tuples(st.sampled_from(("drop", "add", "move", "swap")),
                            st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))


def edit_separators(text, edit):
    """``text`` with one part line's fields re-cut, or None when that line
    offers the edit nothing to change: a ";" dropped, a ";" added at a
    token boundary, a value moved across a ";" into the next or the
    previous field, or two unequal fields swapped."""
    kind, at, where = edit
    lines = text.splitlines()
    k = int(lines[1].split()[1])
    i = 2 + at % k
    fields = [f.split() for f in lines[i].split(";")]
    if kind == "drop":
        if len(fields) < 2:
            return None
        j = where % (len(fields) - 1)
        fields[j:j + 2] = [fields[j] + fields[j + 1]]
    elif kind == "add":
        toks = [t for f in fields for t in f + [";"]][:-1]
        j = where % (len(toks) + 1)
        toks.insert(j, ";")
        fields = [f.split() for f in " ".join(toks).split(";")]
    elif kind == "move":
        # the last value of field j into field j + 1, or its first value
        # into field j
        if len(fields) < 2:
            return None
        j = where % (len(fields) - 1)
        if where // 2 % 2 and fields[j]:
            fields[j + 1].insert(0, fields[j].pop())
        elif fields[j + 1]:
            fields[j].append(fields[j + 1].pop(0))
        else:
            return None
    else:
        fields += [[] for _ in range(3 - len(fields))]
        pairs = [(a, b) for a in range(3) for b in range(a + 1, 3)
                 if fields[a] != fields[b]]
        a, b = pairs[where % len(pairs)]
        fields[a], fields[b] = fields[b], fields[a]
    # written back as it stands: a trailing empty field stays, for the
    # parser to reject
    lines[i] = ";".join(" ".join(f) for f in fields)
    return "\n".join(lines) + "\n"


def stated_partition(E, cert):
    """The part of each vertex, as the verifier climbs it, and the extras."""
    parent = rebuild_bfs(E, E.root or 0)[0]
    node = check_part_structure(cert.parts, parent, cert.genus, cert.d)[1]
    return node, [part.extras for part in cert.parts]


@given(st.sampled_from(("torus", "framed", "map")), separator_edits)
@settings(max_examples=200, deadline=None)
def test_separator_edits_give_format_errors_or_fail_lines(name, edit):
    E, text = corpus()[name]
    bad = edit_separators(text, edit)
    assume(bad is not None and bad != text)
    try:
        cert = parse_certificate(bad)
    except FormatError:
        return
    t0 = time.perf_counter()
    report = verify_certificate(E, cert)
    assert time.perf_counter() - t0 < TIME_BOUND
    assert all(isinstance(x, str) and x.startswith("FAIL ") for x in report)
    if not report:
        # an absorbed vertex whose parent an earlier part holds is a leg
        # whose climb stops at once ("4;5" and "4 5" on the torus): the
        # edit restated the same partition
        good = parse_certificate(text)
        assert stated_partition(E, cert) == stated_partition(E, good)


# (kind, where, value): one fault put into a valid frame
graph_faults = st.tuples(
    st.sampled_from(("end", "sign", "missing", "repeated", "foreign",
                     "range", "count")),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))


def broken_frame(E, fault):
    """``E`` rebuilt with ``validate=False`` and one fault: an edge end
    that is no vertex, a signature other than +1 and -1, a dart missing
    from its rotation, a dart listed twice at its tail, a dart moved to a
    vertex that is not its tail, a dart out of range, or one rotation too
    many or too few."""
    kind, at, value = fault
    edges = list(E.edges)
    rot = [list(r) for r in E.rot]
    u, v, s = edges[at % E.m]
    r = rot[at % E.n]
    if kind == "end":
        bad = E.n + value % 3 if value % 2 else -1 - value // 2 % 3
        edges[at % E.m] = (bad, v, s) if value // 6 % 2 else (u, bad, s)
    elif kind == "sign":
        edges[at % E.m] = (u, v, (0, 2, -2, 3)[value % 4])
    elif kind == "missing":
        del r[value % len(r)]
    elif kind == "repeated":
        r.insert(value // 7 % (len(r) + 1), r[value % len(r)])
    elif kind == "foreign":
        dart = r.pop(value % len(r))
        other = rot[(at + 1 + value % (E.n - 1)) % E.n]
        other.insert(value // 7 % (len(other) + 1), dart)
    elif kind == "range":
        r[value % len(r)] = (2 * E.m + value // 2 % 3 if value % 2
                             else -1 - value // 2 % 3)
    elif value % 2:
        rot.append([])
    else:
        rot.pop()
    return EmbeddedMultigraph(E.n, edges, rot, root=E.root, validate=False)


@given(st.sampled_from(("tri", "torus", "framed", "map")), graph_faults)
@settings(max_examples=200, deadline=None, database=None)
def check_broken_frames_give_fail_lines(name, fault):
    """Run in a child process by the test below."""
    E, text = corpus()[name]
    cert = parse_certificate(text)
    t0 = time.perf_counter()
    report = verify_certificate(broken_frame(E, fault), cert)
    assert time.perf_counter() - t0 < TIME_BOUND
    assert report
    assert all(isinstance(x, str) and x.startswith("FAIL ") for x in report)


def test_broken_frames_give_fail_lines(child_env):
    # a child process with capped memory and a timeout turns a hang or a
    # runaway walk into a failed test instead of a stalled suite
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import test_verify_fuzz\n"
            "test_verify_fuzz.check_broken_frames_give_fail_lines()\n")
    res = subprocess.run([sys.executable, "-c", code], env=child_env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-3000:]
