import hashlib
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedprod.assemble import (
    CertPart,
    PartitionCertificate,
    block_layering,
    decompose,
    parse_certificate,
    serialize_certificate,
    width_bound,
)
from framedprod.embedding import (
    EmbeddedMultigraph,
    bfs_structure,
    from_face_list,
    parse_embedding,
    serialize_embedding,
)
from framedprod.errors import (
    ContractViolation,
    DomainError,
    FormatError,
    InvalidFrameError,
)
from framedprod.frontends import oneplanar_to_frame
from framedprod.generators import (
    gen_framed,
    gen_oneplanar,
    gen_plane_triangulation,
    gen_toroidal_grid,
    triangulate_quads,
)
from framedprod.verify import (
    check_part_structure,
    rebuild_bfs,
    verify_certificate,
)
from test_nonorientable import klein_grid, projective_k4
from treewidth import construction_bags, derived_bags

# sha256 of serialize_certificate(decompose(E, d)) per corpus member,
# recorded from the tripod partition whose flood kept a deque, an
# open-corner flag and a separate candidate list; each is the digest of
# that text with its former LAYERS, H, TD and MAP sections deleted and each
# part's creator bag and attachments written into its p line, then with each
# p line's id, kind and creator tokens dropped, after checking that the
# line's position, the genus and its largest attachment state them; then
# each leg of 3 or more vertices written as its top and bottom vertex,
# after checking that the full-path text of the same partition gave the
# earlier digest; then each leg written as its bottom vertex and the "|"
# separators dropped, after checking that the two-ends text of the same
# partition gave the earlier digest; then each p line's attachments cut to
# its extras, those the closure does not join to the part, after checking
# that the verifier's derived neighbours plus the extras give the earlier
# attachments; then each p line written as its legs, absorbed set and
# extras with ";" between them and no tags, after checking that the tagged
# text of the same partition parses to the same parts and width
GOLDEN = json.loads((Path(__file__).parent / "golden_certificates.json")
                    .read_text())


# the certificate of a single edge: one part, two layers, its one leg
# climbed from 1 up to the root 0
SMALL = "cert 2 3 0\nPARTS 1\n1\nELL 1\n"
# the path 0-1-2, one part whose leg is stated by its bottom
PATH = "cert 3 3 0\nPARTS 1\n2\nELL 1\n"
# the single edge split into two parts, the second attached to the first
TWO_PARTS = "cert 2 3 0\nPARTS 2\n0\n1;;0\nELL 1\n"
# every position of both texts, for inserting a line that does not belong
POSITIONS = [(text, at) for text in (SMALL, TWO_PARTS)
             for at in range(len(text.splitlines()) + 1)]
# the sections of the format before parts-only certificates, as it wrote
# them for SMALL
OLD_SECTIONS = {"H": ["H 1 0"], "TD": ["TD 1", "b 0 -1 : 0"],
                "MAP": ["MAP", "m 0 0 0 0", "m 1 0 1 0"]}


def with_part_line(text, i, line):
    """``text`` with the line of part ``i``, line ``2 + i``, replaced."""
    lines = text.splitlines()
    lines[2 + i] = line
    return "\n".join(lines) + "\n"


# any certificate the serializer can write: parts that state something,
# every value in -10**6..10**6
values = st.integers(-10 ** 6, 10 ** 6)
cert_parts = st.builds(CertPart, st.lists(values, max_size=4),
                       st.lists(values, max_size=3),
                       st.lists(values, max_size=3)).filter(
    lambda p: p.legs or p.absorbed or p.extras)
certificates = st.builds(PartitionCertificate, n=values, d=values,
                         genus=values, parts=st.lists(cert_parts, max_size=6),
                         ell=values)


def part_of(cert, E):
    """The part of each vertex, as the verifier derives it from the part
    lines by climbing its BFS tree from each leg's bottom."""
    parent = rebuild_bfs(E, E.root or 0)[0]
    return check_part_structure(cert.parts, parent, cert.genus, cert.d)[1]


def cells(cert, E):
    """Vertices per (part, block) cell, the blocks from E's root line."""
    depth = bfs_structure(E, E.root or 0).depth
    h = cert.d // 2
    return Counter((p, depth[v] // h) for v, p in enumerate(part_of(cert, E)))


def shuffled(E, seed):
    """The same embedded graph with vertex and edge ids permuted and every
    rotation started at a seeded dart."""
    rng = random.Random(seed)
    vid = list(range(E.n))
    rng.shuffle(vid)
    eid = list(range(E.m))
    rng.shuffle(eid)
    edges = [None] * E.m
    for e, (u, v, s) in enumerate(E.edges):
        edges[eid[e]] = (vid[u], vid[v], s)
    rot = [None] * E.n
    for v, darts in enumerate(E.rot):
        darts = [2 * eid[x >> 1] + (x & 1) for x in darts]
        k = rng.randrange(len(darts))
        rot[vid[v]] = darts[k:] + darts[:k]
    return EmbeddedMultigraph(E.n, edges, rot)


def certificate_corpus():
    """Named (embedding, d) pairs whose certificates are pinned."""
    out = {}
    for n in (20, 200, 2000):
        for s in (0, 1):
            out[f"tri_{n}_{s}"] = (gen_plane_triangulation(n, s), 3)
    for mr, nc, s in ((3, 3, 0), (5, 7, 1), (30, 30, 2)):
        out[f"torus_{mr}x{nc}_shuffled{s}"] = (
            shuffled(gen_toroidal_grid(mr, nc), s), 4)
    for g in (0, 2):
        for d in (3, 4, 5, 6):
            out[f"framed_g{g}_d{d}"] = (gen_framed(150, d, g, 7), d)
        # faces longer than d are fanned into triangles
        for d in (3, 4):
            out[f"framed_g{g}_d6_at_d{d}"] = (gen_framed(150, 6, g, 7), d)
    for s in (3, 4, 5):
        out[f"klein_{s}_d4"] = (klein_grid(s), 4)
        out[f"klein_tri_{s}_d3"] = (triangulate_quads(klein_grid(s)), 3)
    for d in (3, 4, 5):
        out[f"projective_k4_d{d}"] = (projective_k4(), d)
    for n, s in ((30, 0), (120, 1)):
        out[f"oneplanar_{n}_{s}"] = (
            oneplanar_to_frame(gen_oneplanar(n, s)).frame, 4)
    return out


class TestBlockLayering:
    def test_d3_blocks_are_layers(self):
        E = gen_plane_triangulation(30, 1)
        T = bfs_structure(E, 0)
        blocks = block_layering(T, 3)
        assert blocks == T.layers

    def test_d5_pairs_layers(self):
        E = gen_plane_triangulation(60, 2)
        T = bfs_structure(E, 0)
        blocks = block_layering(T, 5)
        for j, blk in enumerate(blocks):
            for v in blk:
                assert T.depth[v] // 2 == j

    def test_d4_pairs_layers(self):
        E = gen_toroidal_grid(5, 5)
        T = bfs_structure(E, 0)
        blocks = block_layering(T, 4)
        assert sum(len(b) for b in blocks) == E.n
        assert len(blocks) == (len(T.layers) + 1) // 2


class TestDecompose:
    @pytest.mark.parametrize("family,d,want", [("torus", 4, 3), ("tri", 3, 1)])
    def test_one_trace_per_graph(self, count_traces, family, d, want):
        # positive genus traces E, the cut graph Gt and the apexed G+
        E = (gen_toroidal_grid(6, 6) if family == "torus"
             else gen_plane_triangulation(60, 3))
        traced = count_traces()
        cert = decompose(E, d)
        assert len(traced) == want
        assert len({id(G) for G in traced}) == want
        assert traced[0] is E
        assert cert.genus == (2 if family == "torus" else 0)

    def test_root_line_roots_the_layering(self):
        for E0, d in ((gen_plane_triangulation(30, 2), 3),
                      (gen_toroidal_grid(5, 5), 4)):
            text = serialize_embedding(E0).replace("\n", "\nroot 5\n", 1)
            E = parse_embedding(text)
            assert E.root == 5
            cert = decompose(E, d)
            assert verify_certificate(E, cert) == []
            assert max(cells(cert, E).values()) == cert.ell
            with pytest.raises(TypeError):
                decompose(E, d, root=0)

    def test_plane_triangulation_bounds(self):
        E = gen_plane_triangulation(100, 9)
        cert = decompose(E, 3)
        assert cert.genus == 0
        assert cert.ell <= 3
        assert cert.bound == 3
        assert verify_certificate(E, cert) == []

    def test_toroidal_d4_bound(self):
        E = gen_toroidal_grid(4, 4)
        cert = decompose(E, 4)
        assert cert.genus == 2
        assert cert.bound == max(2 * 2 * 2, 4 + 6 - 3)
        assert cert.ell <= 8
        assert verify_certificate(E, cert) == []

    def test_toroidal_triangulated_d3_bound(self):
        E = triangulate_quads(gen_toroidal_grid(4, 5))
        cert = decompose(E, 3)
        assert cert.genus == 2
        assert cert.bound == 4          # max(2g, 3) with g = 2
        assert cert.ell <= 4
        assert verify_certificate(E, cert) == []

    def test_single_triangle(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        cert = decompose(E, 3)
        assert cert.num_parts <= 2
        assert cert.ell <= 3

    def test_z_part_blocks_width(self):
        # the cut part meets each block in at most 2g * floor(d/2) vertices
        for d in (3, 4):
            E = (triangulate_quads(gen_toroidal_grid(5, 5)) if d == 3
                 else gen_toroidal_grid(5, 5))
            cert = decompose(E, d)
            zid = cert.boundary_part
            assert zid != -1
            z_cells = [c for (p, _), c in cells(cert, E).items() if p == zid]
            assert max(z_cells) <= 2 * cert.genus * (d // 2)

    def test_tripod_parts_block_width(self):
        E = gen_framed(80, 5, 0, 3)
        cert = decompose(E, 5)
        for (pid, _), c in cells(cert, E).items():
            if pid != cert.boundary_part:
                assert c <= (5 - 3) + 3 * 2

    @pytest.mark.parametrize("d,g", [(3, 0), (4, 0), (5, 0), (6, 0),
                                     (3, 2), (4, 2), (5, 2), (6, 2)])
    def test_framed_bound_sweep(self, d, g):
        E = gen_framed(60, d, g, 17)
        if d == 3 and g == 2:
            E = triangulate_quads(gen_toroidal_grid(8, 8))
        cert = decompose(E, d)
        assert cert.ell <= width_bound(cert.genus, d)
        assert verify_certificate(E, cert) == []

    def test_width_past_the_bound_is_a_contract_violation(self,
                                                          monkeypatch):
        from framedprod import assemble
        monkeypatch.setattr(assemble, "width_bound", lambda g, d: 0)
        with pytest.raises(ContractViolation, match="exceeds the bound 0"):
            decompose(gen_plane_triangulation(20, 1), 3)

    def test_disconnected_rejected(self):
        E = EmbeddedMultigraph(2, [], [[], []])
        with pytest.raises(DomainError):
            decompose(E, 3)

    def test_non_frames_rejected(self):
        # a face walk that repeats a vertex (a path), and a lone vertex
        with pytest.raises(InvalidFrameError, match="face 0"):
            decompose(from_face_list([[0, 1, 2, 1]]), 3)
        with pytest.raises(InvalidFrameError, match="edgeless"):
            decompose(EmbeddedMultigraph(1, [], [[]]), 3)

    @pytest.mark.parametrize("d", [2, 0, -1])
    def test_d_below_3_rejected(self, d):
        with pytest.raises(DomainError, match="d must be >= 3"):
            decompose(gen_plane_triangulation(10, 1), d)

    def test_deterministic(self):
        E = gen_toroidal_grid(4, 4)
        a = serialize_certificate(decompose(E, 4))
        b = serialize_certificate(decompose(E, 4))
        assert a == b


class TestCertificateFormat:
    def test_roundtrip(self):
        E = gen_framed(40, 5, 0, 7)
        cert = decompose(E, 5)
        text = serialize_certificate(cert)
        back = parse_certificate(text)
        assert serialize_certificate(back) == text
        assert verify_certificate(E, back) == []
        # a genus-0 certificate has no Z part
        assert back.boundary_part == -1

    def test_roundtrip_with_cut(self):
        E = gen_toroidal_grid(3, 4)
        cert = decompose(E, 4)
        text = serialize_certificate(cert)
        back = parse_certificate(text)
        assert back.boundary_part == cert.boundary_part
        assert verify_certificate(E, back) == []

    def test_part_line_fields_split_on_any_whitespace(self):
        # runs of spaces or tabs inside a field, or around a ";", parse as
        # the one space the serializer writes
        E = gen_framed(60, 6, 0, 3)
        text = serialize_certificate(decompose(E, 4))
        assert any(ln.count(";") == 2 for ln in text.splitlines()[2:-1])
        cert = parse_certificate(text)
        spaced = text.replace(" ", "  \t ").replace(";", " ; ")
        assert parse_certificate(spaced) == cert

    @pytest.mark.parametrize("line,part", [
        ("0 1 2", CertPart([0, 1, 2], [], [])),
        ("149 3130 234;1350", CertPart([149, 3130, 234], [1350], [])),
        (";7", CertPart([], [7], [])),
        ("4;;0 2", CertPart([4], [], [0, 2])),
        (";;3", CertPart([], [], [3])),
        ("4\t 5 ;  6\t7;\t0", CertPart([4, 5], [6, 7], [0])),
    ], ids=["legs", "legs-absorbed", "absorbed", "legs-extras", "extras",
            "spaces-and-tabs"])
    def test_field_shapes_parse(self, line, part):
        cert = parse_certificate(with_part_line(SMALL, 0, line))
        assert cert.parts == [part]
        # the serializer writes one space between values and none around
        # a ";"
        assert serialize_certificate(cert) == with_part_line(
            SMALL, 0, ";".join(" ".join(f.split()) for f in line.split(";")))

    @pytest.mark.parametrize("line", [
        "p x:  y: 3", "p 0 x:  y: 3", "1;2;3;4", "5;", "5;;", ";", ";;",
        "5;6;", "0 | 1", "0 a", "0;a", "0;;a", "0 1.5", "0;;-"],
        ids=["tagged", "tagged-extras", "four-fields", "empty-last-field",
             "empty-last-fields", "lone-separator", "only-separators",
             "empty-extras", "bar", "junk-in-legs", "junk-in-absorbed",
             "junk-in-extras", "fraction", "lone-minus"])
    def test_bad_part_lines_name_the_line(self, line):
        # the tags of the older formats are no integers; an empty last
        # field would give a part a second text
        want = f"bad part line: {re.escape(line)}$"
        with pytest.raises(FormatError, match=want):
            parse_certificate(with_part_line(TWO_PARTS, 1, line))

    def test_serializer_refuses_an_empty_part(self):
        cert = parse_certificate(TWO_PARTS)
        cert.parts[1] = CertPart([], [], [])
        with pytest.raises(DomainError, match="part 1 states no leg"):
            serialize_certificate(cert)

    @given(certificates)
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_of_any_certificate(self, cert):
        text = serialize_certificate(cert)
        assert parse_certificate(text) == cert
        assert all(ln and ln[-1] != ";" for ln in text.splitlines())

    @given(st.one_of(st.text(), st.text(alphabet="0123456789 ;-\n\tpxy:|#",
                                        max_size=60).map(
        lambda body: SMALL.replace("1\n", body + "\n", 1))))
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_is_a_format_error(self, text):
        try:
            cert = parse_certificate(text)
        except FormatError:
            return
        assert isinstance(cert, PartitionCertificate)

    @pytest.mark.parametrize("bad", [
        "", "cert 3", "cert 3 3 0\nH 2 1\nh 0", "cert 3 3 0\nTD 5\nb 0",
        "cert 3 3 0\nm 0 0", "cert 3 3 0\nELL x",
        pytest.param(with_part_line(SMALL, 0, "q 1"), id="p-line-tag"),
        pytest.param(with_part_line(SMALL, 0, "TRIPOD 1"), id="part-kind"),
        pytest.param(with_part_line(TWO_PARTS, 1, "1;;0 a"),
                     id="attachment-junk"),
        # the tagged lines of the format before, an absorbed field without
        # its leg tag and a tag glued to its value
        pytest.param(with_part_line(SMALL, 0, "p x: 1"), id="y-missing"),
        pytest.param(with_part_line(SMALL, 0, "p x:  y:1"), id="y-glued"),
        pytest.param(with_part_line(SMALL, 0, "0 | | 1"), id="empty-path"),
        pytest.param(with_part_line(SMALL, 0, "0|1"), id="bar-glued"),
        pytest.param(with_part_line(SMALL, 0, "0 |1"), id="bar-glued-right"),
        pytest.param(with_part_line(SMALL, 0, "1 |"), id="bar-trailing"),
        pytest.param(SMALL.replace("PARTS 1", "PARTS 3"),
                     id="parts-past-the-text"),
        pytest.param(SMALL.replace("ELL 1\n", "LAYERS junk\nELL 1\n"),
                     id="layers-junk"),
        pytest.param(SMALL.replace("ELL 1\n", ""), id="ell-missing"),
        pytest.param(SMALL + "ELL 1\n", id="ell-twice"),
        pytest.param(SMALL.replace("ELL 1\n", "ELL 1 2\n"), id="ell-junk"),
        pytest.param(SMALL.replace("ELL 1\n", "").replace(
            "PARTS 1\n", "ELL 1\nPARTS 1\n"), id="sections-out-of-order"),
    ])
    def test_malformed_certificates_rejected(self, bad):
        with pytest.raises(FormatError):
            parse_certificate(bad)

    @pytest.mark.parametrize("at", range(len(POSITIONS)))
    def test_layers_section_rejected(self, at):
        # the section that once repeated MAP's layer column, anywhere in
        # the text, as the old format wrote it
        text, i = POSITIONS[at]
        lines = text.splitlines()
        lines[i:i] = ["LAYERS", "l 0 0", "l 1 1"]
        with pytest.raises(FormatError):
            parse_certificate("\n".join(lines))

    @pytest.mark.parametrize("at", range(len(POSITIONS)))
    def test_l_line_rejected(self, at):
        text, i = POSITIONS[at]
        lines = text.splitlines()
        lines.insert(i, "l 1 1")
        with pytest.raises(FormatError):
            parse_certificate("\n".join(lines))

    @pytest.mark.parametrize("at", range(len(SMALL.splitlines()) + 1))
    @pytest.mark.parametrize("section", sorted(OLD_SECTIONS))
    def test_old_sections_rejected(self, section, at):
        # H, the tree decomposition and the mapping are derived by the
        # verifier; a text that states them is in the old format
        lines = SMALL.splitlines()
        lines[at:at] = OLD_SECTIONS[section]
        with pytest.raises(FormatError):
            parse_certificate("\n".join(lines))

    @pytest.mark.parametrize("line", ["p 0 TRIPOD -1 x:  y: 1",
                                      "p 0 Z -1 x:  y: 1"],
                             ids=["old-tripod-line", "old-Z-line"])
    def test_old_p_line_rejected(self, line):
        # the id, kind and creator tokens the format once stated
        old = with_part_line(SMALL, 0, line)
        with pytest.raises(FormatError, match=f"bad part line: {line}"):
            parse_certificate(old)

    @pytest.mark.parametrize("bad,line", [
        ("cert 2 3 x\nPARTS 0\nELL 1\n", "cert 2 3 x"),
        (SMALL.replace("ELL 1", "ELL y"), "ELL y"),
        (with_part_line(SMALL, 0, "0 | a"), "0 | a"),
        (with_part_line(SMALL, 0, "0|1"), "0|1"),
    ], ids=["header", "ell", "p-line", "bar-glued"])
    def test_errors_name_the_line(self, bad, line):
        with pytest.raises(FormatError, match=re.escape(line)):
            parse_certificate(bad)

    @pytest.mark.parametrize("bad,line", [
        ("cert 2 3 0\nPARTS 1\n0_1\nELL 1\n", "0_1"),
        ("cert 2 3 0\nPARTS 1\n1\nELL +1\n", "ELL +1"),
        ("cert 2 3 0\nPARTS 1\n\u0661\nELL 1\n", "\u0661"),
    ], ids=["underscore", "plus", "arabic-indic-digit"])
    def test_only_plain_decimal_integers(self, bad, line):
        # int() reads each of these as 1
        with pytest.raises(FormatError, match=re.escape(line)):
            parse_certificate(bad)

    def test_comments_may_hold_any_character(self):
        text = "# \u00e9t\u00e9 +1 0_1 \u0661\n" + SMALL
        assert serialize_certificate(parse_certificate(text)) == SMALL
        # a value may be negative: the verifier reports it
        assert parse_certificate(with_part_line(SMALL, 0, "-1")).parts[0] \
            .legs == [-1]

    def test_old_format_rejected(self):
        old = ("cert 2 3 0\nH 1 0\nTD 1\nb 0 -1 : 0\nPARTS 1\n"
               "p 0 TRIPOD x:  y: 0 1\nMAP\nm 0 0 0 0\nm 1 0 1 0\nELL 1\n")
        with pytest.raises(FormatError):
            parse_certificate(old)

    def test_two_part_certificate_parses(self):
        # part 0 is the cut part Z exactly when the genus is positive
        cert = parse_certificate(TWO_PARTS)
        assert serialize_certificate(cert) == TWO_PARTS
        assert cert.boundary_part == -1
        cut = TWO_PARTS.replace("cert 2 3 0", "cert 2 3 2")
        cert = parse_certificate(cut)
        assert serialize_certificate(cert) == cut
        assert cert.boundary_part == 0

    def test_large_texts_shuffled(self):
        # a frame of 1,500 vertex lines, shuffled where the format allows it
        E = gen_plane_triangulation(1500, 3)
        rng = random.Random(5)
        head, *body = serialize_embedding(E).splitlines()
        rng.shuffle(body)
        back = parse_embedding("\n".join([head] + body))
        assert (back.edges, back.rot) == (E.edges, E.rot)
        # the p lines keep their order: line i states part i
        built = decompose(E, 3)
        text = serialize_certificate(built)
        cert = parse_certificate(text)
        assert cert.parts == built.parts
        assert serialize_certificate(cert) == text
        assert verify_certificate(back, cert) == []

    def test_comments_and_blank_lines_skipped(self):
        text = "# a path\n\n" + SMALL.replace("PARTS 1\n",
                                             "  PARTS 1  \n\n# parts\n")
        assert serialize_certificate(parse_certificate(text)) == SMALL

    def test_small_certificate_parses(self):
        cert = parse_certificate(SMALL)
        assert serialize_certificate(cert) == SMALL
        E = EmbeddedMultigraph(2, [(0, 1, 1)], [[0], [1]])
        assert verify_certificate(E, cert) == []

    def test_leg_is_stated_by_its_bottom(self):
        # the path 0-1-2 as one leg: its bottom, climbed up to the root
        cert = parse_certificate(PATH)
        assert cert.parts[0].legs == [2]
        E = EmbeddedMultigraph(3, [(0, 1, 1), (1, 2, 1)], [[0], [1, 2], [3]])
        assert verify_certificate(E, cert) == []

    @pytest.mark.parametrize("line", [
        "0 1 2 | 3", "1 | 0 1 2", "0 0 | 1", "0 | 2 2", "0 2 | 1",
        "0 | 1 | 2", "2;;| 0", "2;;0 |", "2;| 1", "2;1 | 3", "| 2", "2 |"],
        ids=["full-path", "full-path-second", "same-ends",
             "same-ends-second", "two-ends", "one-vertex-legs", "after-p",
             "after-attachment", "after-x", "in-absorbed", "after-y",
             "trailing"])
    def test_non_canonical_legs_name_the_line(self, line):
        # the "|" that separated the legs when they were stated as full
        # paths or by their two ends, and a "|" in any field; an id names
        # the tag of the tagged format after which the "|" stood
        with pytest.raises(FormatError, match=re.escape(line)):
            parse_certificate(with_part_line(PATH, 0, line))


class TestGoldenCertificates:
    @pytest.fixture(scope="class")
    def corpus(self):
        return certificate_corpus()

    @pytest.fixture(scope="class")
    def certs(self, corpus):
        return {name: decompose(E, d) for name, (E, d) in corpus.items()}

    def test_corpus_is_pinned(self, corpus):
        assert sorted(corpus) == sorted(GOLDEN)

    def test_certificates_match(self, certs):
        got = {}
        for name, cert in certs.items():
            text = serialize_certificate(cert)
            got[name] = hashlib.sha256(text.encode()).hexdigest()
        assert got == GOLDEN

    def test_parse_returns_equal_parts(self, certs):
        for name, cert in certs.items():
            back = parse_certificate(serialize_certificate(cert))
            assert back == cert, name

    def test_derived_h_is_the_construction_h(self, corpus, certs):
        # the quotient of the closure plus the stated extras
        for name, cert in certs.items():
            E, d = corpus[name]
            assert derived_bags(E, cert) == construction_bags(E, d), name
