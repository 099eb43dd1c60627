import hashlib
import json
import re
from pathlib import Path

import pytest

from framedprod import frontends
from framedprod.assemble import decompose, serialize_certificate
from framedprod.embedding import (
    EmbeddedMultigraph,
    from_face_list,
    serialize_embedding,
    trace_faces,
)
from framedprod.errors import DomainError, FormatError
from framedprod.frontends import (
    LAKE,
    NATION,
    LabelledMap,
    OnePlaneDrawing,
    map_graph_edges,
    map_to_frame,
    oneplanar_to_frame,
    parse_labelled_map,
    parse_oneplanar,
    serialize_labelled_map,
    serialize_oneplanar,
)
from framedprod.generators import (
    gen_labelled_map,
    gen_oneplanar,
    gen_plane_triangulation,
)
from framedprod.verify import rebuild_closure
from treewidth import construction_bags, derived_bags

# sha256 digests of map_to_frame's frame and of its certificate, recorded
# from the frontend that re-traced the map, its dual and the frame at every
# step; a certificate's digest is of that text with each p line's id, kind
# and creator tokens dropped, after checking that the line's position, the
# genus and its largest attachment state them, then with each leg of 3 or
# more vertices written as its top and bottom vertex, after checking that
# the full-path text of the same partition gave the earlier digest, then
# with each leg written as its bottom vertex and the "|" separators dropped,
# after checking that the two-ends text of the same partition gave the
# earlier digest, then with each p line's attachments cut to its extras,
# those the closure does not join to the part, after checking that the
# verifier's derived neighbours plus the extras give the earlier
# attachments, then with each p line written as its legs, absorbed set and
# extras with ";" between them and no tags, after checking that the tagged
# text parses to the same parts and width
GOLDEN = json.loads((Path(__file__).parent / "golden_frontends.json")
                    .read_text())
# sha256 digests of oneplanar_to_frame's frame and of its certificate at
# d = 4, recorded before the frontend's rotation edits moved to embedding;
# thin_60_2's certificate was re-recorded as above when its leg of 3
# vertices came to be written as its two ends, and every certificate when
# each leg came to be written as its bottom vertex alone, and again, as
# above, when each p line came to state only its extras (adjacent's single
# part has none, so its digest stands), and every certificate again when
# the p lines lost their tags, as above
GOLDEN_ONEPLANE = json.loads((Path(__file__).parent / "golden_oneplanar.json")
                             .read_text())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def two_face_map():
    """Parallel edges bounding a 2-face, plus an outer 2-face."""
    E = EmbeddedMultigraph(2, [(0, 1, 1), (0, 1, 1)], [[0, 2], [3, 1]])
    return LabelledMap(G0=E, labels=[NATION, LAKE])


def repeated_vertex_map():
    """Two triangles glued at vertex 0; the outer walk repeats it."""
    E = from_face_list([[0, 1, 2], [0, 3, 4], [0, 2, 1, 0, 4, 3]])
    labels = [NATION if len(w) == 3 else LAKE
              for w in trace_faces(E).vertex_walks(E)]
    return LabelledMap(G0=E, labels=labels)


def lake_triangle_map():
    """A nation triangle in a lake; its degree-2 corners stellate the lake."""
    E = from_face_list([[0, 1, 2], [2, 1, 0]])
    return LabelledMap(G0=E, labels=[NATION, LAKE])


REPAIR_FIXTURES = {"two_face": two_face_map,
                   "repeated_vertex": repeated_vertex_map,
                   "lake_triangle": lake_triangle_map}


def k5_oneplane():
    """K5 drawn with one crossing; vertex 5 is the crossing dummy."""
    P = from_face_list([[0, 1, 4], [0, 4, 2], [1, 5, 4], [4, 5, 2],
                        [0, 2, 3], [0, 3, 1], [5, 1, 3], [5, 3, 2]])
    quad = _crossing_record(P, 5, ((4, 3), (1, 2)))
    return OnePlaneDrawing(P=P, crossings=[(5, quad)])


def k6_oneplane():
    """K6 drawn with three crossings (dummies 6, 7, 8)."""
    P = from_face_list([
        [0, 2, 3], [5, 1, 4],
        [0, 1, 6], [0, 6, 2], [5, 2, 6], [5, 6, 1],
        [0, 7, 1], [7, 4, 1], [0, 3, 7], [3, 4, 7],
        [5, 8, 2], [8, 3, 2], [5, 4, 8], [4, 3, 8],
    ])
    crossings = [(6, _crossing_record(P, 6, ((0, 5), (1, 2)))),
                 (7, _crossing_record(P, 7, ((0, 4), (1, 3)))),
                 (8, _crossing_record(P, 8, ((5, 3), (2, 4))))]
    return OnePlaneDrawing(P=P, crossings=crossings)


def adjacent_crossing_oneplane():
    """Two drawn edges that share vertex 0 crossing at dummy 4."""
    P = from_face_list([[0, 1, 4], [4, 1, 2], [0, 4, 3], [4, 2, 3],
                        [1, 0, 3, 2]])
    return OnePlaneDrawing(P=P, crossings=[(4, [dd >> 1 for dd in P.rot[4]])])


def thinned_oneplane(n, seed):
    """``gen_oneplanar(n, seed)`` without every fourth real-real edge, in id
    order.  The merged faces carry dummies and some have five or more
    corners, so the augmentation cuts ears both at dummies and at the
    smallest corner."""
    D = gen_oneplanar(n, seed)
    dummies = {c for c, _ in D.crossings}
    real = [e for e, (u, v, _) in enumerate(D.P.edges)
            if u not in dummies and v not in dummies]
    dead = set(real[::4])
    new_id = {}
    for e in range(D.P.m):
        if e not in dead:
            new_id[e] = len(new_id)
    edges = [D.P.edges[e] for e in new_id]
    rot = [[2 * new_id[x >> 1] + (x & 1) for x in r if x >> 1 in new_id]
           for r in D.P.rot]
    crossings = [(c, [new_id[e] for e in quad]) for c, quad in D.crossings]
    return OnePlaneDrawing(P=EmbeddedMultigraph(D.P.n, edges, rot),
                           crossings=crossings)


def golden_drawing(key):
    """The drawing named by a GOLDEN_ONEPLANE key: a fixture,
    ``gen_<n>_<seed>`` or ``thin_<n>_<seed>``."""
    fixtures = {"k5": k5_oneplane, "k6": k6_oneplane,
                "adjacent": adjacent_crossing_oneplane}
    if key in fixtures:
        return fixtures[key]()
    kind, n, seed = key.split("_")
    make = gen_oneplanar if kind == "gen" else thinned_oneplane
    return make(int(n), int(seed))


def _crossing_record(P, c, originals):
    """Edge record at dummy c, rotation order, opposite pairs checked."""
    rot_edges = [dd >> 1 for dd in P.rot[c]]
    if len(rot_edges) != 4:
        raise ValueError(f"dummy {c} is not degree 4")
    far = [P.edges[e][0] if P.edges[e][1] == c else P.edges[e][1]
           for e in rot_edges]
    for a, b in originals:
        ia, ib = far.index(a), far.index(b)
        if (ia - ib) % 4 != 2:
            raise ValueError(f"halves of {a}-{b} are not opposite at {c}")
    return rot_edges


def golden_map(key):
    """The labelled map and d named by a GOLDEN key: ``<fixture>_d<d>`` or
    ``gen_<n>_<d>_<seed>`` for gen_labelled_map."""
    if key.startswith("gen_"):
        n, d, seed = map(int, key.split("_")[1:])
        return gen_labelled_map(n, d, seed), d
    name, d = key.rsplit("_d", 1)
    return REPAIR_FIXTURES[name](), int(d)


class TestMapGraphs:
    def test_single_nation_triangle(self):
        E = from_face_list([[0, 1, 2], [2, 1, 0]])
        LM = LabelledMap(G0=E, labels=[NATION, LAKE])
        res = map_to_frame(LM, 3)
        assert res.map_edges == []
        assert len(res.nation_vertex) == 1

    def test_two_nations_sharing_edge(self):
        # two triangles sharing an edge, inside a 4-gon sphere drawing
        E = from_face_list([[0, 1, 2], [0, 2, 3], [0, 3, 1], [3, 2, 1]])
        LM = LabelledMap(G0=E, labels=[NATION, NATION, LAKE, LAKE])
        res = map_to_frame(LM, 3)
        assert res.map_edges == [(0, 1)]
        closure = rebuild_closure(res.frame, 3)
        a, b = res.nation_vertex[0], res.nation_vertex[1]
        assert b in closure[a]

    def test_hexagonal_nations_d6(self):
        LM = gen_labelled_map(40, 6, 8)
        res = map_to_frame(LM, 6)
        closure = rebuild_closure(res.frame, 6)
        for a, b in res.map_edges:
            assert res.nation_vertex[b] in closure[res.nation_vertex[a]]

    def test_exceeding_nation_budget_rejected(self):
        E = gen_plane_triangulation(20, 3)
        LM = LabelledMap(G0=E, labels=[NATION] * trace_faces(E).f)
        with pytest.raises(DomainError):
            map_to_frame(LM, 3)

    def test_two_face_repair(self):
        # parallel edges bounding a 2-face, plus an outer 2-face
        E = EmbeddedMultigraph(2, [(0, 1, 1), (0, 1, 1)],
                               [[0, 2], [3, 1]])
        fs = trace_faces(E)
        assert sorted(len(w) for w in fs.faces) == [2, 2]
        LM = LabelledMap(G0=E, labels=[NATION, LAKE])
        res = map_to_frame(LM, 3)
        ffs = trace_faces(res.frame)
        assert all(ffs.is_disk_cycle(res.frame, i) for i in range(ffs.f))

    def test_repeated_vertex_repair(self):
        # a triangle with a pendant-ish chord: face walk repeats a vertex.
        # build: triangle 0,1,2 with vertex 3 joined to 0 and 1 inside.
        E = from_face_list([[0, 1, 2], [1, 0, 3], [0, 2, 1, 3]])
        walks = trace_faces(E).vertex_walks(E)
        assert any(len(set(w)) != len(w) for w in walks) is False
        # the above is already clean; force a repeat with a bridge-free
        # multigraph: two triangles glued at a single vertex cannot be
        # expressed as a rotation embedding without a repeated-vertex face
        E2 = from_face_list([[0, 1, 2], [0, 3, 4], [0, 2, 1, 0, 4, 3]])
        walks2 = trace_faces(E2).vertex_walks(E2)
        assert any(len(set(w)) != len(w) for w in walks2)
        LM = LabelledMap(G0=E2, labels=None)
        fs = trace_faces(E2)
        labels = []
        for w in fs.vertex_walks(E2):
            labels.append(NATION if len(w) == 3 else LAKE)
        LM = LabelledMap(G0=E2, labels=labels)
        res = map_to_frame(LM, 4)
        ffs = trace_faces(res.frame)
        assert all(ffs.is_disk_cycle(res.frame, i) for i in range(ffs.f))
        # the two nations share vertex 0: M must have that edge
        assert len(res.map_edges) == 1

    def test_map_edges_subset_of_closure_sweep(self):
        for seed in range(8):
            LM = gen_labelled_map(30, 5, seed)
            res = map_to_frame(LM, 5)
            closure = rebuild_closure(res.frame, 5)
            for a, b in res.map_edges:
                assert res.nation_vertex[b] in closure[res.nation_vertex[a]]

    def test_repairs_preserve_the_map_graph(self):
        # the repaired map's graph equals the input's under nation origins
        E = EmbeddedMultigraph(2, [(0, 1, 1), (0, 1, 1)], [[0, 2], [3, 1]])
        LM = LabelledMap(G0=E, labels=[NATION, LAKE])
        before = map_graph_edges(LM)
        res = map_to_frame(LM, 3)
        renamed = sorted(
            (min(res.nation_origin[a], res.nation_origin[b]),
             max(res.nation_origin[a], res.nation_origin[b]))
            for a, b in res.map_edges)
        assert renamed == before
        for seed in range(6):
            LM = gen_labelled_map(25, 5, seed)
            before = map_graph_edges(LM)
            res = map_to_frame(LM, 5)
            renamed = sorted(
                (min(res.nation_origin[a], res.nation_origin[b]),
                 max(res.nation_origin[a], res.nation_origin[b]))
                for a, b in res.map_edges)
            assert renamed == before
            assert sorted(res.nation_origin.values()) == sorted(
                fi for fi, lab in enumerate(LM.labels) if lab == NATION)

    def test_chained_decomposition(self):
        LM = gen_labelled_map(50, 6, 2)
        res = map_to_frame(LM, 6)
        cert = decompose(res.frame, 6)
        assert cert.ell <= max(2 * cert.genus * 3, 6 + 9 - 3)

    def test_format_roundtrip(self):
        LM = gen_labelled_map(25, 4, 4)
        text = serialize_labelled_map(LM)
        back = parse_labelled_map(text)
        assert back.labels == LM.labels
        assert back.G0.edges == LM.G0.edges


class TestMapFrameDigests:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_frame_and_certificate(self, key):
        LM, d = golden_map(key)
        frame = map_to_frame(LM, d).frame
        cert = decompose(frame, d)
        got = [_sha(serialize_embedding(frame)),
               _sha(serialize_certificate(cert))]
        assert got == GOLDEN[key]
        assert derived_bags(frame, cert) == construction_bags(frame, d)

    @pytest.mark.parametrize("name,repair", [
        ("two_face", "_stellate_face"),
        ("repeated_vertex", "_cut_triangle_at"),
        ("lake_triangle", "_stellate_face")])
    def test_fixture_runs_its_repair(self, monkeypatch, name, repair):
        calls = []
        original = getattr(frontends, repair)

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(frontends, repair, counted)
        map_to_frame(REPAIR_FIXTURES[name](), 4)
        assert calls

    def test_traces_map_dual_and_frame_once(self, count_traces):
        LM = gen_labelled_map(60, 5, 1)
        traced = count_traces()
        res = map_to_frame(LM, 5)
        assert len(traced) == 3
        assert len({id(G) for G in traced}) == 3
        assert traced[0] is LM.G0
        assert traced[-1] is res.frame


class TestLabelledMapParser:
    """``f <id> nation|lake`` lines: ids 0..k-1, each once; k = #faces."""

    @staticmethod
    def text(*label_lines):
        emb = serialize_labelled_map(lake_triangle_map()).split("f 0 ")[0]
        return emb + "".join(ln + "\n" for ln in label_lines)

    def test_parses_without_tracing(self, count_traces):
        traced = count_traces()
        LM = parse_labelled_map(self.text("f 1 lake", "f 0 nation"))
        assert LM.labels == [NATION, LAKE]
        assert traced == []

    @pytest.mark.parametrize("lines,msg", [
        (("f 0 nation", "f 1"), "bad face label line"),
        (("f 0 nation", "f 1 lake extra"), "bad face label line"),
        (("f 0 nation", "f 1 ocean"), "bad face label line"),
        (("f 0 nation", "f one lake"), "bad face id"),
        (("f 0 nation", "f 0 lake"), "duplicate label for face 0"),
        (("f 0 nation", "f 2 lake"), r"face ids must be 0\.\.1"),
        (("f -1 nation", "f 0 lake"), r"face ids must be 0\.\.1"),
    ])
    def test_bad_label_lines_rejected(self, lines, msg):
        with pytest.raises(FormatError, match=msg):
            parse_labelled_map(self.text(*lines))

    @pytest.mark.parametrize("lines", [
        (), ("f 0 nation",), ("f 0 nation", "f 1 lake", "f 2 lake")])
    def test_label_count_checked_against_the_faces(self, lines):
        LM = parse_labelled_map(self.text(*lines))
        with pytest.raises(FormatError, match=f"{len(lines)} labels for 2 "
                                              "faces"):
            map_to_frame(LM, 4)

    @pytest.mark.parametrize("face_id", ["+1", "0_1", "\u0661"],
                             ids=["plus", "underscore", "arabic-indic-digit"])
    def test_only_plain_decimal_face_ids(self, face_id):
        # int() reads each of these as 1
        line = f"f {face_id} lake"
        with pytest.raises(FormatError, match=re.escape(line)):
            parse_labelled_map(self.text("f 0 nation", line))

    def test_comments_may_hold_any_character(self):
        LM = parse_labelled_map(
            self.text("f 0 nation  # \u00e9t\u00e9 +1 0_1", "f 1 lake"))
        assert LM.labels == [NATION, LAKE]

    def test_tab_separated_tokens(self):
        LM = gen_labelled_map(12, 5, 1)
        back = parse_labelled_map(
            serialize_labelled_map(LM).replace(" ", "\t"))
        assert back.labels == LM.labels
        assert (back.G0.edges, back.G0.rot) == (LM.G0.edges, LM.G0.rot)

    def test_glued_tag_rejected(self):
        with pytest.raises(FormatError, match="unknown line: f0 lake"):
            parse_labelled_map(self.text("f0 lake", "f 1 nation"))

    def test_cli_map_rejects_a_count_mismatch(self, tmp_path, capsys):
        from framedprod.cli import run
        path = tmp_path / "m.map"
        path.write_text(self.text("f 0 nation"))
        assert run(["map", "--in", str(path), "--d", "4"]) == 1
        assert "1 labels for 2 faces" in capsys.readouterr().err


class TestOnePlanar:
    def test_plane_graph_trivial(self):
        # zero crossings: the frame is a triangulation containing G
        E = gen_plane_triangulation(12, 1)
        D = OnePlaneDrawing(P=E, crossings=[])
        res = oneplanar_to_frame(D)
        closure = rebuild_closure(res.frame, 4)
        for a, b in res.original_edges:
            assert b in closure[a]

    def test_k5(self):
        D = k5_oneplane()
        res = oneplanar_to_frame(D)
        assert len(res.original_edges) == 10
        fs = trace_faces(res.frame)
        lens = sorted(len(w) for w in fs.faces)
        assert set(lens) <= {3, 4}
        assert lens.count(4) == 1
        closure = rebuild_closure(res.frame, 4)
        for a, b in res.original_edges:
            assert b in closure[a]

    def test_k6_all_fifteen_edges(self):
        D = k6_oneplane()
        res = oneplanar_to_frame(D)
        assert len(res.original_edges) == 15
        closure = rebuild_closure(res.frame, 4)
        for a, b in res.original_edges:
            assert b in closure[a]
        fs = trace_faces(res.frame)
        assert sorted(len(w) for w in fs.faces).count(4) == 3

    def test_chained_bound(self):
        for D in (k5_oneplane(), k6_oneplane()):
            res = oneplanar_to_frame(D)
            cert = decompose(res.frame, 4)
            assert cert.genus == 0
            assert cert.ell <= 7

    def test_seeded_corpus(self):
        for seed in range(10):
            D = gen_oneplanar(30, seed)
            res = oneplanar_to_frame(D)
            closure = rebuild_closure(res.frame, 4)
            for a, b in res.original_edges:
                assert b in closure[a]
            cert = decompose(res.frame, 4)
            assert cert.ell <= 7

    def test_double_crossing_rejected(self):
        D = gen_oneplanar(20, 1)
        if len(D.crossings) >= 2:
            # splice a dummy-dummy edge illegally
            c1, q1 = D.crossings[0]
            u, v, _ = D.P.edges[q1[0]]
            far = u if v == c1 else v
            bad_edges = list(D.P.edges)
            bad_edges[q1[0]] = (c1, D.crossings[1][0], 1)
            E = EmbeddedMultigraph(D.P.n, bad_edges, D.P.rot, validate=False)
            bad = OnePlaneDrawing(P=E, crossings=D.crossings)
            with pytest.raises((DomainError, Exception)):
                bad.validate()

    def test_adjacent_crossing_normalized(self):
        # two edges sharing vertex 0 drawn crossing: local fix removes it
        D = adjacent_crossing_oneplane()
        P, (c, rot_edges) = D.P, D.crossings[0]
        far = [P.edges[e][0] if P.edges[e][1] == c else P.edges[e][1]
               for e in rot_edges]
        # pairs must be opposite: (far[0], far[2]) and (far[1], far[3])
        pairs = {tuple(sorted((far[0], far[2]))), tuple(sorted((far[1], far[3])))}
        assert any(0 in p for p in pairs)
        res = oneplanar_to_frame(D)
        closure = rebuild_closure(res.frame, 4)
        for a, b in res.original_edges:
            assert b in closure[a]

    def test_format_roundtrip(self):
        D = gen_oneplanar(25, 6)
        text = serialize_oneplanar(D)
        back = parse_oneplanar(text)
        assert back.crossings == D.crossings
        assert back.P.edges == D.P.edges

    def test_tab_separated_tokens(self):
        D = gen_oneplanar(30, 0)
        back = parse_oneplanar(serialize_oneplanar(D).replace(" ", "\t"))
        assert back.crossings == D.crossings
        assert (back.P.edges, back.P.rot) == (D.P.edges, D.P.rot)

    def test_glued_tag_rejected(self):
        text = serialize_oneplanar(gen_oneplanar(12, 1)).replace("\nx ", "\nx")
        with pytest.raises(FormatError, match="unknown line: x"):
            parse_oneplanar(text)

    @pytest.mark.parametrize("edit,msg", [
        (lambda t: t[:1] + ["a"] + t[2:], "non-integer token"),   # dummy id
        (lambda t: t[:3] + ["zz"] + t[4:], "non-integer token"),  # edge id
        (lambda t: t[:4], "bad crossing line"),                   # too short
    ])
    def test_bad_crossing_line_is_a_format_error(self, edit, msg):
        lines = serialize_oneplanar(gen_oneplanar(12, 1)).splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("x "))
        lines[i] = " ".join(edit(lines[i].split()))
        with pytest.raises(FormatError, match=msg):
            parse_oneplanar("\n".join(lines) + "\n")

    @pytest.mark.parametrize("at", [1, 2, 5], ids=["dummy", "first-edge",
                                                   "last-edge"])
    @pytest.mark.parametrize("form", ["+{}", "0_{}", "{}\u0661"],
                             ids=["plus", "underscore", "arabic-indic-digit"])
    def test_only_plain_decimal_crossing_ids(self, at, form):
        # "+7" and "0_7" read as 7 by int(), and "7\u0661" as 71
        lines = serialize_oneplanar(gen_oneplanar(12, 1)).splitlines()
        i = next(i for i, ln in enumerate(lines) if ln.startswith("x "))
        toks = lines[i].split()
        toks[at] = form.format(toks[at])
        lines[i] = " ".join(toks)
        with pytest.raises(FormatError, match=re.escape(lines[i])):
            parse_oneplanar("\n".join(lines) + "\n")


class TestOnePlaneFrameDigests:
    @pytest.mark.parametrize("key", sorted(GOLDEN_ONEPLANE))
    def test_frame_and_certificate(self, key):
        frame = oneplanar_to_frame(golden_drawing(key)).frame
        cert = decompose(frame, 4)
        got = [_sha(serialize_embedding(frame)),
               _sha(serialize_certificate(cert))]
        assert got == GOLDEN_ONEPLANE[key]
        assert derived_bags(frame, cert) == construction_bags(frame, 4)
