import hashlib
import json
from pathlib import Path

import pytest

from framedprod.cli import run
from framedprod.embedding import (
    EmbeddedMultigraph,
    euler_genus,
    serialize_embedding,
    trace_faces,
)
from framedprod.errors import ContractViolation, DomainError
from framedprod.frame import check_frame
from framedprod.frontends import serialize_oneplanar
from framedprod.generators import (
    SplitMix64,
    _attempt_deletions,
    _LiveEdges,
    gen_framed,
    gen_labelled_map,
    gen_oneplanar,
    gen_plane_triangulation,
    gen_toroidal_grid,
    triangulate_quads,
)

# sha256 digests of generator output, recorded from the generator that
# renumbered edges and re-traced every face after each deletion
GOLDEN = json.loads((Path(__file__).parent / "golden_generators.json")
                    .read_text())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestSplitMix64:
    def test_reference_vectors(self):
        rng = SplitMix64(0)
        assert rng.next() == 0xE220A8397B1DCDAF
        assert rng.next() == 0x6E789E6AA1B965F4
        assert rng.next() == 0x06C45D188009454F

    def test_seed_determinism(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]


class TestToroidal:
    @pytest.mark.parametrize("mr,nc,f", [(3, 3, 9), (4, 4, 16), (3, 4, 12)])
    def test_counts_and_genus(self, mr, nc, f):
        E = gen_toroidal_grid(mr, nc)
        fs = trace_faces(E)
        assert E.n == mr * nc
        assert E.m == 2 * mr * nc
        assert fs.f == f
        assert all(len(w) == 4 for w in fs.faces)
        assert euler_genus(E, fs) == 2

    def test_all_faces_disk(self):
        E = gen_toroidal_grid(3, 5)
        check_frame(E, 4, trace_faces(E))

    def test_too_small(self):
        with pytest.raises(DomainError):
            gen_toroidal_grid(2, 5)


class TestPlaneTriangulation:
    def test_smallest(self):
        E = gen_plane_triangulation(3, 0)
        assert (E.n, E.m) == (3, 3)
        assert trace_faces(E).f == 2

    def test_k4(self):
        E = gen_plane_triangulation(4, 7)
        assert (E.n, E.m) == (4, 6)
        assert trace_faces(E).f == 4

    @pytest.mark.parametrize("n,seed", [(10, 1), (50, 2), (100, 3)])
    def test_euler_count(self, n, seed):
        E = gen_plane_triangulation(n, seed)
        assert E.m == 3 * n - 6
        fs = trace_faces(E)
        assert all(len(w) == 3 for w in fs.faces)
        assert euler_genus(E, fs) == 0
        check_frame(E, 3, fs)

    def test_deterministic(self):
        a = gen_plane_triangulation(40, 99)
        b = gen_plane_triangulation(40, 99)
        assert a.edges == b.edges and a.rot == b.rot


class TestTriangulateQuads:
    def test_toroidal_becomes_triangulation(self):
        E = triangulate_quads(gen_toroidal_grid(3, 3))
        fs = trace_faces(E)
        assert all(len(w) == 3 for w in fs.faces)
        assert euler_genus(E, fs) == 2


class TestGenFramed:
    def test_d3_planar_passthrough(self):
        E = gen_framed(30, 3, 0, 5)
        fs = trace_faces(E)
        assert all(len(w) == 3 for w in fs.faces)
        assert euler_genus(E, fs) == 0

    def test_d4_toroidal_identity(self):
        E = gen_framed(9, 4, 2, 5)
        fs = trace_faces(E)
        assert all(len(w) == 4 for w in fs.faces)
        assert euler_genus(E, fs) == 2

    @pytest.mark.parametrize("d,g", [(4, 0), (5, 0), (6, 0), (6, 2)])
    def test_face_spectrum(self, d, g):
        E = gen_framed(60, d, g, 11)
        fs = trace_faces(E)
        lens = {len(w) for w in fs.faces}
        assert lens <= set(range(3, d + 1))
        check_frame(E, d, fs)
        assert euler_genus(E, fs) == g

    def test_deletions_happen(self):
        E = gen_framed(60, 6, 0, 11)
        assert E.m < 3 * 60 - 6

    def test_signed_start_rejected(self):
        G = gen_toroidal_grid(3, 3)
        edges = [(u, v, -1 if i == 0 else s)
                 for i, (u, v, s) in enumerate(G.edges)]
        with pytest.raises(ContractViolation):
            _attempt_deletions(EmbeddedMultigraph(G.n, edges, G.rot), 6,
                               SplitMix64(0))



class TestGenLabelledMap:
    @pytest.mark.parametrize("d", [2, 0, -3])
    def test_d_below_3_rejected(self, d):
        # a budget below 3 once fell back to a one-nation map
        with pytest.raises(DomainError, match="d must be >= 3"):
            gen_labelled_map(30, d, 1)


class TestGoldenDigests:
    @pytest.mark.parametrize("key", sorted(GOLDEN["framed"]))
    def test_framed(self, key):
        n, d, g = map(int, key.split(","))
        got = [_sha(serialize_embedding(gen_framed(n, d, g, seed)))
               for seed in range(3)]
        assert got == GOLDEN["framed"][key]

    @pytest.mark.parametrize("n", sorted(GOLDEN["oneplanar"], key=int))
    def test_oneplanar(self, n):
        got = [_sha(serialize_oneplanar(gen_oneplanar(int(n), seed)))
               for seed in range(3)]
        assert got == GOLDEN["oneplanar"][n]

    def test_cli_gen_framed(self, capsys):
        assert run(["gen", "--family", "framed", "--params", "200,6,2",
                    "--seed", "4"]) == 0
        assert (_sha(capsys.readouterr().out)
                == GOLDEN["cli_gen_framed_200_6_2_seed_4"])


class TestLiveEdges:
    @pytest.mark.parametrize("m,seed", [(1, 0), (2, 1), (7, 2), (64, 3),
                                        (100, 4), (1000, 5)])
    def test_kth_matches_plain_list(self, m, seed):
        rng = SplitMix64(seed)
        live = _LiveEdges(m)
        ref = list(range(m))
        while ref:
            assert live.count == len(ref)
            for k in range(len(ref)):
                assert live.kth(k) == ref[k]
            e = ref.pop(rng.below(len(ref)))
            live.kill(e)
            assert not live.alive[e]
        assert live.count == 0 and not any(live.alive)

    def test_out_of_range_rank(self):
        live = _LiveEdges(3)
        live.kill(1)
        with pytest.raises(ValueError):
            live.kth(2)
        with pytest.raises(ValueError):
            live.kth(-1)
