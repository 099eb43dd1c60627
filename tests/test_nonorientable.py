"""End-to-end runs on non-orientable frames (signatures in play)."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framedprod.assemble import decompose, serialize_certificate
from framedprod.embedding import (
    EmbeddedMultigraph,
    euler_genus,
    normalize_signs,
    trace_faces,
)
from framedprod.frame import check_frame
from framedprod.generators import (
    gen_framed,
    gen_plane_triangulation,
    triangulate_quads,
)
from framedprod.verify import verify_certificate


def projective_k4():
    edges = [(0, 1, 1), (0, 2, -1), (0, 3, 1), (1, 2, 1), (1, 3, -1),
             (2, 3, 1)]
    rot = [[0, 2, 4], [1, 6, 8], [3, 7, 10], [5, 9, 11]]
    return EmbeddedMultigraph(4, edges, rot)


def klein_grid(s):
    """s*s quadrangulation of the Klein bottle: one wrap is reflected."""
    edges = []
    right = {}
    down = {}
    for i in range(s):
        for j in range(s):
            v = i * s + j
            right[v] = len(edges)
            edges.append((v, i * s + (j + 1) % s, 1))
    for i in range(s):
        for j in range(s):
            v = i * s + j
            down[v] = len(edges)
            if i < s - 1:
                edges.append((v, (i + 1) * s + j, 1))
            else:
                edges.append((v, (s - j) % s, -1))
    rot = []
    for i in range(s):
        for j in range(s):
            if i > 0:
                north = 2 * down[(i - 1) * s + j] + 1
            else:
                north = 2 * down[(s - 1) * s + (s - j) % s] + 1
            rot.append([north, 2 * right[i * s + j], 2 * down[i * s + j],
                        2 * right[i * s + (j - 1) % s] + 1])
    return EmbeddedMultigraph(s * s, edges, rot)


def signed(E, picked):
    """The same surface with the rotations of the vertices in ``picked``
    reversed and the signature of every edge with one end in it flipped."""
    edges = [(u, v, -s if (u in picked) != (v in picked) else s)
             for u, v, s in E.edges]
    rot = [r[::-1] if v in picked else list(r) for v, r in enumerate(E.rot)]
    return EmbeddedMultigraph(E.n, edges, rot, root=E.root)


def signed_sphere(kind, n, d, seed, frac):
    """A plane frame, a triangulation or a ``gen_framed`` frame with faces
    up to ``d`` long, with about ``frac`` of its vertices flipped by
    ``signed``."""
    E = (gen_plane_triangulation(n, seed) if kind == "tri"
         else gen_framed(n, d, 0, seed))
    rng = random.Random(seed)
    return signed(E, {v for v in range(E.n) if rng.random() < frac})


class TestSignedSphere:
    """A plane frame with -1 signatures is the sphere all the same; its
    certificate is that of its normalized twin, and verifies against it."""

    @given(st.sampled_from(["tri", "framed"]), st.integers(20, 80),
           st.integers(3, 6), st.integers(3, 6), st.integers(0, 10 ** 6),
           st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_certificate_is_the_normalized_twins(self, kind, n, d_frame, d,
                                                 seed, frac):
        # a frame's faces longer than d are fanned
        F = signed_sphere(kind, n, d_frame, seed, frac)
        assume(any(s == -1 for _, _, s in F.edges))
        cert = decompose(F, d)
        assert verify_certificate(F, cert) == []
        assert cert.genus == 0 and cert.ell <= cert.bound
        assert serialize_certificate(cert) == serialize_certificate(
            decompose(normalize_signs(F), d))

    def test_first_reported_frame(self):
        # the boundary walk of the tripod stage, fed faces traced from the
        # signed scheme, did not close on this frame
        E = gen_plane_triangulation(60, 3)
        F = signed(E, set(random.Random(1).sample(range(E.n), 18)))
        assert verify_certificate(F, decompose(F, 3)) == []


class TestProjectivePlane:
    def test_k4_three_quad_faces(self):
        E = projective_k4()
        fs = trace_faces(E)
        assert fs.f == 3
        assert all(len(w) == 4 for w in fs.faces)
        assert euler_genus(E, fs) == 1

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_decompose_verifies(self, d):
        E = projective_k4()
        cert = decompose(E, d, self_verify=False)
        assert verify_certificate(E, cert) == []
        assert cert.genus == 1
        assert cert.ell <= cert.bound


class TestKleinBottle:
    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_grid_is_klein(self, s):
        E = klein_grid(s)
        fs = trace_faces(E)
        assert fs.f == s * s
        assert all(len(w) == 4 for w in fs.faces)
        check_frame(E, 4, fs)
        assert euler_genus(E, fs) == 2

    @pytest.mark.parametrize("s,d", [(3, 4), (4, 4), (5, 4)])
    def test_decompose_d4(self, s, d):
        E = klein_grid(s)
        cert = decompose(E, d, self_verify=False)
        assert verify_certificate(E, cert) == []
        assert cert.genus == 2
        assert cert.ell <= 8

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_decompose_d3_after_triangulation(self, s):
        E = triangulate_quads(klein_grid(s))
        assert euler_genus(E) == 2
        cert = decompose(E, 3, self_verify=False)
        assert verify_certificate(E, cert) == []
        assert cert.ell <= 4          # max{2g, 3} with g = 2
