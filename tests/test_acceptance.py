"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from framedprod.assemble import decompose, serialize_certificate, width_bound
from framedprod.cut import build_Z, cut_along
from framedprod.embedding import bfs_structure, euler_genus, trace_faces
from framedprod.frontends import map_to_frame, oneplanar_to_frame
from framedprod.generators import (
    SplitMix64,
    gen_framed,
    gen_labelled_map,
    gen_oneplanar,
    gen_plane_triangulation,
    gen_toroidal_grid,
    triangulate_quads,
)
from framedprod.verify import rebuild_closure, verify_certificate
from test_frontends import k5_oneplane, k6_oneplane
from test_verify import tampered
from treewidth import (
    derived_bags,
    exact_treewidth,
    nx_planar,
    stated_decomposition,
)

SMALL_H = []          # (H's bags, label) with at most 12 H-nodes, criterion 6


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_planar_triangulations():
    t0 = time.monotonic()
    sizes = [10 + (i * 1990) // 199 for i in range(200)]
    worst = 0
    oracle = 0.0          # networkx's share, left out of the time budget
    for i, n in enumerate(sizes):
        E = gen_plane_triangulation(n, i)
        cert = decompose(E, 3, self_verify=False)
        fails = verify_certificate(E, cert)
        assert fails == [], (n, i, fails[:3])
        assert cert.ell <= 3
        h_edges, bags, _ = stated_decomposition(derived_bags(E, cert))
        t = time.monotonic()
        assert nx_planar(cert.num_parts, h_edges)
        oracle += time.monotonic() - t
        assert max(len(b) for b in bags) <= 4
        worst = max(worst, cert.ell)
        if cert.num_parts <= 12:
            SMALL_H.append((derived_bags(E, cert), f"tri{n}s{i}"))
    elapsed = time.monotonic() - t0 - oracle
    report(1, elapsed <= 60.0,
           f"200 plane triangulations, worst ell={worst} <= 3, "
           f"{elapsed:.1f}s <= 60s (networkx {oracle:.1f}s aside)")


def test_criterion_2_toroidal_grids():
    t0 = time.monotonic()
    checked = 0
    for m in range(3, 11):
        for n in range(3, 11):
            E = gen_toroidal_grid(m, n)
            fs = trace_faces(E)
            T = bfs_structure(E, 0)
            g = euler_genus(E, fs)
            C = build_Z(E, T, fs)
            R, _ = cut_along(E, C, fs)
            assert C.q == C.p - 1 + g
            assert R.Gt.n == E.n + C.p - 2 + 2 * g
            assert R.Gt.m == E.m + C.p - 1 + g
            fs2 = trace_faces(R.Gt)
            assert fs2.f == fs.f + 1                  # s = 1
            assert euler_genus(R.Gt, fs2) == 0        # g' = 0
            assert len(C.paths) <= 2 * g
            assert sorted(R.cf_cycle) == R.zprime

            cert4 = decompose(E, 4, self_verify=False)
            assert verify_certificate(E, cert4) == []
            assert cert4.ell <= 8

            E3 = triangulate_quads(E)
            cert3 = decompose(E3, 3, self_verify=False)
            assert verify_certificate(E3, cert3) == []
            assert cert3.ell <= max(2 * g, 3)
            checked += 1
    elapsed = time.monotonic() - t0
    report(2, True,
           f"{checked} toroidal grids, both routes, cut invariants hold, "
           f"{elapsed:.1f}s")


def test_criterion_3_framed_sweep():
    t0 = time.monotonic()
    combos = [(d, g) for d in (3, 4, 5, 6) for g in (0, 2)]
    count = 0
    for i in range(100):
        d, g = combos[i % len(combos)]
        n = 30 + (i * 7) % 90
        if g == 2 and d == 3:
            E = triangulate_quads(gen_toroidal_grid(3 + i % 6, 3 + i % 5))
        else:
            E = gen_framed(n, d, g, i)
        cert = decompose(E, d, self_verify=False)
        fails = verify_certificate(E, cert)
        assert fails == [], (d, g, i, fails[:3])
        assert cert.ell <= width_bound(cert.genus, d)
        if cert.num_parts <= 12:
            SMALL_H.append((derived_bags(E, cert),
                            f"framed d{d} g{g} s{i}"))
        count += 1
    elapsed = time.monotonic() - t0
    report(3, True, f"{count} framed instances over d in 3..6, g in {{0,2}}, "
                    f"containment edge-exhaustive, {elapsed:.1f}s")


def test_criterion_4_map_graphs():
    t0 = time.monotonic()
    for i in range(50):
        d = 3 + i % 6          # d <= 8
        n = 20 + (i * 3) % 60
        LM = gen_labelled_map(n, d, i)
        res = map_to_frame(LM, d)
        closure = rebuild_closure(res.frame, d)
        for a, b in res.map_edges:
            assert b in closure[a]
        cert = decompose(res.frame, d, self_verify=False)
        assert verify_certificate(res.frame, cert) == []
        assert cert.ell <= width_bound(cert.genus, d)
    elapsed = time.monotonic() - t0
    report(4, True, f"50 labelled maps, E(M) inside the closure, chained "
                    f"decompositions verify, {elapsed:.1f}s")


def test_criterion_5_oneplanar():
    t0 = time.monotonic()
    cases = [("K5", k5_oneplane()), ("K6", k6_oneplane())]
    for i in range(50):
        cases.append((f"seed{i}", gen_oneplanar(16 + (i * 5) % 60, i)))
    for label, D in cases:
        res = oneplanar_to_frame(D)
        closure = rebuild_closure(res.frame, 4)
        for a, b in res.original_edges:
            assert b in closure[a], (label, a, b)
        cert = decompose(res.frame, 4, self_verify=False)
        assert verify_certificate(res.frame, cert) == [], label
        assert cert.genus == 0
        assert cert.ell <= 7, (label, cert.ell)
    elapsed = time.monotonic() - t0
    report(5, True, f"K5, K6 and 50 seeded 1-plane drawings contained in "
                    f"4-closures, ell <= 7, {elapsed:.1f}s")


def test_criterion_6_oracles_and_tampering():
    t0 = time.monotonic()
    # small-H treewidth cross-checks; guarantee a decent corpus
    for n in range(4, 16):
        E = gen_plane_triangulation(n, n)
        cert = decompose(E, 3, self_verify=False)
        if cert.num_parts <= 12:
            SMALL_H.append((derived_bags(E, cert), f"small{n}"))
    assert len(SMALL_H) >= 10, "not enough small H graphs collected"
    for bags, label in SMALL_H:
        adj = [set() for _ in bags]
        for a, b in stated_decomposition(bags)[0]:
            adj[a].add(b)
            adj[b].add(a)
        tw = exact_treewidth(adj)
        assert tw <= 3, (label, tw)

    E = gen_plane_triangulation(60, 4)
    cert = decompose(E, 3, self_verify=False)
    assert verify_certificate(E, cert) == []
    rng = SplitMix64(2024)
    detected = 0
    for _ in range(1000):
        bad = tampered(cert, rng, E)
        if verify_certificate(E, bad):
            detected += 1
    elapsed = time.monotonic() - t0
    report(6, detected == 1000,
           f"{len(SMALL_H)} small H graphs have tw <= 3; {detected}/1000 "
           f"tamperings detected, {elapsed:.1f}s")


def test_criterion_7_determinism():
    outs = []
    for _ in range(2):
        batch = []
        E = gen_plane_triangulation(300, 9)
        batch.append(serialize_certificate(decompose(E, 3, self_verify=False)))
        T = gen_toroidal_grid(5, 6)
        batch.append(serialize_certificate(decompose(T, 4, self_verify=False)))
        res = map_to_frame(gen_labelled_map(40, 5, 5), 5)
        batch.append(serialize_certificate(
            decompose(res.frame, 5, self_verify=False)))
        res2 = oneplanar_to_frame(gen_oneplanar(40, 5))
        batch.append(serialize_certificate(
            decompose(res2.frame, 4, self_verify=False)))
        outs.append("\n".join(batch))
    report(7, outs[0] == outs[1], "byte-identical certificates on rerun "
                                  f"({len(outs[0])} bytes compared)")


def test_criterion_8_scale():
    t0 = time.monotonic()
    E = gen_plane_triangulation(100_000, 42)
    t1 = time.monotonic()
    cert = decompose(E, 3)          # includes the full self-verification
    elapsed = time.monotonic() - t1
    report(8, elapsed <= 120.0,
           f"decompose+verify on 100000 vertices in {elapsed:.1f}s <= 120s "
           f"(generation {t1 - t0:.1f}s, ell={cert.ell}, "
           f"parts={cert.num_parts})")
