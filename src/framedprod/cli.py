"""Command-line interface: generate, decompose, verify, reduce, inspect."""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor

from .assemble import (
    decompose,
    parse_certificate,
    serialize_certificate,
    width_bound,
)
from .embedding import euler_genus, parse_embedding, serialize_embedding, trace_faces
from .errors import ContractViolation, DomainError, FormatError
from .frontends import (
    map_to_frame,
    oneplanar_to_frame,
    parse_labelled_map,
    parse_oneplanar,
    serialize_labelled_map,
    serialize_oneplanar,
)
from .generators import (
    gen_framed,
    gen_labelled_map,
    gen_oneplanar,
    gen_plane_triangulation,
    gen_toroidal_grid,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONTRACT = 2


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    if path == "-" or path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _decompose_one(args_tuple):
    path, d, out, svg = args_tuple
    E = parse_embedding(_read(path))
    cert = decompose(E, d)
    _write(out, serialize_certificate(cert))
    if svg:
        _write(svg, render_svg(cert))
    return cert


def _summary(cert):
    return (f"n={cert.n} genus={cert.genus} parts={cert.num_parts} "
            f"ell={cert.ell} bound={cert.bound}")


def _decompose_status(job):
    """One input of a batch: (exit code, status line); never raises for a
    bad input, so the batch goes on to the next."""
    path = job[0]
    try:
        return EXIT_OK, f"ok {path} {_summary(_decompose_one(job))}"
    except (FormatError, DomainError, OSError, ValueError) as ex:
        return EXIT_PARSE, f"error {path}: {ex}"
    except ContractViolation as ex:
        return EXIT_CONTRACT, f"error {path}: contract violation: {ex}"


def cmd_decompose(args):
    ins = args.inputs
    if len(ins) == 1:
        cert = _decompose_one((ins[0], args.d, args.out, args.svg))
        print(f"ok {_summary(cert)}", file=sys.stderr)
        return EXIT_OK
    if args.out != "-":
        print("error: several inputs write <input>.cert each; --out takes "
              "a single input", file=sys.stderr)
        return EXIT_PARSE
    if args.svg:
        print("error: --svg draws one H and takes a single input",
              file=sys.stderr)
        return EXIT_PARSE
    # every input is tried; the exit code is the worst of their codes
    jobs = [(path, args.d, path + ".cert", None) for path in ins]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as ex:
            results = list(ex.map(_decompose_status, jobs))
    else:
        results = map(_decompose_status, jobs)
    worst = EXIT_OK
    for code, line in results:
        print(line, file=sys.stderr)
        worst = max(worst, code)
    return worst


def cmd_verify(args):
    from . import verify as V
    E = parse_embedding(_read(args.input))
    cert = parse_certificate(_read(args.cert))
    try:
        report = V.verify_certificate(E, cert)
    except Exception as ex:
        # a verifier fault still answers: a FAIL line, not a traceback
        report = [f"FAIL internal {type(ex).__name__}"]
    for line in report:
        print(line)
    if report:
        return EXIT_CONTRACT
    print(f"ok: certificate valid (ell={cert.ell}, bound={cert.bound})")
    return EXIT_OK


def cmd_gen(args):
    fam = args.family
    params = [int(x) for x in args.params.split(",")] if args.params else []
    if fam == "toroidal":
        m, n = params
        out = serialize_embedding(gen_toroidal_grid(m, n))
    elif fam == "tri":
        (n,) = params
        out = serialize_embedding(gen_plane_triangulation(n, args.seed))
    elif fam == "framed":
        n, d, g = params
        out = serialize_embedding(gen_framed(n, d, g, args.seed))
    elif fam == "map":
        n, d = params
        out = serialize_labelled_map(gen_labelled_map(n, d, args.seed))
    elif fam == "oneplanar":
        (n,) = params
        out = serialize_oneplanar(gen_oneplanar(n, args.seed))
    else:
        raise FormatError(f"unknown family {fam}")
    _write(args.out, out)
    return EXIT_OK


def cmd_map(args):
    LM = parse_labelled_map(_read(args.input))
    res = map_to_frame(LM, args.d)
    if args.decompose:
        cert = decompose(res.frame, args.d)
        _write(args.out, serialize_certificate(cert))
        print(f"ok map: nations={len(res.nation_vertex)} "
              f"m_edges={len(res.map_edges)} ell={cert.ell} "
              f"bound={cert.bound}", file=sys.stderr)
    else:
        _write(args.out, serialize_embedding(res.frame))
    return EXIT_OK


def cmd_oneplanar(args):
    D = parse_oneplanar(_read(args.input))
    res = oneplanar_to_frame(D)
    if args.decompose:
        cert = decompose(res.frame, 4)
        _write(args.out, serialize_certificate(cert))
        print(f"ok 1-planar: edges={len(res.original_edges)} ell={cert.ell} "
              f"bound={cert.bound}", file=sys.stderr)
    else:
        _write(args.out, serialize_embedding(res.frame))
    return EXIT_OK


def cmd_stats(args):
    if args.svg and args.d is None:
        print("error: --svg draws the H of a decomposition and needs --d",
              file=sys.stderr)
        return EXIT_PARSE
    E = parse_embedding(_read(args.input))
    fs = trace_faces(E)
    g = euler_genus(E, fs) if E.is_connected() else None
    lines = [f"n {E.n}", f"m {E.m}", f"f {fs.f}"]
    lines.append(f"genus {g}" if g is not None else "genus - (disconnected)")
    hist = {}
    for w in fs.faces:
        hist[len(w)] = hist.get(len(w), 0) + 1
    lines.append("faces " + " ".join(f"{k}:{hist[k]}"
                                     for k in sorted(hist)))
    if args.d is not None:
        # decompose refuses a disconnected graph (exit 1)
        cert = decompose(E, args.d)
        lines.append(f"ell {cert.ell}")
        lines.append(f"bound {width_bound(g, args.d)}")
        if args.svg:
            _write(args.svg, render_svg(cert))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def render_svg(cert) -> str:
    """Static picture: H nodes placed by layer bands, edges as chords."""
    first_layer = {}
    for v in range(cert.n):
        p = cert.mapping.node[v]
        first_layer[p] = min(first_layer.get(p, 1 << 30),
                             cert.mapping.layer[v])
    per_layer = {}
    pos = {}
    for p in range(cert.num_parts):
        lay = first_layer.get(p, 0)
        idx = per_layer.get(lay, 0)
        per_layer[lay] = idx + 1
        pos[p] = (40 + idx * 60, 40 + lay * 80)
    width = max(x for x, _ in pos.values()) + 40 if pos else 100
    height = max(y for _, y in pos.values()) + 40 if pos else 100
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}">']
    nlayers = max(per_layer) + 1 if per_layer else 1
    for lay in range(nlayers):
        y = 40 + lay * 80
        out.append(f'<line x1="0" y1="{y}" x2="{width}" y2="{y}" '
                   'stroke="#eeeeee"/>')
        out.append(f'<text x="4" y="{y - 6}" font-size="10" '
                   f'fill="#999999">layer {lay}</text>')
    for a, b in cert.h_edges:
        x1, y1 = pos[a]
        x2, y2 = pos[b]
        out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                   'stroke="#888888" stroke-width="1"/>')
    for p, (x, y) in pos.items():
        fill = "#cc4444" if p == cert.boundary_part else "#4477cc"
        out.append(f'<circle cx="{x}" cy="{y}" r="9" fill="{fill}"/>')
        out.append(f'<text x="{x - 4}" y="{y + 4}" font-size="9" '
                   f'fill="white">{p}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def build_parser():
    ap = argparse.ArgumentParser(
        prog="framedprod",
        description="Product-structure decompositions of framed surface "
                    "multigraphs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("decompose", help="decompose a frame into a certificate")
    p.add_argument("--in", dest="inputs", action="append", required=True,
                   help="embedding file ('-' for stdin); repeatable")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--svg", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="verify a certificate against a frame")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate instances")
    p.add_argument("--family", required=True,
                   choices=["toroidal", "tri", "framed", "map", "oneplanar"])
    p.add_argument("--params", default="")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("map", help="reduce a labelled map to a frame")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("oneplanar", help="reduce a 1-plane drawing to a frame")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--decompose", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_oneplanar)

    p = sub.add_parser("stats", help="print instance statistics")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_stats)
    return ap


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (FormatError, DomainError, FileNotFoundError, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_PARSE
    except ContractViolation as ex:
        print(f"contract violation: {ex}", file=sys.stderr)
        return EXIT_CONTRACT


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
