"""Assemble decompositions: layering blocks, product mapping, certificates."""

from __future__ import annotations

from dataclasses import dataclass

from .cut import attach_apex, build_Tplus, build_Z, cut_along
from .embedding import EmbeddedMultigraph, bfs_structure, euler_genus, trace_faces
from .errors import ContractViolation, DomainError, FormatError
from .frame import check_frame
from .tripods import (
    Part,
    project_partition,
    triangulate_long_faces,
    tripod_partition,
)


def width_bound(g: int, d: int) -> int:
    h = d // 2
    return max(2 * g * h, d + 3 * h - 3)


def block_layering(T, d: int) -> list:
    """Group consecutive BFS layers into blocks of floor(d/2) layers."""
    if d < 3:
        raise DomainError("d must be >= 3")
    h = d // 2
    blocks = []
    for i, layer in enumerate(T.layers):
        j = i // h
        while len(blocks) <= j:
            blocks.append([])
        blocks[j].extend(layer)
    return blocks


@dataclass
class ProductMapping:
    node: list               # per vertex: part id
    layer: list              # per vertex: block index
    copy: list               # per vertex: rank within its (part, block) cell
    ell: int

    def triple(self, v):
        return (self.node[v], self.layer[v], self.copy[v])


def product_mapping(part_of: list, blocks: list, n: int) -> ProductMapping:
    """Assign copy indices per (part, block) cell in ascending vertex order."""
    node = list(part_of[:n])
    layer = [0] * n
    for j, blk in enumerate(blocks):
        for v in blk:
            layer[v] = j
    cells = {}
    for v in range(n):
        cells.setdefault((node[v], layer[v]), []).append(v)
    copy = [0] * n
    ell = 1
    for key in cells:
        members = sorted(cells[key])
        ell = max(ell, len(members))
        for i, v in enumerate(members):
            copy[v] = i
    return ProductMapping(node=node, layer=layer, copy=copy, ell=ell)


@dataclass
class PartitionCertificate:
    n: int
    d: int
    genus: int
    parts: list               # Part records over original vertices
    part_of: list
    h_edges: list
    bags: list
    bag_parent: list
    boundary_part: int        # the Z part for positive genus, else -1
    mapping: ProductMapping
    bound: int

    @property
    def ell(self):
        return self.mapping.ell

    @property
    def num_parts(self):
        return len(self.parts)


def decompose(E: EmbeddedMultigraph, d: int,
              self_verify: bool = True) -> PartitionCertificate:
    """Full pipeline: frame check, tree, cut (if needed), tripods, mapping.

    The BFS layering is rooted at ``E.root`` (vertex 0 when unset), the
    root the verifier rebuilds it from.
    """
    # the construction's graphs and face sets are freed before the verifier
    # builds its own
    cert = _construct(E, d)
    if self_verify:
        from . import verify as _verify
        report = _verify.verify_certificate(E, cert)
        if report:
            raise ContractViolation(
                "self-verification failed: " + "; ".join(report[:5]))
    return cert


def _construct(E: EmbeddedMultigraph, d: int) -> PartitionCertificate:
    # each graph (E, then Gt and G+ when g > 0) has its faces traced once;
    # a face set is dropped as soon as the stage that reads it is done
    faces = trace_faces(E)
    g = euler_genus(E, faces)                 # the connectivity test of E
    check_frame(E, d, faces)
    T = bfs_structure(E, E.root if E.root is not None else 0)
    if g == 0:
        world = triangulate_long_faces(E, d, faces)
        del faces
        projected = tripod_partition(world, T.parent)
    else:
        C = build_Z(E, T, faces)
        R, faces = cut_along(E, C, faces)
        A, faces = attach_apex(R, faces)
        parent, Pp = build_Tplus(A, T, R, C)
        world = triangulate_long_faces(A.Gplus, d, faces)
        del faces
        HPR = tripod_partition(world, parent, boundary=Pp, blocked=(A.rplus,))
        projected = project_partition(HPR, R, C, E.n)

    blocks = block_layering(T, d)
    mapping = product_mapping(projected.part_of, blocks, E.n)
    bound = width_bound(g, d)
    if mapping.ell > bound:
        raise ContractViolation(
            f"achieved width {mapping.ell} exceeds the bound {bound}")
    return PartitionCertificate(
        n=E.n, d=d, genus=g, parts=projected.parts,
        part_of=projected.part_of, h_edges=projected.h_edges,
        bags=projected.bags, bag_parent=projected.bag_parent,
        boundary_part=projected.boundary_part, mapping=mapping, bound=bound)


def serialize_certificate(cert: PartitionCertificate) -> str:
    out = [f"cert {cert.n} {cert.d} {cert.genus}"]
    out.append(f"H {cert.num_parts} {len(cert.h_edges)}")
    for a, b in cert.h_edges:
        out.append(f"h {a} {b}")
    out.append(f"TD {len(cert.bags)}")
    for i, bag in enumerate(cert.bags):
        toks = " ".join(str(p) for p in bag)
        out.append(f"b {i} {cert.bag_parent[i]} : {toks}")
    out.append(f"PARTS {cert.num_parts}")
    for part in cert.parts:
        kind = "Z" if part.pid == cert.boundary_part else "TRIPOD"
        xs = " ".join(str(v) for v in part.absorbed)
        ys = " | ".join(" ".join(str(v) for v in leg) for leg in part.legs)
        out.append(f"p {part.pid} {kind} x: {xs} y: {ys}")
    out.append("LAYERS")
    for v in range(cert.n):
        out.append(f"l {v} {cert.mapping.layer[v]}")
    out.append("MAP")
    for v in range(cert.n):
        out.append(f"m {v} {cert.mapping.node[v]} {cert.mapping.layer[v]} "
                   f"{cert.mapping.copy[v]}")
    out.append(f"ELL {cert.ell}")
    return "\n".join(out) + "\n"


def parse_certificate(text: str) -> PartitionCertificate:
    try:
        return _parse_certificate(text)
    except (ValueError, IndexError) as ex:
        if isinstance(ex, FormatError):
            raise
        raise FormatError(f"malformed certificate: {ex}") from None


def _parse_certificate(text: str) -> PartitionCertificate:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("cert "):
        raise FormatError("certificate must start with 'cert <n> <d> <genus>'")
    _, n, d, g = lines[0].split()
    n, d, g = int(n), int(d), int(g)
    # each vertex needs an m line: a count the text cannot hold is refused
    # before the per-vertex lists are allocated
    if n > len(lines):
        raise FormatError(f"{n} vertices but only {len(lines)} lines")
    idx = 1
    h_edges = []
    bags = []
    bag_parent = []
    parts = []
    boundary_part = -1
    node = [0] * n
    layer = [0] * n
    copy = [0] * n
    mapped = bytearray(n)      # vertices with an m line
    stated = [None] * n        # per vertex: the layer of its l line
    ell = 1
    num_parts = 0
    while idx < len(lines):
        ln = lines[idx]
        if ln.startswith("H "):
            _, np_, ne = ln.split()
            num_parts = int(np_)
            for k in range(int(ne)):
                idx += 1
                _, a, b = lines[idx].split()
                h_edges.append((int(a), int(b)))
        elif ln.startswith("TD "):
            nb = int(ln.split()[1])
            for k in range(nb):
                idx += 1
                head, toks = lines[idx].split(":")
                _, bid, par = head.split()
                if int(bid) != len(bags):
                    raise FormatError("bag ids must be sequential")
                bags.append([int(t) for t in toks.split()])
                bag_parent.append(int(par))
        elif ln.startswith("PARTS"):
            cnt = int(ln.split()[1])
            for k in range(cnt):
                idx += 1
                body = lines[idx]
                if not body.startswith("p "):
                    raise FormatError(f"bad part line: {body}")
                head, rest = body.split(" x: ", 1)
                _, pid, kind = head.split()
                pid = int(pid)
                xs_txt, ys_txt = rest.split(" y:", 1)
                absorbed = [int(t) for t in xs_txt.split()]
                legs = []
                for seg in ys_txt.split("|"):
                    seg = seg.strip()
                    if seg:
                        legs.append([int(t) for t in seg.split()])
                if kind == "Z":
                    boundary_part = pid
                parts.append(Part(pid=pid, kind="boundary" if kind == "Z"
                                  else "tripod", legs=legs, absorbed=absorbed))
        elif ln.startswith("LAYERS"):
            pass
        elif ln.startswith("l "):
            _, v, b = ln.split()
            v = int(v)
            if not (0 <= v < n) or stated[v] is not None:
                raise FormatError(f"l line for a vertex out of range or "
                                  f"listed twice: {ln}")
            stated[v] = int(b)
        elif ln == "MAP":
            pass
        elif ln.startswith("m "):
            _, v, nd, la, cp = ln.split()
            v = int(v)
            if not (0 <= v < n) or mapped[v]:
                raise FormatError(f"m line for a vertex out of range or "
                                  f"listed twice: {ln}")
            mapped[v] = 1
            node[v], layer[v], copy[v] = int(nd), int(la), int(cp)
        elif ln.startswith("ELL"):
            ell = int(ln.split()[1])
        else:
            raise FormatError(f"unknown certificate line: {ln}")
        idx += 1
    if len(parts) != num_parts:
        raise FormatError("part count mismatch")
    pids = sorted(part.pid for part in parts)
    if pids != list(range(num_parts)):
        raise FormatError("part ids must be 0..num_parts-1, each once")
    if mapped.count(0):
        raise FormatError(f"vertex {mapped.index(0)} has no m line")
    if stated != layer:
        for v, b in enumerate(stated):
            if b is not None and b != layer[v]:
                raise FormatError(f"vertex {v}: l layer {b} != m layer "
                                  f"{layer[v]}")
    part_of = list(node)
    mapping = ProductMapping(node=node, layer=layer, copy=copy, ell=ell)
    return PartitionCertificate(
        n=n, d=d, genus=g, parts=parts, part_of=part_of, h_edges=h_edges,
        bags=bags, bag_parent=bag_parent, boundary_part=boundary_part,
        mapping=mapping, bound=width_bound(g, d))
