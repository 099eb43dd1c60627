"""Assemble decompositions: layering blocks, product mapping, certificates."""

from __future__ import annotations

from dataclasses import dataclass

from .cut import attach_apex, build_Tplus, build_Z, cut_along
from .embedding import (
    EmbeddedMultigraph,
    bfs_structure,
    by_id,
    euler_genus,
    gc_paused,
    int_columns,
    tagged_columns,
    trace_faces,
)
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


@gc_paused
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


@gc_paused
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
    out.append("MAP")
    for v in range(cert.n):
        out.append(f"m {v} {cert.mapping.node[v]} {cert.mapping.layer[v]} "
                   f"{cert.mapping.copy[v]}")
    out.append(f"ELL {cert.ell}")
    return "\n".join(out) + "\n"


@gc_paused
def parse_certificate(text: str) -> PartitionCertificate:
    """Parse the text ``serialize_certificate`` writes.

    The sections come in the order they are written, each exactly once:
    ``cert <n> <d> <genus>``; ``H <parts> <edges>`` and one ``h`` line per
    edge; ``TD <bags>`` and one ``b`` line per bag, ids in order; ``PARTS
    <parts>`` and one ``p`` line per part; ``MAP`` and one ``m`` line per
    vertex, which holds its only layer; ``ELL <ell>``.  The ``m`` lines may
    list the vertices in any order.  Blank lines and lines starting with '#'
    are skipped.
    """
    try:
        return _parse_certificate(text)
    except (ValueError, IndexError) as ex:
        if isinstance(ex, FormatError):
            raise
        raise FormatError(f"malformed certificate: {ex}") from None


def _header(lines, i, tag, count):
    """The integers of line ``i``, which must be ``tag`` and ``count`` more."""
    toks = lines[i].split() if i < len(lines) else ["<end of text>"]
    if toks[0] != tag or len(toks) != count + 1:
        want = " ".join([tag] + ["<int>"] * count)
        raise FormatError(f"expected '{want}', got: {' '.join(toks)}")
    return [int(t) for t in toks[1:]]


def _block(lines, i, count, tag):
    """Lines ``i .. i+count-1``: a section body of ``count`` lines."""
    if count < 0 or i + count > len(lines):
        raise FormatError(f"{count} '{tag}' lines do not fit the text")
    return lines[i:i + count]


def _parse_certificate(text: str) -> PartitionCertificate:
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    n, d, g = _header(lines, 0, "cert", 3)
    # each vertex needs an m line: a count the text cannot hold is refused
    # before the per-vertex lists are allocated
    if not 0 <= n <= len(lines):
        raise FormatError(f"{n} vertices but only {len(lines)} lines")
    num_parts, ne = _header(lines, 1, "H", 2)
    i = 2
    a, b = int_columns(_block(lines, i, ne, "h"), "h", 2)
    h_edges = list(zip(a, b))
    i += ne

    (nb,) = _header(lines, i, "TD", 1)
    i += 1
    block = _block(lines, i, nb, "b")
    i += nb
    bids, bag_parent = int_columns([ln.partition(":")[0] for ln in block],
                                   "b", 2)
    if bids != list(range(nb)):
        raise FormatError("bag ids must be sequential")
    # a ':' past the first of its line lands in a bag and fails int() there
    if "".join(block).count(":") != nb:
        raise FormatError("every 'b' line needs one ':' before its bag")
    bags = [[int(t) for t in ln.partition(":")[2].split()] for ln in block]

    (cnt,) = _header(lines, i, "PARTS", 1)
    i += 1
    if cnt != num_parts:
        raise FormatError("part count mismatch")
    block = _block(lines, i, cnt, "p")
    i += cnt
    pids, kinds = tagged_columns([ln.partition(" x: ")[0] for ln in block],
                                 "p", 2)
    pids = list(map(int, pids))
    if sorted(pids) != list(range(num_parts)):
        raise FormatError("part ids must be 0..num_parts-1, each once")
    nz = kinds.count("Z")
    if nz + kinds.count("TRIPOD") != cnt or nz > 1:
        raise FormatError("a part kind must be Z (at most once) or TRIPOD")
    boundary_part = pids[kinds.index("Z")] if nz else -1
    parts = []
    for pid, kind, ln in zip(pids, kinds, block):
        xs, sep, ys = ln.partition(" x: ")[2].partition(" y:")
        if not sep:
            raise FormatError(f"part {pid} needs ' x: <absorbed> y: <paths>'")
        legs = [[int(t) for t in seg.split()] for seg in ys.split("|")]
        if legs == [[]]:                      # a part with no path
            legs = []
        elif [] in legs:
            raise FormatError(f"part {pid} has an empty path")
        parts.append(Part(pid, "boundary" if kind == "Z" else "tripod", legs,
                          [int(t) for t in xs.split()]))

    _header(lines, i, "MAP", 0)
    i += 1
    node, layer, copy = by_id(int_columns(_block(lines, i, n, "m"), "m", 4),
                              n, "'m'")
    i += n
    (ell,) = _header(lines, i, "ELL", 1)
    if i + 1 != len(lines):
        raise FormatError(f"unexpected line after ELL: {lines[i + 1]}")
    mapping = ProductMapping(node=node, layer=layer, copy=copy, ell=ell)
    return PartitionCertificate(
        n=n, d=d, genus=g, parts=parts, part_of=list(node), h_edges=h_edges,
        bags=bags, bag_parent=bag_parent, boundary_part=boundary_part,
        mapping=mapping, bound=width_bound(g, d))
