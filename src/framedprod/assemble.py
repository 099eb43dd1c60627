"""Assemble decompositions: layering blocks, the width, certificates."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cut import attach_apex, build_Tplus, build_Z, cut_along
from .embedding import (
    EmbeddedMultigraph,
    bfs_structure,
    check_plain,
    gc_paused,
    normalize_signs,
    trace_faces,
)
from .errors import ContractViolation, DomainError, FormatError
from .frame import check_frame, closure_quotient
from .tripods import (
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
class CertPart:
    """One part as the certificate states it; its id is its position."""

    legs: list                # each vertical path as its bottom vertex
    absorbed: list            # the small leftover set (size <= d-3)
    extras: list              # the earlier parts the region saw that the
                              # quotient of the closure does not show


def stated_legs(legs) -> list:
    """Full vertical paths, topmost vertex first, as the certificate states
    them: by their bottom vertex.  A leg climbs the BFS tree from a corner
    until the next vertex is held by an earlier part or an earlier leg of
    its own part, so the verifier, stating the parts in the same order,
    recovers the rest by the same climb."""
    return [leg[-1] for leg in legs]


@dataclass
class PartitionCertificate:
    n: int
    d: int
    genus: int
    parts: list               # CertPart records over original vertices
    ell: int                  # the most vertices of one (part, block) cell

    @property
    def num_parts(self):
        return len(self.parts)

    @property
    def bound(self):
        """The width the construction guarantees, ``width_bound(genus, d)``."""
        return width_bound(self.genus, self.d)

    @property
    def boundary_part(self):
        """The cut part ``Z``: part 0 when the genus is positive, else -1."""
        return 0 if self.genus > 0 else -1


@gc_paused
def decompose(E: EmbeddedMultigraph, d: int,
              self_verify: bool = True) -> PartitionCertificate:
    """Full pipeline: frame check, tree, cut (if needed), tripods, width.

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
    g, T, projected, short = build_partition(E, d)
    # a vertex goes to (its part, its block, its rank in that cell) of the
    # product, so the width is the size of the largest cell
    part_of = projected.part_of
    ell = max(max(Counter(map(part_of.__getitem__, blk)).values())
              for blk in block_layering(T, d))
    bound = width_bound(g, d)
    if ell > bound:
        raise ContractViolation(
            f"achieved width {ell} exceeds the bound {bound}")
    quotient = closure_quotient(E, short, part_of)
    parts = [CertPart(stated_legs(p.legs), p.absorbed,
                      [a for a in p.attachments
                       if (a, i) not in quotient and (i, a) not in quotient])
             for i, p in enumerate(projected.parts)]
    return PartitionCertificate(n=E.n, d=d, genus=g, parts=parts, ell=ell)


def build_partition(E: EmbeddedMultigraph, d: int) -> tuple:
    """The construction's partition of ``E``'s vertices, with its legs as
    full paths: -> (Euler genus, BFS structure, ``HPartitionResult``,
    ``E``'s faces of length 4..``d`` as ``closure_quotient`` reads them)."""
    # each graph (E, then Gt and G+ when g > 0) has its faces traced once;
    # a face set is dropped as soon as the stage that reads it is done
    faces = trace_faces(E)
    # the BFS is the connectivity test of E, so Euler's formula holds; a
    # lone vertex bounds one face, which no dart walk traces
    T = bfs_structure(E, E.root if E.root is not None else 0)
    f = faces.f if E.m else 1
    g = 2 - E.n + E.m - f
    if g < 0:
        raise ContractViolation(f"negative genus {g} from face count {f}")
    short = check_frame(E, d, faces)
    if g == 0:
        # the stage reads an all-+1 trace; T is the normalized E's tree too
        if -1 in {s for _, _, s in E.edges}:
            E = normalize_signs(E)
            faces = trace_faces(E)
        world = triangulate_long_faces(E, d, faces)
        del faces
        projected = tripod_partition(world, T.parent)
    else:
        C = build_Z(E, T, faces)
        R, faces = cut_along(E, C, faces)
        Gplus, faces = attach_apex(R, faces)
        parent, Pp = build_Tplus(Gplus, T, R)
        world = triangulate_long_faces(Gplus, d, faces)
        del faces
        HPR = tripod_partition(world, parent, boundary=Pp,
                               blocked=(Gplus.n - 1,))
        projected = project_partition(HPR, R, C, E.n)
    return g, T, projected, short


@gc_paused
def serialize_certificate(cert: PartitionCertificate) -> str:
    """The certificate's text, as ``parse_certificate`` reads it: each part
    is one line of its legs, absorbed set and extras, ``;`` between the
    fields, with its trailing empty fields left out so that each
    certificate has one text.  Raises ``DomainError`` on a part that states
    nothing, since no line states it; the construction makes none."""
    out = [f"cert {cert.n} {cert.d} {cert.genus}", f"PARTS {cert.num_parts}"]
    for i, part in enumerate(cert.parts):
        line = ";".join([" ".join(map(str, part.legs)),
                         " ".join(map(str, part.absorbed)),
                         " ".join(map(str, part.extras))]).rstrip(";")
        if not line:
            raise DomainError(f"part {i} states no leg, absorbed vertex "
                              "or extra")
        out.append(line)
    out.append(f"ELL {cert.ell}")
    return "\n".join(out) + "\n"


@gc_paused
def parse_certificate(text: str) -> PartitionCertificate:
    """Parse the text ``serialize_certificate`` writes.

    The sections come in the order they are written, each exactly once:
    ``cert <n> <d> <genus>``; ``PARTS <parts>`` and one line per part,
    ``<legs>;<absorbed>;<extras>``, line ``i`` stating part ``i`` (the cut
    part ``Z`` when ``i`` is 0 and the genus positive); ``ELL <ell>``.  A
    part line holds at most three fields, each a list of integers separated
    by runs of spaces or tabs, and its last field is not empty: ``0 1 2``
    (legs only), ``149 3130 234;1350`` (legs and absorbed), ``;1004``
    (absorbed only), ``40;;0 2`` (legs and extras).  A leg is its bottom
    vertex.  The extras are the earlier parts that part ``i``'s region saw
    and the closure does not join to it; the verifier adds them to the
    earlier neighbours it derives from the closure.  The tags of older
    formats (``p``, ``x:``, ``y:``) and their leg separator ``|`` are no
    integers.  Blank lines and lines starting with '#' are skipped.  Every
    value is a plain decimal integer, which a verifier may find negative.
    Every error is a ``FormatError`` that names the line at fault.
    """
    lines = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    check_plain(text, lines, "+_")
    n, d, g = _header(lines, 0, "cert", 3)
    (k,) = _header(lines, 1, "PARTS", 1)
    if not 0 <= k <= len(lines) - 3:
        raise FormatError(f"{k} part lines do not fit the text")
    parts = []
    for ln in lines[2:2 + k]:
        fields = ln.split(";")
        nf = len(fields)
        if nf > 3 or ln[-1] == ";":
            raise FormatError(f"bad part line: {ln}")
        try:
            parts.append(CertPart(
                list(map(int, fields[0].split())),
                list(map(int, fields[1].split())) if nf > 1 else [],
                list(map(int, fields[2].split())) if nf > 2 else []))
        except ValueError:
            raise FormatError(f"bad part line: {ln}") from None
    (ell,) = _header(lines, 2 + k, "ELL", 1)
    if 3 + k != len(lines):
        raise FormatError(f"unexpected line after ELL: {lines[3 + k]}")
    return PartitionCertificate(n=n, d=d, genus=g, parts=parts, ell=ell)


def _header(lines, i, tag, count):
    """The integers of line ``i``, which must be ``tag`` and ``count`` more."""
    toks = lines[i].split() if i < len(lines) else ["<end of text>"]
    if toks[0] == tag and len(toks) == count + 1:
        try:
            return [int(t) for t in toks[1:]]
        except ValueError:
            pass
    want = " ".join([tag] + ["<int>"] * count)
    raise FormatError(f"expected '{want}', got: {' '.join(toks)}")
