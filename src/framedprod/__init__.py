"""framedprod: product-structure decompositions of framed surface graphs."""

from .assemble import (
    PartitionCertificate,
    block_layering,
    decompose,
    parse_certificate,
    serialize_certificate,
    width_bound,
)
from .cut import attach_apex, build_Tplus, build_Z, cut_along
from .embedding import (
    EmbeddedMultigraph,
    bfs_structure,
    euler_genus,
    parse_embedding,
    serialize_embedding,
    trace_faces,
)
from .errors import ContractViolation, DomainError, FormatError, InvalidFrameError
from .frame import check_frame
from .frontends import (
    LabelledMap,
    OnePlaneDrawing,
    map_to_frame,
    oneplanar_to_frame,
)
from .tripods import project_partition, triangulate_long_faces, tripod_partition
from .verify import (
    check_containment,
    check_part_structure,
    check_planarity,
    check_tree_decomposition,
    closure_pairs,
    derive_bags,
    verify_certificate,
)

__version__ = "0.1.0"
