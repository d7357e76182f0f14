"""Exact-arithmetic moduli spaces of rational tropical curves.

Combinatorial types of leaf-labeled trees as split systems, the double-ratio
embedding and its inverse, weighted fans with balancing and local smoothness
certificates, psi-divisors, forgetful maps and boundary decomposition.  All
arithmetic is exact (rationals plus tagged infinities); nothing here touches
floating point.
"""

from .errors import (
    DimensionMismatch,
    IncompatibleSplit,
    MalformedInput,
    NotCodimensionOne,
    NotInImage,
    NotPure,
    SplitAbsent,
    TooFewLeaves,
    TropmodError,
    ZeroVector,
)
from .rationals import (
    NEG_INF,
    POS_INF,
    ExtendedRational,
    Infinity,
    format_extended,
    is_finite,
    parse_extended,
)
from .trees import (
    CombinatorialType,
    Split,
    TreeRealization,
    TreeVertex,
    contract,
    count_rays,
    enumerate_types,
    resolutions,
    to_tree,
    valence_profile,
)
from .lattice import primitive
from .moduli import (
    EmbeddingVector,
    LinkGraph,
    ModuliPoint,
    RatioIndex,
    canonical_coordinates,
    direction_vector,
    double_ratio,
    embed,
    link_graph,
    reconstruct,
)
from .divisors import (
    BalancingReport,
    WeightedFan,
    canonical_divisor,
    check_balanced,
    check_psi_balanced,
    check_smooth_local,
    moduli_fan,
    psi_divisor,
    span_witness,
    verify_witness,
)
from .maps import (
    BoundaryDecomposition,
    decompose_boundary,
    forget,
    forget_cone,
    relabel,
    section,
)

__version__ = "0.1.0"
