"""Exact computations on square-tiled surfaces.

Origamis as permutation pairs, their cylinder decompositions in rational
directions, the action of Dehn multitwists on the non-tautological part
of homology, and exact subgroup indices in SL2(Z).
"""

from .errors import (
    BasisUnavailableError,
    DegenerateConfigurationError,
    IndexCapExceeded,
    IntegralityError,
    InvalidShapeError,
    NoBasisFoundError,
    OrbitCapExceeded,
    OrigamiError,
    RankError,
    TracingError,
    UnimodularityError,
)
from .origami import (
    Origami,
    Perm,
    SingularityData,
    act_matrix,
    canonical_form,
    format_origami,
    is_primitive,
    make_l_origami,
    orbit,
    parse_origami,
    relabel,
    singularity_data,
)
from .geometry import (
    Cylinder,
    CylinderDecomposition,
    Direction,
    GeodesicLoop,
    SaddleConnection,
    SeparatrixDiagram,
    contains_point,
    decompose,
    lattice_points,
    primitive_directions,
    separatrix_diagram,
    shear_matrix,
    trace_boundaries,
)
from .homology import (
    HomologyBasis,
    NonTautBasis,
    basis_from_directions,
    class_pushforward,
    default_basis,
    express_in_basis,
    intersection_number,
    nontaut_basis,
    omega_class_loop,
    standard_basis,
)
from .monodromy import dehn_twist_action, kz_generators, twist_multiplicities
from .sl2 import (
    IDENTITY,
    Mat2,
    S,
    T,
    contains_minus_identity,
    coset_action,
    index_in_sl2,
    matrix_to_word,
    word_to_matrix,
)
from .census import h2_origamis, orbit_partition

__version__ = "0.1.0"
