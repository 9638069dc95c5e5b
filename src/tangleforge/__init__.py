"""tangleforge: separation universes, profiles, splinter algorithms,
canonical nested separator sets, and certified tree-decompositions for
finite graphs."""

from .core import (
    Graph,
    Separation,
    UniverseView,
    all_separations,
    canonical,
    enumerate_separations,
    graph_universe,
    is_nested,
    is_separation,
    is_tight,
    join,
    leq,
    mask_of,
    meet,
    star,
    verify_universe,
    vertices_of,
)
from .errors import (
    CapExceededError,
    CertificationError,
    HypothesisError,
    InputError,
    PreconditionError,
    TangleforgeError,
)
from .profiles import (
    DistinguisherSet,
    Profile,
    efficient_distinguishers,
    enumerate_k_profiles,
    pipeline_profiles,
)
from .profinite import (
    DirectedPoset,
    InverseSystem,
    graph_restriction_system,
    inverse_limits,
    profinite_splinter,
    validate_inverse_system,
)
from .separators import (
    canonical_nested_separators,
    separators_to_separations,
)
from .splinter import (
    FiniteSplinterFamily,
    SplinterInstance,
    splinter_finite,
    splinters_check,
    thin_splinter,
    thinly_splinters_check,
)
from .treedec import (
    TreeDecomposition,
    build_totd,
    induced_separations,
    torso,
    treeset_to_treedecomposition,
    verify_treedecomposition,
)

__version__ = "0.1.0"
