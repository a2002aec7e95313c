"""ergodykit: equilibrium states of piecewise partially hyperbolic skew
products via transfer operators on disintegrated measures."""

from .measures import (
    AtomicSignedMeasure,
    JordanPair,
    canonicalize,
    compress,
    compress_to_cap,
    dirac,
    jordan,
    pushforward,
    total_mass,
    total_variation,
    uniform_atoms,
    zero_measure,
)
from .dualnorm import (
    NumericError,
    dual_norm,
    lower_bound_sample,
)
from .baserpf import (
    BaseMap,
    Branch,
    HypothesisReport,
    Potential,
    RPFDiscretization,
    build_rpf,
    check_hypotheses,
    combined_expansion_bound,
    spectral_radius_on_kernel,
    twisted_operator,
    verify_lasota_yorke,
)
from .disint import (
    DisintegratedMeasure,
    Observable,
    convert_reference,
    disintegration_holder,
    holder_constant,
    integrate,
    l1_norm,
    linf_norm,
    multiply_observable,
    product_measure,
    s1_norm,
    sinf_norm,
)
from .transfer import (
    ConvergenceReport,
    FiberMap,
    GapReport,
    SkewSystem,
    apply_F_phi,
    apply_F_phih_normalized,
    check_class_S,
    convergence_constants,
    estimate_spectral_gap,
    iterate_to_equilibrium,
    reduce_potential,
    regularity_constants,
    verify_LY_S1,
)
from .stats import (
    CorrelationTable,
    correlation_birkhoff,
    correlation_operator,
    fit_exponential,
)
from .systems import (
    GalleryEntry,
    check_example_constants,
    fiber_discontinuous,
    fiber_holder,
    fiber_linear,
    fiber_tsujii,
    gallery,
    gallery_entry,
    linear_expanding,
    manneville_pomeau,
    mp_geometric_potential,
)

__version__ = "0.1.0"
