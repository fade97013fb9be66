"""Desk-scale verification toolkit for symmetric-pairing spaces.

Core objects: `SsdSpace` (pairing + norm + gauges q, g, p), `GridFn`
(extended-real samples on a box grid with brute-force conjugation and
inf-convolution), `PointSet`/`MonotoneSet` (sampled positive and monotone
sets), and `VerifyReport` (structured check outcomes).  A space's dual, the
inverse pairing with the dual norm, is itself an `SsdSpace`: `space.dual`.
The `suites` registry and the CLI drive the shipped verification batteries
end to end.
"""

# First, before any import that loads numpy: `blas` pins OpenBLAS to one
# thread at load when ssdkit loads numpy, and gives the gemm kernels a scope
# that runs them on one thread however numpy was loaded (see its docstring).
from . import blas  # noqa: F401

from .errors import (
    BracketViolated,
    BudgetExceeded,
    DensityNotVerified,
    DimensionMismatch,
    EmptySet,
    EpsilonOutOfRange,
    FBelowQ,
    GridMismatch,
    HNotFinite,
    Improper,
    MissingArtifacts,
    NoAffineMinorant,
    NoDual,
    NotAMinorant,
    NotConvex,
    NotSymmetric,
    NotVZ,
    PreconditionFailed,
    SingularPairing,
    SsdkitError,
    StepInfeasible,
    UnsupportedProbe,
    ZeroDimension,
)
from .grids import GridSpec, image_box
from .spaces import (
    NormSpec,
    SsdSpace,
    check_banach_ssd,
    lipschitz_checks,
    product_space,
    swap_matrix,
)
from .gridfn import (
    GridFn,
    conjugate,
    conjugate_composition_gap,
    inf_conv,
    intrinsic_conjugate,
    is_mas,
    is_vz,
    lsc_biconjugate_envelope,
    rockafellar_sum_identity,
)
from .positivity import (
    PointSet,
    ProjectionTrace,
    dist_bounds_check,
    is_maximally_q_positive,
    is_q_positive,
    lemma_2_8_suite,
    p_dense_check,
    p_set,
    project_to_p,
    recheck_trace,
)
from .fitzpatrick import (
    FitzTriple,
    fitz_triple,
    lemma_2_13_suite,
    phi,
    phi_on_grid,
    remark_2_14_gap,
    sigma_minorant_test,
    star_theta,
    theorem_2_15_reports,
    theta,
)
from .duality import (
    density_report,
    dual_norm_check,
    lemma_4_7_identity,
    numerical_dual_norm,
    p_tilde_density,
    theorem_4_10_battery,
    vz_mas_equivalence,
)
from .monotone import (
    AlignmentResult,
    MonotoneSet,
    alignment_report,
    mf_set,
    negative_alignment,
    projection_closure_check,
    remark_5_6_bound,
    strongly_representable_check,
    theorem_5_8_battery,
    type_ni_check,
)
from .reports import CheckResult, VerifyReport

__version__ = "0.1.0"
