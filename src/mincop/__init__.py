"""mincop: minimal copulas under the concordance order.

Exact copula representations (checkerboards, segment systems, closed-form
nodes), the reflection/permutation/survival transforms, concordance
functionals (Kendall's tau, Spearman's rho, the Pi-integral), order checks
with witnesses, and extreme-negative-dependence certificates including a
constructive minimality refuter.
"""

from .core import (
    CheckerboardCopula,
    ClaytonExtreme,
    Copula,
    GlueProduct,
    LowerFrechet2d,
    MeasureEstimate,
    MixtureCopula,
    Permuted,
    ProductCopula,
    Reflected,
    RefutedCopula,
    SegmentCopula,
    UpperFrechet,
    ValidationReport,
    box_mass,
    cdf,
    sample,
    survival_value,
    validate,
)
from .catalog import (
    ShuffleSpec,
    make_basic,
    make_glue_product,
    make_mixture,
    make_reflected_upper,
    make_shuffle,
    make_triangle_3d,
    mixture_all_reflections,
    random_checkerboard,
    shuffle_a,
    shuffle_b,
)
from .transforms import as_board, discretize, permute, reflect, survival
from .order import OrderResult, Relation, concordance_leq, pointwise_leq
from .concordance import (
    FunctionalReport,
    kendall_tau,
    pi_integral,
    reflection_sum,
    spearman_rho,
)
from .negdep import (
    CornerPair,
    GFunc,
    HyperplaneSpec,
    RefutationCertificate,
    TauCmCertificate,
    descend,
    find_corner_pair,
    hyperplane_mass,
    refute_minimality,
    tau_cm_certificate,
    tau_cm_defect,
)
from .serialize import dump, load, parse_spec, to_spec
from .errors import (
    DimensionMismatchError,
    DomainError,
    InputError,
    MincopError,
    RefuterInternalError,
    SpecError,
    UnsupportedRepresentationError,
    ValidationError,
)

__version__ = "0.1.0"
