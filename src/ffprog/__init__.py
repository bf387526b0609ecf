"""Exact experiments with three-term polynomial progressions over F_p."""

from .errors import (
    BadCharacteristic,
    BadDegrees,
    BadDensity,
    CharTooSmall,
    CorruptFiberFile,
    DegreeTooSmall,
    Inadmissible,
    NotMeanZero,
    NotPrime,
    OutOfRange,
    WorkBudgetExceeded,
    ZeroPolynomial,
)
from .field import field_new, value_table
from .polys import (
    Diagnosis,
    IntPoly,
    MultiPoly,
    build_aux_system,
    check_admissible,
    normalize_pair,
    parse_pair,
    parse_poly,
    qprime_alternating_form,
)
from .setfun import (
    GridFunction,
    SubsetSpec,
    balance,
    indicator,
    l2_norm,
    parse_subset,
    random_subset,
)
from .counting import (
    CountReport,
    count_progressions,
    decomposition_residual,
    expander_image,
    lambda2,
    lambda3,
    lambda_prime,
    main_theorem_ratio,
    prop22_sides,
)
from .fourier import (
    char_sums_over_fibers,
    dft,
    inverse_dft,
    lambda_prime_spectral,
    weil_ratio,
)
from .variety import (
    FiberDistribution,
    closed_fibers,
    enumerate_fibers,
    enumerate_fibers_naive,
    enumerate_fibers_reference,
    growth_report,
    work_estimate,
)
from .symbolic import (
    AUX_ORDER,
    AUX_ORDER_EQUAL,
    VarOrder,
    certify_separation_equal,
    certify_separation_unequal,
    grlex_compare,
    verify_lm_claims,
)

__version__ = "0.1.0"
