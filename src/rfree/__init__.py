"""rfree: exact counting of relatively r-prime integer tuples.

A k-tuple of integers is relatively r-prime when no prime p has p^r dividing
every component. The package counts such tuples in boxes [-x, x]^k exactly,
computes generalized Jordan totients and their partial sums two independent
ways, verifies the closed polynomial identity connecting the two, and
measures the error term against (2x)^k / zeta(rk) with rigorous enclosures.
"""

from .arith import (
    Enclosure,
    MobiusTable,
    ZetaValue,
    bernoulli_numbers,
    faulhaber_sum,
    format_fraction,
    integer_root,
    mobius,
    sieve_mobius,
    zeta_enclosure,
    zeta_value,
)
from .errors import EmptyWindowError, InvariantViolationError, ResourceLimitError
from .jordan import (
    TotientParams,
    jordan,
    jordan_oracle,
    partial_sum_bernoulli,
    partial_sum_direct,
)
from .lattice import (
    CountParams,
    CountRecord,
    count_fast,
    count_oracle,
    count_record,
)
from .omega import (
    FracSumParams,
    OmegaRatioReport,
    WitnessReport,
    error_scan,
    frac_sum,
    certify_witness,
    mertens_residual,
    mertens_residual_scan,
    omega_ratio_report,
    proposition_residual,
    proposition_residual_scan,
    truncated_frac_sum,
    witness_large,
    witness_small,
)
from .umbral import (
    IdentityCheck,
    identity_check,
    umbral_coefficients,
    umbral_eval,
)

__version__ = "0.1.0"

__all__ = [
    "CountParams",
    "CountRecord",
    "EmptyWindowError",
    "Enclosure",
    "FracSumParams",
    "IdentityCheck",
    "InvariantViolationError",
    "MobiusTable",
    "OmegaRatioReport",
    "ResourceLimitError",
    "TotientParams",
    "WitnessReport",
    "ZetaValue",
    "bernoulli_numbers",
    "count_fast",
    "count_oracle",
    "count_record",
    "error_scan",
    "faulhaber_sum",
    "format_fraction",
    "frac_sum",
    "identity_check",
    "integer_root",
    "jordan",
    "jordan_oracle",
    "certify_witness",
    "mertens_residual",
    "mertens_residual_scan",
    "mobius",
    "omega_ratio_report",
    "partial_sum_bernoulli",
    "partial_sum_direct",
    "proposition_residual",
    "proposition_residual_scan",
    "sieve_mobius",
    "truncated_frac_sum",
    "umbral_coefficients",
    "umbral_eval",
    "witness_large",
    "witness_small",
    "zeta_enclosure",
    "zeta_value",
]
