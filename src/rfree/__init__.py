"""rfree: exact counting of relatively r-prime integer tuples.

A k-tuple of integers is relatively r-prime when no prime p has p^r dividing
every component. The package counts such tuples in boxes [-x, x]^k exactly,
computes generalized Jordan totients and their partial sums two independent
ways, verifies the closed polynomial identity connecting the two, and
measures the error term against (2x)^k / zeta(rk) with rigorous enclosures.

The public names below load their module on first use (PEP 562), so that
``import rfree.cli`` loads only what a subcommand runs.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

_HOMES = {
    "arith": ("Enclosure", "MobiusTable", "ZetaValue", "bernoulli_numbers", "faulhaber_sum",
              "format_fraction", "integer_root", "mobius", "sieve_mobius", "zeta_enclosure",
              "zeta_value"),
    "errors": ("EmptyWindowError", "InvariantViolationError", "ResourceLimitError"),
    "jordan": ("TotientParams", "jordan", "jordan_oracle", "partial_sum_bernoulli",
               "partial_sum_direct"),
    "lattice": ("CountParams", "CountRecord", "count_fast", "count_oracle", "count_record",
                "scan_rows"),
    "omega": ("FracSumParams", "OmegaRatioReport", "WitnessReport", "certify_witness",
              "certify_witnesses", "error_scan", "frac_sum", "mertens_residual",
              "mertens_residual_scan", "omega_ratio_report", "proposition_residual",
              "proposition_residual_scan", "truncated_frac_sum", "witness_large",
              "witness_small"),
    "umbral": ("IdentityCheck", "identity_check", "umbral_coefficients", "umbral_eval"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on the package; rfree.jordan names the
        # function, which the submodule rfree.jordan must not shadow.
        if not (name == "jordan" and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
