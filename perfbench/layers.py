"""The layer boundaries of rfree that the traced pass wraps.

Every boundary is a public function of one module. Modules bind imported
names (``umbral.count_fast``, ``omega.count_record``, ``cli.error_scan``,
...), so a wrapper is installed in every ``rfree`` namespace that holds the
original function, not only in the defining module.
"""

from __future__ import annotations

import importlib
import resource
import sys
from collections.abc import Callable

from spans import Tracer

# (module, function) pairs; the span name is "<module>.<function>".
BOUNDARIES = [
    ("arith", "sieve_mobius"),
    ("arith", "zeta_value"),
    ("lattice", "count_fast"),
    ("lattice", "count_record"),
    ("jordan", "partial_sum_bernoulli"),
    ("umbral", "umbral_eval"),
    ("umbral", "identity_check"),
    ("omega", "truncated_frac_sum"),
    ("omega", "certify_witness"),
    ("omega", "witness_large"),
    ("omega", "witness_small"),
    ("omega", "error_scan"),
    ("omega", "omega_ratio_report"),
    ("cli", "main"),
    ("cli", "record_fields"),
    ("cli", "records_to_csv"),
    ("cli", "parse_scan_csv"),
]

POOL_WAIT = "omega.error_scan.wait"


def _max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _observers(tracer: Tracer) -> dict[str, Callable]:
    def identity(check):
        tracer.add("umbral.identity_check.equal", 1 if check.equal else 0)

    def witness(report):
        tracer.add("omega.certify_witness.negative", 1 if report.negative else 0)

    return {"umbral.identity_check": identity, "omega.certify_witness": witness}


def _measured_sieve(tracer: Tracer, sieve: Callable) -> Callable:
    # Peak bytes are the rise of the process's resident high-water mark
    # across the call: tracemalloc would slow the sieve about 30-fold.
    def sieve_mobius(limit, *args, **kwargs):
        before = _max_rss_bytes()
        table = sieve(limit, *args, **kwargs)
        tracer.peak("arith.sieve_mobius.peak_bytes", _max_rss_bytes() - before)
        tracer.add("arith.sieve_mobius.entries", limit + 1)
        return table

    return sieve_mobius


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary in every loaded rfree namespace; return a
    function that puts the originals back."""
    for module, _ in BOUNDARIES:
        importlib.import_module(f"rfree.{module}")
    namespaces = [m for n, m in sys.modules.items() if n == "rfree" or n.startswith("rfree.")]
    observers = _observers(tracer)
    undo: list[tuple[object, str, object]] = []
    for module, func in BOUNDARIES:
        name = f"{module}.{func}"
        original = getattr(sys.modules[f"rfree.{module}"], func)
        target = _measured_sieve(tracer, original) if name == "arith.sieve_mobius" else original
        wrapper = tracer.wrap(name, target, observers.get(name))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    undo.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    # Parent-side pool waits: every chunk result error_scan takes from
    # ProcessPoolExecutor.map is one span, so the wait is measured where
    # it happens and the chunk count is the number of items.
    from concurrent.futures import process

    original_map = process.ProcessPoolExecutor.map

    def traced_map(self, fn, *iterables, **kwargs):
        return tracer.iterate(POOL_WAIT, original_map(self, fn, *iterables, **kwargs))

    undo.append((process.ProcessPoolExecutor, "map", original_map))
    process.ProcessPoolExecutor.map = traced_map

    def restore() -> None:
        for ns, attr, value in reversed(undo):
            setattr(ns, attr, value)

    return restore
