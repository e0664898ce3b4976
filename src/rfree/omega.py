"""Fractional-part sums, witness sequences, residual scans: the machinery
that makes the error term's non-decay measurable.

The central sum, in normalized form, is

    sum_{d <= floor(x^(1/r))} mu(d) d^(-rj) {x / d^r}^i

with the fractional part computed as (x mod d^r) / d^r by big-integer
modulus, never by floating division. The constructed witnesses can run to
seventy-plus digits, where floats carry no information at all. Exact sums
add integers over one denominator L = P^(r(i+j)), so one limit bounds each
sum and witness list by its d range and the size of L: frac_sum_work.
The residual enclosures read 1/zeta(s) at their precision and mu up to
their limit themselves. error_scan makes one lattice.count_record per x
from the counts of lattice._scan, the scan that scan_rows renders.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .arith import (
    DEFAULT_PRECISION,
    Enclosure,
    integer_root,
    mobius_table,
    primes_upto,
    zeta_value,
)
from .errors import ResourceLimitError

# Most frac_sum_work per exact sum or witness list; the largest accepted
# ones take about 6.5-9 s of CPU on a 2-vCPU x86 VM (README, `witness`).
FRAC_SUM_WORK_LIMIT = 2 * 10**10
_SCALE = 10**45        # fixed-point denominator for residual enclosures
_ROOT_SCALE = 10**12   # fixed-point denominator for real r-th roots


class FracSumParams(namedtuple("FracSumParams", "r j i x")):
    """Parameters of the normalized fractional-part sum: weight d^(-r*j),
    fractional part raised to the i-th power, evaluated at x."""

    __slots__ = ()

    def __new__(cls, r: int, j: int, i: int, x: int) -> "FracSumParams":
        if r < 1:
            raise ValueError("r must be >= 1")
        if j < 0 or i < 0:
            raise ValueError("exponents must be >= 0")
        if x < 0:
            raise ValueError("x must be >= 0")
        return super().__new__(cls, r, j, i, x)


def frac_sum_work(n: int, top: int, e: int) -> int:
    """Work units of n exact sums over d <= top on L = P^e, P the
    primorial of top: n (top bits + bits^2/64 + 10^5), with
    bits = 1.4662 e top + 1 >= the bit length of L by theta(t) < 1.01624 t
    (Rosser & Schoenfeld, 1962); at least one unit per d-step, e = 0 too."""
    bits = 14662 * e * top // 10000 + 1
    return n * (top * bits + bits * bits // 64 + 10**5)


def _check_work(n: int, top: int, e: int) -> None:
    # the one limit on exact frac-sums, checked before any primes or sieve
    if (work := frac_sum_work(n, top, e)) > FRAC_SUM_WORK_LIMIT:
        raise ResourceLimitError(
            f"{n} exact frac-sum(s) over d <= {top} on P^{e} need {work} work units, "
            f"limit is {FRAC_SUM_WORK_LIMIT}; pass a smaller cutoff or fewer x")


# (top, r, e): (L, (d^r, mu(d) L / d^e) per squarefree d <= top), shared by one top's
# x from the second on while a witness list runs, within _SHARED_WORK (1 MB of terms)
_shared_terms: dict = {}
_SHARED_WORK = 2**23


def _frac_terms(top: int, r: int, e: int) -> tuple[int, Iterator]:
    # L = P^e, P the product of the primes <= top, and the terms (d^r, mu(d) L / d^e)
    # of the squarefree d <= top, made as they are drawn: each such d divides P
    L = math.prod(primes_upto(top)) ** e if e else 1
    mu = mobius_table(top).mu
    return L, ((d**r, mu[d] * (L // d**e)) for d in range(1, top + 1) if mu[d])


def _frac_sum_upto(params: FracSumParams, top: int) -> Fraction:
    # sum_{d <= top} mu(d) d^(-rj) {x / d^r}^i, exactly: integers over one
    # denominator L = P^(r(i+j)), each term added as it is made
    e = params.r * (params.i + params.j)
    _check_work(1, top, e)
    r, i, x = params.r, params.i, params.x
    L, terms = _shared_terms.get((top, r, e)) or _frac_terms(top, r, e)
    return Fraction(sum(w * (x % dr) ** i for dr, w in terms), L)


def frac_sum(params: FracSumParams) -> Fraction:
    """The full sum over d <= floor(x^(1/r)), exactly. Past
    FRAC_SUM_WORK_LIMIT it raises ResourceLimitError before any work;
    truncated_frac_sum takes a cutoff."""
    return _frac_sum_upto(params, integer_root(params.x, params.r))


def truncated_frac_sum(params: FracSumParams, cutoff: int) -> tuple[Fraction, Fraction]:
    """(finite part over d <= cutoff, rigorous bound on the rest).

    Tail bound: |sum_{d > D} mu(d) d^(-rj) {..}^i| <= sum_{d > D} d^(-rj)
    <= D^(1-rj)/(rj - 1), needing rj >= 2. Only x mod d^r for d <= cutoff is
    computed, so x may be arbitrarily large. When cutoff already covers
    floor(x^(1/r)) the tail is exactly zero. The finite part reads mu up to
    min(cutoff, floor(x^(1/r))), if its frac_sum_work is within
    FRAC_SUM_WORK_LIMIT (else ResourceLimitError before any sieve).
    """
    rj = params.r * params.j
    if rj < 2:
        raise ValueError("tail bound requires r*j >= 2")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    root = integer_root(params.x, params.r)
    finite = _frac_sum_upto(params, min(cutoff, root))
    tail = Fraction(0) if cutoff >= root else Fraction(1, cutoff ** (rj - 1) * (rj - 1))
    return finite, tail


# ---------------------------------------------------------------------------
# Witness constructions
# ---------------------------------------------------------------------------

def witness_large(r: int, k: int, count: int) -> range:
    """First ``count`` integers >= 3^r congruent to 2^r - 1 mod 2^r.

    At these x the fractional-part sum with weight d^(-rk) is provably
    negative; the construction needs r >= 2 and rk >= 4. A range, so any
    count is free until certify_witnesses bounds its work.
    """
    if r < 2 or r * k < 4:
        raise ValueError("witness_large (--large) applies to r >= 2 with r*k >= 4; use "
                         "witness_small (--small) for the (r, k) = (2, 1) and (3, 1) cases")
    if count < 1:
        raise ValueError("count must be >= 1")
    modulus = 2**r
    start = 3**r
    first = start + (modulus - 1 - start) % modulus
    return range(first, first + count * modulus, modulus)


def witness_small(r: int, m: int) -> int:
    """m^2 * prod_{3 <= p <= 97, p prime} p^r, for the rk in {2, 3} cases.

    m must be coprime to 2 and to every odd prime below 100 (m = 1, 101,
    103, ... all qualify). For r = 2, m = 1 the result has 73 digits.
    """
    if r not in (2, 3):
        raise ValueError("small-case witnesses exist for r in {2, 3} only")
    if m < 1:
        raise ValueError("m must be >= 1")
    odd_primes = primes_upto(100)[1:]
    if m % 2 == 0 or any(m % p == 0 for p in odd_primes):
        raise ValueError("m must be coprime to 2 and all odd primes < 100")
    x = m * m
    for p in odd_primes:
        x *= p**r
    return x


class WitnessReport(NamedTuple):
    """Certified evaluation of the fractional-part sum at one witness x.

    upper_bound = finite_part + tail_bound is a rigorous upper bound on the
    true sum; verdict is "negative" exactly when that bound is below zero.
    target_bound is the stricter constant the construction aims for, kept
    for comparison (None when no branch applies).
    """

    x: int
    finite_part: Fraction
    tail_bound: Fraction
    upper_bound: Fraction
    verdict: str
    target_bound: Fraction | None

    @property
    def negative(self) -> bool:
        return self.verdict == "negative"


def certify_witness(x: int, r: int, k: int, cutoff: int | None = None) -> WitnessReport:
    """Evaluate sum_d mu(d) d^(-rk) {x/d^r} at a witness with certified tail.

    cutoff=None is exact, and past FRAC_SUM_WORK_LIMIT raises ResourceLimitError
    (pass a cutoff). The applicable
    target bound is -1/2^(rk+1) + 1/2^(r(k+1)) for r >= 2, rk >= 4, and
    -1/20 for the (r, k) in {(2,1), (3,1)} cases.
    At the witness_small(r, m) witnesses -1/20 is certified for r = 2 only
    from about cutoff 1000 (the tail bound 1/cutoff exceeds the margin at
    100); for r = 3 the whole enclosure lies above -1/20, so the target is
    rigorously not met, although the verdict is negative.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    root = integer_root(x, r)
    if cutoff is None:
        cutoff = max(2, root)
    params = FracSumParams(r=r, j=k, i=1, x=x)
    finite, tail = truncated_frac_sum(params, cutoff)
    upper = finite + tail
    if r >= 2 and r * k >= 4:
        target = Fraction(-1, 2 ** (r * k + 1)) + Fraction(1, 2 ** (r * (k + 1)))
    elif k == 1 and r in (2, 3):
        target = Fraction(-1, 20)
    else:
        target = None
    return WitnessReport(
        x=x,
        finite_part=finite,
        tail_bound=tail,
        upper_bound=upper,
        verdict="negative" if upper < 0 else "inconclusive",
        target_bound=target,
    )


def certify_witnesses(
    xs: Sequence[int], r: int, k: int, cutoff: int | None = None
) -> Iterator[WitnessReport]:
    """certify_witness at each x of ``xs``, in order, from one mu table.

    Every x sums over d <= min(cutoff, floor(x^(1/r))), cutoff None meaning
    exact as in certify_witness. The list's length and its largest x (read
    from the ends of a range, which is never walked) bound its work: past
    FRAC_SUM_WORK_LIMIT, ResourceLimitError is raised when the first report
    is drawn, before any sieve; otherwise mu is sieved once, to that range.
    """
    if not xs:
        return
    root = integer_root(max(xs[0], xs[-1]) if isinstance(xs, range) else max(xs), r)
    top, e = root if cutoff is None else min(cutoff, root), r * (k + 1)
    _check_work(len(xs), top, e)
    mobius_table(top)  # one sieve, to the list's largest d range
    last = None
    try:
        for x in xs:
            top = integer_root(x, r) if cutoff is None else min(cutoff, integer_root(x, r))
            if (top == last and (top, r, e) not in _shared_terms
                    and frac_sum_work(1, top, e) <= _SHARED_WORK):
                L, terms = _frac_terms(top, r, e)
                _shared_terms.clear()
                _shared_terms[top, r, e] = L, tuple(terms)
            yield certify_witness(x, r, k, cutoff)
            last = top
    finally:
        _shared_terms.clear()


# ---------------------------------------------------------------------------
# Residual enclosures (principal-term quality)
# ---------------------------------------------------------------------------

class _ResidualSum:
    """Outward-rounded fixed-point bounds

        lo/_SCALE <= sum_{d<=n} mu(d)/d^s - 1/zeta(s) <= hi/_SCALE,

    extended one d at a time as n grows to ``limit``."""

    def __init__(self, s: int, limit: int, precision: Fraction) -> None:
        recip = zeta_value(s, precision).reciprocal()
        self.s, self.mu, self.n = s, mobius_table(limit).mu, 0
        self.lo = -math.ceil(recip.hi * _SCALE)
        self.hi = -math.floor(recip.lo * _SCALE)

    def upto(self, n: int) -> tuple[int, int]:
        """(lo, hi) for the sum over d <= n; n never decreases."""
        d, lo, hi, s, mu = self.n, self.lo, self.hi, self.s, self.mu
        while d < n:
            d += 1
            m = mu[d]
            if not m:
                continue
            q, rem = divmod(_SCALE, d**s)
            if m == 1:
                lo += q
                hi += q + (1 if rem else 0)
            else:
                lo -= q + (1 if rem else 0)
                hi -= q
        self.n, self.lo, self.hi = d, lo, hi
        return lo, hi


def mertens_residual(x: int, s: int, precision: Fraction = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of sum_{d<=x} mu(d)/d^s - 1/zeta(s).

    Decays like x^(1-s); the scan utility multiplies by x^(s-1) to exhibit
    the bounded scaled residual.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if s < 2:
        raise ValueError("s must be >= 2")
    lo, hi = _ResidualSum(s, x, precision).upto(x)
    return Enclosure.between(Fraction(lo, _SCALE), Fraction(hi, _SCALE))


def mertens_residual_scan(
    x_max: int, s: int, precision: Fraction = DEFAULT_PRECISION
) -> Iterator[tuple[int, Fraction]]:
    """Yield (x, sup |residual| * x^(s-1)) for x = 1..x_max, incrementally."""
    residual = _ResidualSum(s, x_max, precision)
    for x in range(1, x_max + 1):
        lo, hi = residual.upto(x)
        yield x, Fraction(max(hi, -lo) * x ** (s - 1), _SCALE)


def proposition_residual(x: int, k: int, r: int,
                         precision: Fraction = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of (sum_{d^r<=x} mu(d) x^k/d^(rk) - x^k/zeta(rk)) / x^(1/r).

    Bounded as x grows; the scan utility exhibits that.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if r * k < 2:
        raise ValueError("requires r*k >= 2")
    root = integer_root(x, r)
    lo, hi = _ResidualSum(r * k, root, precision).upto(root)
    numer = Enclosure.between(Fraction(lo, _SCALE), Fraction(hi, _SCALE)).scale(x**k)
    # x^(1/r) lies in [t, t + 1] / _ROOT_SCALE, and is t / _ROOT_SCALE for r = 1
    t = integer_root(x * _ROOT_SCALE**r, r)
    x_root = Enclosure.between(Fraction(t, _ROOT_SCALE), Fraction(t + (r > 1), _ROOT_SCALE))
    return numer.div_pos(x_root)


def proposition_residual_scan(
    x_max: int, k: int, r: int, precision: Fraction = DEFAULT_PRECISION
) -> Iterator[tuple[int, Fraction]]:
    """Yield (x, sup of the scaled |residual|) for x = 1..x_max."""
    residual = _ResidualSum(r * k, integer_root(x_max, r), precision)
    for x in range(1, x_max + 1):
        lo, hi = residual.upto(integer_root(x, r))
        # proposition_residual(x, ...).abs().hi from integers: it divides by
        # the lower end t / _ROOT_SCALE of x^(1/r)
        t = integer_root(x * _ROOT_SCALE**r, r)
        yield x, Fraction(max(hi, -lo) * x**k * _ROOT_SCALE, _SCALE * t)


# ---------------------------------------------------------------------------
# Error-term scans
# ---------------------------------------------------------------------------

def error_scan(r: int, k: int, x_min: int, x_max: int, step: int = 1,
               precision: Fraction = DEFAULT_PRECISION) -> Iterator[CountRecord]:
    """A lattice.count_record per sampled x, for callers that read the
    enclosures; the checks, order and memory are scan_rows's."""
    from .lattice import CountParams, _scan, count_record

    xs, counts, _ = _scan(r, k, x_min, x_max, step, precision)
    for x, V in zip(xs, counts):
        yield count_record(CountParams._make((r, k, x)), precision, V)


class OmegaRatioReport(NamedTuple):
    """Two-window non-decay summary of |normalized_error| over a scan."""

    split: int
    max_early: Decimal
    max_late: Decimal
    ratio: Decimal


def omega_ratio_report(records: Iterable, window_split: int) -> OmegaRatioReport:
    """Max |normalized_error| before and after the split, and their ratio.

    ratio = max_late / max_early; a ratio near zero means the normalized
    error decays, which is what the non-decay evidence must rule out.
    ``records`` is any iterable, a one-shot generator included, of items
    with .x and .normalized_error attributes, such as CountRecords. They are
    folded by cli.window_ratio, the report subcommand's fold, in one pass
    that keeps no record. EmptyWindowError, a ValueError, if a window is empty.
    """
    from .cli import window_ratio

    pairs = ((rec.x, rec.normalized_error) for rec in records)
    return OmegaRatioReport(window_split, *window_ratio(pairs, window_split))
