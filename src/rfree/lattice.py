"""Counting relatively r-prime k-tuples in the box [-x, x]^k.

V(r, k, x) counts tuples for which no prime q has q^r dividing every
coordinate; equivalently gcd(|x_1|, ..., |x_k|) is nonzero and r-free. The
all-zero tuple never counts, tuples containing a unit always do, and tuples
with some (not all) zero coordinates count whenever the nonzero part does.

count_oracle enumerates the box and is the ground truth. count_fast inverts
with the Mobius sieve: every d <= floor(x^(1/r)) counts the tuples of
multiples of d^r, minus the all-zero one, so with q_d = floor(x/d^r)

    V = sum_d mu(d) ((2 q_d + 1)^k - 1) = sum_{e=1}^{k} C(k, e) 2^e T_e(x),

where T_e(x) = sum_d mu(d) q_d^e comes from MobiusTable.power_sums, the
kernel that partial_sum_bernoulli reads too. count_progression takes one
count from count_fast and the rest by an independent route, the increments
V(y) - V(y-1). The error term is measured against (2x)^k / zeta(rk). A
scan's rows share one row_scale: 1/zeta(rk), midpoint N/D, with N 10^p
and its radius 10^p for p printed places. In count_rows, the one row kernel,
a row costs one divmod of (2x)^k N 10^p by D, whose quotient and remainder
give the main term, the error and, over error_normalization's exact ratio,
the normalized error, each rounded half-up and formatted as text. scan_rows
feeds count_range's counts to count_rows, the rows the scan subcommand writes
(cli.CSV_COLUMNS names their fields). count_record keeps one such row, and
builds its exact enclosures only when they are read.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Iterator
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .arith import (
    DEFAULT_PRECISION,
    ENUMERATION_BUDGET,
    MAX_SCAN_RECORDS,
    SCAN_CHUNK,
    Enclosure,
    check_count_work,
    decimal_places,
    integer_root,
    ln_decimal,
    mobius_table,
    rfree_sieve,
    zeta_value,
)
from .errors import ResourceLimitError

# Most digits of the x^(1/r) normalization's radicand x 10^((p+10) r): its root
# takes about 5 s at the limit, the most at p = 1 (2-vCPU x86 VM, CPython 3.11).
ROOT_DIGITS_LIMIT = 8 * 10**5


class CountParams(namedtuple("CountParams", "r k x")):
    """Power r >= 1, dimension k >= 1, box half-width x >= 0."""

    __slots__ = ()

    def __new__(cls, r: int, k: int, x: int) -> "CountParams":
        if r < 1:
            raise ValueError("r must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        if x < 0:
            raise ValueError("x must be >= 0")
        return super().__new__(cls, r, k, x)


class RowScale(NamedTuple):
    """The 1/zeta(rk) enclosure a scan's rows share, and its midpoint N/D
    and radius R/R_den as the integers a row's digits are cut from at
    p = ``places`` fractional digits."""

    reciprocal: Enclosure
    places: int
    unit: int  # 10^p
    mid_num: int  # N 10^p
    mid_den: int  # D
    rad_num: int  # R 10^p
    rad_den: int


@lru_cache(maxsize=None)
def row_scale(s: int, precision: Fraction) -> RowScale:
    """The RowScale of 1/zeta(s) at ``precision``, printed to its digit count; cached."""
    if s < 2:
        raise ValueError(f"r*k = {s} has no main term: (2x)^k/zeta(rk) needs r*k >= 2")
    places = decimal_places(precision)
    reciprocal = zeta_value(s, Fraction(precision)).reciprocal()
    unit, mid, rad = 10**places, reciprocal.mid, reciprocal.radius
    return RowScale(reciprocal, places, unit, mid.numerator * unit, mid.denominator,
                    rad.numerator * unit, rad.denominator)


class CountRecord(NamedTuple):
    """One scan row: exact count, the shared 1/zeta(rk) enclosure, and the
    six fields count_rows yields for it, with ``places`` fractional digits."""

    params: CountParams
    V: int
    reciprocal: Enclosure
    places: int
    row: tuple[str, ...]

    @property
    def x(self) -> int:
        return self.params.x

    @property
    def main_term(self) -> Enclosure:
        return self.reciprocal.scale((2 * self.params.x) ** self.params.k)

    @property
    def error(self) -> Enclosure:
        return self.main_term.rsub(self.V)

    @property
    def normalized_error(self) -> Decimal:
        return Decimal(self.row[4])

    @property
    def density(self) -> Fraction:
        """V / (2x+1)^k, the box density; converges to 1/zeta(rk)."""
        return Fraction(self.V, (2 * self.params.x + 1) ** self.params.k)


def count_oracle(params: CountParams, budget: int = ENUMERATION_BUDGET) -> int:
    """V by full enumeration of {-x..x}^k; the defining count."""
    x, k, r = params.x, params.k, params.r
    if (2 * x + 1) ** k > budget:
        raise ResourceLimitError(
            f"count_oracle needs {(2 * x + 1) ** k} tuples, budget is {budget}"
        )
    rfree = rfree_sieve(x, r)
    gcd = math.gcd
    count = 0
    for t in product(range(-x, x + 1), repeat=k):
        if rfree[gcd(*t)]:
            count += 1
    return count


def _check_count(r: int, k: int, x: int, rows: int = 0) -> None:
    # count_work of V(r, k, x): power_sums makes at most one run per d <= x^(1/r),
    # and at most 2 t runs of distinct x // d^r, t = x^(1/(r+1)): each d > t
    # leaves a quotient below t. Each of a scan's ``rows`` counts one more run.
    runs = min(integer_root(x, r), 2 * integer_root(x, r + 1))
    check_count_work(k, 2 * x + 1, rows + runs)


def _check_root(r: int, k: int, x: int, places: int) -> None:
    # for k = 1 and r >= 2, the digits of the x^(1/r) normalization's radicand
    # x 10^((p+10) r) at p = places, at least x's, are within ROOT_DIGITS_LIMIT
    digits = (places + 10) * r + x.bit_length() * 30103 // 100000 + 1
    if r >= 2 and k == 1 and digits > ROOT_DIGITS_LIMIT:
        raise ResourceLimitError(f"the x^(1/r) normalization at r={r} takes the root of a "
                                 f"{digits}-digit integer, limit is {ROOT_DIGITS_LIMIT}")


def count_fast(params: CountParams) -> int:
    """V by Mobius inversion over d <= floor(x^(1/r)); exact. Past
    COUNT_WORK_LIMIT it raises ResourceLimitError before any sieve."""
    r, k, x = params
    _check_count(r, k, x)
    T = mobius_table(integer_root(x, r)).power_sums(x, r, k)
    total, c = 0, 1
    for e in range(1, k + 1):
        c = c * 2 * (k - e + 1) // e  # C(k, e) 2^e
        total += c * T[e]
    return total


# Cost of one unit of count_progression's increment work (one d of its
# loop, or one multiple of d^r it steps on) in steps of count_fast's loop
# over d. CPython 3.11 on a 2-vCPU x86 VM broke even at 2 to 3.2 on r = 1..3
# progressions near x = 1e5..1e6 with steps 1 to 60000.
INCREMENT_COST = 3


def increments_pay(r: int, rows: int, span: int, root: int) -> bool:
    """Whether count_progression should sieve the increments over ``span``
    consecutive integers rather than call count_fast for each of ``rows``
    rows, where root = floor(x_max^(1/r)).

    The increments step on about span * sum_{d<=root} d^(-r) multiples and
    loop over every d <= root once; count_fast loops root times per row.
    """
    # upper bounds on sum_{d<=root} d^(-r): 1 + ln(root) for r = 1, else r/(r-1)
    density = 1 + math.log(max(root, 1)) if r == 1 else r / (r - 1)
    return INCREMENT_COST * (span * density + root) < rows * root


def count_progression(r: int, k: int, xs: range) -> list[int]:
    """V(r, k, x) for every x of the ascending progression ``xs``; exact.

    The first x is counted by count_fast. Every later integer y of the span
    adds V(y) - V(y-1) = sum_{d^r | y} mu(d) ((2q+1)^k - (2q-1)^k) with
    q = y/d^r (at y = d^r the d-th term enters with q = 1, and its -1 is
    the Mertens correction), found by stepping over the multiples of each
    d^r with mu(d) != 0. When increments_pay says the span is too sparse,
    count_fast runs on every x instead.
    """
    if not xs:
        return []
    if xs.step < 1 or xs[0] < 0:
        raise ValueError("xs must be an ascending progression of x >= 0")
    first, last = xs[0], xs[-1]
    _check_count(r, k, last)
    root = integer_root(last, r)
    mu = mobius_table(root).mu
    if not increments_pay(r, len(xs), last - first, root):
        return [count_fast(CountParams(r=r, k=k, x=x)) for x in xs]
    step = xs.step
    # rises[j]: the increments of the integers in (xs[j-1], xs[j]]
    rises = [0] * len(xs)
    for d in range(1, root + 1):
        m = mu[d]
        if not m:
            continue
        dr = d**r
        q = first // dr + 1
        for y in range(q * dr, last + 1, dr):
            rises[(y - first + step - 1) // step] += m * ((2 * q + 1) ** k - (2 * q - 1) ** k)
            q += 1
    rises[0] = count_fast(CountParams(r=r, k=k, x=first))
    for j in range(1, len(rises)):
        rises[j] += rises[j - 1]
    return rises


def count_range(r: int, k: int, xs: range) -> Iterator[int]:
    """V(r, k, x) for every x of the ascending progression ``xs``, in order,
    by one count_progression per chunk of max(SCAN_CHUNK, x_max^(1/r) + 1)
    samples: its loop over d costs at most one step per row."""
    size = max(SCAN_CHUNK, integer_root(xs[-1], r) + 1) if xs else 1
    for i in range(0, len(xs), size):
        yield from count_progression(r, k, xs[i : i + size])


def error_normalization(params: CountParams, places: int) -> tuple[int, int]:
    """Denominator for the normalized error, by asymptotic case, as an exact
    ratio (num, den) whose irrational cases carry places + 10 digits:

        x log x     when (r, k) = (1, 2)
        x^(1/r)     when r >= 2 and k = 1
        x^(k-1)     otherwise
    """
    r, k, x = params.r, params.k, params.x
    if r == 1 and k == 2:
        if x < 2:
            raise ValueError("x log x normalization needs x >= 2")
        num, den = ln_decimal(x, places + 10).as_integer_ratio()
        return x * num, den
    if x < 1:
        raise ValueError("normalization needs x >= 1")
    if r >= 2 and k == 1:
        # floor(x^(1/r) S) / S at places + 10 fractional digits
        _check_root(r, k, x, places)
        scale = 10 ** (places + 10)
        return integer_root(x * scale**r, r), scale
    return x ** (k - 1), 1


def count_rows(r: int, k: int, xs: Iterable[int], Vs: Iterable[int],
               scale: RowScale) -> Iterator[tuple[str, ...]]:
    """The fields x, V, main_term, error, normalized_error and density of
    each x >= 1 of ``xs`` with its count from ``Vs``, as text: the midpoints
    of the enclosures (2x)^k / zeta(rk) and V - main, of |error| over
    error_normalization's ratio ("NaN" at (r, k, x) = (1, 2, 1)) and
    V / (2x+1)^k, rounded half-up to the p places of ``scale``, the
    row_scale(rk, precision) whose integers are read once per call."""
    p, unit, N, D = scale.places, scale.unit, scale.mid_num, scale.mid_den
    R, rad_den, rad_bits = scale.rad_num, scale.rad_den, scale.rad_den.bit_length()
    fixed = f"%d.%0{p}d"  # units / 10^p as text, from divmod(units, 10^p)
    log_norm = r == 1 and k == 2  # x log x
    irrational = log_norm or (r >= 2 and k == 1)  # or x^(1/r)
    for x, V in zip(xs, Vs):
        size = (2 * x) ** k
        q, rem = divmod(size * N, D)  # main_term 10^p = q + rem/D
        # error 10^p = lead - rem/D, of magnitude whole + frac/D with 0 <= frac < D
        lead = V * unit - q
        if lead < 0 or (lead == 0 and rem > 0):
            sign, whole, frac = "-", -lead, rem
        elif rem:
            sign, whole, frac = "", lead - 1, D - rem
        else:
            sign, whole, frac = "", lead, 0
        if log_norm and x < 2:
            # x log x vanishes at x = 1; the count is fine, the ratio is not.
            normalized = "NaN"
        else:
            num, norm_den = (error_normalization(CountParams._make((r, k, x)), p)
                             if irrational else (x ** (k - 1), 1))
            # Enclosure.abs(): when the error ball, radius size R/R_den over 10^p,
            # holds 0, |error| is [0, |mid| + radius] (bit lengths settle most rows)
            wide = size * R
            holds = (whole.bit_length() + rad_bits < wide.bit_length() + 2
                     and (whole * D + frac) * rad_den < wide * D)
            if norm_den == 1 and not holds:
                # |error| 10^p / x^(k-1), with a, b = divmod(whole, x^(k-1))
                a, b = divmod(whole, num)
                units = a + (2 * b + (2 * frac >= D) >= num)
            else:
                top, bottom = whole * D + frac, D  # |error|'s midpoint 10^p = top/bottom
                if holds:
                    top, bottom = top * rad_den + wide * D, 2 * D * rad_den
                a, b = divmod(top * norm_den, bottom * num)
                units = a + (2 * b >= bottom * num)
            normalized = fixed % divmod(units, unit)
        density, drem = divmod(V * unit, box := (2 * x + 1) ** k)  # V / (2x+1)^k
        yield (str(x), str(V), fixed % divmod(q + (2 * rem >= D), unit),
               sign + fixed % divmod(whole + (2 * frac >= D), unit), normalized,
               fixed % divmod(density + (2 * drem >= box), unit))


def _scan(r, k, x_min, x_max, step, precision):
    # a scan's checked xs, their counts (count_range, chunk by chunk) and row_scale
    if x_min < 2:
        raise ValueError("x_min must be >= 2")
    if x_max < x_min:
        raise ValueError("x_max must be >= x_min")
    if step < 1:
        raise ValueError("step must be >= 1")
    CountParams(r=r, k=k, x=x_min)  # checks r and k once; every x of xs is valid
    xs = range(x_min, x_max + 1, step)
    if len(xs) > MAX_SCAN_RECORDS:
        raise ResourceLimitError(
            f"scan would emit {len(xs)} records, limit is {MAX_SCAN_RECORDS}")
    _check_root(r, k, x_max, decimal_places(precision))  # the largest x, before zeta(rk)
    _check_count(r, k, x_max, len(xs))
    scale = row_scale(r * k, Fraction(precision))
    mobius_table(integer_root(x_max, r))  # one sieve, to the largest root
    return xs, count_range(r, k, xs), scale


def scan_rows(r: int, k: int, x_min: int, x_max: int, step: int = 1,
              precision: Fraction = DEFAULT_PRECISION) -> Iterator[tuple[str, ...]]:
    """count_rows's fields per sampled x, ascending, each row made as it is
    drawn: the scan holds one chunk's counts, O(x_max^(1/r)) integers like the
    Mobius table. Deterministic; the arguments are checked at the first row."""
    xs, counts, scale = _scan(r, k, x_min, x_max, step, precision)
    yield from count_rows(r, k, xs, counts, scale)


def count_record(params: CountParams, precision: Fraction = DEFAULT_PRECISION,
                 V: int | None = None) -> CountRecord:
    """count_rows's row of one (r, k, x) on row_scale(rk, precision), wrapped;
    ``V`` is the exact count, count_fast's when None."""
    x, k, r = params.x, params.k, params.r
    if x < 1:
        raise ValueError("count_record needs x >= 1")
    _check_root(r, k, x, decimal_places(precision))  # before zeta(rk)
    _check_count(r, k, x)
    scale = row_scale(r * k, precision)
    if V is None:
        V = count_fast(params)
    (row,) = count_rows(r, k, (x,), (V,), scale)
    return CountRecord(params, V, scale.reciprocal, scale.places, row)
