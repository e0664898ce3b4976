"""The closed polynomial identity tying box counts to totient partial sums.

For k >= 1 the count V(r, k, x) equals the formal polynomial

    ((2X + 1)^(k+1) - (2X - 1)^(k+1)) / (2(k + 1))

evaluated umbral-style: the monomial X^j is replaced by
j * sum_{n<=x} J_{j-1}^r(n) for j >= 1, and X^0 by 0. The substitution with
X^0 -> 1 instead is a useful negative control; it breaks equality already
at k = 2. identity_check compares one x through the power sums T_e both
sides share; identity_range checks a range in linear time from routes that
share no code: an Euler-product totient sieve and the counts' increments.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import MAX_SCAN_RECORDS, MobiusTable, exact_quotient, integer_root, mobius_table
from .errors import ResourceLimitError
from .jordan import TotientParams, jordan, partial_sum_from_sums, partial_sum_range
from .lattice import CountParams, count_fast, count_oracle, count_range


class IdentityCheck(NamedTuple):
    """Outcome of one identity comparison; both sides kept for diagnosis."""

    r: int
    k: int
    x: int
    umbral: int
    fast: int
    oracle: int | None = None
    zero_split: int | None = None

    @property
    def equal(self) -> bool:
        return self.umbral == self.fast and (self.oracle is None or self.oracle == self.umbral)


@lru_cache(maxsize=None)
def umbral_coefficients(k: int) -> tuple[Fraction, ...]:
    """Exact coefficients c_0..c_{k+1} of
    ((2X+1)^(k+1) - (2X-1)^(k+1)) / (2(k+1)).

    Only degrees j with j == k (mod 2) survive; in particular c_{k+1} = 0 and
    c_k = 2^k. Every denominator divides 2(k+1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return tuple(
        Fraction(math.comb(k + 1, j) * 2**j, k + 1) if (k + 1 - j) % 2 else Fraction(0)
        for j in range(k + 2)
    )


@lru_cache(maxsize=None)
def umbral_weights(coeffs: tuple[Fraction, ...]) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """umbral_coefficients as integers: (den, den c_0, ((j - 1, den c_j j), ...))
    over the nonzero c_j with j >= 1, where den is their least common
    denominator and j - 1 is the Jordan index that X^j reads."""
    den = math.lcm(*(c.denominator for c in coeffs))
    scaled = [int(c * den) for c in coeffs]
    return den, scaled[0], tuple((j - 1, w * j) for j, w in enumerate(scaled) if j and w)


def umbral_eval(
    x: int,
    r: int,
    k: int,
    table: MobiusTable | None = None,
    constant_substitution: int = 0,
) -> int:
    """Evaluate the polynomial with X^j -> j * sum_{n<=x} J_{j-1}^r(n), each
    partial sum the F_j dot product with one power_sums(x, r, k) call.

    ``constant_substitution`` is the value assigned to X^0 and exists only
    for the negative control; the identity requires 0 there. Must equal
    count_fast for the zero-inclusive box convention; a non-integral result
    raises InvariantViolationError.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if r < 1 or k < 1:
        raise ValueError("r and k must be >= 1")
    den, constant, weights = umbral_weights(umbral_coefficients(k))
    # perfbench's umbral check passes its own table, whose size power_sums checks
    T = (table or mobius_table(integer_root(x, r))).power_sums(x, r, k)
    total = constant * constant_substitution + sum(
        w * partial_sum_from_sums(T, x, r, e + 1) for e, w in weights
    )
    return exact_quotient(total, den, "umbral evaluation", r=r, k=k, x=x)


def zero_coordinate_expansion(x: int, r: int, k: int) -> int:
    """Debug evaluator: count by splitting on the number of zero coordinates,

        sum_{i=0}^{k-1} C(k, i) 2^(k-i)
            sum_{n<=x} sum_{j=0}^{k-i-1} (-1)^(k-i-1-j) C(k-i, j) J_j^r(n)

    Slower than umbral_eval; used by identity_check to localize a mismatch.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if r < 1 or k < 1:
        raise ValueError("r and k must be >= 1")
    sums = [sum(jordan(n, TotientParams(r=r, k=j)) for n in range(1, x + 1)) for j in range(k)]
    return sum(
        math.comb(k, i) * 2 ** (k - i)
        * sum((-1) ** (k - i - 1 - j) * math.comb(k - i, j) * sums[j] for j in range(k - i))
        for i in range(k)
    )


def identity_check(r: int, k: int, x: int, oracle_budget: int | None = None) -> IdentityCheck:
    """Compare umbral_eval against count_fast (and count_oracle when a
    budget is given and the box fits). Mismatch is a result, not an error,
    and adds the zero-coordinate expansion to the report."""
    lhs = umbral_eval(x, r, k)
    rhs = count_fast(CountParams(r=r, k=k, x=x))
    oracle = None
    if oracle_budget is not None and (2 * x + 1) ** k <= oracle_budget:
        oracle = count_oracle(CountParams(r=r, k=k, x=x), budget=oracle_budget)
    zero_split = None if lhs == rhs else zero_coordinate_expansion(x, r, k)
    return IdentityCheck(
        r=r, k=k, x=x, umbral=lhs, fast=rhs, oracle=oracle, zero_split=zero_split
    )


def identity_range(r: int, k: int, x_min: int, x_max: int) -> Iterator[IdentityCheck]:
    """identity_check at every x = x_min..x_max, in order, in linear time,
    from partial_sum_range and count_range, weighted by umbral_weights. More
    than MAX_SCAN_RECORDS values raise ResourceLimitError before any sieve."""
    if x_min < 0 or x_max < x_min:
        raise ValueError("need 0 <= x_min <= x_max")
    xs = range(x_min, x_max + 1)
    if len(xs) > MAX_SCAN_RECORDS:
        raise ResourceLimitError(
            f"identity would check {len(xs)} values, limit is {MAX_SCAN_RECORDS}"
        )
    den, _, pairs = umbral_weights(umbral_coefficients(k))
    es, weights = zip(*pairs)
    mobius_table(integer_root(x_max, r))  # one sieve, to the largest root
    sums = partial_sum_range(r, es, x_min, x_max)
    for x, S, V in zip(xs, sums, count_range(r, k, xs)):
        total = sum(map(operator.mul, weights, S))
        umbral = exact_quotient(total, den, "umbral evaluation", r=r, k=k, x=x)
        zero_split = None if umbral == V else zero_coordinate_expansion(x, r, k)
        yield IdentityCheck(r=r, k=k, x=x, umbral=umbral, fast=V, zero_split=zero_split)
