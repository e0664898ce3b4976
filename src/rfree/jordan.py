"""Generalized Jordan totients and their partial sums.

J_k^r(n) counts k-tuples in [1, n]^k that are jointly relatively r-prime
with n: no d > 1 has d^r dividing n and every coordinate (equivalently, no
prime q does). Two closed forms exist and are cross-checked on every call:

    divisor sum:    sum_{d^r | n} mu(d) (n/d^r)^k
    Euler product:  n^k * prod_{p^r | n} (1 - p^(-rk))

For k = 0 both collapse to the r-free indicator of n. Partial sums
sum_{n<=x} J_{k-1}^r(n) come in a direct reference loop and a Bernoulli
expansion: summing Faulhaber's polynomial F_k(q) = sum_{m<=q} m^(k-1) =
sum_i a_i q^i / den over the divisor sum gives

    sum_{i=0}^{k} a_i T_i(x) / den,

with T_e(x) = sum_{d <= x^(1/r)} mu(d) floor(x/d^r)^e the power sums of
MobiusTable.power_sums, the kernel count_fast reads too. partial_sum_range
gives every x of a range from a segmented Euler-product sieve, without mu.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate, islice, product

from .arith import (
    MAX_SCAN_RECORDS,
    SCAN_CHUNK,
    check_count_work,
    exact_quotient,
    factorize,
    faulhaber_vector,
    integer_root,
    mobius,
    mobius_table,
    primes_upto,
    rfree_sieve,
)
from .errors import InvariantViolationError, ResourceLimitError

DEFAULT_TUPLE_BUDGET = 10**7


class TotientParams(namedtuple("TotientParams", "r k")):
    """Power r >= 1 and dimension k >= 0 of a generalized Jordan totient."""

    __slots__ = ()

    def __new__(cls, r: int, k: int) -> "TotientParams":
        if r < 1:
            raise ValueError("r must be >= 1")
        if k < 0:
            raise ValueError("k must be >= 0")
        return super().__new__(cls, r, k)


def _jordan_divisor_sum(n: int, r: int, k: int, factors: dict[int, int]) -> int:
    # Enumerate exactly the d with d^r | n from the exponent bounds, then
    # weight by a trial-division mu independent of any sieve.
    divisors = [1]
    for p, a in factors.items():
        emax = a // r
        if emax == 0:
            continue
        powers = [p**e for e in range(emax + 1)]
        divisors = [d * q for d in divisors for q in powers]
    total = 0
    for d in divisors:
        mu = mobius(d)
        if mu:
            total += mu * (n // d**r) ** k
    return total


def _jordan_euler_product(n: int, r: int, k: int, factors: dict[int, int]) -> int:
    # n^k (1 - p^(-rk)) as n^k / p^(rk) (p^(rk) - 1), the update jordan_segment makes
    value = n**k
    for p, a in factors.items():
        if a >= r:
            f = p ** (r * k)
            value = exact_quotient(value, f, "Euler product", n=n, r=r, k=k) * (f - 1)
    return value


def jordan(n: int, params: TotientParams) -> int:
    """J_k^r(n), computed via both closed forms.

    Raises InvariantViolationError if the divisor-sum and Euler-product
    routes disagree (they never should; the check is the point), and
    ResourceLimitError before any work past COUNT_WORK_LIMIT for J <= n^k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_count_work(params.k, n)
    factors = factorize(n)
    by_sum = _jordan_divisor_sum(n, params.r, params.k, factors)
    by_product = _jordan_euler_product(n, params.r, params.k, factors)
    if by_sum != by_product:
        raise InvariantViolationError(
            f"J_{params.k}^{params.r}({n}): divisor sum {by_sum} "
            f"!= Euler product {by_product}"
        )
    return by_sum


def jordan_oracle(
    n: int, params: TotientParams, budget: int = DEFAULT_TUPLE_BUDGET
) -> int:
    """J_k^r(n) by full enumeration of [1, n]^k; the ground-truth definition.

    A tuple counts iff gcd(n, x_1, ..., x_k) is r-free. Enumeration size is
    n^k and must stay within ``budget``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n**params.k > budget:
        raise ResourceLimitError(
            f"jordan_oracle needs {n**params.k} tuples, budget is {budget}"
        )
    rfree = rfree_sieve(n, params.r)
    gcd = math.gcd
    count = 0
    for t in product(range(1, n + 1), repeat=params.k):
        if rfree[gcd(n, *t)]:
            count += 1
    return count


def partial_sum_direct(x: int, params: TotientParams) -> int:
    """sum_{n<=x} J_{k-1}^r(n) by a plain loop; the reference implementation.

    params.k >= 1; the summand dimension is k - 1. It factorizes every n <= x,
    so x above MAX_SCAN_RECORDS raises ResourceLimitError before any work.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if params.k < 1:
        raise ValueError("partial sums need k >= 1")
    if x > MAX_SCAN_RECORDS:
        raise ResourceLimitError(f"the direct partial sum would factorize {x} integers, "
                                 f"limit is {MAX_SCAN_RECORDS}; use --method bernoulli")
    inner = TotientParams(r=params.r, k=params.k - 1)
    return sum(jordan(n, inner) for n in range(1, x + 1))


def partial_sum_bernoulli(x: int, params: TotientParams) -> int:
    """sum_{n<=x} J_{k-1}^r(n) via the Bernoulli expansion: the dot product
    of F_k with T_0..T_k(x) from one MobiusTable.power_sums call."""
    if x < 0:
        raise ValueError("x must be >= 0")
    if params.k < 1:
        raise ValueError("partial sums need k >= 1")
    r, k = params.r, params.k
    T = mobius_table(integer_root(x, r)).power_sums(x, r, k)
    return partial_sum_from_sums(T, x, r, k)


def partial_sum_from_sums(T: list[int], x: int, r: int, k: int) -> int:
    """sum_{n<=x} J_{k-1}^r(n) = sum_{i<=k} a_i T_i(x) / den for F_k =
    (den; a_0..a_k), from T = MobiusTable.power_sums(x, r, K) with K >= k.
    A non-integral total raises InvariantViolationError."""
    den, a = faulhaber_vector(k)
    total = sum(map(operator.mul, a, T))
    return exact_quotient(total, den, "Bernoulli partial sum", x=x, r=r, k=k)


def jordan_segment(
    lo: int, hi: int, r: int, es: tuple[int, ...], primes: list[int]
) -> list[list[int]]:
    """[J_e^r(n) for lo <= n < hi] for each e of ``es``, with J(0) taken as 0.

    Each n^e is multiplied by 1 - p^(-re) for each p^r | n, found by stepping
    over the multiples of p^r: the Euler factor at p^a || n is p^(ae) - p^((a-r)e)
    if a >= r, else p^(ae). ``primes`` holds every p with p^max(r, 2) < hi; for
    r = 1 what is left of n once they are divided out is 1 or a prime, taken last."""
    ns = range(lo, hi)
    vals = [[n**e if n else 0 for n in ns] for e in es]
    rest = [n or 1 for n in ns] if r == 1 else []
    for p in primes:
        if p**r >= hi:
            break
        for e, v in zip(es, vals):
            f = p ** (r * e)
            for i in range(-lo % p**r, len(ns), p**r):
                v[i] = v[i] // f * (f - 1)
        for i in range(-lo % p, len(rest), p):
            while rest[i] % p == 0:
                rest[i] //= p
    for i, q in enumerate(rest):
        if q > 1:
            for e, v in zip(es, vals):
                v[i] = v[i] // q**e * (q**e - 1)
    return vals


def partial_sum_range(
    r: int, es: tuple[int, ...], x_min: int, x_max: int
) -> Iterator[tuple[int, ...]]:
    """(sum_{n<=x} J_e^r(n) for e in es) for every x = x_min..x_max, in order,
    in time linear in the range: jordan_segment sieves segments of
    max(SCAN_CHUNK, root) integers with the primes up to root =
    floor(x_max^(1/max(r, 2))), from n = 0, or from x_min on sums that
    partial_sum_bernoulli seeds at x_min - 1 when fewer x are asked for than
    lie below x_min. For r >= 2 it holds O(SCAN_CHUNK + x_max^(1/r)) integers."""
    if x_min < 0 or x_max < x_min:
        raise ValueError("need 0 <= x_min <= x_max")
    start = x_min if x_min > x_max - x_min + 1 else 0
    seed = (partial_sum_bernoulli(start - 1, TotientParams(r, e + 1)) for e in es)
    sums = list(seed) if start else [0] * len(es)
    root = integer_root(x_max, max(r, 2))
    primes = primes_upto(root)
    size = max(SCAN_CHUNK, root)
    for lo in range(start, x_max + 1, size):
        columns = jordan_segment(lo, min(lo + size, x_max + 1), r, es, primes)
        for i, column in enumerate(columns):
            column[0] += sums[i]
            column[:] = accumulate(column)
            sums[i] = column[-1]
        yield from islice(zip(*columns), max(x_min - lo, 0), None)
