"""Exact and high-precision arithmetic shared by every other module.

Provides:
    sieve_mobius      -- mu(d) up to a limit, as a MobiusTable whose
                         power_sums is the one loop over mu(d) floor(x/d^r)^e
                         that counts and partial sums read
    mobius_table      -- mu up to n: the process's one sieved table, grown
                         when a request passes its limit
    mobius            -- scalar mu(n) from factorize (independent of the sieve)
    integer_root      -- floor(x^(1/r)) in pure integer arithmetic
    bernoulli_numbers -- exact Bernoulli numbers, B_1 = +1/2 convention
    faulhaber_vector  -- F_k: sum_{m<=q} m^(k-1) as integers over one denominator,
                         cached on k
    exact_quotient    -- the one integrality check of the totient algebra
    count_work        -- the one work rule of an exact count below base^k
    totient_work      -- the one work rule of a totient J_k^r(n) <= n^k
    zeta_value        -- zeta(s) for integer 2 <= s <= ZETA_S_LIMIT with a
                         rigorous error radius, cached on s and the precision
    Enclosure         -- a closed rational ball guaranteed to contain a value
    decimal_places    -- the fractional digits an enclosure target prints

mu, zeta(s), the Bernoulli numbers and F_k are functions of their
arguments, read by the functions that use them, not passed to them.
Everything that feeds an exact identity is integer or Fraction arithmetic;
floats never touch a quantity that a test compares exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InvariantViolationError, ResourceLimitError

FACTOR_BOUND = 10**6  # largest trial divisor of factorize
SIEVE_LIMIT = 10**7  # largest sieve_mobius limit, ~12 bytes per entry at peak
BERNOULLI_LIMIT = 400  # largest bernoulli_numbers count, about 1 s at the limit
MAX_SCAN_RECORDS = 10**6  # most rows of one scan or identity range
ZETA_S_LIMIT = 10**6  # largest zeta_value s: 1/zeta(s) then takes about 4.5 s
COUNT_WORK_LIMIT = 2 * 10**11  # most count_work per exact count (README, `count`)
TOTIENT_WORK_LIMIT = 5 * 10**10  # most totient_work per totient (README, `jordan`)
SCAN_CHUNK = 256  # fewest rows per count_range chunk
ENUMERATION_BUDGET = 10**8  # most tuples an oracle enumerates by default (CLI --budget)
DEFAULT_PRECISION = Fraction(1, 10**30)  # zeta enclosure target


# ---------------------------------------------------------------------------
# Mobius sieve
# ---------------------------------------------------------------------------

class MobiusTable(NamedTuple):
    """Sieved mu values, 1-indexed.

    mu[n] is mu(n) for 1 <= n <= limit (index 0 is an unused sentinel).
    Immutable after construction.
    """

    limit: int
    mu: list[int]

    def require(self, n: int) -> None:
        """Raise ValueError unless mu is sieved up to n."""
        if n > self.limit:
            raise ValueError(f"table sieved to {self.limit}, need {n}")

    def power_sums(self, x: int, r: int, k: int) -> list[int]:
        """[T_0, ..., T_k] with T_e = sum_{d <= x^(1/r)} mu(d) floor(x/d^r)^e.

        T_0 is the Mertens sum M(floor(x^(1/r))). One pass over d groups the
        d into runs of equal quotient q = x // d^r and sums mu over each run
        to c; as a run closes, c q^e is added to each T_e. Exact, no root is
        taken per run, and no run is kept after it closes.
        """
        root = integer_root(x, r)
        self.require(root)
        mu = self.mu
        sums, es = [0] * (k + 1), range(1, k + 1)
        q_run, mu_run = x, 0
        for d in range(1, root + 1):
            m = mu[d]
            if m:
                q = x // d**r
                if q != q_run:
                    if mu_run:
                        sums[0] += mu_run
                        for e in es:
                            mu_run *= q_run
                            sums[e] += mu_run
                    q_run, mu_run = q, 0
                mu_run += m
        sums[0] += mu_run
        for e in es:
            mu_run *= q_run
            sums[e] += mu_run
        return sums


def sieve_mobius(limit: int) -> MobiusTable:
    """Build a MobiusTable up to ``limit`` with a linear sieve.

    Raises ValueError for limit < 1, and ResourceLimitError before any
    allocation for limit > SIEVE_LIMIT.
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    if limit > SIEVE_LIMIT:
        raise ResourceLimitError(
            f"Mobius sieve to {limit} needs {limit + 1} entries, limit is {SIEVE_LIMIT}"
        )
    is_comp = bytearray(limit + 1)
    mu = [0] * (limit + 1)
    mu[1] = 1
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            is_comp[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return MobiusTable(limit=limit, mu=mu)


_table = MobiusTable(limit=0, mu=[0])  # the process's mu table; limit 0 until sieved


def mobius_table(n: int) -> MobiusTable:
    """The process's MobiusTable, holding mu up to at least n. A request past
    its limit L sieves to max(n, min(2 L, SIEVE_LIMIT)) and keeps the result,
    so the first request sieves exactly max(n, 1), and requests rising to n
    sieve O(log n) times. ResourceLimitError for n > SIEVE_LIMIT."""
    global _table
    if n > _table.limit or not _table.limit:
        _table = sieve_mobius(max(n, min(2 * _table.limit, SIEVE_LIMIT), 1))
    return _table


def mobius(n: int) -> int:
    """mu(n) from factorize(n), so within its FACTOR_BOUND; the sieve-independent
    reference."""
    exponents = factorize(n).values()
    return 0 if any(a > 1 for a in exponents) else (-1) ** len(exponents)


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit (simple Eratosthenes)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i in range(2, limit + 1) if flags[i]]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}; ResourceLimitError
    if it needs a trial divisor above FACTOR_BOUND (never for n < 10^12)."""
    if n < 1:
        raise ValueError("factorize is defined for n >= 1")
    factors: dict[int, int] = {}
    rest, p = n, 2
    while p * p <= rest:
        if p > FACTOR_BOUND:
            raise ResourceLimitError(f"factorize({n}) needs trial divisors above {FACTOR_BOUND}")
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        factors[rest] = factors.get(rest, 0) + 1
    return factors


def rfree_sieve(limit: int, r: int) -> bytearray:
    """Indicator of r-free integers in [0, limit].

    entry[n] = 1 iff no prime p has p^r | n. entry[0] = 0 by convention
    (zero is divisible by every prime power). For r = 1 only n = 1 survives.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    flags = bytearray([1]) * (limit + 1)
    flags[0] = 0
    for p in primes_upto(integer_root(limit, r) if limit else 0):
        q = p**r
        flags[q :: q] = b"\x00" * len(flags[q :: q])
    return flags


def count_work(k: int, base: int, runs: int = 1) -> int:
    """Work units of an exact value below base^k: k (runs (bits + 10^4) +
    100 bits), with bits = k times base's bit length, at least that of base^k.
    Each of ``runs`` runs of power_sums takes k products of up to bits bits,
    at 10^4 units of overhead each; the k-step binomial, k-th powers,
    divisions and digits of bits-size integers cost about 100 units per k
    bits. A box count at x has base 2x + 1."""
    bits = k * base.bit_length()
    return k * (runs * (bits + 10**4) + 100 * bits)


def check_count_work(k: int, base: int, runs: int = 1) -> None:
    """ResourceLimitError past COUNT_WORK_LIMIT, checked before any sieve,
    zeta or power."""
    if (work := count_work(k, base, runs)) > COUNT_WORK_LIMIT:
        raise ResourceLimitError(f"an exact count below {base}^{k} over {runs} run(s) needs "
                                 f"{work} work units, limit is {COUNT_WORK_LIMIT}")


def totient_work(k: int, n: int, powers: int = 1) -> int:
    """Work units of J_k^r(n) <= n^k with ``powers`` squarefree d such that
    d^r | n: bits^2/64 for the decimal digits and the Euler product's divisions,
    and bits^1.5/8 + 2·10^4 for each power (n/d^r)^k of the divisor sum, with
    bits = k ceil(log2 n), at least the bit length of n^k less one."""
    bits = k * (n - 1).bit_length()
    return bits * bits // 64 + powers * (bits * math.isqrt(bits) // 8 + 2 * 10**4)


def check_totient_work(k: int, n: int, powers: int = 1) -> None:
    """ResourceLimitError past TOTIENT_WORK_LIMIT, checked before any power."""
    if (work := totient_work(k, n, powers)) > TOTIENT_WORK_LIMIT:
        raise ResourceLimitError(f"a totient below {n}^{k} over {powers} power(s) needs "
                                 f"{work} work units, limit is {TOTIENT_WORK_LIMIT}")


# ---------------------------------------------------------------------------
# Integer r-th roots
# ---------------------------------------------------------------------------

def integer_root(x: int, r: int) -> int:
    """floor(x^(1/r)) for x >= 0, r >= 1, by integer Newton iteration.

    Never goes through floats, so perfect powers land exactly: the result t
    satisfies t^r <= x < (t+1)^r.
    """
    if x < 0:
        raise ValueError("x must be >= 0")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1 or x < 2:
        return x
    if r == 2:
        return math.isqrt(x)
    bits = x.bit_length()
    if bits <= r:  # x < 2^r
        return 1
    # Start above the root by a relative 1/u at most: t = (u + 1) 2^s, with u the
    # root of x's leading bits x >> rs, about half the root's bits. Newton's
    # steps then square that gap, and they fall from above to the floored root.
    s = bits // r // 2
    t = (integer_root(x >> r * s, r) + 1) << s if s else 1 << -(-bits // r)
    while True:
        nt = ((r - 1) * t + x // t ** (r - 1)) // r
        if nt >= t:
            break
        t = nt
    while t**r > x:
        t -= 1
    while (t + 1) ** r <= x:
        t += 1
    return t


# ---------------------------------------------------------------------------
# Bernoulli numbers and Faulhaber sums
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_numbers(count: int) -> tuple[Fraction, ...]:
    """B_0 .. B_{count-1} as exact Fractions, second convention (B_1 = +1/2).
    Raises ResourceLimitError before any work for count > BERNOULLI_LIMIT."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > BERNOULLI_LIMIT:
        raise ResourceLimitError(f"need {count} Bernoulli numbers, limit is {BERNOULLI_LIMIT}")
    # Akiyama-Tanigawa; yields the B_1 = +1/2 convention directly.
    row = [Fraction(0)] * count
    out = []
    for m in range(count):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return tuple(out)


@lru_cache(maxsize=None)
def faulhaber_vector(k: int) -> tuple[int, tuple[int, ...]]:
    """F_k = (den, (a_0, ..., a_k)) for k >= 1: sum_{m<=q} m^(k-1) =
    sum_i a_i q^i / den for every q >= 0, with a_(k-j) = den C(k, j) B_j / k,
    B = bernoulli_numbers(k) (B_1 = +1/2), and a_0 = 0. Cached on k."""
    B = bernoulli_numbers(k)
    coeffs = [Fraction(0)] + [math.comb(k, j) * B[j] / k for j in range(k - 1, -1, -1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return den, tuple(int(c * den) for c in coeffs)


def exact_quotient(num: int, den: int, what: str, **inputs: int) -> int:
    """num / den for den > 0, which must be an integer: the one integrality
    check of the Faulhaber, Jordan and umbral forms. A remainder raises
    InvariantViolationError naming ``what`` and its inputs."""
    quotient, rem = divmod(num, den)
    if rem:
        named = ", ".join(f"{name}={value}" for name, value in inputs.items())
        raise InvariantViolationError(f"{what} at {named} is non-integral: {Fraction(num, den)}")
    return quotient


def faulhaber_sum(upper: int, e: int) -> int:
    """sum_{m=1}^{upper} m^e, exactly: F_(e+1) evaluated at upper. A
    non-integral value means the Bernoulli convention broke somewhere and
    raises InvariantViolationError."""
    if upper < 0:
        raise ValueError("upper must be >= 0")
    if e < 0:
        raise ValueError("e must be >= 0")
    den, a = faulhaber_vector(e + 1)
    total = sum(c * upper**i for i, c in enumerate(a))
    return exact_quotient(total, den, "Faulhaber sum", upper=upper, e=e)


# ---------------------------------------------------------------------------
# Rational enclosures
# ---------------------------------------------------------------------------

def _checked_radius(radius: Fraction) -> Fraction:
    if radius < 0:
        raise ValueError(f"negative enclosure radius {radius}")
    return radius


class Enclosure(namedtuple("Enclosure", "mid radius")):
    """Closed ball [mid - radius, mid + radius] of exact rationals containing
    a real value: the midpoint-radius form of F. Johansson's Arb (IEEE Trans.
    Computers 66, 2017). Being exact, each operation gives the endpoints of
    the interval formula. Fields are keyword-only."""

    __slots__ = ()

    def __new__(cls, *, mid: Fraction, radius: Fraction) -> "Enclosure":
        return super().__new__(cls, mid, _checked_radius(radius))

    def __getnewargs_ex__(self):
        return (), self._asdict()  # copy and pickle pass the fields by keyword

    def _no_arithmetic(self, other):
        raise TypeError("an Enclosure has no + or *; use scale, rsub or div_pos")

    # tuple's + and * would concatenate or repeat the fields
    __add__ = __radd__ = __mul__ = __rmul__ = _no_arithmetic

    @staticmethod
    def between(lo, hi) -> "Enclosure":
        if lo > hi:
            raise ValueError(f"empty enclosure: [{lo}, {hi}]")
        return Enclosure(mid=Fraction(lo + hi, 2), radius=Fraction(hi - lo, 2))

    @property
    def lo(self) -> Fraction:
        return self.mid - self.radius

    @property
    def hi(self) -> Fraction:
        return self.mid + self.radius

    def contains(self, q) -> bool:
        return self.lo <= q <= self.hi

    def abs(self) -> "Enclosure":
        if self.mid >= self.radius:
            return self
        if -self.mid >= self.radius:
            return Enclosure(mid=-self.mid, radius=self.radius)
        return Enclosure.between(0, abs(self.mid) + self.radius)

    def rsub(self, c) -> "Enclosure":
        """Enclosure of c - self for an exact scalar c."""
        return Enclosure(mid=c - self.mid, radius=self.radius)

    def scale(self, c) -> "Enclosure":
        """Enclosure of c * self for an exact scalar c >= 0."""
        if c < 0:
            raise ValueError(f"scale factor {c} is negative")
        return Enclosure(mid=self.mid * c, radius=self.radius * c)

    def div_pos(self, den: "Enclosure") -> "Enclosure":
        """Enclosure of self / d for every d in den, which must be > 0."""
        den_lo, den_hi = den.lo, den.hi
        if den_lo <= 0:
            raise ValueError("divisor enclosure must be positive")
        lo, hi = self.lo, self.hi
        return Enclosure.between(
            lo / den_lo if lo < 0 else lo / den_hi,
            hi / den_hi if hi < 0 else hi / den_lo,
        )


# ---------------------------------------------------------------------------
# zeta(s) with rigorous enclosure
# ---------------------------------------------------------------------------

class ZetaValue(namedtuple("ZetaValue", "mid radius s depth"), Enclosure):
    """An enclosure of zeta(s). ``depth`` is the truncation depth of the
    accelerated alternating series; the radius shrinks geometrically in it."""

    __slots__ = ()

    def __new__(cls, *, mid: Fraction, radius: Fraction, s: int, depth: int) -> "ZetaValue":
        return super().__new__(cls, mid, _checked_radius(radius), s, depth)

    def reciprocal(self) -> Enclosure:
        """Enclosure of 1/zeta(s); valid because zeta(s) > 1 > 0 for s >= 2."""
        return Enclosure.between(1 / self.hi, 1 / self.lo)


def _zeta_radius(s: int, n: int) -> tuple[int, int]:
    # zeta_enclosure(s, n)'s radius 3 / ((29/5)^n (1 - 2^(1-s))) as num, den
    return 3 * 2 ** (s - 1) * 5**n, (2 ** (s - 1) - 1) * 29**n


def zeta_enclosure(s: int, depth: int) -> ZetaValue:
    """zeta(s) at a fixed truncation depth n.

    Evaluates the eta-series acceleration with Chebyshev weights
    (P. Borwein, "An efficient algorithm for the Riemann zeta function",
    CMS Conf. Proc. 27, 2000, Algorithm 2): with
    d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!),

        zeta(s) = 1/(d_n (1 - 2^(1-s))) * sum_{k<n} (-1)^k (d_n - d_k)/(k+1)^s
                  + err,   |err| <= 3 / ((3+sqrt(8))^n |1 - 2^(1-s)|).

    The d_k are integers (term i is 2^(2i-1) times the Lucas-polynomial
    coefficient 2n/(n+i) C(n+i, 2i)), and the sum runs in fixed point with
    P fractional bits, 2^P >= (29/5)^n 2^64: each term and the final
    division are floored, so the midpoint m/2^P is within 2 * 2^-P of the
    exact truncated sum. The stated radius 3 / ((29/5)^n |1 - 2^(1-s)|)
    exceeds Borwein's bound by more than 3 (29/5)^-n / 300 (29/5 is 0.5%
    below 3+sqrt(8)), far more than that rounding, so it stays rigorous.
    """
    if s < 2:
        raise ValueError("zeta enclosure requires integer s >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = depth
    term, d = 1, [1]
    for i in range(1, n + 1):
        term = exact_quotient(term * 4 * (n + i - 1) * (n - i + 1), (2 * i - 1) * (2 * i),
                              "Borwein weight", n=n, i=i)
        d.append(d[-1] + term)
    bits = -(-n * 25361 // 10000) + 64  # log2(29/5) < 2.5361
    top = d[n] << bits
    acc = 0
    for k in range(n):
        v = (top - (d[k] << bits)) // (k + 1) ** s
        if not v:  # every later term is smaller still
            break
        acc += -v if k % 2 else v
    half = 2 ** (s - 1)
    mid = Fraction(acc * half // (d[n] * (half - 1)), 1 << bits)
    return ZetaValue(s=s, mid=mid, radius=Fraction(*_zeta_radius(s, n)), depth=n)


@lru_cache(maxsize=None)
def zeta_value(s: int, target_precision: Fraction = DEFAULT_PRECISION) -> ZetaValue:
    """zeta(s) with radius <= target_precision, depth chosen adaptively.
    ResourceLimitError for s > ZETA_S_LIMIT: its midpoint and radius have
    about s bits, and taking 1/zeta(s) or printing the radius costs O(s^2)."""
    if s < 2:
        raise ValueError("zeta_value requires integer s >= 2")
    if s > ZETA_S_LIMIT:
        raise ResourceLimitError(f"zeta({s}) needs {s}-bit rationals, "
                                 f"limit is s <= {ZETA_S_LIMIT}")
    target = Fraction(target_precision)
    if target <= 0:
        raise ValueError("target_precision must be positive")
    # the smallest depth with radius num/den <= target, by running powers
    num, den = _zeta_radius(s, 1)
    lhs, rhs, depth = num * target.denominator, den * target.numerator, 1
    while lhs > rhs:
        lhs, rhs, depth = lhs * 5, rhs * 29, depth + 1
    return zeta_enclosure(s, depth)


# ---------------------------------------------------------------------------
# Decimal rendering
# ---------------------------------------------------------------------------

def decimal_places(precision: Fraction) -> int:
    """Number of fractional digits implied by an enclosure target, e.g.
    1e-30 -> 30. At least 1; ValueError for a precision finer than 1e-1000."""
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    num, den = precision.numerator, precision.denominator
    if num * 10**1000 < den:
        raise ValueError("precision finer than 1e-1000 is not supported")
    # the least p >= 1 with num 10^p >= den; 0.30102 < log10(2), so the
    # digit count estimated from the bit lengths starts at most 2 below it
    places = max(1, (den.bit_length() - num.bit_length() - 1) * 30102 // 100000)
    while num * 10**places < den:
        places += 1
    return places


def format_fraction(q: Fraction | int, places: int) -> str:
    """format_ratio of q's numerator and denominator."""
    return format_ratio(q.numerator, q.denominator, places)


def format_ratio(num: int, den: int, places: int) -> str:
    """Fixed-point decimal string of num/den, den > 0, to ``places`` fractional digits.

    Round-half-up on the last digit; pure integer arithmetic, so output is
    deterministic across platforms.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    scaled, rem = divmod(abs(num) * 10**places, den)
    if 2 * rem >= den:
        scaled += 1
    return fixed_point(scaled, places, num < 0)


def fixed_point(units: int, places: int, negative: bool = False) -> str:
    """units / 10^places, units >= 0, as fixed-point text with ``places``
    fractional digits, signed "-" when ``negative``."""
    sign = "-" if negative else ""
    digits = str(units)
    if places == 0:
        return sign + digits
    digits = digits.rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def ln_decimal(x: int, digits: int = 40) -> Decimal:
    """Natural log of a positive integer as a Decimal with ``digits`` of
    working precision. Used only for normalization denominators, never for
    quantities compared exactly."""
    if x <= 0:
        raise ValueError("ln_decimal expects a positive integer")
    with localcontext() as ctx:
        ctx.prec = digits
        return Decimal(x).ln()
