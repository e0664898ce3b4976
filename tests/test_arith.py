import math
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rfree import (
    Enclosure,
    bernoulli_numbers,
    faulhaber_sum,
    format_fraction,
    integer_root,
    mobius,
    sieve_mobius,
    zeta_enclosure,
    zeta_value,
)
from rfree import arith
from rfree.arith import (
    FACTOR_BOUND,
    exact_quotient,
    factorize,
    faulhaber_vector,
    format_ratio,
    primes_upto,
    rfree_sieve,
)
from rfree.errors import InvariantViolationError, ResourceLimitError

# Analytically known zeta digits, frozen for enclosure checks.
ZETA2 = Fraction(Decimal("1.64493406684822643647241516664602518922"))
ZETA3 = Fraction(Decimal("1.20205690315959428539973816151144999076"))
ZETA4 = Fraction(Decimal("1.08232323371113819151600369654116790277"))


# ---------------------------------------------------------------------------
# Mobius sieve
# ---------------------------------------------------------------------------

def test_sieve_limit_one():
    t = sieve_mobius(1)
    assert t.mu[1:] == [1]


def test_sieve_limit_six():
    t = sieve_mobius(6)
    assert t.mu[1:] == [1, -1, -1, 0, -1, 1]


def test_sieve_rejects_zero_limit():
    with pytest.raises(ValueError):
        sieve_mobius(0)


def test_sieve_limit_is_checked_before_allocating(monkeypatch):
    monkeypatch.setattr(arith, "SIEVE_LIMIT", 100)
    assert sieve_mobius(100).limit == 100  # exactly the limit passes
    monkeypatch.setattr(arith, "bytearray", lambda n: pytest.fail("allocated"), raising=False)
    with pytest.raises(ResourceLimitError, match=r"^Mobius sieve to 101 needs 102 entries, limit is 100$"):
        sieve_mobius(101)


def test_sieve_against_trial_division():
    t = sieve_mobius(10**6)
    rng = random.Random(20240817)
    for _ in range(1000):
        n = rng.randint(1, 10**6)
        assert t.mu[n] == mobius(n)


def test_sieve_basic_invariants():
    t = sieve_mobius(10**6)
    assert t.mu[1] == 1
    for p in primes_upto(200):
        assert t.mu[p] == -1
    assert all(v in (-1, 0, 1) for v in t.mu[1:1000])


def test_divisor_sums_of_mu_vanish():
    t = sieve_mobius(10**6)
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(2, 10**6)
        total = 0
        for d in range(1, math.isqrt(n) + 1):
            if n % d == 0:
                total += t.mu[d]
                if d != n // d:
                    total += t.mu[n // d]
        assert total == 0, f"sum of mu over divisors of {n} is {total}"


def _naive_power_sums(table, x, r, k):
    root = integer_root(x, r)
    return [
        sum(table.mu[d] * (x // d**r) ** e for d in range(1, root + 1))
        for e in range(k + 1)
    ]


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(1, 4),
    k=st.integers(0, 5),
    root=st.integers(0, 3000),
    offset=st.one_of(st.just(0), st.integers(0, 3001**4)),
)
@example(r=1, k=3, root=0, offset=0)      # x = 0
@example(r=2, k=5, root=3000, offset=0)   # x = 3000^2, an exact square
@example(r=3, k=2, root=1000, offset=0)   # x = 10^9, an exact cube
def test_power_sums_match_naive(r, k, root, offset):
    # x ranges over [root^r, (root+1)^r), so floor(x^(1/r)) = root <= 3000;
    # offset 0 makes x an exact r-th power
    x = root**r + offset % ((root + 1) ** r - root**r)
    t = sieve_mobius(3000)
    sums = t.power_sums(x, r, k)
    assert sums == _naive_power_sums(t, x, r, k)
    assert sums[0] == sum(t.mu[1:root + 1])


def _two_list_power_sums(table, x, r, k):
    # power_sums as it was before it streamed its runs: every run's quotient
    # and summed mu kept in two lists, then k passes of products over them
    root = integer_root(x, r)
    qs, cs = [], []
    q_run, mu_run = x, 0
    for d in range(1, root + 1):
        m = table.mu[d]
        if m:
            q = x // d**r
            if q != q_run:
                qs.append(q_run)
                cs.append(mu_run)
                q_run, mu_run = q, 0
            mu_run += m
    qs.append(q_run)
    cs.append(mu_run)
    sums = [sum(cs)]
    for _ in range(k):
        cs = [c * q for c, q in zip(cs, qs)]
        sums.append(sum(cs))
    return sums


@settings(max_examples=300, deadline=None)
@given(r=st.integers(1, 60), k=st.integers(0, 8), root=st.integers(0, 3000),
       offset=st.integers(0, 10**200))
@example(r=1, k=0, root=0, offset=0)
@example(r=2, k=3, root=2, offset=0)  # x = 4: the last run is d = 2 alone
@example(r=40, k=5, root=3000, offset=10**200)
def test_power_sums_match_the_two_list_form(r, k, root, offset):
    # x ranges over [root^r, (root+1)^r), so floor(x^(1/r)) = root <= 3000
    x = root**r + offset % ((root + 1) ** r - root**r)
    t = sieve_mobius(3000)
    assert t.power_sums(x, r, k) == _two_list_power_sums(t, x, r, k)


def _small_table_entry_points():
    from rfree import (
        CountParams,
        FracSumParams,
        TotientParams,
        count_fast,
        error_scan,
        frac_sum,
        identity_check,
        mertens_residual,
        mertens_residual_scan,
        partial_sum_bernoulli,
        proposition_residual,
        proposition_residual_scan,
        umbral_eval,
    )
    from rfree.lattice import count_progression

    # every call needs mu up to 50: floor(50^(1/1)) = floor(2500^(1/2))
    given = {  # these read the table they are given
        "power_sums": lambda t: t.power_sums(50, 1, 2),
        "umbral_eval": lambda t: umbral_eval(50, 1, 2, table=t),
    }
    process = {  # these read arith.mobius_table's
        "count_fast": lambda: count_fast(CountParams(r=1, k=2, x=50)),
        "count_progression": lambda: count_progression(1, 2, range(40, 51)),
        "error_scan": lambda: next(error_scan(1, 2, 40, 50)),
        "partial_sum_bernoulli": lambda: partial_sum_bernoulli(50, TotientParams(r=1, k=2)),
        "identity_check": lambda: identity_check(1, 2, 50),
        "frac_sum": lambda: frac_sum(FracSumParams(r=1, j=2, i=1, x=50)),
        "mertens_residual": lambda: mertens_residual(50, 2),
        "mertens_residual_scan": lambda: next(mertens_residual_scan(50, 2)),
        "proposition_residual": lambda: proposition_residual(2500, 1, 2),
        "proposition_residual_scan": lambda: next(proposition_residual_scan(2500, 1, 2)),
    }
    return given, process


@pytest.mark.parametrize("name", sorted(set().union(*_small_table_entry_points())))
def test_table_too_small_names_limit_and_need(name, monkeypatch):
    given, process = _small_table_entry_points()
    if name in given:
        with pytest.raises(ValueError, match=r"^table sieved to 7, need 50$"):
            given[name](sieve_mobius(7))
        given[name](sieve_mobius(50))  # and the same call passes once the table covers it
        return
    # a process table sieved to 7 is not refused: it is sieved again to the need
    monkeypatch.setattr(arith, "_table", sieve_mobius(7))
    limits = []
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: limits.append(n) or sieve_mobius(n))
    process[name]()
    assert limits == [50]


# ---------------------------------------------------------------------------
# Integer roots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,r,expected",
    [(10, 2, 3), (26, 3, 2), (27, 3, 3), (10**18, 2, 10**9), (0, 5, 0), (1, 7, 1)],
)
def test_integer_root_examples(x, r, expected):
    assert integer_root(x, r) == expected


def test_integer_root_random_perfect_powers():
    rng = random.Random(99)
    for _ in range(400):
        t = rng.randint(1, 10**6)
        r = rng.randint(1, 5)
        assert integer_root(t**r, r) == t
        assert integer_root(t**r - 1, r) == t - 1


def test_integer_root_rejects_bad_args():
    with pytest.raises(ValueError):
        integer_root(-1, 2)
    with pytest.raises(ValueError):
        integer_root(10, 0)


def _integer_root_reference(x: int, r: int) -> int:
    """integer_root as it was before it started from x's leading bits: Newton
    from 1 << ceil(bits / r), which shrinks by about 1 - 1/r per step while
    it is far above the root, and the test x < 2^r."""
    if r == 1 or x < 2:
        return x
    if r == 2:
        return math.isqrt(x)
    if x < (1 << r):
        return 1
    t = 1 << -(-x.bit_length() // r)
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


@settings(max_examples=300, deadline=None)
@given(x=st.integers(0, 10**400), r=st.integers(1, 300))
@example(x=10**400, r=300)
@example(x=2**300 - 1, r=300)  # the largest x whose root is 1
def test_integer_root_matches_the_reference(x, r):
    assert integer_root(x, r) == _integer_root_reference(x, r)


@settings(max_examples=300, deadline=None)
@given(
    rt=st.integers(2, 300).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(1, _integer_root_reference(10**400, r)))),
    offset=st.sampled_from([-1, 0, 1]),
)
@example(rt=(3, 10**133), offset=0)
@example(rt=(300, 21), offset=-1)
def test_integer_root_at_perfect_powers_and_their_neighbours(rt, offset):
    r, t = rt
    x = t**r + offset
    assert integer_root(x, r) == _integer_root_reference(x, r) == t - (offset < 0)


def test_integer_root_at_huge_r_builds_no_power_of_two():
    # x < 2^r is read from x's bit length; 1 << 10**8 would take 12.5 MB
    tracemalloc.start()
    try:
        assert integer_root(5, 10**8) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_zeta_value_past_its_limit_is_refused(monkeypatch):
    assert arith.ZETA_S_LIMIT == 10**6
    monkeypatch.setattr(arith, "ZETA_S_LIMIT", 977)
    assert zeta_value(977).s == 977
    with pytest.raises(ResourceLimitError, match=r"^zeta\(978\) needs 978-bit rationals, limit is s <= 977$"):
        zeta_value(978)


def test_mobius_table_sieves_or_checks_the_given_table(monkeypatch):
    # the process's one table: the first request sieves max(n, 1), a request
    # within its limit L sieves nothing, one past it max(n, min(2 L, SIEVE_LIMIT))
    limits = []
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: limits.append(n) or sieve_mobius(n))
    assert arith.mobius_table(0) == sieve_mobius(1)  # n = 0 still sieves to 1
    assert arith.mobius_table(1) is arith.mobius_table(0)
    assert arith.mobius_table(12) == sieve_mobius(12)
    assert arith.mobius_table(13) == sieve_mobius(24)
    assert arith.mobius_table(20) is arith.mobius_table(24)
    assert arith.mobius_table(100) == sieve_mobius(100)
    assert limits == [1, 12, 24, 100]
    monkeypatch.setattr(arith, "SIEVE_LIMIT", 150)
    assert arith.mobius_table(101).limit == 150  # doubling stops at SIEVE_LIMIT
    with pytest.raises(ResourceLimitError, match=r"^Mobius sieve to 151 needs 152 entries, limit is 150$"):
        arith.mobius_table(151)
    assert arith.mobius_table(150).limit == 150  # a refused request keeps the table
    assert limits == [1, 12, 24, 100, 150, 151]


def test_rising_requests_sieve_log_n_times(monkeypatch):
    limits = []
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: limits.append(n) or sieve_mobius(n))
    n_max = 10**5
    for n in range(1, n_max + 1):
        assert arith.mobius_table(n).limit >= n
    # 1, 2, 4, ..., 2^17: floor(log2(n_max)) + 2 sieves, 2 n_max entries at most
    assert limits == [2**i for i in range(18)]
    assert len(limits) == math.floor(math.log2(n_max)) + 2


# ---------------------------------------------------------------------------
# Bernoulli numbers and Faulhaber sums
# ---------------------------------------------------------------------------

def test_bernoulli_second_convention():
    assert bernoulli_numbers(2) == (Fraction(1), Fraction(1, 2))
    assert bernoulli_numbers(4) == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(0),
    )
    assert bernoulli_numbers(8)[6] == Fraction(1, 42)


def test_bernoulli_odd_indices_vanish():
    seq = bernoulli_numbers(20)
    for i in range(3, 20, 2):
        assert seq[i] == 0


def test_bernoulli_defining_recurrence():
    # Independent oracle: B_m = (m+1 - sum_{j<m} C(m+1, j) B_j) / (m+1),
    # the identity sum_{j<=m} C(m+1, j) B_j = m+1 for the B_1 = +1/2 values.
    seq = bernoulli_numbers(20)
    expected = [Fraction(1)]
    for m in range(1, 20):
        acc = sum(math.comb(m + 1, j) * expected[j] for j in range(m))
        expected.append(Fraction(m + 1 - acc, m + 1))
    assert list(seq) == expected


def test_bernoulli_first_convention_identity():
    # Flipping B_1 to -1/2 must satisfy sum_{j<=m} C(m+1, j) B_j^- = 0.
    seq = list(bernoulli_numbers(16))
    seq[1] = -seq[1]
    for m in range(1, 16):
        assert sum(math.comb(m + 1, j) * seq[j] for j in range(m + 1)) == 0


def test_bernoulli_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        bernoulli_numbers(0)


def test_bernoulli_budget_is_checked_before_any_work(monkeypatch):
    over = arith.BERNOULLI_LIMIT + 1
    monkeypatch.setattr(arith, "Fraction", lambda *args: pytest.fail("computed"))
    message = f"need {over} Bernoulli numbers, limit is {arith.BERNOULLI_LIMIT}"
    with pytest.raises(ResourceLimitError, match=message):
        bernoulli_numbers(over)
    # the Faulhaber sums reach it through bernoulli_numbers(e + 1)
    with pytest.raises(ResourceLimitError, match=message):
        faulhaber_sum(10, arith.BERNOULLI_LIMIT)


@pytest.mark.parametrize("upper,e,expected", [(10, 1, 55), (5, 2, 55), (0, 3, 0)])
def test_faulhaber_examples(upper, e, expected):
    assert faulhaber_sum(upper, e) == expected


def test_faulhaber_100_4_against_naive():
    assert faulhaber_sum(100, 4) == sum(m**4 for m in range(1, 101))


def test_faulhaber_matches_naive_full_grid():
    # All M <= 1000, e <= 8, with running naive sums as the oracle.
    running = [0] * 9
    for upper in range(0, 1001):
        if upper:
            for e in range(9):
                running[e] += upper**e
        for e in range(9):
            assert faulhaber_sum(upper, e) == running[e]


def test_faulhaber_vector_matches_naive_sums():
    # F_k = (den; a_0..a_k) against sum_{m<=q} m^(k-1), term by term
    for k in range(1, 16):
        den, a = faulhaber_vector(k)
        assert len(a) == k + 1 and a[0] == 0 and den > 0
        total = 0
        for q in range(61):
            total += q ** (k - 1) if q else 0
            assert sum(c * q**i for i, c in enumerate(a)) == total * den


def test_exact_quotient_names_its_inputs():
    assert exact_quotient(-12, 4, "unused", x=1) == -3
    with pytest.raises(InvariantViolationError, match=r"^a sum at x=7, k=2 is non-integral: 13/4$"):
        exact_quotient(13, 4, "a sum", x=7, k=2)


# ---------------------------------------------------------------------------
# zeta enclosures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "s,precision,known",
    [
        (2, Fraction(1, 10**8), ZETA2),
        (3, Fraction(1, 10**10), ZETA3),
        (4, Fraction(1, 10**8), ZETA4),
    ],
)
def test_zeta_known_values(s, precision, known):
    z = zeta_value(s, precision)
    assert z.radius <= precision
    # known digits are exact to ~38 places, far below the radius
    assert abs(z.mid - known) <= z.radius + Fraction(1, 10**36)
    assert z.lo <= known <= z.hi
    assert isinstance(z, Enclosure)


def test_zeta_enclosures_at_two_depths_intersect():
    for s in (2, 3, 5):
        a = zeta_enclosure(s, 10)
        b = zeta_enclosure(s, 25)
        assert a.lo <= b.hi and b.lo <= a.hi


def test_zeta_radius_decreases_with_depth():
    radii = [zeta_enclosure(3, n).radius for n in range(5, 30, 5)]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def _linear_zeta_depth(s, target):
    # zeta_value's earlier depth search: one Fraction radius per depth
    one_minus = Fraction(2 ** (s - 1) - 1, 2 ** (s - 1))
    depth = 1
    while Fraction(3) / (Fraction(29, 5) ** depth * one_minus) > target:
        depth += 1
    return depth


@pytest.mark.parametrize("s", range(2, 9))
def test_zeta_depth_matches_the_linear_search(monkeypatch, s):
    monkeypatch.setattr(arith, "zeta_enclosure", lambda s, depth: depth)
    targets = [Fraction(1, 10**p) for p in [*range(1, 60), 100, 300, 900, 1000]]
    targets += [Fraction(1, 2), Fraction(3, 10**7), Fraction(7, 3)]
    for target in targets:
        assert zeta_value.__wrapped__(s, target) == _linear_zeta_depth(s, target), target


def test_zeta_radius_formula():
    for s in (2, 3, 8):
        one_minus = Fraction(2 ** (s - 1) - 1, 2 ** (s - 1))
        for n in (1, 2, 7, 40):
            assert zeta_enclosure(s, n).radius == Fraction(3) / (Fraction(29, 5) ** n * one_minus)


def _borwein_exact(s, n):
    # the exact-Fraction Borwein sum zeta_enclosure summed before it went to
    # fixed point, kept as the reference for its midpoint
    term = Fraction(1)
    d = [Fraction(1)]
    for i in range(1, n + 1):
        term *= Fraction(4 * (n + i - 1) * (n - i + 1), (2 * i - 1) * (2 * i))
        d.append(d[-1] + term)
    acc = Fraction(0)
    for k in range(n):
        t = Fraction(d[k] - d[n], (k + 1) ** s)
        acc += -t if k % 2 else t
    return -acc / (d[n] * Fraction(2 ** (s - 1) - 1, 2 ** (s - 1)))


@pytest.mark.parametrize("s", [*range(2, 9), 200, 2000, 6000])
def test_zeta_fixed_point_sum_matches_the_exact_sum(s):
    one_minus = Fraction(2 ** (s - 1) - 1, 2 ** (s - 1))
    for n in [*range(1, 61), 1180] if s < 9 else [40]:
        z, exact = zeta_enclosure(s, n), _borwein_exact(s, n)
        bits = -(-n * 25361 // 10000) + 64
        assert 2**bits * 5**n >= 29**n * 2**64
        assert z.mid.denominator & (z.mid.denominator - 1) == 0  # a power of two
        assert abs(z.mid - exact) < Fraction(3, 2**bits), (s, n)
        assert z.contains(exact)
        # the rounding fits in the slack between the stated radius and
        # Borwein's 3 / ((3 + sqrt(8))^n |1 - 2^(1-s)|), with 3 + sqrt(8) > 5.828
        borwein = Fraction(3) / (Fraction(5828, 1000) ** n * one_minus)
        assert abs(z.mid - exact) + borwein <= z.radius, (s, n)


def test_zeta_rejects_small_s():
    with pytest.raises(ValueError):
        zeta_value(1)
    with pytest.raises(ValueError):
        zeta_enclosure(0, 10)


def test_zeta_default_precision_is_tight():
    z = zeta_value(4)
    assert z.radius <= Fraction(1, 10**30)


# ---------------------------------------------------------------------------
# r-free sieve helper
# ---------------------------------------------------------------------------

def test_rfree_sieve_squarefree():
    flags = rfree_sieve(50, 2)
    squarefree = {n for n in range(1, 51) if mobius(n) != 0}
    assert {n for n in range(51) if flags[n]} == squarefree


def test_rfree_sieve_one_free_and_zero():
    flags = rfree_sieve(20, 1)
    assert flags[0] == 0
    assert {n for n in range(21) if flags[n]} == {1}


# ---------------------------------------------------------------------------
# Rendering and enclosures
# ---------------------------------------------------------------------------

def test_format_fraction_basic():
    assert format_fraction(Fraction(3, 2), 6) == "1.500000"
    assert format_fraction(Fraction(-1, 3), 5) == "-0.33333"
    assert format_fraction(Fraction(2, 3), 5) == "0.66667"
    assert format_fraction(Fraction(7), 0) == "7"
    assert format_fraction(-7, 2) == "-7.00"


def test_format_ratio_needs_no_lowest_terms():
    # format_fraction is format_ratio of the reduced pair; any common factor
    # scales the remainder and the denominator alike
    for num, den, places in ((-5, 3, 4), (1, 8, 2), (-1, 8, 2), (7, 1, 0), (-1, 3, 0)):
        for g in (1, 3, 10**40 + 7):
            assert format_ratio(num * g, den * g, places) == format_fraction(Fraction(num, den), places)
    assert format_ratio(-1, 10**9, 3) == "-0.000"  # the sign survives rounding to zero
    assert format_ratio(1, 8, 2) == "0.13" and format_ratio(-1, 8, 2) == "-0.13"
    with pytest.raises(ValueError):
        format_ratio(1, 3, -1)


def test_enclosure_operations():
    e = Enclosure.between(Fraction(-1, 2), Fraction(1, 4))
    assert e.mid == Fraction(-1, 8)
    assert e.radius == Fraction(3, 8)
    assert e.contains(0)
    assert e.abs().lo == 0 and e.abs().hi == Fraction(1, 2)
    assert Enclosure.between(Fraction(-3), Fraction(-1)).abs() == Enclosure.between(
        Fraction(1), Fraction(3)
    )
    ten_minus = e.rsub(10)
    assert ten_minus.lo == Fraction(39, 4) and ten_minus.hi == Fraction(21, 2)
    with pytest.raises(ValueError):
        Enclosure.between(Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        Enclosure(mid=Fraction(0), radius=Fraction(-1))
    with pytest.raises(ValueError):
        e.scale(-1)
    with pytest.raises(TypeError):
        Enclosure(Fraction(-1, 2), Fraction(1, 4))  # fields are keyword-only


def test_enclosure_div_pos_signs():
    e = Enclosure.between(Fraction(-4), Fraction(6))
    divided = e.div_pos(Enclosure.between(Fraction(1), Fraction(2)))
    assert divided.lo == Fraction(-4) and divided.hi == Fraction(6)
    with pytest.raises(ValueError):
        e.div_pos(Enclosure.between(Fraction(0), Fraction(1)))


def _interval_abs(lo, hi):
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _interval_div_pos(lo, hi, den_lo, den_hi):
    return (
        lo / den_lo if lo < 0 else lo / den_hi,
        hi / den_hi if hi < 0 else hi / den_lo,
    )


@settings(max_examples=200, deadline=None)
@given(
    ends=st.lists(st.fractions(), min_size=2, max_size=2).map(sorted),
    sizes=st.lists(st.fractions(min_value=0), min_size=2, max_size=2).map(sorted),
    den=st.lists(st.fractions(min_value=Fraction(1, 10**6)), min_size=2, max_size=2).map(sorted),
    c=st.fractions(min_value=0),
)
def test_enclosure_ball_matches_interval_formulas(ends, sizes, den, c):
    # the drawn interval, then one >= 0, one <= 0 and one straddling 0
    u, v = sizes
    den_ball = Enclosure.between(*den)
    eps = Fraction(1, 10**9)
    for lo, hi in (ends, (u, v), (-v, -u), (-u - 1, v + 1)):
        e = Enclosure.between(lo, hi)
        assert (e.lo, e.hi) == (lo, hi)
        assert e.contains(lo) and e.contains(hi)
        assert not e.contains(lo - eps) and not e.contains(hi + eps)
        scaled = e.scale(c)
        assert (scaled.lo, scaled.hi) == (c * lo, c * hi)
        subtracted = e.rsub(c)
        assert (subtracted.lo, subtracted.hi) == (c - hi, c - lo)
        assert (e.abs().lo, e.abs().hi) == _interval_abs(lo, hi)
        quotient = e.div_pos(den_ball)
        assert (quotient.lo, quotient.hi) == _interval_div_pos(lo, hi, *den)


# ---------------------------------------------------------------------------
# Factorization bound
# ---------------------------------------------------------------------------

def test_factorize_stops_at_bound():
    # 999983 is the largest prime below 10**6 and 1000003 the smallest above
    assert FACTOR_BOUND == 10**6
    assert factorize(999983**2) == {999983: 2}
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    with pytest.raises(ResourceLimitError, match=str(1000003**2)):
        factorize(1000003**2)


def test_mobius_reads_factorize_and_its_bound():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert mobius(999983 * 1000003) == 1 and mobius(2 * 999983**2) == 0
    with pytest.raises(ValueError):
        mobius(0)
    # 2^107 - 1 is prime: trial division alone would run ~10^15 steps
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"needs trial divisors above 1000000$"):
        mobius(2**107 - 1)
    assert time.perf_counter() - start < 1


def test_faulhaber_detects_convention_bugs(monkeypatch):
    # Tampering with the cached Bernoulli values must trip the integrality
    # check rather than silently return a wrong count.
    import rfree.arith as arith

    bad = (Fraction(1), Fraction(-1, 3))
    monkeypatch.setattr(arith, "bernoulli_numbers", lambda count: bad[:count])
    # F_2 is cached on k from the true values: build it afresh, and cache nothing
    monkeypatch.setattr(arith, "faulhaber_vector", arith.faulhaber_vector.__wrapped__)
    with pytest.raises(InvariantViolationError):
        arith.faulhaber_sum(10, 1)
