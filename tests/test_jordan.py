import importlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rfree import (
    TotientParams,
    jordan,
    jordan_oracle,
    partial_sum_bernoulli,
    partial_sum_direct,
    sieve_mobius,
    zeta_value,
)
from rfree import arith
from rfree.arith import MobiusTable, primes_upto, rfree_sieve
from rfree.errors import InvariantViolationError, ResourceLimitError
from rfree.jordan import jordan_segment, partial_sum_range
from rfree.arith import MAX_SCAN_RECORDS

jordan_module = importlib.import_module("rfree.jordan")  # rfree.jordan is the function


def test_params_validation():
    with pytest.raises(ValueError):
        TotientParams(r=0, k=1)
    with pytest.raises(ValueError):
        TotientParams(r=1, k=-1)
    TotientParams(r=1, k=0)  # k = 0 is the r-free indicator


@pytest.mark.parametrize(
    "n,r,k,expected",
    [
        (6, 1, 1, 2),    # Euler phi(6)
        (4, 2, 2, 15),   # 4^2 * (1 - 1/2^4)
        (12, 2, 0, 0),   # 12 is not squarefree
        (1, 1, 1, 1),
        (1, 3, 4, 1),
        (10, 2, 0, 1),   # squarefree
    ],
)
def test_jordan_examples(n, r, k, expected):
    assert jordan(n, TotientParams(r=r, k=k)) == expected


def test_jordan_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        jordan(0, TotientParams(r=1, k=1))


def test_jordan_past_the_totient_work_limit_is_refused_before_any_power(monkeypatch):
    # the size of n^k is checked before factoring n, and the divisor sum's
    # 2^(number of p with p^r | n) powers before any power
    jordan_module = importlib.import_module("rfree.jordan")
    monkeypatch.setattr(jordan_module, "factorize", lambda n: pytest.fail("factorized"))
    with pytest.raises(ResourceLimitError, match=r"^a totient below 2\^10000000 over 1 power\(s\) "):
        jordan(2, TotientParams(r=1, k=10**7))
    monkeypatch.undo()
    powers = []
    check = jordan_module.check_totient_work
    monkeypatch.setattr(jordan_module, "check_totient_work",
                        lambda k, n, p=1: powers.append(p) or check(k, n, p))
    for name in ("_jordan_divisor_sum", "_jordan_euler_product"):
        monkeypatch.setattr(jordan_module, name, lambda *args: pytest.fail("powered"))
    n = 963761198400  # 2^6 3^4 5^2 7 11 13 17 19 23
    with pytest.raises(ResourceLimitError, match=rf"^a totient below {n}\^18664 over 512 power"):
        jordan(n, TotientParams(r=1, k=18664))
    with pytest.raises(ResourceLimitError, match=rf"^a totient below {n}\^43677 over 8 power"):
        jordan(n, TotientParams(r=2, k=43677))
    assert powers == [1, 512, 1, 8]
    limit, work = arith.TOTIENT_WORK_LIMIT, arith.totient_work
    assert work(18663, n, 512) <= limit < work(18664, n, 512)
    assert work(1778221, 2, 2) <= limit < work(1778222, 2, 2)


def test_jordan_k0_is_rfree_indicator():
    for r in (1, 2, 3):
        flags = rfree_sieve(500, r)
        for n in range(1, 501):
            assert jordan(n, TotientParams(r=r, k=0)) == flags[n]


def test_jordan_euler_phi_column():
    # J_1^1 is Euler's totient; classic values as an independent anchor.
    phi = [0, 1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4, 12, 6, 8, 8, 16, 6, 18, 8]
    for n in range(1, 21):
        assert jordan(n, TotientParams(r=1, k=1)) == phi[n]


def test_jordan_dual_forms_full_grid():
    # The divisor-sum/Euler-product cross-check runs inside jordan();
    # sweeping the full grid raises InvariantViolationError on any split.
    params = [TotientParams(r=r, k=k) for r in range(1, 5) for k in range(0, 5)]
    for n in range(1, 10**4 + 1):
        for p in params:
            assert jordan(n, p) >= 0


def test_jordan_multiplicative_on_random_coprime_pairs():
    rng = random.Random(4221)
    found = 0
    while found < 200:
        m = rng.randint(2, 3000)
        n = rng.randint(2, 3000)
        if math.gcd(m, n) != 1:
            continue
        found += 1
        r = rng.randint(1, 3)
        k = rng.randint(0, 3)
        p = TotientParams(r=r, k=k)
        assert jordan(m * n, p) == jordan(m, p) * jordan(n, p)


@pytest.mark.parametrize(
    "n,r,k,expected",
    [(6, 1, 1, 2), (4, 2, 2, 15), (1, 1, 1, 1), (1, 2, 3, 1)],
)
def test_jordan_oracle_examples(n, r, k, expected):
    assert jordan_oracle(n, TotientParams(r=r, k=k)) == expected


def test_jordan_oracle_budget():
    with pytest.raises(ResourceLimitError):
        jordan_oracle(100, TotientParams(r=1, k=4), budget=10**6)


def test_jordan_matches_oracle_small():
    for r in (1, 2):
        for k in (1, 2):
            p = TotientParams(r=r, k=k)
            for n in range(1, 31):
                assert jordan(n, p) == jordan_oracle(n, p)


# ---------------------------------------------------------------------------
# Partial sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,r,k,expected",
    [
        (10, 2, 1, 7),   # squarefree count up to 10
        (5, 1, 2, 10),   # phi(1) + ... + phi(5)
        (0, 1, 3, 0),
        (1, 3, 4, 1),
    ],
)
def test_partial_sum_direct_examples(x, r, k, expected):
    assert partial_sum_direct(x, TotientParams(r=r, k=k)) == expected


def test_partial_sum_requires_k_at_least_one():
    with pytest.raises(ValueError):
        partial_sum_direct(10, TotientParams(r=1, k=0))


def test_partial_sum_direct_refuses_more_than_the_record_limit(monkeypatch):
    def no_jordan(n, params):
        raise AssertionError("factorized past the limit")

    monkeypatch.setattr(jordan_module, "jordan", no_jordan)
    with pytest.raises(ResourceLimitError, match=f"limit is {MAX_SCAN_RECORDS}; use --method bernoulli"):
        partial_sum_direct(MAX_SCAN_RECORDS + 1, TotientParams(r=2, k=2))
    with pytest.raises(AssertionError):
        partial_sum_direct(MAX_SCAN_RECORDS, TotientParams(r=2, k=2))


def test_partial_sum_bernoulli_reads_one_power_sums_call(monkeypatch):
    calls = []
    power_sums = MobiusTable.power_sums

    def counting(self, x, r, k):
        calls.append((x, r, k))
        return power_sums(self, x, r, k)

    monkeypatch.setattr(MobiusTable, "power_sums", counting)
    for k in range(1, 6):
        calls.clear()
        partial_sum_bernoulli(1000, TotientParams(r=2, k=k))
        assert calls == [(1000, 2, k)]


def test_euler_product_non_integral_names_its_inputs():
    # factors that do not multiply to n: 2^2 does not divide 6
    with pytest.raises(InvariantViolationError, match=r"^Euler product at n=6, r=2, k=1 is non-integral: 3/2$"):
        jordan_module._jordan_euler_product(6, 2, 1, {2: 2, 3: 1})


def test_partial_sum_bernoulli_examples():
    assert partial_sum_bernoulli(10, TotientParams(r=2, k=1)) == 7
    assert partial_sum_bernoulli(1, TotientParams(r=2, k=3)) == 1
    assert partial_sum_bernoulli(100, TotientParams(r=1, k=3)) == (
        partial_sum_direct(100, TotientParams(r=1, k=3))
    )


def test_partial_sum_bernoulli_table_too_small():
    # a process table short of x^(1/r) is sieved again to cover it, not refused
    assert arith.mobius_table(3).limit == 3
    params = TotientParams(r=1, k=2)
    assert partial_sum_bernoulli(100, params) == partial_sum_direct(100, params)
    assert arith.mobius_table(100).limit == 100


def test_partial_sum_methods_agree_quick():
    # Fast cross-method sweep; the full x <= 2000 grid runs in acceptance.
    for r in (1, 2, 3):
        running = [0] * 4
        for x in range(1, 301):
            for kk in range(4):
                running[kk] += jordan(x, TotientParams(r=r, k=kk))
            for k in (1, 2, 3, 4):
                assert (
                    partial_sum_bernoulli(x, TotientParams(r=r, k=k))
                    == running[k - 1]
                )


def test_partial_sum_faulhaber_form_agrees():
    # The expansion equals sum_d mu(d) * faulhaber(floor(x/d^r), k-1).
    from rfree import faulhaber_sum, integer_root

    t = sieve_mobius(300)
    rng = random.Random(5)
    for _ in range(50):
        x = rng.randint(1, 300)
        r = rng.randint(1, 3)
        k = rng.randint(1, 5)
        via_faulhaber = sum(
            t.mu[d] * faulhaber_sum(x // d**r, k - 1)
            for d in range(1, integer_root(x, r) + 1)
            if t.mu[d]
        )
        assert partial_sum_bernoulli(x, TotientParams(r=r, k=k)) == via_faulhaber


def test_partial_sum_main_term_residual_bounded(fixture_store):
    # For rk >= 3, k >= 2 the residual |S(x) - x^k/(k zeta(rk))| / x^(k-1)
    # must stay bounded; maxima recorded on the first validated run.
    for r, k, key in ((1, 3, "totient_sum_scaled_max_r1_k3"),
                      (2, 2, "totient_sum_scaled_max_r2_k2")):
        z = zeta_value(r * k)
        recip = z.reciprocal()
        observed = Fraction(0)
        for x in range(10, 5001, 10):
            s = partial_sum_bernoulli(x, TotientParams(r=r, k=k))
            main = Fraction(x**k, k) * recip.mid
            observed = max(observed, abs(s - main) / x ** (k - 1))
        fixture_store.check(key, observed)


# ---------------------------------------------------------------------------
# Segment sieve
# ---------------------------------------------------------------------------

def _segment_by_jordan(lo, hi, r, e):
    return [jordan(n, TotientParams(r=r, k=e)) if n else 0 for n in range(lo, hi)]


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(1, 4),
    es=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
    lo=st.integers(0, 3000),
    length=st.integers(1, 300),
    extra=st.integers(0, 60),
)
@example(r=1, es=[0, 1, 5], lo=0, length=300, extra=0)
@example(r=2, es=[0, 2], lo=1, length=300, extra=0)
@example(r=1, es=[1, 3], lo=2 * 1009, length=1, extra=0)    # 1009 left over
@example(r=2, es=[0, 1], lo=2 * 1009, length=1, extra=0)
@example(r=1, es=[2], lo=2999, length=2, extra=0)           # 2999 is prime
def test_jordan_segment_matches_jordan(r, es, lo, length, extra):
    # the primes up to sqrt(hi - 1), or more, as partial_sum_range passes
    hi = min(lo + length, 3001)
    primes = primes_upto(math.isqrt(hi - 1) + extra)
    columns = jordan_segment(lo, hi, r, es, primes)
    assert columns == [_segment_by_jordan(lo, hi, r, e) for e in es]


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 7, 53])
def test_jordan_segment_at_prime_powers(r, p):
    # n = p^a with a = r - 1, r, r + 1, alone in its segment and with only
    # the primes up to sqrt(n), so p itself may be the one left over
    for a in (r - 1, r, r + 1):
        n = p**a
        if n > 3000:
            continue
        columns = jordan_segment(n, n + 1, r, range(6), primes_upto(math.isqrt(n)))
        assert columns == [_segment_by_jordan(n, n + 1, r, e) for e in range(6)]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("x_min,x_max", [(0, 0), (0, 700), (40, 300), (500, 800)])
def test_partial_sum_range_matches_direct(r, x_min, x_max):
    # (500, 800) asks for fewer x than lie below 500, so its sums are
    # seeded by partial_sum_bernoulli at 499
    es = (0, 1, 3)
    sums = list(partial_sum_range(r, es, x_min, x_max))
    assert len(sums) == x_max - x_min + 1
    totals = [partial_sum_direct(x_min - 1, TotientParams(r=r, k=e + 1)) if x_min else 0 for e in es]
    for x, row in zip(range(x_min, x_max + 1), sums):
        totals = [t + (jordan(x, TotientParams(r=r, k=e)) if x else 0) for t, e in zip(totals, es)]
        assert list(row) == totals


def test_partial_sum_range_seeds_only_past_the_range(monkeypatch):
    calls = []
    original = jordan_module.partial_sum_bernoulli

    def recording(x, params):
        calls.append(x)
        return original(x, params)

    monkeypatch.setattr(jordan_module, "partial_sum_bernoulli", recording)
    list(partial_sum_range(2, (0, 2), 300, 600))
    assert calls == []
    list(partial_sum_range(2, (0, 2), 302, 600))
    assert calls == [301, 301]
    with pytest.raises(ValueError):
        list(partial_sum_range(2, (0,), 5, 4))


def test_partial_sum_range_sieves_to_the_rth_root(monkeypatch):
    # r = 3 from x_min = 9973^3, a range seeded at x_min - 1: the primes stop
    # at x_max^(1/3) = 9973, not at sqrt(x_max) ~ 10^6, and 9973^3 itself is
    # sieved by the largest of them
    p = 9973
    x_min, x_max = p**3, p**3 + 40
    limits, segments = [], []
    sieve, segment = jordan_module.primes_upto, jordan_module.jordan_segment

    def recording_sieve(limit):
        limits.append(limit)
        return sieve(limit)

    def recording_segment(lo, hi, *args):
        segments.append(hi - lo)
        return segment(lo, hi, *args)

    monkeypatch.setattr(jordan_module, "primes_upto", recording_sieve)
    monkeypatch.setattr(jordan_module, "jordan_segment", recording_segment)
    es = (0, 2)
    sums = list(partial_sum_range(3, es, x_min, x_max))
    assert (limits, segments) == ([p], [41])
    for x, before, row in zip(range(x_min + 1, x_max + 1), sums, sums[1:]):
        assert [b - a for a, b in zip(before, row)] == [jordan(x, TotientParams(r=3, k=e)) for e in es]
    assert sums[0][1] - partial_sum_bernoulli(x_min - 1, TotientParams(r=3, k=3)) == p**6 - 1
    assert list(sums[-1]) == [partial_sum_bernoulli(x_max, TotientParams(r=3, k=e + 1)) for e in es]
