import math
import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rfree import arith, lattice, omega
from rfree import (
    CountParams,
    FracSumParams,
    count_fast,
    count_record,
    error_scan,
    frac_sum,
    certify_witness,
    certify_witnesses,
    mertens_residual,
    mertens_residual_scan,
    omega_ratio_report,
    proposition_residual,
    proposition_residual_scan,
    sieve_mobius,
    truncated_frac_sum,
    witness_large,
    witness_small,
    zeta_value,
)
from rfree.arith import integer_root, ln_decimal, mobius, primes_upto
from rfree.errors import ResourceLimitError
from rfree.lattice import SCAN_CHUNK

PI_50 = Fraction(Decimal("3.14159265358979323846264338327950288419716939937510"))
ONE_MINUS_RECIP_ZETA2 = 1 - 6 / (PI_50 * PI_50)  # 1 - 6/pi^2, good to ~5e-50


def test_params_validation():
    with pytest.raises(ValueError):
        FracSumParams(r=0, j=1, i=1, x=10)
    with pytest.raises(ValueError):
        FracSumParams(r=1, j=-1, i=0, x=10)
    with pytest.raises(ValueError):
        FracSumParams(r=1, j=0, i=0, x=-1)


# ---------------------------------------------------------------------------
# frac_sum
# ---------------------------------------------------------------------------

def test_frac_sum_example_x11():
    value = frac_sum(FracSumParams(r=2, j=2, i=1, x=11))
    assert value == Fraction(-2315, 46656)


def test_frac_sum_example_x12():
    # d = 2 contributes nothing ({12/4} = 0); only d = 3 remains.
    value = frac_sum(FracSumParams(r=2, j=2, i=1, x=12))
    assert value == Fraction(-1, 243)


def test_frac_sum_i0_is_plain_mu_sum():
    t = sieve_mobius(100)
    for x, r, j in ((50, 2, 1), (100, 1, 2), (80, 3, 1)):
        value = frac_sum(FracSumParams(r=r, j=j, i=0, x=x))
        direct = sum(
            Fraction(t.mu[d], d ** (r * j))
            for d in range(1, integer_root(x, r) + 1)
        )
        assert value == direct


def test_frac_sum_magnitude_bound():
    # |sum| <= sum_{d <= floor(x^(1/r))} d^(-rj), exact comparison.
    rng = random.Random(11)
    for _ in range(60):
        r = rng.randint(1, 3)
        j = rng.randint(0, 3)
        i = rng.randint(0, 3)
        x = rng.randint(0, 4000)
        value = frac_sum(FracSumParams(r=r, j=j, i=i, x=x))
        bound = sum(
            Fraction(1, d ** (r * j)) for d in range(1, integer_root(x, r) + 1)
        )
        assert abs(value) <= bound


def test_frac_sum_exact_guard():
    big = (10**5 + 5) ** 2
    with pytest.raises(ResourceLimitError):
        frac_sum(FracSumParams(r=2, j=2, i=1, x=big))


def test_frac_sum_rejects_small_table():
    # a process table short of x^(1/r) is sieved again to cover it, not refused
    assert arith.mobius_table(2).limit == 2
    p = FracSumParams(r=2, j=2, i=1, x=1000)
    assert frac_sum(p) == _per_term_frac_sum(p, 31)
    assert arith.mobius_table(31).limit == 31


def _per_term_frac_sum(p, top):
    # one Fraction per term, mu by trial division: independent of the sieve
    # and of the integer sum over one denominator
    return sum(
        (mobius(d) * Fraction(p.x % d**p.r, d**p.r) ** p.i / d ** (p.r * p.j)
         for d in range(1, top + 1)),
        Fraction(0),
    )


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(1, 3),
    j=st.integers(0, 3),
    i=st.integers(0, 3),
    x=st.one_of(st.integers(0, 5000), st.integers(10**30, 10**40)),
    cutoff=st.integers(2, 80),
)
def test_frac_sums_match_per_term_fractions(r, j, i, x, cutoff):
    p = FracSumParams(r=r, j=j, i=i, x=x)
    root = integer_root(x, r)
    if root <= 5000:
        assert frac_sum(p) == _per_term_frac_sum(p, root)
    if r * j >= 2:
        finite, tail = truncated_frac_sum(p, cutoff)
        assert finite == _per_term_frac_sum(p, min(cutoff, root))
        assert tail == (0 if cutoff >= root else Fraction(1, cutoff ** (r * j - 1) * (r * j - 1)))


def test_frac_sum_builds_one_fraction(monkeypatch):
    p = FracSumParams(r=2, j=2, i=1, x=3000)
    expected = _per_term_frac_sum(p, integer_root(p.x, p.r))
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(omega, "Fraction", counting)
    assert frac_sum(p) == expected
    assert len(built) == 1


def _largest_accepted(work):
    # the largest n >= 0 with work(n) <= FRAC_SUM_WORK_LIMIT, work increasing in n
    lo, hi = 0, 1
    while work(hi) <= omega.FRAC_SUM_WORK_LIMIT:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if work(mid) <= omega.FRAC_SUM_WORK_LIMIT else (lo, mid)
    return lo


def test_frac_sum_guard_rejects_before_any_work(monkeypatch):
    witness = witness_small(2, 1)
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    monkeypatch.setattr(omega, "primes_upto", lambda n: pytest.fail("primes listed"))
    big = FracSumParams(r=2, j=1, i=1, x=10**40)
    # the first cutoff past the limit for one sum on L = P^4
    top = _largest_accepted(lambda t: omega.frac_sum_work(1, t, 4)) + 1
    message = (rf"^1 exact frac-sum\(s\) over d <= {top} on P\^4 need "
               rf"{omega.frac_sum_work(1, top, 4)} work units, limit is 20000000000; "
               rf"pass a smaller cutoff or fewer x$")
    with pytest.raises(ResourceLimitError, match=message):
        truncated_frac_sum(big, top)
    with pytest.raises(ResourceLimitError, match=r"over d <= 100000000000000000000 on P\^4 "):
        frac_sum(big)
    with pytest.raises(ResourceLimitError, match=r"over d <= 20000000 on P\^4 "):
        certify_witness(witness, 2, 1, cutoff=2 * 10**7)


def test_frac_sum_guard_counts_terms(monkeypatch):
    # the limit is on min(cutoff, floor(x^(1/r))) terms and the size of L,
    # not on x or cutoff
    monkeypatch.setattr(omega, "FRAC_SUM_WORK_LIMIT", omega.frac_sum_work(1, 50, 4))
    p = FracSumParams(r=2, j=1, i=1, x=witness_small(2, 1))
    assert truncated_frac_sum(p, 50)[0] == _per_term_frac_sum(p, 50)
    with pytest.raises(ResourceLimitError):
        truncated_frac_sum(p, 51)
    assert truncated_frac_sum(FracSumParams(r=2, j=1, i=1, x=2500), 10**6)[1] == 0
    # the same 50 terms on the larger L = P^6
    with pytest.raises(ResourceLimitError, match=r"over d <= 50 on P\^6 "):
        truncated_frac_sum(p._replace(j=2), 50)


def test_frac_sum_work_counts_the_bits_of_every_d_step():
    # at least one unit per bit of L = P^e per d-step, and per d-step when
    # e = 0; n sums cost n times one
    for top in (1, 2, 10, 97, 1000):
        for e in (0, 1, 4, 6, 122, 402):
            bits = (math.prod(primes_upto(top)) ** e).bit_length()
            assert omega.frac_sum_work(1, top, e) >= top * max(bits, 1)
            assert omega.frac_sum_work(3, top, e) == 3 * omega.frac_sum_work(1, top, e)


# ---------------------------------------------------------------------------
# truncated_frac_sum
# ---------------------------------------------------------------------------

def test_tail_bound_values():
    _, tail = truncated_frac_sum(FracSumParams(r=2, j=1, i=1, x=10**40), 100)
    assert tail == Fraction(1, 100)
    _, tail = truncated_frac_sum(FracSumParams(r=3, j=1, i=1, x=10**40), 100)
    assert tail == Fraction(1, 20000)


def test_truncated_zero_x():
    finite, tail = truncated_frac_sum(FracSumParams(r=2, j=1, i=1, x=0), 100)
    assert finite == 0 and tail == 0


def test_truncated_rejects_divergent_tail():
    with pytest.raises(ValueError):
        truncated_frac_sum(FracSumParams(r=1, j=1, i=1, x=100), 10)
    with pytest.raises(ValueError):
        truncated_frac_sum(FracSumParams(r=2, j=1, i=1, x=100), 1)


def test_truncated_encloses_exact():
    rng = random.Random(3)
    for _ in range(40):
        r = rng.randint(1, 3)
        j = rng.randint(1, 3)
        if r * j < 2:
            j = 2
        i = rng.randint(0, 2)
        x = rng.randint(1, 3000)
        cutoff = rng.randint(2, 40)
        p = FracSumParams(r=r, j=j, i=i, x=x)
        exact = frac_sum(p)
        finite, tail = truncated_frac_sum(p, cutoff)
        assert finite - tail <= exact <= finite + tail


def test_truncated_full_coverage_matches_exact():
    # cutoff beyond floor(x^(1/r)) makes the tail exactly zero.
    p = FracSumParams(r=2, j=2, i=1, x=3000)
    finite, tail = truncated_frac_sum(p, 100)
    assert tail == 0
    assert finite == frac_sum(p)


def test_truncated_primorial_witness_cross_check():
    # A scaled-down witness (primes up to 13) is small enough for the exact
    # path; the truncated machinery must enclose it.
    x = (3 * 5 * 7 * 11 * 13) ** 2
    p = FracSumParams(r=2, j=1, i=1, x=x)
    exact = frac_sum(p)
    finite, tail = truncated_frac_sum(p, 20)
    assert finite - tail <= exact <= finite + tail


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

def test_witness_large_sequences():
    assert witness_large(2, 2, 3) == range(11, 23, 4)
    assert list(witness_large(2, 2, 3)) == [11, 15, 19]
    assert list(witness_large(3, 2, 1)) == [31]
    assert list(witness_large(2, 3, 2)) == [11, 15]


def test_witness_large_count_has_a_budget(monkeypatch):
    # any count is a range at once, and certify_witnesses reads its length
    # and largest x from its ends: a walk of 10^15 x would not end
    assert isinstance(witness_large(2, 2, 1), range)
    xs = witness_large(2, 2, 10**15)
    assert (len(xs), xs[-1]) == (10**15, 11 + 4 * (10**15 - 1))
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    with pytest.raises(ResourceLimitError, match=r"^1000000000000000 exact frac-sum\(s\) "):
        next(certify_witnesses(xs, 2, 2))
    with pytest.raises(ResourceLimitError, match=r"^1000001 exact frac-sum\(s\) over d <= 2000 on P\^6 "):
        next(certify_witnesses(witness_large(2, 2, 10**6 + 1), 2, 2))


def test_the_largest_accepted_k2_witness_list_has_at_least_20000_x():
    # from the work function alone, without certifying the list
    def work(n):
        return omega.frac_sum_work(n, integer_root(witness_large(2, 2, n)[-1], 2), 6)

    n = _largest_accepted(work)
    assert n >= 20_000
    assert work(n) <= omega.FRAC_SUM_WORK_LIMIT < work(n + 1)


def test_witness_large_rejects_small_rk():
    with pytest.raises(ValueError):
        witness_large(2, 1, 3)  # rk = 2
    with pytest.raises(ValueError):
        witness_large(1, 4, 3)  # r must be >= 2


def test_witness_small_values():
    x = witness_small(2, 1)
    assert len(str(x)) == 73
    odd_primorial = 1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
        odd_primorial *= p
    assert x == odd_primorial**2
    assert witness_small(3, 101) == 101**2 * odd_primorial**3


def test_witness_small_rejects_bad_m_and_r():
    with pytest.raises(ValueError):
        witness_small(2, 2)
    with pytest.raises(ValueError):
        witness_small(2, 97)
    with pytest.raises(ValueError):
        witness_small(4, 1)


def test_certify_witness_x11():
    rep = certify_witness(11, 2, 2)
    assert rep.finite_part == Fraction(-2315, 46656)
    assert rep.tail_bound == 0
    assert rep.verdict == "negative"
    assert rep.target_bound == Fraction(-1, 32) + Fraction(1, 64)
    assert rep.upper_bound < rep.target_bound


def test_certify_witnesses_match_one_at_a_time_from_one_sieve(monkeypatch):
    xs = [*witness_large(3, 2, 30), witness_small(2, 1)]
    expected = [certify_witness(x, 3, 2, cutoff=60) for x in xs]
    monkeypatch.setattr(arith, "_table", arith.MobiusTable(limit=0, mu=[0]))  # empty again
    sieve, limits = arith.sieve_mobius, []
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: limits.append(n) or sieve(n))
    assert list(certify_witnesses(xs, 3, 2, cutoff=60)) == expected
    assert limits == [60]
    assert list(certify_witnesses([], 3, 2)) == []


def _frac_sum_by_fractions(x, r, j, i, top):
    # term by term in Fractions, mu by factoring
    return sum((Fraction(mobius(d), d ** (r * j)) * Fraction(x % d**r, d**r) ** i
                for d in range(1, top + 1)), Fraction(0))


@pytest.mark.parametrize("cutoff", [None, 9])
def test_certify_witnesses_across_tops_match_term_by_term(cutoff):
    # x = 11..247 runs through top = floor(sqrt(x)) = 3..15, or 3..9 under the
    # cutoff, where x = 81..99 have no tail and later x share top 9 with one
    xs = witness_large(2, 2, 60)
    tops = [integer_root(x, 2) if cutoff is None else min(cutoff, integer_root(x, 2)) for x in xs]
    assert len(set(tops)) == (13 if cutoff is None else 7)
    reports = list(certify_witnesses(xs, 2, 2, cutoff))
    for x, top, rep in zip(xs, tops, reports):
        assert rep.x == x and rep.finite_part == _frac_sum_by_fractions(x, 2, 2, 1, top)
        assert rep.tail_bound == (0 if integer_root(x, 2) <= top else Fraction(1, 9**3 * 3))
        assert rep.upper_bound == rep.finite_part + rep.tail_bound
    tails = {rep.tail_bound for rep in reports}
    assert tails == ({0} if cutoff is None else {0, Fraction(1, 2187)})
    # one x at a time, nothing is shared: the same reports, in reverse order too
    assert omega._shared_terms == {}
    assert [certify_witness(x, 2, 2, cutoff) for x in reversed(xs)] == reports[::-1]
    assert omega._shared_terms == {}


def test_witness_list_shares_terms_per_top_while_it_runs(monkeypatch):
    # x = 11, 15 have top 3, 19, 23 top 4, 27..35 top 5: a top's terms are shared
    # from its second x on, and sums on other exponents and on r = 3, whose
    # L = P^6 is that of r = 2, k = 2 but whose d^r is not, do not read them
    xs = witness_large(2, 2, 7)
    assert [integer_root(x, 2) for x in xs] == [3, 3, 4, 4, 5, 5, 5]
    shared = []
    for x, rep in zip(xs, certify_witnesses(xs, 2, 2)):
        shared.append(list(omega._shared_terms))
        assert rep.finite_part == _frac_sum_by_fractions(x, 2, 2, 1, integer_root(x, 2))
        for r, j, i in ((2, 1, 2), (3, 1, 1), (2, 2, 1)):
            top = integer_root(x, 2)
            params = FracSumParams(r=r, j=j, i=i, x=x)
            assert omega._frac_sum_upto(params, top) == _frac_sum_by_fractions(x, r, j, i, top)
    # one entry, the last top shared, until the list ends
    assert shared == [[], *[[(3, 2, 6)]] * 2, *[[(4, 2, 6)]] * 2, *[[(5, 2, 6)]] * 2]
    assert omega._shared_terms == {}
    # a list dropped part-way leaves nothing shared behind
    reports = certify_witnesses(xs, 2, 2)
    next(reports), next(reports)
    assert list(omega._shared_terms) == [(3, 2, 6)]
    reports.close()
    assert omega._shared_terms == {}
    # sums past _SHARED_WORK units are not shared: frac_sum_work(1, 4, 6) is 100,164
    monkeypatch.setattr(omega, "_SHARED_WORK", omega.frac_sum_work(1, 4, 6) - 1)
    shared.clear()
    for x, rep in zip(xs, certify_witnesses(xs, 2, 2)):
        shared.append(list(omega._shared_terms))
        assert rep == certify_witness(x, 2, 2)
    assert shared == [[], *[[(3, 2, 6)]] * 6]


def test_one_exact_sum_holds_one_term_at_a_time():
    # outside a witness list the terms mu(d) L / d^e are made as they are drawn:
    # at cutoff 1000 the 608 weights take about 460 kB, and the sum peaks near 7 kB
    params, top = FracSumParams(r=2, j=1, i=1, x=witness_small(2, 1)), 1000
    arith.mobius_table(top)  # the table is the process's, not the sum's
    _, terms = omega._frac_terms(top, 2, 4)
    weights = sum(sys.getsizeof(w) for _, w in terms)
    assert weights > 400_000 and omega._shared_terms == {}
    tracemalloc.start()
    try:
        truncated_frac_sum(params, top)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < weights // 10


def test_certify_witnesses_check_the_work_before_any_sieve(monkeypatch):
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    x = witness_small(2, 1)
    with pytest.raises(ResourceLimitError, match=r"^1 exact frac-sum\(s\) over d <= 100000 on P\^4 "):
        next(certify_witnesses([x], 2, 1, cutoff=100_000))
    # two sums that each fit, but not together
    monkeypatch.setattr(omega, "FRAC_SUM_WORK_LIMIT", 2 * omega.frac_sum_work(1, 1000, 4) - 1)
    with pytest.raises(ResourceLimitError, match=r"^2 exact frac-sum\(s\) over d <= 1000 on P\^4 "):
        next(certify_witnesses([x, x], 2, 1, cutoff=1000))


def test_certify_witness_without_a_cutoff_is_exact_or_refused(monkeypatch):
    # cutoff None means exact in certify_witness and certify_witnesses alike:
    # past the limit both raise, naming the cutoff, and x = 3 (one d) is exact
    rep = certify_witness(3, 2, 2)
    assert (rep.finite_part, rep.tail_bound, rep.verdict) == (0, 0, "inconclusive")
    assert list(certify_witnesses([3], 2, 2)) == [rep]
    x = witness_small(2, 1)
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    monkeypatch.setattr(omega, "primes_upto", lambda n: pytest.fail("primes listed"))
    with pytest.raises(ResourceLimitError, match="pass a smaller cutoff"):
        certify_witness(x, 2, 1)
    with pytest.raises(ResourceLimitError, match="pass a smaller cutoff"):
        next(certify_witnesses([x], 2, 1))


def test_certify_witness_large_branch_sweep():
    # Quick sweep; acceptance walks every x = 3 mod 4 up to 10^4.
    for x in range(11, 2000, 4):
        rep = certify_witness(x, 2, 2)
        assert rep.verdict == "negative"
        assert rep.upper_bound < 0


def test_certify_witness_small_witnesses_exact_regression():
    # Frozen exact finite parts at cutoff 100 for the constructed witnesses;
    # both certify strict negativity. Note the certified upper bounds sit
    # above -1/20: the d = 2 term is -1/16 (r=2, x = 1 mod 4) resp. -3/64
    # (r=3, x = 3 mod 8), so the -1/20 target is not met at this cutoff.
    rep2 = certify_witness(witness_small(2, 1), 2, 1, cutoff=100)
    assert rep2.verdict == "negative"
    assert rep2.tail_bound == Fraction(1, 100)
    assert rep2.finite_part == Fraction(
        -3193020576448616266832405365287053,
        63014907455287038992311229940631350,
    )
    rep3 = certify_witness(witness_small(3, 1), 3, 1, cutoff=100)
    assert rep3.verdict == "negative"
    assert rep3.tail_bound == Fraction(1, 20000)
    assert rep3.upper_bound < Fraction(-1, 25)
    assert rep3.target_bound == Fraction(-1, 20)


def test_certify_witness_value_independent_of_m():
    # Every admissible m gives the same finite part at cutoff 100.
    a = certify_witness(witness_small(2, 1), 2, 1, cutoff=100)
    b = certify_witness(witness_small(2, 101), 2, 1, cutoff=100)
    assert a.finite_part == b.finite_part


# ---------------------------------------------------------------------------
# Residual enclosures
# ---------------------------------------------------------------------------

def test_mertens_residual_x1():
    enc = mertens_residual(1, 2)
    assert enc.contains(ONE_MINUS_RECIP_ZETA2)
    assert enc.radius < Fraction(1, 10**20)


def test_residuals_read_zeta_at_their_precision():
    # a coarse 1/zeta(2) widens every enclosure to its radius, and still holds the value
    coarse = Fraction(1, 10**8)
    assert zeta_value(2, coarse).radius > Fraction(1, 10**12)
    enc = mertens_residual(1, 2, coarse)
    assert enc.contains(ONE_MINUS_RECIP_ZETA2) and enc.radius > Fraction(1, 10**12)
    assert proposition_residual(10, 1, 2, coarse).radius > proposition_residual(10, 1, 2).radius
    assert next(mertens_residual_scan(1, 2, coarse))[1] > next(mertens_residual_scan(1, 2))[1]
    assert (next(proposition_residual_scan(1, 1, 2, coarse))[1]
            > next(proposition_residual_scan(1, 1, 2))[1])


def test_mertens_residual_validation():
    with pytest.raises(ValueError):
        mertens_residual(0, 2)


def test_mertens_residual_increment_consistency():
    # residual(2x) - residual(x) must equal the added mu(d)/d^s terms.
    t = sieve_mobius(400)
    for x in (7, 50, 150):
        small = mertens_residual(x, 3)
        large = mertens_residual(2 * x, 3)
        added = sum(Fraction(t.mu[d], d**3) for d in range(x + 1, 2 * x + 1))
        diff_lo = large.lo - small.hi
        diff_hi = large.hi - small.lo
        assert diff_lo <= added <= diff_hi


def test_mertens_residual_scan_matches_pointwise():
    rows = dict(mertens_residual_scan(200, 2))
    for x in (1, 17, 200):
        enc = mertens_residual(x, 2)
        assert rows[x] >= enc.abs().hi * x  # scan reports the supremum
        assert rows[x] - enc.abs().hi * x < Fraction(1, 10**30)


def test_proposition_residual_x10():
    # Exact inner sum at x=10, r=2, k=1 is 10 * (1 - 1/4 - 1/9) = 115/18.
    z = zeta_value(2)
    enc = proposition_residual(10, 1, 2)
    recip = z.reciprocal()
    expected_lo = (Fraction(115, 18) - 10 * recip.hi) / Fraction(10) ** Fraction(1, 2)
    assert enc.contains(
        (Fraction(115, 18) - 10 * recip.mid) / Fraction(3162277660168379, 10**15)
    )
    assert enc.radius < Fraction(1, 10**10)
    assert expected_lo  # silence unused warning paths


def test_proposition_residual_validation():
    with pytest.raises(ValueError):
        proposition_residual(10, 1, 1)  # rk < 2


def test_proposition_residual_jump_at_perfect_powers():
    # Crossing x = t^r adds a single mu(t) x^k / t^(rk) summand; the scaled
    # residual may jump by at most that term (plus the smooth drift).
    for root in (3, 4, 5):
        x = root * root
        before = proposition_residual(x - 1, 1, 2)
        after = proposition_residual(x, 1, 2)
        jump = abs(after.mid - before.mid)
        term = Fraction(x, root**2) / integer_root(x, 2)
        drift = Fraction(2, integer_root(x - 1, 2))
        assert jump <= term + drift


def test_proposition_residual_scan_is_bounded():
    values = [v for _, v in proposition_residual_scan(2000, 2, 2)]
    assert max(values) < 10  # loose sanity; exact maxima are fixture-checked


@pytest.mark.parametrize("r,k", [(1, 3), (2, 1), (2, 2), (3, 1)])
def test_proposition_residual_scan_matches_pointwise(r, k):
    rows = dict(proposition_residual_scan(300, k, r))
    for x in range(1, 301):
        assert rows[x] == proposition_residual(x, k, r).abs().hi


def test_tableless_residuals_sieve_what_they_need(monkeypatch):
    limits = []

    def recording(n):
        limits.append(n)
        return sieve_mobius(n)

    monkeypatch.setattr(arith, "sieve_mobius", recording)
    proposition_residual(1000, 2, 2)  # mu up to floor(sqrt(1000)) = 31
    mertens_residual(50, 2)  # mu up to 50, past 31: the table doubles to 62
    mertens_residual(62, 2)
    assert limits == [31, 62]


@pytest.mark.parametrize("r,k", [(1, 3), (2, 2), (3, 1)])
def test_proposition_residual_scan_builds_no_enclosure(monkeypatch, r, k):
    expected = [(x, proposition_residual(x, k, r).abs().hi) for x in range(1, 301)]
    monkeypatch.setattr(omega, "Enclosure", None)
    assert list(proposition_residual_scan(300, k, r)) == expected


# ---------------------------------------------------------------------------
# error_scan and the ratio report
# ---------------------------------------------------------------------------

def test_error_scan_row_count_and_order():
    records = list(error_scan(1, 3, 10, 1000))
    assert len(records) == 991
    assert [r.x for r in records[:3]] == [10, 11, 12]
    assert records[-1].x == 1000


def test_error_scan_density_approaches_zeta4_reciprocal():
    last = list(error_scan(2, 2, 1000, 1000))[-1]
    assert abs(last.density - Fraction(Decimal("0.9239"))) < Fraction(1, 100)


def test_error_scan_normalization_cases():
    rec = next(error_scan(1, 2, 10, 10))
    norm = Decimal(10) * ln_decimal(10)
    expected = Decimal(float(rec.error.abs().mid)) / norm
    assert abs(rec.normalized_error - expected) < Decimal("1e-6")
    rec = next(error_scan(1, 3, 10, 10))
    expected = Decimal(float(rec.error.abs().mid)) / Decimal(100)
    assert abs(rec.normalized_error - expected) < Decimal("1e-6")


def test_error_scan_validation():
    with pytest.raises(ValueError):
        list(error_scan(1, 2, 1, 10))
    with pytest.raises(ValueError):
        list(error_scan(1, 2, 10, 5))
    with pytest.raises(ValueError):
        list(error_scan(1, 2, 10, 20, step=0))
    with pytest.raises(ResourceLimitError):
        list(error_scan(1, 2, 10, 10**7))


@settings(max_examples=10, deadline=None)
@given(
    rk=st.sampled_from([(1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2)]),
    step=st.sampled_from([2, 3, 7]),
    x_min=st.integers(2, 5000),
    extra=st.integers(1, SCAN_CHUNK),
)
def test_error_scan_matches_count_record_across_chunks(rk, step, x_min, extra):
    # more than three chunks of SCAN_CHUNK rows (x_max^(1/r) < SCAN_CHUNK
    # for r >= 2); every row against its own count_fast
    r, k = rk
    x_max = x_min + step * (3 * SCAN_CHUNK + extra)
    records = list(error_scan(r, k, x_min, x_max, step=step))
    assert [rec.x for rec in records] == list(range(x_min, x_max + 1, step))
    for rec in records:
        params = CountParams(r=r, k=k, x=rec.x)
        V = count_fast(params)
        assert rec == count_record(params, V=V)


@pytest.mark.parametrize(
    "r,x_min,x_max,step,spans",
    [
        # floor(x_max^(1/r)) < SCAN_CHUNK: chunks of SCAN_CHUNK rows
        (2, 100, 100 + 3 * SCAN_CHUNK, 1, [SCAN_CHUNK] * 3 + [1]),
        (3, 2, 2 + 7 * (2 * SCAN_CHUNK + 9), 7, [SCAN_CHUNK] * 2 + [10]),
        # floor(x_max^(1/r)) + 1 rows once that is longer; r = 1 is one chunk
        (1, 2, 1000, 1, [999]),
        (2, 90_000, 90_000 + 3 * 700, 3, [304, 304, 93]),
        (2, 10**6 - 2500, 10**6, 1, [1001, 1001, 499]),
    ],
)
def test_error_scan_chunk_length(monkeypatch, r, x_min, x_max, step, spans):
    # a chunk holds max(SCAN_CHUNK, floor(x_max^(1/r)) + 1) rows
    seen = []
    original = lattice.count_progression

    def recording(r, k, xs):
        seen.append(xs)
        return original(r, k, xs)

    monkeypatch.setattr(lattice, "count_progression", recording)
    records = list(error_scan(r, 2, x_min, x_max, step=step))
    assert [len(xs) for xs in seen] == spans
    assert [x for xs in seen for x in xs] == [rec.x for rec in records]
    assert all(xs.step == step for xs in seen)


def _fake_records(pairs):
    return [SimpleNamespace(x=x, normalized_error=Decimal(v)) for x, v in pairs]


def test_omega_ratio_constant_records():
    report = omega_ratio_report(_fake_records([(1, "2.5"), (5, "2.5"), (9, "2.5")]), 5)
    assert report.ratio == 1
    assert report.max_early == report.max_late == Decimal("2.5")


def test_omega_ratio_decaying_records_flagged():
    report = omega_ratio_report(_fake_records([(1, "3"), (8, "0"), (9, "0")]), 5)
    assert report.ratio == 0


def test_omega_ratio_empty_window():
    with pytest.raises(ValueError):
        omega_ratio_report(_fake_records([(1, "1"), (2, "2")]), 5)


def test_omega_ratio_report_folds_a_one_shot_generator():
    rows = (rec for rec in _fake_records([(1, "3"), (4, "-5"), (5, "2"), (9, "-1")]))
    report = omega_ratio_report(rows, 5)
    assert (report.max_early, report.max_late, report.ratio) == (5, 2, Decimal("0.4"))
    assert next(rows, None) is None
