import math
from decimal import Decimal
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from rfree import arith, lattice
from rfree import (
    CountParams,
    count_fast,
    count_oracle,
    count_record,
    sieve_mobius,
    zeta_value,
)
from rfree.arith import Enclosure, fixed_point, format_ratio, integer_root, ln_decimal, rfree_sieve
from rfree.errors import ResourceLimitError
from rfree.lattice import (
    SCAN_CHUNK,
    count_progression,
    count_range,
    decimal_places,
    error_normalization,
    increments_pay,
)


def test_params_validation():
    with pytest.raises(ValueError):
        CountParams(r=0, k=1, x=5)
    with pytest.raises(ValueError):
        CountParams(r=1, k=0, x=5)
    with pytest.raises(ValueError):
        CountParams(r=1, k=1, x=-1)


@pytest.mark.parametrize(
    "r,k,x,expected",
    [
        (2, 1, 10, 14),  # +-squarefree up to 10
        (1, 2, 1, 8),    # all of {-1,0,1}^2 except the origin
        (1, 2, 2, 16),   # 25 tuples minus the 9 with both coords in {-2,0,2}
        (4, 1, 15, 30),  # every positive n <= 15 is 4-free
        (1, 1, 1, 2),
        (1, 1, 0, 0),    # the all-zero tuple never counts
        (2, 2, 0, 0),
    ],
)
def test_count_oracle_examples(r, k, x, expected):
    assert count_oracle(CountParams(r=r, k=k, x=x)) == expected


def test_count_oracle_budget():
    with pytest.raises(ResourceLimitError):
        count_oracle(CountParams(r=1, k=3, x=100), budget=10**4)


def test_count_fast_examples():
    assert count_fast(CountParams(r=2, k=1, x=10)) == 14
    assert count_fast(CountParams(r=1, k=2, x=2)) == 16
    assert count_fast(CountParams(r=1, k=1, x=1)) == 2
    assert count_fast(CountParams(r=3, k=2, x=0)) == 0


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(1, 4),
    k=st.integers(1, 5),
    root=st.integers(0, 1000),
    offset=st.integers(0, 1001**4),
)
def test_count_fast_is_the_written_out_inversion(r, k, root, offset):
    # V = sum_{d <= x^(1/r)} mu(d) ((2 floor(x/d^r) + 1)^k - 1), term by term,
    # at an x with floor(x^(1/r)) = root
    x = root**r + offset % ((root + 1) ** r - root**r)
    t = sieve_mobius(1000)
    written_out = sum(
        t.mu[d] * ((2 * (x // d**r) + 1) ** k - 1) for d in range(1, root + 1)
    )
    assert count_fast(CountParams(r=r, k=k, x=x)) == written_out


@pytest.mark.parametrize("r,k,x", [(2, 300, 1000), (1, 300, 200), (2, 1000, 1000), (3, 1000, 5000)])
def test_count_fast_at_large_k_is_the_written_out_inversion(r, k, x):
    # the running binomial C(k, e) 2^e over e = 1..k, against the per-d form
    t = sieve_mobius(1000)
    root = max(d for d in range(1, 1001) if d**r <= x)
    written_out = sum(
        t.mu[d] * ((2 * (x // d**r) + 1) ** k - 1) for d in range(1, root + 1)
    )
    assert count_fast(CountParams(r=r, k=k, x=x)) == written_out


def test_count_fast_table_too_small():
    # a process table short of x^(1/r) is sieved again to cover it, not refused
    assert arith.mobius_table(2).limit == 2
    params = CountParams(r=1, k=2, x=50)
    assert count_fast(params) == count_oracle(params)
    assert arith.mobius_table(50).limit == 50


def test_fast_matches_oracle_quick():
    # Small sweep here; the full acceptance grid covers r, k in {1..3} x 0..25.
    for r in (1, 2):
        for k in (1, 2, 3):
            for x in range(13):
                p = CountParams(r=r, k=k, x=x)
                assert count_fast(p) == count_oracle(p)


def test_count_fast_monotone_in_x():
    for r, k in ((1, 2), (2, 2), (3, 1)):
        values = [count_fast(CountParams(r=r, k=k, x=x)) for x in range(200)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_count_fast_monotone_in_r():
    # Larger r excludes fewer tuples, so V grows with r.
    for k in (1, 2, 3):
        for x in (5, 17, 60):
            values = [count_fast(CountParams(r=r, k=k, x=x)) for r in (1, 2, 3, 4)]
            assert all(b >= a for a, b in zip(values, values[1:]))


def test_zero_coordinate_shell_decomposition():
    # V splits over the number of zero coordinates: choosing i positions to
    # hold zeros and signs for the k-i nonzero slots,
    #   V = sum_{i<k} C(k, i) 2^(k-i) N+(k-i)
    # with N+(j) the positive-orthant count. Resolves how this box convention
    # relates to a positive-coordinates-only count times 2^k.
    for r in (1, 2):
        for k in (1, 2, 3):
            for x in (1, 3, 6):
                flags = rfree_sieve(x, r)
                def positive_count(j):
                    if j == 0:
                        return 0
                    return sum(
                        1
                        for t in product(range(1, x + 1), repeat=j)
                        if flags[math.gcd(*t)]
                    )
                total = sum(
                    math.comb(k, i) * 2 ** (k - i) * positive_count(k - i)
                    for i in range(k)
                )
                assert total == count_oracle(CountParams(r=r, k=k, x=x))


# ---------------------------------------------------------------------------
# Progressions
# ---------------------------------------------------------------------------

def _per_row(r, k, xs):
    return [count_fast(CountParams(r=r, k=k, x=x)) for x in xs]


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(1, 4),
    k=st.integers(1, 4),
    step=st.sampled_from([1, 2, 3, 7, 50, 1000]),
    t=st.integers(1, 40),
    before=st.integers(0, 3000),
    rows=st.integers(1, 12),
    incremental=st.booleans(),
)
def test_count_progression_matches_count_fast(r, k, step, t, before, rows, incremental):
    # windows start up to 3000 below the perfect power t^r, so that most
    # of them step across it
    first = max(0, t**r - before)
    xs = range(first, first + rows * step, step)
    with mock.patch.object(lattice, "increments_pay", return_value=incremental):
        assert count_progression(r, k, xs) == _per_row(r, k, xs)


def test_count_progression_across_powers_from_zero():
    # every x in 0..1200, so each t^r <= 1200 enters at its own row
    with mock.patch.object(lattice, "increments_pay", return_value=True):
        for r in (1, 2, 3, 4):
            for k in (1, 2, 3):
                xs = range(0, 1201)
                assert count_progression(r, k, xs) == _per_row(r, k, xs)


def test_count_progression_edges():
    assert count_progression(2, 2, range(50, 50)) == []
    assert count_progression(2, 2, range(50, 51)) == _per_row(2, 2, [50])
    with pytest.raises(ValueError):
        count_progression(2, 2, range(10, 0, -1))
    assert count_progression(1, 2, range(90, 200)) == _per_row(1, 2, range(90, 200))


@pytest.mark.parametrize(
    "r,xs",
    [
        (1, range(0, 1)),                     # x_max^(1/r) = 0
        (1, range(0, 700)),                   # r = 1 from 0: one chunk
        (2, range(0, 3 * SCAN_CHUNK + 5)),    # chunks of SCAN_CHUNK
        (3, range(7, 7 + 5 * 2 * SCAN_CHUNK, 5)),
        (2, range(5, 5)),
    ],
)
def test_count_range_matches_count_fast(r, xs):
    assert list(count_range(r, 3, xs)) == _per_row(r, 3, xs)


def test_increments_pay_chooses_the_cheaper_path():
    # r = 1, step 60000: 16 rows from 1e5 to 1e6. Increments would step on
    # ~13 million multiples, about 3.5x the time of count_fast per row.
    xs = range(100_000, 1_000_001, 60_000)
    assert not increments_pay(1, len(xs), xs[-1] - xs[0], xs[-1])
    # 256 step-1 rows near 1e6: increments win ~80x (r = 1) and ~70x (r = 2)
    assert increments_pay(1, 256, 255, 10**6)
    assert increments_pay(2, 256, 255, 1000)
    # r = 2, step 1000 near 1e6: 256 rows span 255,000, ~4x slower sieved
    assert not increments_pay(2, 256, 255_000, 1127)
    # a single row has nothing to increment
    assert not increments_pay(2, 1, 0, 1000)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

def test_count_record_r2_k1_x10():
    rec = count_record(CountParams(r=2, k=1, x=10))
    assert rec.V == 14
    z = zeta_value(2)
    assert rec.main_term.contains(Fraction(20) / z.mid)
    assert abs(rec.main_term.mid - Fraction(Decimal("12.15854204"))) < Fraction(1, 10**6)
    assert rec.error.mid == 14 - rec.main_term.mid
    assert abs(rec.error.mid - Fraction(Decimal("1.84145796"))) < Fraction(1, 10**6)
    # r >= 2, k = 1 normalizes by x^(1/r)
    expected_norm = Fraction(rec.error.abs().mid) / Fraction(Decimal(10).sqrt())
    assert abs(Fraction(rec.normalized_error) - expected_norm) < Fraction(1, 10**8)


def test_count_record_r1_k2_x2():
    rec = count_record(CountParams(r=1, k=2, x=2))
    assert rec.V == 16
    # x log x normalization
    norm = Fraction(Decimal(2) * ln_decimal(2))
    assert abs(Fraction(rec.normalized_error) - rec.error.abs().mid / norm) < Fraction(
        1, 10**8
    )
    assert rec.density == Fraction(16, 25)


def test_root_normalization_past_its_digit_limit_is_refused(monkeypatch):
    # the radicand x 10^((p+10) r) has (p + 10) r digits and at most x's more
    assert lattice.ROOT_DIGITS_LIMIT == 8 * 10**5
    monkeypatch.setattr(lattice, "ROOT_DIGITS_LIMIT", 40 * 50 + 1)
    assert error_normalization(CountParams(r=50, k=1, x=3), 30) == (
        integer_root(3 * 10**2000, 50), 10**40)
    with pytest.raises(ResourceLimitError, match=r"^the x\^\(1/r\) normalization at r=51 "
                       r"takes the root of a 2041-digit integer, limit is 2001$"):
        error_normalization(CountParams(r=51, k=1, x=3), 30)
    with pytest.raises(ResourceLimitError, match=r"a 2003-digit integer"):
        error_normalization(CountParams(r=50, k=1, x=10**2), 30)


def test_count_work_counts_the_runs_of_power_sums(monkeypatch):
    # power_sums groups the d <= x^(1/r) into runs of equal x // d^r; the
    # count's check bounds their number, exactly at some x
    bounds = []
    monkeypatch.setattr(lattice, "check_count_work", lambda k, base, runs: bounds.append(runs))
    exact = 0
    for r in (1, 2, 3, 4):
        for x in range(200):
            lattice._check_count(r, 2, x)
            runs = len({x // d**r for d in range(1, integer_root(x, r) + 1)})
            assert runs <= bounds[-1], (r, x)
            exact += runs == bounds[-1]
    assert exact > 20
    # k (runs (bits + 10^4) + 100 bits), bits = k times the bit length of 2x + 1;
    # at x = 3, one run, the limit falls between k = 25,675 and 25,676
    assert arith.count_work(2000, 2001, 21) == 2000 * (21 * (22000 + 10**4) + 100 * 22000)
    assert arith.count_work(25675, 7) <= arith.COUNT_WORK_LIMIT < arith.count_work(25676, 7)


def test_scan_work_counts_its_rows():
    # each row of a scan is one more run of count_work: at k = 2000, 1,000
    # rows (2.7 s) are accepted and 10^6 rows refused
    lattice._scan(2, 2000, 2, 1001, 1, arith.DEFAULT_PRECISION)
    with pytest.raises(ResourceLimitError, match=r"^an exact count below 2000003\^2000 "
                       r"over 1000200 run\(s\) needs 104029200000000 work units"):
        lattice._scan(2, 2000, 2, 1000001, 1, arith.DEFAULT_PRECISION)


@pytest.mark.parametrize("call", [
    lambda: count_fast(CountParams(r=2, k=500000, x=2)),
    lambda: count_record(CountParams(r=2, k=500000, x=2)),
    lambda: count_progression(2, 25676, range(3, 4)),
    lambda: next(lattice.scan_rows(2, 500000, 2, 2)),
    lambda: count_record(CountParams(r=1000000, k=1, x=3)),
    lambda: next(lattice.scan_rows(1000000, 1, 2, 3)),
    lambda: next(lattice.scan_rows(2, 2000, 2, 1000001)),
])
def test_counts_past_their_limits_are_refused_before_zeta_or_sieve(monkeypatch, call):
    # count_work past COUNT_WORK_LIMIT, or k = 1 with an x^(1/r) root past
    # ROOT_DIGITS_LIMIT, fails before 1/zeta(rk), the sieve or any power sum
    monkeypatch.setattr(arith, "_table", arith.MobiusTable(limit=0, mu=[0]))
    monkeypatch.setattr(arith, "sieve_mobius", lambda n: pytest.fail("sieved"))
    monkeypatch.setattr(lattice, "row_scale", lambda *a: pytest.fail("zeta(rk)"))
    with pytest.raises(ResourceLimitError, match="limit is"):
        call()


def test_count_record_invariants():
    for r, k, x in ((1, 3, 9), (2, 2, 25), (3, 1, 50)):
        rec = count_record(CountParams(r=r, k=k, x=x))
        assert 0 <= rec.V <= (2 * x + 1) ** k
        assert rec.error.contains(rec.V - rec.main_term.mid)
        assert rec.main_term.radius < Fraction(1, 10**20)


def test_count_record_with_given_count():
    for x in (2, 999, 10**6):
        params = CountParams(r=2, k=2, x=x)
        given_count = count_fast(params)
        assert count_record(params, V=given_count) == count_record(params)


def test_count_record_x_bounds():
    # x log x is degenerate at x = 1: the count stands, the ratio does not
    rec = count_record(CountParams(r=1, k=2, x=1))
    assert rec.V == 8
    assert rec.normalized_error.is_nan()
    with pytest.raises(ValueError):
        count_record(CountParams(r=1, k=1, x=0))


def test_error_normalization_cases():
    assert error_normalization(CountParams(r=1, k=3, x=7), 30) == (49, 1)
    assert error_normalization(CountParams(r=1, k=1, x=9), 30) == (1, 1)
    assert error_normalization(CountParams(r=2, k=1, x=9), 30) == (3 * 10**40, 10**40)
    # floor(2^(1/2) 10^15) / 10^15 at places = 5
    assert error_normalization(CountParams(r=2, k=1, x=2), 5) == (1414213562373095, 10**15)
    # x log x from ln at places + 10 significant digits
    num, den = error_normalization(CountParams(r=1, k=2, x=10), 30)
    assert Fraction(num, den) == 10 * Fraction(ln_decimal(10, 40))
    num, den = error_normalization(CountParams(r=1, k=2, x=10), 60)
    assert abs(Fraction(num, den) - 10 * Fraction(ln_decimal(10, 100))) < Fraction(1, 10**68)
    with pytest.raises(ValueError):
        error_normalization(CountParams(r=1, k=2, x=1), 30)


def test_decimal_places():
    assert decimal_places(Fraction(1, 10**30)) == 30
    assert decimal_places(Fraction(1, 10**8)) == 8
    assert decimal_places(Fraction(3, 100)) == 2
    assert decimal_places(Fraction(1, 10**1000)) == 1000
    with pytest.raises(ValueError):
        decimal_places(Fraction(1, 10**1001))
    with pytest.raises(ValueError):
        decimal_places(Fraction(0))


def _decimal_places_by_loop(precision):
    # the place-by-place loop decimal_places replaced, kept as the reference
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    if precision < Fraction(1, 10**1000):
        raise ValueError("precision finer than 1e-1000 is not supported")
    places = 1
    while Fraction(1, 10**places) > precision:
        places += 1
    return places


def test_decimal_places_matches_the_place_by_place_loop():
    precisions = [Fraction(1, 10**p) for p in range(1, 1001)]
    precisions += [Fraction(3, 10**7), Fraction(1, 2), Fraction(1),
                   Fraction(10**1100 + 7, 3 * 10**1500), Fraction(10**900 + 1, 10**900)]
    precisions += [Fraction(1, 2**b) for b in range(1, 200)]
    precisions += [Fraction(1, 10**p + c) for p in range(1, 60) for c in (-1, 1)]
    for precision in precisions:
        assert decimal_places(precision) == _decimal_places_by_loop(precision), precision
    for finer in (Fraction(1, 10**1000 + 1), Fraction(9, 10**1001)):
        for places in (decimal_places, _decimal_places_by_loop):
            with pytest.raises(ValueError, match="finer than 1e-1000 is not supported"):
                places(finer)


def test_normalized_error_boundedness_per_normalization_case(fixture_store):
    # One scan per asymptotic case; maxima recorded, regression-checked at 1%.
    cases = {
        "normalized_error_max_r1_k2": (1, 2),  # x log x
        "normalized_error_max_r2_k1": (2, 1),  # x^(1/r)
        "normalized_error_max_r2_k2": (2, 2),  # x^(k-1)
    }
    for key, (r, k) in cases.items():
        observed = Decimal(0)
        for x in range(2, 5001):
            rec = count_record(CountParams(r=r, k=k, x=x))
            observed = max(observed, abs(rec.normalized_error))
        fixture_store.check(key, observed)


# ---------------------------------------------------------------------------
# The row kernel against the per-record arithmetic it replaced
# ---------------------------------------------------------------------------

def _reference_fields(r, k, x, V, scale):
    """count_record's arithmetic before count_rows, kept as the reference:
    one field at a time through fixed_point, format_ratio and
    error_normalization."""
    places, D = scale.places, scale.mid_den
    size = (2 * x) ** k
    q, rem = divmod(size * scale.mid_num, D)
    lead = V * scale.unit - q
    negative = lead < 0 or (lead == 0 and rem > 0)
    if negative:
        whole, frac = -lead, rem
    elif rem:
        whole, frac = lead - 1, D - rem
    else:
        whole, frac = lead, 0
    if r == 1 and k == 2 and x < 2:
        normalized = "NaN"
    else:
        num, norm_den = error_normalization(CountParams(r=r, k=k, x=x), places)
        wide, rad_den = size * scale.rad_num, scale.rad_den
        holds = (whole.bit_length() + rad_den.bit_length() < wide.bit_length() + 2
                 and (whole * D + frac) * rad_den < wide * D)
        if norm_den == 1 and not holds:
            a, b = divmod(whole, num)
            units = a + (2 * b + (2 * frac >= D) >= num)
        else:
            top, bottom = whole * D + frac, D
            if holds:
                top, bottom = top * rad_den + wide * D, 2 * D * rad_den
            a, b = divmod(top * norm_den, bottom * num)
            units = a + (2 * b >= bottom * num)
        normalized = fixed_point(units, places)
    return (str(x), str(V), fixed_point(q + (2 * rem >= D), places),
            fixed_point(whole + (2 * frac >= D), places, negative), normalized,
            format_ratio(V, (2 * x + 1) ** k, places))


KERNEL_PRECISIONS = [Fraction(1, 10**30), Fraction(1, 2), Fraction(3, 10**7),
                     Fraction(1, 10**100), Fraction(1, 10)]


@st.composite
def _kernel_rows(draw):
    rks = st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda rk: rk[0] * rk[1] >= 2)
    r, k = draw(rks)
    x = draw(st.integers(1, 10**6))
    precision = draw(st.sampled_from(KERNEL_PRECISIONS))
    scale = lattice.row_scale(r * k, precision)
    # counts near the main term, whose error balls may hold 0, or any count
    near = (2 * x) ** k * scale.mid_num // (scale.mid_den * scale.unit)
    V = draw(st.integers(max(near - 3, 0), near + 3) | st.integers(0, (2 * x + 1) ** k))
    return r, k, x, V, scale


@settings(max_examples=400, deadline=None)
@given(row=_kernel_rows())
@example(row=(1, 2, 1, 8, lattice.row_scale(2, KERNEL_PRECISIONS[0])))  # NaN
@example(row=(1, 2, 10, 300, lattice.row_scale(2, KERNEL_PRECISIONS[3])))  # x log x
@example(row=(2, 1, 10, 14, lattice.row_scale(2, KERNEL_PRECISIONS[2])))  # x^(1/2)
@example(row=(3, 1, 50, 92, lattice.row_scale(3, KERNEL_PRECISIONS[0])))  # x^(1/3)
@example(row=(2, 2, 10, 0, lattice.row_scale(4, KERNEL_PRECISIONS[0])))  # negative
@example(row=(2, 2, 1000, 3_695_000, lattice.row_scale(4, KERNEL_PRECISIONS[4])))  # holds 0
@example(row=(2, 3, 77, 0, lattice.row_scale(6, KERNEL_PRECISIONS[1])))
def test_count_rows_is_the_per_record_arithmetic(row):
    r, k, x, V, scale = row
    assert next(lattice.count_rows(r, k, [x], [V], scale)) == _reference_fields(r, k, x, V, scale)


def test_count_rows_rounds_exact_ties_half_up():
    # A real zeta midpoint never puts a remainder at exactly half its
    # denominator; N/D = 1/8 at one place does. At x = 3, k = 1 the main term
    # is 6/8 = 0.75 and, with V = 2, the error is 1.25: "0.8" and "1.3" half
    # up, where rounding ties down would give "0.7" and "1.2".
    eighth = Enclosure.between(Fraction(1, 8), Fraction(1, 8))
    scale = lattice.RowScale(eighth, places=1, unit=10, mid_num=10, mid_den=8,
                             rad_num=0, rad_den=1)
    row = next(lattice.count_rows(2, 1, [3], [2], scale))
    assert row[2:4] == ("0.8", "1.3")
    assert row == _reference_fields(2, 1, 3, 2, scale)


def test_count_rows_yield_one_field_per_csv_column():
    from rfree.cli import CSV_COLUMNS  # the one list of column names

    scale = lattice.row_scale(4, KERNEL_PRECISIONS[0])
    rows = list(lattice.count_rows(2, 2, [10, 11], [300, 350], scale))
    assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * 2
    assert count_record(CountParams(r=2, k=2, x=10), V=300).row == rows[0]


@pytest.mark.parametrize("r,k", [(1, 2), (2, 1), (3, 1), (1, 3), (2, 2), (4, 4)])
@pytest.mark.parametrize("precision", KERNEL_PRECISIONS[:4])
def test_count_rows_over_a_range_are_the_reference_rows(r, k, precision):
    # one call over many rows, as a scan makes it, from x = 1 on
    xs = range(1, 400)
    Vs = count_progression(r, k, xs)
    scale = lattice.row_scale(r * k, precision)
    rows = list(lattice.count_rows(r, k, xs, Vs, scale))
    assert rows == [_reference_fields(r, k, x, V, scale) for x, V in zip(xs, Vs)]
