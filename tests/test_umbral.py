import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rfree import (
    CountParams,
    count_fast,
    identity_check,
    umbral_coefficients,
    umbral_eval,
)
from rfree import arith, lattice, umbral
from rfree.arith import MobiusTable, rfree_sieve
from rfree.errors import InvariantViolationError, ResourceLimitError
from rfree.umbral import identity_range, zero_coordinate_expansion

jordan_module = importlib.import_module("rfree.jordan")  # rfree.jordan is the function


def test_coefficients_k1():
    assert umbral_coefficients(1) == (Fraction(0), Fraction(2), Fraction(0))


def test_coefficients_k2():
    assert umbral_coefficients(2) == (Fraction(1, 3), Fraction(0), Fraction(4), Fraction(0))


@pytest.mark.parametrize("k", range(1, 13))
def test_coefficient_structure(k):
    coeffs = umbral_coefficients(k)
    assert len(coeffs) == k + 2
    assert coeffs[k + 1] == 0          # leading terms cancel
    assert coeffs[k] == 2**k           # surviving leading coefficient
    for j, c in enumerate(coeffs):
        if (k + 1 - j) % 2 == 0:
            assert c == 0
        if c:
            assert (2 * (k + 1)) % c.denominator == 0


def test_coefficients_reject_k0():
    with pytest.raises(ValueError):
        umbral_coefficients(0)


def test_umbral_eval_desk_point():
    assert umbral_eval(1, 1, 2) == 8


def test_umbral_eval_k1_counts_rfree():
    for r in (1, 2, 3):
        flags = rfree_sieve(50, r)
        for x in (0, 1, 7, 50):
            assert umbral_eval(x, r, 1) == 2 * sum(flags[1 : x + 1])


def test_umbral_eval_matches_count_fast():
    assert umbral_eval(20, 2, 2) == count_fast(CountParams(2, 2, 20))
    assert umbral_eval(50, 1, 3) == count_fast(CountParams(1, 3, 50))
    assert umbral_eval(0, 1, 4) == 0


def test_umbral_eval_reads_one_power_sums_call(monkeypatch):
    calls = []
    power_sums = MobiusTable.power_sums

    def counting(self, x, r, k):
        calls.append((x, r, k))
        return power_sums(self, x, r, k)

    monkeypatch.setattr(MobiusTable, "power_sums", counting)
    for k in range(1, 6):
        calls.clear()
        value = umbral_eval(1000, 2, k)
        assert calls == [(1000, 2, k)]
        assert value == count_fast(CountParams(2, k, 1000))


def test_constant_substitution_negative_control():
    # X^0 -> 1 must break the identity at k = 2; here the 1/3 coefficient
    # surfaces as a non-integral total.
    with pytest.raises(InvariantViolationError):
        umbral_eval(5, 1, 2, constant_substitution=1)


def test_zero_coordinate_expansion_matches():
    for r in (1, 2):
        for k in (1, 2, 3):
            for x in (0, 1, 4, 9):
                assert zero_coordinate_expansion(x, r, k) == count_fast(CountParams(r=r, k=k, x=x))


@pytest.mark.parametrize("r,k,x", [(1, 2, 1), (2, 1, 10), (1, 3, 50)])
def test_identity_check_examples(r, k, x):
    check = identity_check(r, k, x, oracle_budget=2 * 10**6)
    assert check.equal
    assert check.oracle == check.umbral == check.fast


def test_identity_check_grid_quick():
    # Small sweep; acceptance covers r in {1,2,3}, k in {1..5}, x in 0..200.
    for r in (1, 2, 3):
        for k in range(1, 6):
            for x in range(0, 61, 3):
                assert identity_check(r, k, x).equal


def test_identity_check_reports_mismatch_values():
    # A deliberately mismatched comparison still returns both sides.
    from rfree.umbral import IdentityCheck

    check = IdentityCheck(r=1, k=2, x=3, umbral=10, fast=12, oracle=None)
    assert not check.equal


# ---------------------------------------------------------------------------
# Range route
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(
    r=st.integers(1, 4),
    k=st.integers(1, 5),
    x_max=st.integers(0, 3000),
    length=st.integers(1, 600),
)
@example(r=1, k=1, x_max=0, length=1)
@example(r=1, k=3, x_max=300, length=301)    # r = 1: x_max rows, then one
@example(r=2, k=4, x_max=600, length=601)    # chunks and segments of 256
@example(r=3, k=2, x_max=3000, length=300)   # sums seeded at 2700
def test_identity_range_matches_identity_check(r, k, x_max, length):
    x_min = max(0, x_max - length + 1)
    checks = list(identity_range(r, k, x_min, x_max))
    assert checks == [identity_check(r, k, x) for x in range(x_min, x_max + 1)]


@pytest.mark.parametrize(
    "r,x_min,x_max,segments,chunks",
    [
        # floor(x_max^(1/r)) < 256: segments and chunks of 256
        (2, 0, 9_999, [256] * 39 + [16], [256] * 39 + [16]),
        # otherwise segments of floor(x_max^(1/r)) and chunks one longer; a
        # range shorter than the integers below it is sieved from x_min
        (2, 90_000, 90_999, [301] * 3 + [97], [302] * 3 + [94]),
        (3, 0, 99_999, [256] * 390 + [160], [256] * 390 + [160]),
        # r = 1 from 0: the counts are one chunk
        (1, 0, 1_000, [256] * 3 + [233], [1_001]),
    ],
)
def test_identity_range_segment_and_chunk_lengths(monkeypatch, r, x_min, x_max, segments, chunks):
    # for r >= 2 no list is longer than max(256, x_max^(1/r) + 1)
    seen_segments, seen_chunks = [], []
    segment, progression = jordan_module.jordan_segment, lattice.count_progression

    def recording_segment(lo, hi, *args):
        seen_segments.append(hi - lo)
        return segment(lo, hi, *args)

    def recording_progression(r, k, xs):
        seen_chunks.append(len(xs))
        return progression(r, k, xs)

    monkeypatch.setattr(jordan_module, "jordan_segment", recording_segment)
    monkeypatch.setattr(lattice, "count_progression", recording_progression)
    assert all(check.equal for check in identity_range(r, 2, x_min, x_max))
    assert (seen_segments, seen_chunks) == (segments, chunks)


def test_identity_range_non_integral_total_raises(monkeypatch):
    # c_2 of k = 2 off by 1/3: the umbral total is 2 J_1(1) = 2 off at x = 1
    coeffs = list(umbral_coefficients(2))
    coeffs[2] += Fraction(1, 3)
    monkeypatch.setattr(umbral, "umbral_coefficients", lambda k: tuple(coeffs))
    checks = identity_range(1, 2, 0, 50)
    assert next(checks).equal
    with pytest.raises(InvariantViolationError, match=r"r=1, k=2, x=1 is non-integral: 26/3"):
        next(checks)


def test_identity_range_validation(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved for a rejected range")

    monkeypatch.setattr(arith, "sieve_mobius", no_sieve)
    for r, k, x_min, x_max in [(0, 2, 0, 5), (1, 0, 0, 5), (1, 2, -1, 5), (1, 2, 6, 5)]:
        with pytest.raises(ValueError):
            next(identity_range(r, k, x_min, x_max))
    with pytest.raises(ResourceLimitError, match="10000001 values, limit is 1000000"):
        next(identity_range(1, 2, 10**9, 10**9 + 10**7))
