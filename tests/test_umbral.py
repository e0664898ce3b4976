from fractions import Fraction

import pytest

from rfree import (
    CountParams,
    count_fast,
    identity_check,
    umbral_coefficients,
    umbral_eval,
)
from rfree.arith import rfree_sieve
from rfree.errors import InvariantViolationError
from rfree.umbral import zero_coordinate_expansion


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


def test_umbral_eval_matches_count_fast(tables):
    t = tables(100)
    assert umbral_eval(20, 2, 2, table=t) == count_fast(CountParams(2, 2, 20), t)
    assert umbral_eval(50, 1, 3, table=t) == count_fast(CountParams(1, 3, 50), t)
    assert umbral_eval(0, 1, 4, table=t) == 0


def test_constant_substitution_negative_control():
    # X^0 -> 1 must break the identity at k = 2; here the 1/3 coefficient
    # surfaces as a non-integral total.
    with pytest.raises(InvariantViolationError):
        umbral_eval(5, 1, 2, constant_substitution=1)


def test_zero_coordinate_expansion_matches(tables):
    t = tables(50)
    for r in (1, 2):
        for k in (1, 2, 3):
            for x in (0, 1, 4, 9):
                assert zero_coordinate_expansion(x, r, k) == count_fast(
                    CountParams(r=r, k=k, x=x), t
                )


@pytest.mark.parametrize("r,k,x", [(1, 2, 1), (2, 1, 10), (1, 3, 50)])
def test_identity_check_examples(r, k, x, tables):
    t = tables(60)
    check = identity_check(r, k, x, table=t, oracle_budget=2 * 10**6)
    assert check.equal
    assert check.oracle == check.umbral == check.fast


def test_identity_check_grid_quick(tables):
    # Small sweep; acceptance covers r in {1,2,3}, k in {1..5}, x in 0..200.
    t = tables(60)
    for r in (1, 2, 3):
        for k in range(1, 6):
            for x in range(0, 61, 3):
                assert identity_check(r, k, x, table=t).equal


def test_identity_check_reports_mismatch_values():
    # A deliberately mismatched comparison still returns both sides.
    from rfree.umbral import IdentityCheck

    check = IdentityCheck(r=1, k=2, x=3, umbral=10, fast=12, oracle=None)
    assert not check.equal
