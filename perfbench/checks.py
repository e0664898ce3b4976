"""Output checks for the benchmark's CLI runs, by routes independent of the
code under test wherever one exists.

Every check counts once in ``CheckLog.attempted``; a miss counts in
``failed`` and keeps a one-line message. Checks run outside the timed
section of a pass.
"""

from __future__ import annotations

import csv
import hashlib
import re
from decimal import Decimal, localcontext
from fractions import Fraction

SCAN_HEADER = ["x", "V", "main_term", "error", "normalized_error", "density"]


class CheckLog:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(log: CheckLog, got: str, want: str, what: str) -> None:
    log.check(got == want, f"{what}: digest {got[:12]} != {want[:12]}")


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def inverse_zeta(s: int) -> float:
    """1/zeta(s) in floats by Euler-Maclaurin at N = 1000 (error < 1e-15)."""
    n = 1000
    total = sum(m**-s for m in range(1, n))
    total += n ** (1 - s) / (s - 1) + n**-s / 2 + s * n ** (-s - 1) / 12
    return 1 / total


def mobius_trial(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def frac_part_sum(x: int, r: int, j: int, top: int) -> Fraction:
    """sum_{d<=top} mu(d) d^(-rj) {x/d^r}, exactly."""
    total = Fraction(0)
    for d in range(1, top + 1):
        m = mobius_trial(d)
        if m:
            total += m * Fraction(x % d**r, d**r) / d ** (r * j)
    return total


def pi_decimal(digits: int) -> Decimal:
    """pi by Machin's formula with ``digits`` + 10 working digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 10

        def arctan_inv(n: int) -> Decimal:
            x = Decimal(1) / n
            x2, term, total, k = x * x, x, x, 1
            eps = Decimal(10) ** -(digits + 10)
            while abs(term) > eps:
                term *= -x2
                total += term / (2 * k + 1)
                k += 1
            return total

        return 4 * (4 * arctan_inv(5) - arctan_inv(239))


# ---------------------------------------------------------------------------
# scan / report
# ---------------------------------------------------------------------------

def check_scan(
    log: CheckLog, text: str, r: int, k: int, xs: list[int], places: int = 30
) -> list[list[str]]:
    """Check every row of a scan CSV; return the data rows. The normalized
    error is checked against x^(k-1), the case of every k >= 2 except
    (r, k) = (1, 2)."""
    header, *rows = list(csv.reader(text.splitlines())) or [[]]
    log.check(header == SCAN_HEADER, f"scan header {header!r}")
    log.check([row[0] for row in rows] == [str(x) for x in xs],
              f"scan x column differs from the requested {len(xs)} values")
    ulp = Fraction(1, 10**places)
    inv_zeta = inverse_zeta(r * k)
    for row in rows:
        if not log.check(len(row) == 6, f"scan row has {len(row)} fields"):
            continue
        x, V = int(row[0]), int(row[1])
        main, error, normalized, density = (Fraction(Decimal(v)) for v in row[2:])
        # Both columns are rounded from the same midpoint: exact unless a tie.
        log.check(abs(V - main - error) < ulp, f"x={x}: error != V - main_term")
        log.check(abs(abs(error) / x ** (k - 1) - normalized) <= ulp,
                  f"x={x}: normalized_error != |error| / x^(k-1)")
        log.check(abs(density - Fraction(V, (2 * x + 1) ** k)) <= ulp / 2,
                  f"x={x}: density != V / (2x+1)^k")
        log.check(abs(float(density) - inv_zeta) < 8 / x,
                  f"x={x}: density {float(density)} not near 1/zeta({r * k})")
        log.check(abs(float(main) / (2 * x) ** k - inv_zeta) < 1e-12,
                  f"x={x}: main_term / (2x)^k not 1/zeta({r * k})")
    return rows


def check_umbral(log: CheckLog, row: list[str], r: int, k: int, table) -> None:
    """Recompute V at one row by the umbral (Bernoulli partial-sum) route;
    ``table`` is a MobiusTable reaching floor(x^(1/r))."""
    from rfree.umbral import umbral_eval

    x, V = int(row[0]), int(row[1])
    log.check(umbral_eval(x, r, k, table=table) == V, f"x={x}: V differs from umbral_eval")


def check_report(log: CheckLog, text: str, rows: list[list[str]], split: int) -> None:
    """The two-window ratio, recomputed from the scan rows."""
    fields = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    early = [abs(Decimal(row[4])) for row in rows if int(row[0]) < split]
    late = [abs(Decimal(row[4])) for row in rows if int(row[0]) >= split]
    if not log.check(bool(early and late), "report windows empty"):
        return
    with localcontext() as ctx:
        ctx.prec = 40
        ratio = max(late) / max(early)
    log.check(fields.get("split") == str(split), f"report split {fields.get('split')}")
    log.check(fields.get("max_early") == str(max(early)), "report max_early differs")
    log.check(fields.get("max_late") == str(max(late)), "report max_late differs")
    log.check(fields.get("ratio") == str(ratio), f"report ratio {fields.get('ratio')} != {ratio}")


# ---------------------------------------------------------------------------
# identity / witness / zeta
# ---------------------------------------------------------------------------

def check_identity(log: CheckLog, text: str, x_min: int, x_max: int) -> None:
    lines = text.splitlines()
    n = x_max - x_min + 1
    log.check(lines[:-1] == [f"x={x} equal" for x in range(x_min, x_max + 1)],
              f"identity {x_min}..{x_max}: not every x reported equal")
    log.check(lines[-1:] == [f"checked {n} values, 0 mismatches"],
              f"identity {x_min}..{x_max}: summary {lines[-1:]!r}")


_FRACTION = re.compile(r"^(-?\d+(?:/\d+)?)")


def parse_witness(text: str) -> list[dict[str, str]]:
    reports: list[dict[str, str]] = []
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if key == "x":
            reports.append({})
        if reports:
            reports[-1][key] = value
    return reports


def _exact(value: str | None) -> Fraction | None:
    # "a/b (-1.2e-03)" -> Fraction(a, b)
    match = _FRACTION.match(value or "")
    return Fraction(match.group(1)) if match else None


def integer_root(x: int, r: int) -> int:
    """floor(x^(1/r)) by Newton's method from above."""
    t = 1 << -(-x.bit_length() // r)
    while True:
        nt = ((r - 1) * t + x // t ** (r - 1)) // r
        if nt >= t:
            return t
        t = nt


def check_witness(log: CheckLog, text: str, xs: list[int]) -> list[dict[str, str]]:
    """Every verdict negative and upper_bound = finite_part + tail_bound < 0;
    return the parsed reports."""
    reports = parse_witness(text)
    log.check([rep.get("x") for rep in reports] == [str(x) for x in xs],
              f"witness x values differ from the {len(xs)} expected")
    for rep in reports:
        x = rep.get("x")
        finite, tail, upper = (_exact(rep.get(key)) for key in ("finite_part", "tail_bound", "upper_bound"))
        log.check(rep.get("verdict") == "negative", f"witness x={x}: verdict {rep.get('verdict')}")
        log.check(None not in (finite, tail, upper) and upper == finite + tail and upper < 0,
                  f"witness x={x}: upper_bound is not finite_part + tail_bound < 0")
    return reports


def check_witness_sum(
    log: CheckLog, report: dict[str, str], r: int, k: int, cutoff: int | None
) -> None:
    """Recompute one report's finite part with a trial-division Mobius
    function, over d <= min(cutoff, floor(x^(1/r)))."""
    x = int(report["x"])
    top = integer_root(x, r) if cutoff is None else min(cutoff, integer_root(x, r))
    log.check(_exact(report.get("finite_part")) == frac_part_sum(x, r, k, top),
              f"witness x={x}: finite_part differs from the recomputed sum")


def large_witnesses(r: int, count: int) -> list[int]:
    """x = 2^r - 1 (mod 2^r), x >= 3^r: the --large construction."""
    mod, start = 2**r, 3**r
    first = start + (mod - 1 - start) % mod
    return [first + i * mod for i in range(count)]


def small_witness(r: int, m: int) -> int:
    """m^2 * prod of p^r over the odd primes p < 100."""
    x = m * m
    for p in range(3, 100, 2):
        if all(p % q for q in range(3, p, 2)):
            x *= p**r
    return x


def check_zeta4(log: CheckLog, text: str, places: int) -> None:
    """zeta(4) = pi^4/90, to within the printed precision."""
    first = text.splitlines()[0] if text else ""
    prefix = "zeta(4) = "
    if not log.check(first.startswith(prefix), f"zeta output {first[:40]!r}"):
        return
    got = Fraction(Decimal(first[len(prefix):]))
    with localcontext() as ctx:
        ctx.prec = places + 20
        ref = Fraction(pi_decimal(places + 10) ** 4 / 90)
    log.check(abs(got - ref) <= Fraction(2, 10**places), "zeta(4) differs from pi^4/90")
