"""Command-line surface: count, jordan, partial-sum, identity, scan, witness,
zeta, report.

Each subcommand declares only the flags it reads. Those flags fall back to
RFREE_-prefixed environment variables (RFREE_PRECISION,
RFREE_ENUMERATION_BUDGET, RFREE_OUTPUT_FORMAT, RFREE_OUTPUT_PATH). main
picks the subcommand from COMMANDS and is the one place a failure becomes
an exit status: 0 iff every check in the invocation passed, 1 for a failed
check, budget, cross-check, read or write, 2 for a usage error. Exact
integers are always printed in full decimal, never scientific notation.
Each subcommand imports the rfree functions it runs, so that a process
loads only the modules its subcommand needs.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Iterator
from contextlib import nullcontext
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, ROUND_UP, Context, Decimal,
                     DecimalException, localcontext)
from itertools import chain
from operator import itemgetter

from .errors import EmptyWindowError, InvariantViolationError, ResourceLimitError

# the fields of each row lattice.count_rows yields, in order
CSV_COLUMNS = ["x", "V", "main_term", "error", "normalized_error", "density"]
OUTPUT_FORMATS = ("text", "csv", "json")
BLOCK_ROWS = 256  # pieces of output joined into one write after the first


def _env(name: str, default: str | None) -> str | None:
    return os.environ.get(f"RFREE_{name}", default)


def _parse_precision(text: str):
    from fractions import Fraction  # only the subcommands with --precision load it
    try:
        value = Fraction(Decimal(text))
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"bad precision {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("precision must be positive")
    return value


def _int_at_least(low: int, kind: str):
    def integer(text: str) -> int:  # argparse: "invalid integer value: 'abc'"
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text}")
        return value

    return integer


_pos_int, _nonneg_int = _int_at_least(1, "positive"), _int_at_least(0, "nonnegative")


def _finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


# ---------------------------------------------------------------------------
# Record rendering
# ---------------------------------------------------------------------------

def record_fields(rec) -> tuple[str, ...]:
    """The CSV/JSON projection of a lattice.CountRecord, in CSV_COLUMNS order: the
    count_rows row it keeps, exact integers in full decimal and high-precision
    values as fixed-point digits."""
    return rec.row


def _write_blocks(pieces, out) -> None:
    """Write the first piece of text at once, then the later pieces in
    blocks of BLOCK_ROWS. Pending pieces are written before an exception
    propagates."""
    pending, block = [], 1
    try:
        for piece in pieces:
            pending.append(piece)
            if len(pending) >= block:
                text, pending, block = "".join(pending), [], BLOCK_ROWS
                out.write(text)
    finally:
        if pending:
            out.write("".join(pending))


def records_to_csv(rows, out) -> None:
    """Write the header and the first row (CSV_COLUMNS fields) at once, then
    the later rows in blocks of BLOCK_ROWS lines, holding no more than one block."""
    # No field holds a comma, quote or newline, so these lines are csv.writer's
    # without its per-character quoting scan, which cost more than a row's digits.
    def lines():
        head = ",".join(CSV_COLUMNS) + "\n"
        for row in rows:
            yield head + ",".join(row) + "\n"
            head = ""
        if head:  # no row: the header alone
            yield head

    _write_blocks(lines(), out)


def records_to_json(rows, out) -> None:
    """Write the rows, tuples of CSV_COLUMNS fields, as json.dumps(dicts,
    indent=2) does, plus a newline: the first at once, then blocks of BLOCK_ROWS,
    holding no more than one block. A scan that fails part-way leaves the
    objects written so far, an array without its closing bracket."""
    from json.encoder import encode_basestring_ascii as quoted  # json.dumps's quoting

    # one object as json.dumps(list, indent=2) lays it out, fields left open
    layout = "{{\n    " + ",\n    ".join(f"{quoted(c)}: {{}}" for c in CSV_COLUMNS) + "\n  }}"

    def pieces():
        sep = "[\n  "
        for row in rows:
            yield sep + layout.format(*map(quoted, row))
            sep = ",\n  "
        yield "[]\n" if sep == "[\n  " else "\n]\n"

    _write_blocks(pieces(), out)


# A row as scan writes it: two integers, then four fixed-point decimals.
_SCAN_ROW = r"[0-9]+,[0-9]+(?:,-?[0-9]+\.[0-9]+){4}"  # compiled when report runs
# abs() at the default 28 digits and the ratio at 40, at any exponent
_ABS, _RATIO = (Context(prec=p, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[]) for p in (28, 40))


def parse_scan_csv(lines) -> Iterator[tuple]:
    """Yield a scan CSV's rows as ``lines`` are read: x and V as ints, then four
    decimal fields as text that float and Decimal read. A line loses its CR and
    LF and splits at commas, unquoted; blank lines are skipped. A header other
    than CSV_COLUMNS, or a row that is not six finite numbers, raises ValueError
    naming its line when it is reached, after the rows before it."""
    lines, scan_row = iter(lines), re.compile(_SCAN_ROW).fullmatch
    if (header := next(lines, None)) is not None:
        header = text.split(",") if (text := header.rstrip("\r\n")) else []
    if header != CSV_COLUMNS:
        raise ValueError(f"unexpected scan header {header!r}")
    for number, line in enumerate(lines, 2):
        text = line.rstrip("\r\n")
        if scan_row(text):
            x, V, main_term, error, normalized, density = text.split(",")
            yield int(x), int(V), main_term, error, normalized, density
        elif text:  # not as scan writes rows: read as int and Decimal read
            yield _checked_row(text, number)


def _checked_row(text: str, number: int) -> tuple:
    try:
        x, V, *fields = text.split(",")
        decimals = [Decimal(f) for f in fields]
        if len(decimals) != 4 or not all(map(Decimal.is_finite, decimals)):
            raise ValueError
        return (int(x), int(V), *map(str, decimals))
    except (DecimalException, ValueError):
        raise ValueError(
            f"scan CSV line {number} is not six finite numbers: {text!r}") from None


def window_ratio(pairs, split: int) -> tuple[Decimal, Decimal, Decimal]:
    """(max_early, max_late, ratio) over (x, normalized_error) pairs: the largest
    |normalized_error| with x < split and with x >= split, rounded half-even to 28
    digits (of equal maxima, the first), and max_late / max_early to 40, exactly at
    any exponent. EmptyWindowError if a window is empty."""
    maxima, floats = [None, None], [-1.0, -1.0]  # float() never reverses an order
    for x, value in pairs:
        side = x >= split
        if abs(float(value)) >= floats[side]:  # else |value| < maxima[side]
            v = _ABS.abs(Decimal(value))
            if maxima[side] is None or v > maxima[side]:
                maxima[side], floats[side] = v, float(v)
    early, late = maxima
    if early is None or late is None:
        raise EmptyWindowError("both scan windows must be nonempty")
    if not late:
        return early, late, Decimal(0) if early else Decimal(1)
    return early, late, _RATIO.divide(late, early) if early else Decimal("Infinity")


def _frac_sci(q, sig: int = 6, up: bool = False) -> str:
    """The Fraction q as d.dddddde+XX with ``sig`` digits after the point, rounded half
    to even from the exact rational: the text float formatting gives for
    every q a float holds exactly, without its underflow or overflow. With
    ``up``, q is rounded away from zero instead, so for q > 0 the text bounds q."""
    if q == 0:
        return "0"
    rounding = ROUND_UP if up else ROUND_HALF_EVEN
    with localcontext(Context(prec=sig + 1, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        digits, exp = f"{Decimal(q.numerator) / q.denominator:.{sig}e}".split("e")
    return f"{digits}e{int(exp):+03d}"


def _agreement(value, oracle) -> int:
    """Print whether the two routes agree; the exit status that implies."""
    print(f"agreement = {'true' if value == oracle else 'false'}")
    return 0 if value == oracle else 1


# ---------------------------------------------------------------------------
# Subcommands: each takes (args, parser) and returns its exit status
# ---------------------------------------------------------------------------

def _cmd_count(args, parser: argparse.ArgumentParser) -> int:
    from .lattice import CountParams, count_oracle, count_record

    params = CountParams(r=args.r, k=args.k, x=args.x)
    rec = count_record(params, args.precision)
    oracle = count_oracle(params, budget=args.budget) if args.oracle else None
    fields = record_fields(rec)
    if args.format != "text":
        (records_to_json if args.format == "json" else records_to_csv)([fields], sys.stdout)
        return 0 if oracle in (None, rec.V) else 1
    print(f"r={args.r} k={args.k} x={args.x}")
    for name, value in zip(CSV_COLUMNS[1:], fields[1:]):
        print(f"{name} = {value}")
    if oracle is None:
        return 0
    print(f"oracle = {oracle}")
    return _agreement(rec.V, oracle)


def _cmd_jordan(args, parser: argparse.ArgumentParser) -> int:
    from .jordan import TotientParams, jordan, jordan_oracle

    params = TotientParams(r=args.r, k=args.k)
    value = jordan(args.n, params)
    print(f"J(r={args.r}, k={args.k}, n={args.n}) = {value}")
    if not args.oracle:
        return 0
    oracle = jordan_oracle(args.n, params, budget=args.budget)
    print(f"oracle = {oracle}")
    return _agreement(value, oracle)


def _cmd_partial_sum(args, parser: argparse.ArgumentParser) -> int:
    from .jordan import TotientParams, partial_sum_bernoulli, partial_sum_direct

    params = TotientParams(r=args.r, k=args.k)
    values = {}
    if args.method in ("direct", "both"):
        values["direct"] = partial_sum_direct(args.x, params)
    if args.method in ("bernoulli", "both"):
        values["bernoulli"] = partial_sum_bernoulli(args.x, params)
    for name, value in values.items():
        print(f"{name} = {value}")
    return _agreement(*values.values()) if len(values) == 2 else 0


def _cmd_identity(args, parser: argparse.ArgumentParser) -> int:
    from .umbral import identity_range

    mismatches = 0

    def lines():
        nonlocal mismatches
        for check in identity_range(args.r, args.k, args.x_min, args.x_max):
            if check.equal:
                yield f"x={check.x} equal\n"
            else:
                mismatches += 1
                yield (f"x={check.x} MISMATCH umbral={check.umbral} fast={check.fast}"
                       f" zero_split={check.zero_split}\n")
        yield f"checked {args.x_max - args.x_min + 1} values, {mismatches} mismatches\n"

    _write_blocks(lines(), sys.stdout)
    return 1 if mismatches else 0


def _cmd_scan(args, parser: argparse.ArgumentParser) -> int:
    from .lattice import scan_rows

    rows = scan_rows(args.r, args.k, args.x_min, args.x_max, args.step, args.precision)
    # Drawing the first row checks the arguments before any output.
    rows = chain([next(rows)], rows)
    render = records_to_json if args.format == "json" else records_to_csv
    if args.output is None:
        render(rows, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as out:
            render(rows, out)
    return 0


def _certificate(rep, target: str | None) -> list[str]:
    """The lines of one omega.WitnessReport; ``target``, its target_bound's
    text, is the same for every report of a list."""
    finite = f"{rep.finite_part} ({_frac_sci(rep.finite_part)})"
    # with no tail the upper bound is the finite part
    upper = f"{rep.upper_bound} ({_frac_sci(rep.upper_bound)})" if rep.tail_bound else finite
    lines = [f"x = {rep.x}", f"finite_part = {finite}",
             f"tail_bound = {rep.tail_bound} ({_frac_sci(rep.tail_bound)})",
             f"upper_bound = {upper}", f"verdict = {rep.verdict}"]
    if rep.target_bound is not None:
        lines.append(
            f"target_bound = {target}"
            f" met = {'true' if rep.upper_bound < rep.target_bound else 'false'}"
        )
    return lines


def _cmd_witness(args, parser: argparse.ArgumentParser) -> int:
    from .omega import certify_witnesses, witness_large, witness_small

    if args.large == args.small:
        parser.error("choose exactly one of --large / --small")
    if args.large:
        if args.r is None or args.k is None:
            parser.error("--large requires --r and --k")
        xs, k, cutoff = witness_large(args.r, args.k, args.count), args.k, args.cutoff
    else:
        if args.r is None or args.m is None:
            parser.error("--small requires --r and --m")
        xs, k, cutoff = [witness_small(args.r, args.m)], 1, args.cutoff or 100
    inconclusive = 0

    def lines():
        nonlocal inconclusive
        target = None
        for rep in certify_witnesses(xs, args.r, k, cutoff):
            inconclusive += not rep.negative
            if target is None and rep.target_bound is not None:
                target = f"{rep.target_bound} ({_frac_sci(rep.target_bound)})"
            for line in _certificate(rep, target):
                yield line + "\n"

    _write_blocks(lines(), sys.stdout)
    return 1 if inconclusive else 0


def _cmd_zeta(args, parser: argparse.ArgumentParser) -> int:
    from .arith import decimal_places, format_fraction, zeta_value

    places = decimal_places(args.precision)
    z = zeta_value(args.s, args.precision)
    print(f"zeta({args.s}) = {format_fraction(z.mid, places)}")
    print(f"error_radius <= {_frac_sci(z.radius, up=True)}")
    print(f"depth = {z.depth}")
    return 0


def _cmd_report(args, parser: argparse.ArgumentParser) -> int:
    # Rows are parsed and folded one at a time, so a bad row (exit 2) or an
    # empty window (EmptyWindowError, exit 1) is found before any output.
    try:
        with (open(args.input, "r", encoding="utf-8") if args.input
              else nullcontext(sys.stdin)) as fh:
            pairs = map(itemgetter(0, 4), parse_scan_csv(fh))  # x, normalized_error
            max_early, max_late, ratio = window_ratio(pairs, args.split)
    except OSError as exc:  # a failed read names what was read
        exc.filename = exc.filename or args.input or "<stdin>"
        raise
    print(f"split = {args.split}")
    print(f"max_early = {max_early}")
    print(f"max_late = {max_late}")
    print(f"ratio = {ratio}")
    if args.min_ratio is not None and ratio < Decimal(str(args.min_ratio)):
        print(f"ratio below threshold {args.min_ratio}", file=sys.stderr)
        return 1
    return 0


COMMANDS = {
    "count": _cmd_count,
    "jordan": _cmd_jordan,
    "partial-sum": _cmd_partial_sum,
    "identity": _cmd_identity,
    "scan": _cmd_scan,
    "witness": _cmd_witness,
    "zeta": _cmd_zeta,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Flags read by some subcommands; an unset flag takes its RFREE_ variable,
# which argparse then parses like the flag's own text.

def _add_precision(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--precision", type=_parse_precision,
                     default=_env("PRECISION", "1e-30"),
                     help="zeta enclosure target (default 1e-30, env RFREE_PRECISION)")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--budget", type=_pos_int,
                     default=_env("ENUMERATION_BUDGET", str(10**8)),
                     help="enumeration budget in tuples (default 1e8, "
                          "env RFREE_ENUMERATION_BUDGET)")


def _add_format(sub: argparse.ArgumentParser, default: str, note: str = "") -> None:
    sub.add_argument("--format", choices=OUTPUT_FORMATS,
                     default=_env("OUTPUT_FORMAT", default),
                     help=f"output format{note} (default {default}, env RFREE_OUTPUT_FORMAT)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfree",
        description="Exact counts of relatively r-prime k-tuples, generalized "
        "Jordan totients, and error-term diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="V, main term, and error at one (r, k, x)")
    p.add_argument("--r", type=_pos_int, required=True)
    p.add_argument("--k", type=_pos_int, required=True)
    p.add_argument("--x", type=_pos_int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also enumerate the box and check agreement")
    _add_precision(p)
    _add_budget(p)
    _add_format(p, "text")

    p = sub.add_parser("jordan", help="generalized Jordan totient at one n")
    p.add_argument("--n", type=_pos_int, required=True)
    p.add_argument("--r", type=_pos_int, required=True)
    p.add_argument("--k", type=_nonneg_int, required=True)
    p.add_argument("--oracle", action="store_true")
    _add_budget(p)

    p = sub.add_parser("partial-sum", help="sum of J_{k-1}^r(n) for n <= x")
    p.add_argument("--x", type=_nonneg_int, required=True)
    p.add_argument("--r", type=_pos_int, required=True)
    p.add_argument("--k", type=_pos_int, required=True)
    p.add_argument("--method", choices=("direct", "bernoulli", "both"), default="both")

    p = sub.add_parser("identity", help="check the polynomial identity on 0..x_max")
    p.add_argument("--r", type=_pos_int, required=True)
    p.add_argument("--k", type=_pos_int, required=True)
    p.add_argument("--x-max", dest="x_max", type=_nonneg_int, required=True)
    p.add_argument("--x-min", dest="x_min", type=_nonneg_int, default=0)

    p = sub.add_parser("scan", help="count rows (V, main term, error) over an x range")
    p.add_argument("--r", type=_pos_int, required=True)
    p.add_argument("--k", type=_pos_int, required=True)
    p.add_argument("--x-min", dest="x_min", type=_pos_int, required=True)
    p.add_argument("--x-max", dest="x_max", type=_pos_int, required=True)
    p.add_argument("--step", type=_pos_int, default=1)
    _add_precision(p)
    _add_format(p, "csv", "; text prints CSV")
    p.add_argument("--output", default=_env("OUTPUT_PATH", None) or None,
                   help="write output to this path (env RFREE_OUTPUT_PATH)")
    p.add_argument("--workers", type=_pos_int, default=None,
                   help="accepted and ignored: a scan runs in one process")

    p = sub.add_parser("witness", help="certified negativity at constructed witnesses")
    p.add_argument("--large", action="store_true", help="r >= 2, r*k >= 4 branch")
    p.add_argument("--small", action="store_true", help="(r, k) in {(2,1), (3,1)} branch")
    p.add_argument("--r", type=_pos_int)
    p.add_argument("--k", type=_pos_int)
    p.add_argument("--m", type=_pos_int)
    p.add_argument("--count", type=_pos_int, default=5)
    p.add_argument("--cutoff", type=_pos_int, default=None,
                   help="truncation cutoff D (default: exact for --large, 100 for --small; "
                        "--small certifies -1/20 for r=2 only from about D=1000, "
                        "and never for r=3)")

    p = sub.add_parser("zeta", help="zeta(s) with rigorous error radius")
    p.add_argument("--s", type=_pos_int, required=True)
    _add_precision(p)

    p = sub.add_parser("report", help="two-window non-decay ratio from a scan CSV")
    p.add_argument("--split", type=_pos_int, required=True)
    p.add_argument("--input", default=None, help="scan CSV path (default: stdin)")
    p.add_argument("--min-ratio", dest="min_ratio", type=_finite_float, default=None)

    return parser


def _release_stdout() -> None:
    """After a failed read or write: if stdout still holds text it cannot
    take, point it at devnull, so the flush at exit neither fails nor prints."""
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    """The one dispatch point, and the one place an exception becomes an
    exit status: 1 for a budget, a failed cross-check or a failed read or
    write, 2 for a bad argument."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", "text") not in OUTPUT_FORMATS:  # argparse checks only flags
        parser.error(f"invalid RFREE_OUTPUT_FORMAT {args.format!r}")
    # Exact integers are printed and parsed in full: lift Python's cap on
    # int <-> str digits (4300 by default, absent before 3.10.7) until return.
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_cap:
        sys.set_int_max_str_digits(0)
    try:
        try:
            return COMMANDS[args.command](args, parser)
        finally:
            sys.stdout.flush()  # a buffered write fails here, not at exit
    except (ResourceLimitError, InvariantViolationError, EmptyWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # the reader closed stdout: quiet
            if exc.filename is None:  # a failed write: name the stream written
                exc.filename = getattr(args, "output", None) or "<stdout>"
            print(f"error: {exc}", file=sys.stderr)
        _release_stdout()
        return 1
    finally:
        if digit_cap:
            sys.set_int_max_str_digits(digit_cap)


if __name__ == "__main__":
    sys.exit(main())
